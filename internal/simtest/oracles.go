package simtest

import (
	"fmt"
	"math/rand"

	"repro/internal/ipv6"
	"repro/internal/lpm"
	"repro/internal/uint128"
	"repro/internal/xmap"
)

// recordingDriver wraps an xmap.Driver and records every probe's
// destination address, feeding the route-lookup differential oracle
// with exactly the addresses a real scan resolved.
type recordingDriver struct {
	xmap.Driver
	dsts []ipv6.Addr
}

func (d *recordingDriver) SendBatch(pkts [][]byte) (int, error) {
	for _, pkt := range pkts {
		if len(pkt) >= 40 && pkt[0]>>4 == 6 {
			d.dsts = append(d.dsts, ipv6.AddrFrom128(uint128.FromBytes(pkt[24:40])))
		}
	}
	return d.Driver.SendBatch(pkts)
}

// DiffRouteLookups runs every query address through an LPM trie and the
// linear reference table loaded with the same routes, and reports any
// disagreement — the trie-vs-linear differential oracle over a scan's
// actual probe destinations.
func DiffRouteLookups(routes []Route, queries []ipv6.Addr) []string {
	trie := lpm.New[string]()
	lin := lpm.NewLinear[string]()
	for _, r := range routes {
		trie.Insert(r.Prefix, r.Label)
		lin.Insert(r.Prefix, r.Label)
	}
	var problems []string
	if trie.Len() != lin.Len() {
		problems = append(problems, fmt.Sprintf("route table sizes differ: trie %d, linear %d", trie.Len(), lin.Len()))
	}
	for _, a := range queries {
		tp, tv, tok := trie.LookupPrefix(a)
		lp, lv, lok := lin.LookupPrefix(a)
		if tok != lok || tp != lp || tv != lv {
			problems = append(problems, fmt.Sprintf(
				"route lookup diverges for %s: trie (%s,%q,%v) vs linear (%s,%q,%v)",
				a, tp, tv, tok, lp, lv, lok))
		}
	}
	return problems
}

// RandomRouteOracle drives the trie and the linear table through the
// same seeded random insert/remove/query workload and diffs every
// answer.
func RandomRouteOracle(seed int64) []string {
	rng := rand.New(rand.NewSource(seed ^ 0x10e7a8))
	trie := lpm.New[int]()
	lin := lpm.NewLinear[int]()
	var problems []string

	randAddr := func() ipv6.Addr {
		return ipv6.AddrFrom128(uint128.New(rng.Uint64(), rng.Uint64()))
	}
	var inserted []ipv6.Prefix
	for i := 0; i < 96; i++ {
		p, err := ipv6.NewPrefix(randAddr(), 8+rng.Intn(113))
		if err != nil {
			problems = append(problems, fmt.Sprintf("prefix construction: %v", err))
			continue
		}
		trie.Insert(p, i)
		lin.Insert(p, i)
		inserted = append(inserted, p)
	}
	for i := 0; i < 24 && len(inserted) > 0; i++ {
		p := inserted[rng.Intn(len(inserted))]
		tr, lr := trie.Remove(p), lin.Remove(p)
		if tr != lr {
			problems = append(problems, fmt.Sprintf("Remove(%s) diverges: trie %v, linear %v", p, tr, lr))
		}
	}
	if trie.Len() != lin.Len() {
		problems = append(problems, fmt.Sprintf("Len diverges: trie %d, linear %d", trie.Len(), lin.Len()))
	}
	for _, p := range inserted {
		tv, tok := trie.Exact(p)
		lv, lok := lin.Exact(p)
		if tok != lok || tv != lv {
			problems = append(problems, fmt.Sprintf("Exact(%s) diverges: trie (%d,%v), linear (%d,%v)", p, tv, tok, lv, lok))
		}
	}
	var queries []ipv6.Addr
	for i := 0; i < 128; i++ {
		queries = append(queries, randAddr())
	}
	// Half the queries land inside installed prefixes so matches are
	// exercised, not just misses.
	for i := 0; i < 128 && len(inserted) > 0; i++ {
		p := inserted[rng.Intn(len(inserted))]
		host := uint128.New(rng.Uint64(), rng.Uint64())
		if p.Bits() < 128 {
			host = host.And(uint128.Max.Rsh(uint(p.Bits())))
		} else {
			host = uint128.Zero
		}
		queries = append(queries, ipv6.AddrFrom128(p.Addr().Uint128().Or(host)))
	}
	for _, a := range queries {
		tp, tv, tok := trie.LookupPrefix(a)
		lp, lv, lok := lin.LookupPrefix(a)
		if tok != lok || tp != lp || tv != lv {
			problems = append(problems, fmt.Sprintf(
				"random lookup diverges for %s: trie (%s,%d,%v) vs linear (%s,%d,%v)",
				a, tp, tv, tok, lp, lv, lok))
		}
	}
	return problems
}

func appendPrefixed(dst []string, prefix string, src []string) []string {
	for _, s := range src {
		dst = append(dst, prefix+s)
	}
	return dst
}
