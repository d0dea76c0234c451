package netsim

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/ipv6"
	"repro/internal/wire"
)

// TestFlowEntryLayout pins the hot/cold entry split the batched resolve
// pass depends on: the hot header — everything the lookup guards and
// the replay dispatch read — must be exactly one 64-byte cache line, so
// a resolve run touches one tag word and one hot line per probe and
// nothing else until the probe is known to replay. The compile-time
// assertions in flowcache.go enforce the same bound; this test exists
// to name the failure when a field lands in the wrong half.
func TestFlowEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(flowHot{}); got != flowHotSize {
		t.Errorf("flowHot is %d bytes, want %d (one cache line)", got, flowHotSize)
	}
	if flowHotSize != 64 {
		t.Errorf("flowHotSize = %d, want 64", flowHotSize)
	}
	if a := unsafe.Alignof(flowHot{}); flowHotSize%a != 0 {
		t.Errorf("flowHot alignment %d does not pack line-aligned arrays", a)
	}
}

// TestFlowCacheTagCollisionProperty is the tag-prefilter soundness
// property: a colliding tag — the 8-byte prefilter word matching a
// probe whose flow the slot does not hold — may cost a wasted hot-line
// load, but must never produce a wrong hit. The test plants forged tags
// in the exact probe windows random destinations hash to, over live
// slots holding other flows, and verifies every lookup result still
// genuinely covers the destination.
func TestFlowCacheTagCollisionProperty(t *testing.T) {
	n := buildTestNet(t, CPEBehavior{}, ErrorPolicy{})
	for i, dst := range []ipv6.Addr{
		wanAddr, lanHost,
		ipv6.MustParseAddr("2001:db8:aaaa:bbbb::1"),
		ipv6.MustParseAddr("2001:db8:cccc::99"),
	} {
		pkt, err := wire.BuildEchoRequest(scannerAddr, dst, 64, 0xbeef, uint16(i+1), nil)
		if err != nil {
			t.Fatal(err)
		}
		n.eng.Inject(n.scanner.Iface(), pkt)
	}
	fp := &n.eng.fp
	if fp.tags == nil || fp.nWidths == 0 {
		t.Fatal("no compiled flows to collide with")
	}
	var ifid uint32
	for j := range fp.tags {
		if fp.tags[j] != 0 && fp.hot[j].gen == fp.gen {
			ifid = fp.hot[j].ifid
			break
		}
	}
	if ifid == 0 {
		t.Fatal("no live entry found")
	}

	rng := rand.New(rand.NewSource(7))
	wrong := func(s *flowHot, cold *flowCold, hi, lo uint64) bool {
		if s.gen != fp.gen || s.ifid != ifid {
			return true
		}
		if hi&fpMask(s.width) != s.hi {
			return true
		}
		if !s.wide() {
			return s.width != 64 || s.lo != lo
		}
		// A wide region hit must not sit in a hole or exclusion.
		return s.nExcl|s.nHole != 0 && shadowed(s, cold, hi, lo)
	}
	for trial := 0; trial < 5000; trial++ {
		hi, lo := rng.Uint64(), rng.Uint64()
		w := fp.widths[rng.Intn(int(fp.nWidths))]
		h := slotHash(ifid, w, hi&fpMask(w))
		j := (h + uint64(rng.Intn(fpProbe))) & fp.mask
		tag := fpTagWide(h)
		if w == 64 && rng.Intn(2) == 0 {
			tag = fpTagExact(h, lo)
		}
		old := fp.tags[j]
		fp.tags[j] = tag
		if got := fp.lookup(ifid, hi, lo); got >= 0 {
			if wrong(&fp.hot[got], &fp.cold[got], hi, lo) {
				t.Fatalf("trial %d: forged tag %#x at slot %d made lookup(%#x, %#x) return slot %d holding width=%d hi=%#x",
					trial, tag, j, hi, lo, got, fp.hot[got].width, fp.hot[got].hi)
			}
		}
		fp.tags[j] = old
	}
}

// TestFlowCacheEvictsNarrowestRegion pins the eviction policy at the
// slot cap: an insert into a probe window full of live entries
// overwrites the entry with the longest key width, so a wide claim
// that serves a whole block outlives the single-cell entries around it
// and FastPathEvictions counts the overwrite.
func TestFlowCacheEvictsNarrowestRegion(t *testing.T) {
	fp := flowCache{enabled: true, gen: 1}
	fp.tags = make([]uint64, fpProbe)
	fp.hot = make([]flowHot, fpProbe)
	fp.cold = make([]flowCold, fpProbe)
	fp.mask = fpProbe - 1
	widths := [fpProbe]uint8{25, 64, 60, 33}
	for j, w := range widths {
		fp.tags[j] = 1
		fp.hot[j] = flowHot{gen: fp.gen, width: w, ifid: 9, flags: fpFlagWide}
	}
	j := fp.place(&flowHot{ifid: 1, width: 56, hi: 0xabcd << 48, flags: fpFlagWide}, &flowCold{})
	if j != 1 {
		t.Errorf("evicted slot %d (width %d), want slot 1 (width 64)", j, widths[j])
	}
	for k, w := range widths {
		if k != j && fp.hot[k].width != w {
			t.Errorf("slot %d changed from width %d to %d", k, w, fp.hot[k].width)
		}
	}
	if fp.evictions != 1 {
		t.Errorf("evictions = %d, want 1", fp.evictions)
	}
}
