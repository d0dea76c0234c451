// Package loopscan implements the Section VI routing-loop measurement:
// the h / h+2 hop-limit probe pair that confirms a forwarding loop, the
// window sweeps over ISP blocks and BGP-advertised prefixes, and the
// amplification accounting of the attack itself.
package loopscan

import (
	"fmt"

	"repro/internal/ipv6"
	"repro/internal/netsim"
	"repro/internal/perm"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/internal/xmap"
)

// DefaultHopLimit is the probe hop limit h. The paper selects 32: large
// enough to cross the Internet (Yarrp6's fill-mode data shows all paths
// <32), small enough to bound the loop traffic a probe induces.
const DefaultHopLimit = 32

// MaxHopLimit is the largest usable h: its h+2 confirmation probe must
// still fit the 8-bit hop limit field.
const MaxHopLimit = wire.MaxHopLimit - 2

// CheckHopLimit rejects a probe hop limit h outside [1, MaxHopLimit]: a
// probe at hop limit 0 is invalid, and above MaxHopLimit the h+2
// confirmation probe would wrap around.
func CheckHopLimit(h int) error {
	if h < 1 || h > MaxHopLimit {
		return fmt.Errorf("loopscan: hop limit %d out of [1,%d]", h, MaxHopLimit)
	}
	return nil
}

// Verdict classifies one probed address.
type Verdict int

// Verdicts.
const (
	VerdictSilent      Verdict = iota + 1 // no response
	VerdictUnreachable                    // healthy: destination unreachable
	VerdictLoop                           // confirmed: time exceeded twice from one device
	VerdictTransient                      // time exceeded once, unconfirmed
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictSilent:
		return "silent"
	case VerdictUnreachable:
		return "unreachable"
	case VerdictLoop:
		return "loop"
	case VerdictTransient:
		return "transient"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// CheckResult is the outcome for one target address.
type CheckResult struct {
	Target    ipv6.Addr
	Responder ipv6.Addr
	Verdict   Verdict
}

// checkWindow and checkSeed key the validation values of CheckAddr
// calls made outside a sweep: /128 sub-prefixes bind each value to the
// exact probed address.
var (
	checkWindow = ipv6.Window{To: 128}
	checkSeed   = []byte("loopscan")
)

// Detector probes for loops through a scan driver, on the scanner's
// probe path: targets and validation values come from an
// xmap.Derivation, probes are built and replies validated by
// xmap.ICMPEchoProbe, and drained buffers go back to a Releaser driver.
// A Detector is not safe for concurrent use: probes share one reused
// buffer, reply decoder and derivation cache.
type Detector struct {
	drv xmap.PacketDriver
	rel xmap.Releaser // drv's Releaser capability, if any
	// HopLimit is h (default DefaultHopLimit), in [1, MaxHopLimit].
	HopLimit uint8
	// Tel, when set, counts probes, responses and confirmed loops into a
	// telemetry shard (loop.* counters). Nil detaches instrumentation.
	Tel *telemetry.Shard

	// der keys the validation values: the current window's derivation
	// during ScanWindows, the checkWindow one otherwise. hop is the
	// outstanding probe's hop limit, folded into its validation value so
	// a target's h and h+2 probes differ on the wire and a reply to one
	// never confirms the other. validate is the bound validation method,
	// constructed once.
	der      xmap.Derivation
	hop      uint32
	validate xmap.Validator
	// echo holds the h and h+2 probe modules (one each, so neither's
	// cached probe image is rebuilt per target); buf is the reused probe
	// buffer and sum the reused reply decoder.
	echo [2]xmap.ICMPEchoProbe
	buf  []byte
	sum  wire.Summary
}

// NewDetector creates a detector.
func NewDetector(drv xmap.PacketDriver) *Detector {
	d := &Detector{
		drv:      drv,
		HopLimit: DefaultHopLimit,
		der:      xmap.NewDerivation(checkWindow, checkSeed),
	}
	d.rel, _ = drv.(xmap.Releaser)
	d.validate = d.validation
	return d
}

// validation is the value a probe to dst at the outstanding hop limit
// carries in its echo id and sequence.
func (d *Detector) validation(dst ipv6.Addr) uint32 { return d.der.Validation(dst) ^ d.hop }

// probe sends one echo request to dst through echo and returns the
// first reply that validates against it — an error quoting this probe,
// or an echo reply from dst itself. Every drained buffer goes back to a
// Releaser driver.
func (d *Detector) probe(echo *xmap.ICMPEchoProbe, dst ipv6.Addr) (resp xmap.Response, ok bool, err error) {
	d.hop = uint32(echo.HopLimit)
	d.buf, err = echo.AppendProbe(d.buf, d.drv.SourceAddr(), dst, d.validate(dst))
	if err != nil {
		return resp, false, err
	}
	if err := d.drv.Send(d.buf); err != nil {
		return resp, false, err
	}
	d.Tel.Inc(telemetry.LoopProbes)
	rx := d.drv.Recv()
	for _, raw := range rx {
		if d.sum.Parse(raw) != nil {
			continue
		}
		// The validation value is bound to dst's sub-prefix, so a reply
		// about another address in it must not count for this probe.
		if r, valid := echo.Classify(&d.sum, d.validate); valid && r.ProbeDst == dst {
			resp, ok = r, true
			break
		}
	}
	if d.rel != nil && len(rx) > 0 {
		d.rel.Release(rx)
	}
	return resp, ok, nil
}

// CheckAddr applies the paper's method to one address: a Time Exceeded
// reply to hop limit h, confirmed by a second Time Exceeded from the
// same device at h+2, proves a loop (a linear path would have delivered
// or erred identically at both hop limits only from the same distance —
// the +2 step keeps loop parity so the same device answers).
func (d *Detector) CheckAddr(dst ipv6.Addr) (CheckResult, error) {
	res := CheckResult{Target: dst, Verdict: VerdictSilent}
	if err := CheckHopLimit(int(d.HopLimit)); err != nil {
		return res, err
	}
	d.echo[0].HopLimit, d.echo[1].HopLimit = d.HopLimit, d.HopLimit+2
	first, ok, err := d.probe(&d.echo[0], dst)
	if err != nil || !ok {
		return res, err
	}
	d.Tel.Inc(telemetry.LoopResponses)
	res.Responder = first.Responder
	if first.Kind != xmap.KindTimeExceeded {
		res.Verdict = VerdictUnreachable
		return res, nil
	}
	second, ok, err := d.probe(&d.echo[1], dst)
	if err != nil {
		return res, err
	}
	if ok {
		d.Tel.Inc(telemetry.LoopResponses)
	}
	if ok && second.Kind == xmap.KindTimeExceeded && second.Responder == first.Responder {
		res.Verdict = VerdictLoop
		d.Tel.Inc(telemetry.LoopConfirmed)
		return res, nil
	}
	res.Verdict = VerdictTransient
	return res, nil
}

// HopInfo is the aggregated view of one observed last hop.
type HopInfo struct {
	Addr ipv6.Addr
	// Vulnerable is set if any probe through this hop confirmed a loop.
	Vulnerable bool
	// SameCount/DiffCount split targets by /64 equality with the hop
	// (Table XI's same/diff columns).
	SameCount, DiffCount int
}

// ScanResult aggregates a loop sweep.
type ScanResult struct {
	Targets   uint64
	Responses uint64
	Hops      map[ipv6.Addr]*HopInfo
}

// VulnerableHops returns the hops with confirmed loops.
func (r *ScanResult) VulnerableHops() []*HopInfo {
	var out []*HopInfo
	for _, h := range r.Hops {
		if h.Vulnerable {
			out = append(out, h)
		}
	}
	return out
}

// ScanWindows sweeps each window: every sub-prefix probed once at a
// pseudo-random host address, loop-checked per CheckAddr. The sweep key
// "loop-"+seed drives both the permutation and the per-window
// xmap.Derivation of targets and validation values.
func (d *Detector) ScanWindows(windows []ipv6.Window, seed []byte) (*ScanResult, error) {
	res := &ScanResult{Hops: make(map[ipv6.Addr]*HopInfo)}
	key := append([]byte("loop-"), seed...)
	defer func(outside xmap.Derivation) { d.der = outside }(d.der)
	for _, w := range windows {
		size, ok := w.Size()
		if !ok {
			return nil, fmt.Errorf("loopscan: window %s too large", w)
		}
		cycle, err := perm.NewCycle(size, key)
		if err != nil {
			return nil, fmt.Errorf("loopscan: permutation for %s: %w", w, err)
		}
		d.der = xmap.NewDerivation(w, key)
		it := cycle.Iterate()
		for {
			idx, ok := it.Next()
			if !ok {
				break
			}
			dst, err := d.der.TargetFor(idx)
			if err != nil {
				return nil, err
			}
			res.Targets++
			cr, err := d.CheckAddr(dst)
			if err != nil {
				return nil, err
			}
			if cr.Verdict == VerdictSilent {
				continue
			}
			res.Responses++
			hop := res.Hops[cr.Responder]
			if hop == nil {
				hop = &HopInfo{Addr: cr.Responder}
				res.Hops[cr.Responder] = hop
			}
			if cr.Verdict == VerdictLoop {
				hop.Vulnerable = true
			}
			if cr.Responder.Prefix64() == dst.Prefix64() {
				hop.SameCount++
			} else {
				hop.DiffCount++
			}
		}
	}
	return res, nil
}

// AmplificationResult quantifies one attack packet's effect.
type AmplificationResult struct {
	// LinkPackets is how many packets the victim access link carried.
	LinkPackets uint64
	// LinkBytes is the byte volume on that link.
	LinkBytes uint64
	// Factor is packets carried per attacker packet sent.
	Factor float64
}

// MeasureAmplification sends a single maximum-hop-limit packet to dst and
// reports the traffic it induced on the victim link — the paper's ">200"
// amplification factor measurement (Section VI-A: each packet traverses
// the ISP-CPE link 255-n times).
func MeasureAmplification(drv xmap.PacketDriver, dst ipv6.Addr, victim *netsim.Link) (AmplificationResult, error) {
	return flood(drv, drv.SourceAddr(), []ipv6.Addr{dst}, 1, victim, 0xa77a0001)
}

// MeasureAmplificationSpoofed repeats the measurement with a spoofed
// source address that itself falls in a looping prefix: the terminal
// Time Exceeded error is then routed back into the loop and ping-pongs a
// second time, "doubling the loop times" as Section VI-A notes for ASes
// without source address validation.
func MeasureAmplificationSpoofed(drv xmap.PacketDriver, dst, spoofedSrc ipv6.Addr, victim *netsim.Link) (AmplificationResult, error) {
	return flood(drv, spoofedSrc, []ipv6.Addr{dst}, 1, victim, 0xa77b0001)
}

type linkCounters struct{ pkts, bytes uint64 }

func snapshot(l *netsim.Link) linkCounters {
	a := l.StatsFrom(l.Ends()[0])
	b := l.StatsFrom(l.Ends()[1])
	return linkCounters{pkts: a.Packets + b.Packets, bytes: a.Bytes + b.Bytes}
}

// Attack floods count crafted packets at the targets in round-robin,
// returning the total victim-link traffic — the DoS scenario of Figure 4
// driven at volume. Research use against one's own simulated network
// only; the real-world counterpart is precisely what the paper discloses
// as a vulnerability.
func Attack(drv xmap.PacketDriver, targets []ipv6.Addr, count int, victim *netsim.Link) (AmplificationResult, error) {
	if len(targets) == 0 || count <= 0 {
		return AmplificationResult{}, fmt.Errorf("loopscan: nothing to send")
	}
	return flood(drv, drv.SourceAddr(), targets, count, victim, 0)
}

// flood sends count maximum-hop-limit echo requests from src to the
// targets in round-robin, the i-th carrying echo id/seq val+i, and
// discards every reply (handing the buffers back to a Releaser driver).
// It reports the victim-link traffic per packet sent.
func flood(drv xmap.PacketDriver, src ipv6.Addr, targets []ipv6.Addr, count int, victim *netsim.Link, val uint32) (AmplificationResult, error) {
	rel, _ := drv.(xmap.Releaser)
	echo := xmap.ICMPEchoProbe{HopLimit: wire.MaxHopLimit}
	var buf []byte
	before := snapshot(victim)
	for i := 0; i < count; i++ {
		var err error
		buf, err = echo.AppendProbe(buf, src, targets[i%len(targets)], val+uint32(i))
		if err != nil {
			return AmplificationResult{}, err
		}
		if err := drv.Send(buf); err != nil {
			return AmplificationResult{}, err
		}
		if rx := drv.Recv(); rel != nil && len(rx) > 0 {
			rel.Release(rx)
		}
	}
	after := snapshot(victim)
	res := AmplificationResult{
		LinkPackets: after.pkts - before.pkts,
		LinkBytes:   after.bytes - before.bytes,
	}
	res.Factor = float64(res.LinkPackets) / float64(count)
	return res, nil
}
