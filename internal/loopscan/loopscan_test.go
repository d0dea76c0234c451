package loopscan

import (
	"fmt"
	"testing"

	"repro/internal/ipv6"
	"repro/internal/topo"
	"repro/internal/uint128"
	"repro/internal/wire"
	"repro/internal/xmap"
)

// targetIn derives the pseudo-random host address a sweep keyed with
// seed probes inside p: p is sub-prefix 0 or 1 of its parent.
func targetIn(p ipv6.Prefix, seed []byte) ipv6.Addr {
	parent, err := ipv6.NewPrefix(p.Addr(), p.Bits()-1)
	if err != nil {
		panic(err)
	}
	idx := uint128.Zero
	if parent.Addr() != p.Addr() {
		idx = uint128.One
	}
	der := xmap.NewDerivation(ipv6.Window{Base: parent, To: p.Bits()}, seed)
	a, err := der.TargetFor(idx)
	if err != nil {
		panic(err)
	}
	return a
}

// notUsedTarget derives, from seed, a pseudo-random address in dev's
// delegation outside its WAN /64 and in-use subnets: the Not-used
// Prefix space a VulnLAN device loops on.
func notUsedTarget(dev *topo.Device, seed string) ipv6.Addr {
	for i := 0; ; i++ {
		a := targetIn(dev.CPE.Delegated(), []byte(fmt.Sprintf("%s-%d", seed, i)))
		inUse := a.Prefix64() == dev.WANAddr.Prefix64()
		for _, s := range dev.CPE.Subnets() {
			inUse = inUse || s.Contains(a)
		}
		if !inUse {
			return a
		}
	}
}

// fixture builds China Unicom broadband — the ISP with the highest loop
// rate (78.9% of last hops, Table XI).
func fixture(t *testing.T) (*topo.Deployment, *Detector) {
	t.Helper()
	dep, err := topo.Build(topo.Config{
		Seed: 41, Scale: 0.0001, WindowWidth: 10,
		MaxDevicesPerISP: 120, OnlyISPs: []int{12},
	})
	if err != nil {
		t.Fatal(err)
	}
	return dep, NewDetector(xmap.NewSimDriver(dep.Engine, dep.Edge))
}

func TestCheckAddrVerdicts(t *testing.T) {
	dep, det := fixture(t)
	var vulnDev, safeDev *topo.Device
	for _, d := range dep.ISPs[0].Devices {
		if d.VulnLAN && vulnDev == nil {
			vulnDev = d
		}
		if !d.Vulnerable() && safeDev == nil {
			safeDev = d
		}
	}
	if vulnDev == nil || safeDev == nil {
		t.Fatal("fixture lacks vulnerable or safe device")
	}

	// A not-used address inside the vulnerable device's delegation loops.
	vulnTarget := notUsedTarget(vulnDev, "x")
	res, err := det.CheckAddr(vulnTarget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictLoop {
		t.Errorf("vulnerable device verdict = %s", res.Verdict)
	}
	if res.Responder != vulnDev.WANAddr {
		t.Errorf("loop responder = %s, want CPE %s", res.Responder, vulnDev.WANAddr)
	}

	// The same probe at a healthy device draws an unreachable.
	safeTarget := targetIn(safeDev.CPE.Delegated(), []byte("x"))
	res, err = det.CheckAddr(safeTarget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictUnreachable {
		t.Errorf("healthy device verdict = %s", res.Verdict)
	}
}

func TestCheckAddrSilent(t *testing.T) {
	_, det := fixture(t)
	res, err := det.CheckAddr(ipv6.MustParseAddr("3fff::1"))
	if err != nil {
		t.Fatal(err)
	}
	// The core has no route; it answers no-route unreachable — which is
	// not a loop. Depending on topology it may also be silent.
	if res.Verdict == VerdictLoop {
		t.Errorf("unrouted space reported as loop")
	}
}

func TestScanWindowsFindsVulnerablePopulation(t *testing.T) {
	dep, det := fixture(t)
	isp := dep.ISPs[0]
	res, err := det.ScanWindows([]ipv6.Window{isp.Window}, []byte("seed"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Targets != 1024 {
		t.Errorf("targets = %d", res.Targets)
	}

	wantVuln := map[ipv6.Addr]bool{}
	for _, d := range isp.Devices {
		if d.Vulnerable() {
			wantVuln[d.WANAddr] = true
		}
	}
	gotVuln := map[ipv6.Addr]bool{}
	for _, h := range res.VulnerableHops() {
		gotVuln[h.Addr] = true
	}
	missed, extra := 0, 0
	for a := range wantVuln {
		if !gotVuln[a] {
			missed++
		}
	}
	for a := range gotVuln {
		if !wantVuln[a] {
			extra++
		}
	}
	// A single probe per sub-prefix can land in the device's in-use
	// subnet or its WAN /64 and draw an NDP unreachable instead of a
	// loop: the method inherently undercounts by ~1/16 per such region
	// (the paper's sweep shares this property). Allow that, no more.
	if float64(missed) > 0.2*float64(len(wantVuln)) {
		t.Errorf("scan missed %d of %d vulnerable devices", missed, len(wantVuln))
	}
	if extra != 0 {
		t.Errorf("scan flagged %d non-vulnerable responders", extra)
	}
}

func TestSameDiffSplitForLoops(t *testing.T) {
	dep, det := fixture(t)
	isp := dep.ISPs[0]
	res, err := det.ScanWindows([]ipv6.Window{isp.Window}, []byte("seed"))
	if err != nil {
		t.Fatal(err)
	}
	same, diff := 0, 0
	for _, h := range res.VulnerableHops() {
		same += h.SameCount
		diff += h.DiffCount
	}
	if same+diff == 0 {
		t.Fatal("no loop observations")
	}
	// CN broadband: WAN /64 inside the /60 delegation, so ~1/16 of loop
	// probes land in the responder's own /64 (Table XI shows 3.9%).
	frac := float64(same) / float64(same+diff)
	if frac > 0.2 {
		t.Errorf("same fraction = %.2f, want small (~1/16)", frac)
	}
}

func TestMeasureAmplification(t *testing.T) {
	dep, _ := fixture(t)
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	var dev *topo.Device
	for _, d := range dep.ISPs[0].Devices {
		if d.VulnLAN {
			dev = d
			break
		}
	}
	if dev == nil {
		t.Fatal("no vulnerable device")
	}
	res, err := MeasureAmplification(drv, notUsedTarget(dev, "amp"), dev.AccessLink)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's amplification factor is >200 (255 minus the hop count
	// to the ISP router).
	if res.Factor < 200 {
		t.Errorf("amplification factor = %v, want >200", res.Factor)
	}
	if res.LinkBytes == 0 {
		t.Error("no bytes accounted")
	}
}

func TestAttackRoundRobin(t *testing.T) {
	dep, _ := fixture(t)
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	var dev *topo.Device
	for _, d := range dep.ISPs[0].Devices {
		if d.VulnLAN {
			dev = d
			break
		}
	}
	if dev == nil {
		t.Fatal("no vulnerable device")
	}
	targets := []ipv6.Addr{
		notUsedTarget(dev, "a"),
		notUsedTarget(dev, "b"),
	}
	res, err := Attack(drv, targets, 10, dev.AccessLink)
	if err != nil {
		t.Fatal(err)
	}
	if res.Factor < 200 {
		t.Errorf("attack factor = %v", res.Factor)
	}
	if res.LinkPackets < 2000 {
		t.Errorf("attack moved only %d packets", res.LinkPackets)
	}
	if _, err := Attack(drv, nil, 5, dev.AccessLink); err == nil {
		t.Error("empty target list accepted")
	}
}

func TestVerdictString(t *testing.T) {
	for v, want := range map[Verdict]string{
		VerdictSilent: "silent", VerdictUnreachable: "unreachable",
		VerdictLoop: "loop", VerdictTransient: "transient",
	} {
		if v.String() != want {
			t.Errorf("String(%d) = %q", v, v.String())
		}
	}
}

func TestSpoofedSourceDoubling(t *testing.T) {
	dep, _ := fixture(t)
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	var dev *topo.Device
	for _, d := range dep.ISPs[0].Devices {
		if d.VulnLAN {
			dev = d
			break
		}
	}
	if dev == nil {
		t.Fatal("no vulnerable device")
	}
	target := notUsedTarget(dev, "spoof")
	direct, err := MeasureAmplification(drv, target, dev.AccessLink)
	if err != nil {
		t.Fatal(err)
	}
	// Spoofed source inside the same looping delegation: the terminal
	// Time Exceeded is routed back into the loop and dies there too.
	spoofSrc := notUsedTarget(dev, "spoof-src")
	spoofed, err := MeasureAmplificationSpoofed(drv, target, spoofSrc, dev.AccessLink)
	if err != nil {
		t.Fatal(err)
	}
	if spoofed.Factor < 1.5*direct.Factor {
		t.Errorf("spoofed factor %.0f not ~2x direct %.0f", spoofed.Factor, direct.Factor)
	}
}

// TestCheckAddrAllocs guards the probe path's steady state: the
// derivation, probe build, reply decode and validation allocate
// nothing, and drained buffers go back to the engine, so the only
// allocation left is the hand-off slice Edge.Drain returns for each
// probe that drew a reply.
func TestCheckAddrAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	dep, det := fixture(t)
	var vulnDev, safeDev *topo.Device
	for _, d := range dep.ISPs[0].Devices {
		if d.VulnLAN && vulnDev == nil {
			vulnDev = d
		}
		if !d.Vulnerable() && safeDev == nil {
			safeDev = d
		}
	}
	for _, tc := range []struct {
		name    string
		dst     ipv6.Addr
		verdict Verdict
		max     float64 // one Drain hand-off per probe answered
	}{
		{"unreachable", notUsedTarget(safeDev, "alloc"), VerdictUnreachable, 1},
		{"loop", notUsedTarget(vulnDev, "alloc"), VerdictLoop, 2},
	} {
		if res, err := det.CheckAddr(tc.dst); err != nil || res.Verdict != tc.verdict {
			t.Fatalf("%s: verdict %s, err %v; want %s", tc.name, res.Verdict, err, tc.verdict)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := det.CheckAddr(tc.dst); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("%s: CheckAddr allocates %.1f times, want <= %.0f", tc.name, allocs, tc.max)
		}
	}
}

// hopScanner and hopRouter address the scripted-driver tests: the
// scanner's source and a router that answers its probes.
var (
	hopScanner = ipv6.MustParseAddr("2001:db8::1")
	hopRouter  = ipv6.MustParseAddr("2001:db8:ff::1")
	hopTarget  = ipv6.MustParseAddr("2001:db8:1:2::3")
)

// scripted returns a driver whose answer to each probe is built by
// reply from a copy of the probe, and the list the copies are kept in.
func scripted(reply func(probe []byte) [][]byte) (*xmap.ChanDriver, *[][]byte) {
	var sent [][]byte
	return &xmap.ChanDriver{Src: hopScanner, Fn: func(pkt []byte) [][]byte {
		probe := append([]byte(nil), pkt...)
		sent = append(sent, probe)
		return reply(probe)
	}}, &sent
}

// timeExceeded is hopRouter's Time Exceeded quoting invoking.
func timeExceeded(t *testing.T, invoking []byte) []byte {
	t.Helper()
	pkt, err := wire.BuildTimeExceeded(hopRouter, hopScanner, 64, invoking)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

func TestHopLimitRange(t *testing.T) {
	for _, tc := range []struct {
		h  int
		ok bool
	}{
		{-1, false}, {0, false}, {1, true}, {DefaultHopLimit, true},
		{MaxHopLimit, true}, {254, false}, {255, false}, {300, false},
	} {
		err := CheckHopLimit(tc.h)
		if (err == nil) != tc.ok {
			t.Errorf("CheckHopLimit(%d) = %v, want ok=%v", tc.h, err, tc.ok)
		}
		if tc.h < 0 || tc.h > 255 {
			continue
		}
		// Every probe draws a Time Exceeded quoting it, so a usable h
		// sends both the h and the h+2 probe.
		drv, sent := scripted(func(probe []byte) [][]byte {
			return [][]byte{timeExceeded(t, probe)}
		})
		det := NewDetector(drv)
		det.HopLimit = uint8(tc.h)
		res, err := det.CheckAddr(hopTarget)
		if !tc.ok {
			if err == nil || len(*sent) != 0 {
				t.Errorf("h=%d: err %v after %d probes, want an error before any probe", tc.h, err, len(*sent))
			}
			continue
		}
		if err != nil || res.Verdict != VerdictLoop {
			t.Fatalf("h=%d: verdict %s, err %v", tc.h, res.Verdict, err)
		}
		if len(*sent) != 2 || (*sent)[0][7] != uint8(tc.h) || (*sent)[1][7] != uint8(tc.h+2) {
			t.Errorf("h=%d: probes went out at hop limits %v, want [%d %d]", tc.h, hopLimits(*sent), tc.h, tc.h+2)
		}
	}
}

func hopLimits(pkts [][]byte) []uint8 {
	var out []uint8
	for _, p := range pkts {
		out = append(out, p[7])
	}
	return out
}

// TestForgedRepliesRejected answers every probe with a forged reply.
// None may confirm a loop or count as a response: each fails the
// quoted-destination plus echo id/seq validation the scanner applies.
func TestForgedRepliesRejected(t *testing.T) {
	other := ipv6.MustParseAddr("2001:db8:1:2::4")
	foreign := ipv6.MustParseAddr("2001:db8:9::9")
	flip := func(off int) func(*testing.T, []byte) [][]byte {
		return func(t *testing.T, probe []byte) [][]byte {
			probe[off] ^= 0x80
			return [][]byte{timeExceeded(t, probe)}
		}
	}
	for _, tc := range []struct {
		name  string
		forge func(t *testing.T, probe []byte) [][]byte
	}{
		{"time-exceeded wrong id", flip(wire.HeaderLen + 4)},
		{"time-exceeded wrong seq", flip(wire.HeaderLen + 7)},
		{"unreachable wrong id", func(t *testing.T, probe []byte) [][]byte {
			probe[wire.HeaderLen+5] ^= 1
			pkt, err := wire.BuildDestUnreach(hopRouter, hopScanner, 64, 3, probe)
			if err != nil {
				t.Fatal(err)
			}
			return [][]byte{pkt}
		}},
		{"valid id quoting another destination", func(t *testing.T, probe []byte) [][]byte {
			b := other.Bytes()
			copy(probe[24:40], b[:])
			return [][]byte{timeExceeded(t, probe)}
		}},
		{"truncated quote", func(t *testing.T, probe []byte) [][]byte {
			return [][]byte{timeExceeded(t, probe[:wire.HeaderLen+4])}
		}},
		{"echo reply from a foreign source", func(t *testing.T, probe []byte) [][]byte {
			id := uint16(probe[wire.HeaderLen+4])<<8 | uint16(probe[wire.HeaderLen+5])
			seq := uint16(probe[wire.HeaderLen+6])<<8 | uint16(probe[wire.HeaderLen+7])
			pkt, err := wire.BuildEchoReply(foreign, hopScanner, 64, id, seq, nil)
			if err != nil {
				t.Fatal(err)
			}
			return [][]byte{pkt}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			drv, _ := scripted(func(probe []byte) [][]byte { return tc.forge(t, probe) })
			res, err := NewDetector(drv).CheckAddr(hopTarget)
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != VerdictSilent {
				t.Errorf("verdict %s (responder %s), want silent", res.Verdict, res.Responder)
			}
		})
	}

	// In a sweep the validation value is bound to the sub-prefix, so a
	// quote of a neighbour address in it carries a valid id/seq; it
	// still answers another probe than the outstanding one.
	drv, _ := scripted(func(probe []byte) [][]byte {
		probe[39] ^= 1
		return [][]byte{timeExceeded(t, probe)}
	})
	window := ipv6.Window{Base: ipv6.MustParsePrefix("2001:db8:1::/48"), To: 52}
	sweep, err := NewDetector(drv).ScanWindows([]ipv6.Window{window}, []byte("forged"))
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Targets != 16 || sweep.Responses != 0 {
		t.Errorf("neighbour quotes: %d responses over %d targets, want 0 over 16", sweep.Responses, sweep.Targets)
	}

	// A Time Exceeded for the h probe, replayed as the answer to the h+2
	// probe, must not confirm the loop.
	var first []byte
	drv, _ = scripted(func(probe []byte) [][]byte {
		if first == nil {
			first = probe
		}
		return [][]byte{timeExceeded(t, first)}
	})
	res, err := NewDetector(drv).CheckAddr(hopTarget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictTransient {
		t.Errorf("replayed h reply: verdict %s, want transient", res.Verdict)
	}
}
