package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/bloom"
	"repro/internal/ipv6"
	"repro/internal/loopscan"
	"repro/internal/perm"
	"repro/internal/topo"
	"repro/internal/uint128"
	"repro/internal/wire"
	"repro/internal/xmap"
)

// replayFor is how long each isolated layer replay repeats its input.
const replayFor = 50 * time.Millisecond

// metric is one printed figure.
type metric struct {
	name  string
	value float64
	unit  string
}

type metrics []metric

func (m *metrics) add(name string, v float64, unit string) {
	*m = append(*m, metric{name, v, unit})
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return float64(xs[i])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replay repeats op until replayFor has passed (at least three times)
// and returns the median nanoseconds per unit; op reports the units it
// processed and the time they took.
func replay(op func() (int, time.Duration)) float64 {
	var per []float64
	start := time.Now()
	for len(per) < 3 || time.Since(start) < replayFor {
		n, d := op()
		if n == 0 {
			return 0
		}
		per = append(per, float64(d.Nanoseconds())/float64(n))
	}
	return median(per)
}

// timed adapts an operation timed whole to replay.
func timed(op func() int) func() (int, time.Duration) {
	return func() (int, time.Duration) {
		t0 := time.Now()
		n := op()
		return n, time.Since(t0)
	}
}

// permCycleMs times the permutations a workload's scans construct, one
// per window, starting from a cold safe-prime cache when it runs first
// in the process.
func permCycleMs(width, windows int, seed int64) (float64, error) {
	size := uint128.From64(1 << width)
	t0 := time.Now()
	for i := 0; i < windows; i++ {
		if _, err := perm.NewCycle(size, scanSeed("perm", seed, i)); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6, nil
}

// capture is the output of one observed scanner pass over a window: the
// raw replies, the scanner that validates them and the observability
// figures.
type capture struct {
	replies          [][]byte
	scanner          *xmap.Scanner
	src              ipv6.Addr
	snapshot, export time.Duration
	spans, lines     uint64
	window           ipv6.Window
	seed             []byte
}

// capturePass runs one scanner pass over window with the observability
// stack attached and every reply copied. It re-registers the engine's
// flow tracer, so it runs last on a deployment.
func capturePass(dep *topo.Deployment, window ipv6.Window, seed int64) (*capture, error) {
	sd := driverFor(dep)
	size, _ := window.Size()
	c := &capture{window: window, seed: scanSeed("capture", seed, 0), src: sd.SourceAddr()}
	obs := attachObservability(dep, sd, c.seed, size.Lo)
	drv, err := wrapDriver(sd, newTracer(), &c.replies)
	if err != nil {
		return nil, err
	}
	c.scanner, err = xmap.New(obs.attach(xmap.Config{Window: window, Seed: c.seed}), drv)
	if err != nil {
		return nil, err
	}
	if _, err := c.scanner.Run(context.Background(), nil); err != nil {
		return nil, fmt.Errorf("capture pass: %w", err)
	}
	if c.snapshot, c.export, err = obs.finish(nil); err != nil {
		return nil, err
	}
	c.spans, c.lines = obs.tracer.SpansRecorded(), obs.mon.Lines()
	return c, nil
}

// replays holds the isolated per-layer replays of a traced run.
type replays struct {
	permNext, appendProbe, classify, checkAdd float64
}

// replayLayers times the permutation, probe build, reply parse/classify
// and dedup layers in isolation on the captured inputs.
func replayLayers(c *capture) (*replays, error) {
	size, _ := c.window.Size()
	cycle, err := perm.NewCycle(size, c.seed)
	if err != nil {
		return nil, err
	}
	r := &replays{}
	r.permNext = replay(timed(func() int {
		it, n := cycle.Iterate(), 0
		for _, ok := it.Next(); ok; _, ok = it.Next() {
			n++
		}
		return n
	}))

	n := size.Lo
	if n > 1<<16 {
		n = 1 << 16
	}
	dsts := make([]ipv6.Addr, n)
	vals := make([]uint32, n)
	for i := range dsts {
		if dsts[i], err = c.scanner.TargetFor(uint128.From64(uint64(i))); err != nil {
			return nil, err
		}
		vals[i] = c.scanner.Validation(dsts[i])
	}
	probe := &xmap.ICMPEchoProbe{}
	buf := make([]byte, 0, 256)
	r.appendProbe = replay(timed(func() int {
		for i, d := range dsts {
			if buf, err = probe.AppendProbe(buf[:0], c.src, d, vals[i]); err != nil {
				return 0
			}
		}
		return len(dsts)
	}))
	if err != nil {
		return nil, fmt.Errorf("AppendProbe: %w", err)
	}

	if len(c.replies) == 0 {
		return nil, fmt.Errorf("capture pass drew no replies")
	}
	validate := xmap.Validator(c.scanner.Validation)
	var sum wire.Summary
	valid := 0
	r.classify = replay(timed(func() int {
		valid = 0
		for _, p := range c.replies {
			if sum.Parse(p) != nil {
				continue
			}
			if _, ok := probe.Classify(&sum, validate); ok {
				valid++
			}
		}
		return len(c.replies)
	}))
	if valid != len(c.replies) {
		return nil, fmt.Errorf("%d of %d captured replies failed to classify", len(c.replies)-valid, len(c.replies))
	}

	stream := make([]uint128.Uint128, 0, len(c.replies))
	for _, p := range c.replies {
		if sum.Parse(p) == nil {
			stream = append(stream, sum.IP.Src.Uint128())
		}
	}
	// The filter is sized as the scanner sizes its dedup filter for the
	// window; each repetition starts from an empty filter, allocated
	// outside the timed loop.
	r.checkAdd = replay(func() (int, time.Duration) {
		f, ferr := bloom.NewSeeded(max(size.Lo, 1024), 1e-4, 1)
		if ferr != nil {
			err = ferr
			return 0, 0
		}
		t0 := time.Now()
		for _, a := range stream {
			if !f.ContainsUint64Pair(a.Hi, a.Lo) {
				f.AddUint64Pair(a.Hi, a.Lo)
			}
		}
		return len(stream), time.Since(t0)
	})
	return r, err
}

// loopSubSweep runs the loop detector, traced, over one window of a
// scanner workload's deployment.
func loopSubSweep(dep *topo.Deployment, window ipv6.Window, seed int64) (*tracer, *loopResult, error) {
	tr := newTracer()
	pdrv, pd := packetDriver(driverFor(dep), tr)
	det := loopscan.NewDetector(pdrv)
	pass := tr.begin(spanPass, 0)
	res, err := sweepLoops(det, pd, tr, pass.id, []ipv6.Window{window}, seed, nil)
	if err != nil {
		return nil, nil, err
	}
	tr.end(pass, int(res.targets))
	return tr, res, nil
}

// scannerPass runs one traced scanner pass over one window of the loop
// workload's deployment, for the scanner layers that workload bypasses.
func scannerPass(dep *topo.Deployment, window ipv6.Window, seed int64) (*tracer, xmap.Stats, error) {
	tr := newTracer()
	drv, err := wrapDriver(driverFor(dep), tr, nil)
	if err != nil {
		return nil, xmap.Stats{}, err
	}
	out, err := newOutput(tr)
	if err != nil {
		return nil, xmap.Stats{}, err
	}
	sc, err := xmap.New(xmap.Config{Window: window, Seed: scanSeed("census", seed, 0)}, drv)
	if err != nil {
		return nil, xmap.Stats{}, err
	}
	pass := tr.begin(spanPass, 0)
	blk := tr.begin(spanBlock, pass.id)
	st, err := sc.Run(context.Background(), out.handle)
	if err != nil {
		return nil, xmap.Stats{}, err
	}
	tr.end(blk, int(st.Targets))
	tr.end(pass, int(st.Targets))
	return tr, st, out.err
}

// shares splits a traced pass's wall time across layers. The wall is
// multiplied by procs, the goroutine capacity, when scanners run
// concurrently; the residual is the part no span covers.
type shares struct {
	netsim, client, output, telemetry, residual float64
	clientName                                  string
}

func attribute(tr *tracer, procs int, clientName string) shares {
	wall := float64(tr.wall()) * float64(procs)
	blocks := float64(tr.total(spanBlock).ns) * float64(procs)
	netsim := float64(tr.total(spanSend).ns + tr.total(spanRecv).ns + tr.total(spanRelease).ns)
	out := float64(tr.total(spanHandler).ns)
	tel := float64(tr.total(spanExport).ns)
	if t := tr.total(spanTarget); t.calls > 0 {
		// Loop targets: driver time is folded into the target spans.
		return shares{
			netsim:     ratio(netsim, wall),
			client:     ratio(float64(t.ns)-netsim, wall),
			residual:   ratio(wall-float64(t.ns), wall),
			clientName: clientName,
		}
	}
	return shares{
		netsim:     ratio(netsim, wall),
		client:     ratio(blocks-netsim-out, wall),
		output:     ratio(out, wall),
		telemetry:  ratio(tel, wall),
		residual:   ratio(wall-blocks-tel, wall),
		clientName: clientName,
	}
}

func (s shares) String() string {
	return fmt.Sprintf("netsim %.1f%% %s %.1f%% output %.1f%% telemetry %.1f%% residual %.1f%%",
		100*s.netsim, s.clientName, 100*s.client, 100*s.output, 100*s.telemetry, 100*s.residual)
}

// scannerLayers adds the xmap metrics of one traced scanner pass.
func scannerLayers(m *metrics, tr *tracer, st xmap.Stats, procs int) {
	send, recv, rel, h := tr.total(spanSend), tr.total(spanRecv), tr.total(spanRelease), tr.total(spanHandler)
	blocks := float64(tr.total(spanBlock).ns) * float64(procs)
	m.add("xmap.self_ns_per_target", ratio(blocks-float64(send.ns+recv.ns+rel.ns+h.ns), float64(st.Targets)), "ns")
	m.add("xmap.handler_ns_per_reply", ratio(float64(h.ns), float64(h.calls)), "ns")
	m.add("xmap.replies_per_drain", ratio(float64(recv.n), float64(recv.calls)), "count")
	m.add("xmap.hit_rate", st.HitRate(), "frac")
	m.add("xmap.dup_frac", ratio(float64(st.Duplicates), float64(st.Received)), "frac")
	m.add("xmap.invalid", float64(st.Invalid), "count")
}

// loopLayers adds the loopscan metrics of one traced sweep.
func loopLayers(m *metrics, tr *tracer, res *loopResult) {
	var checks []int64
	tr.mu.Lock()
	for _, s := range tr.spans {
		if s.kind == spanTarget {
			checks = append(checks, s.end-s.start)
		}
	}
	tr.mu.Unlock()
	send, recv := tr.total(spanSend), tr.total(spanRecv)
	wall := float64(tr.wall())
	m.add("loopscan.check_us_p50", quantile(checks, 0.50)/1e3, "us")
	m.add("loopscan.check_us_p99", quantile(checks, 0.99)/1e3, "us")
	m.add("loopscan.send_ns_per_probe", ratio(float64(send.ns), float64(send.n)), "ns")
	m.add("loopscan.probes_per_target", ratio(float64(send.n), float64(res.targets)), "count")
	m.add("loopscan.self_ns_per_target", ratio(wall-float64(send.ns+recv.ns), float64(res.targets)), "ns")
	m.add("loopscan.loops_found", float64(len(res.vulnHops)), "count")
}
