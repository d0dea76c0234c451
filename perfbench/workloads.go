package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/ipv6"
	"repro/internal/loopscan"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/xmap"
)

const (
	// scale and the uncapped census reproduce the paper's Table I/II
	// deployment at 1/2000 of its population: ~26k peripheries over
	// 983,040 sub-prefixes at width 16.
	scale = 0.0005
	// rescanISP, rescanCap and the default width 14 are the
	// BenchmarkScannerThroughput deployment (~22% hit density).
	rescanISP = 13
	rescanCap = 4000
	// rescanPasses is the number of timed passes per rescan rep, each
	// with its own scan seed on the same warmed engine.
	rescanPasses = 16
	// monitorEvery is the status-line cadence of the observed rescan, in
	// targets (cmd/xmap -monitor-every).
	monitorEvery = 4096
	// traceShift samples 1/1024 of targets (cmd/xmap -trace-sample 10).
	traceShift = 10
	// ringSize is the per-shard SPSC ring of the sharded census.
	ringSize = 1024
)

// repConfig is what one rep of a workload runs with.
type repConfig struct {
	seed  int64
	width int     // window width in bits
	tr    *tracer // nil for an untraced rep
}

// counts are the deterministic outputs of a rep: the same seed must give
// the same counts, traced or not.
type counts struct {
	Sent, Unique, Duplicates, Invalid                      uint64
	Events, Transmissions, FastPathHits, FastPathMisses    uint64
	LoopTargets, LoopResponses, LoopsFound, Devices, Vulns uint64
	Infra                                                  uint64 // responders that are ISP routers
	Digest                                                 string
}

// repeats reports whether o repeats c. Under xmap.ScanParallel every
// shard scanner drains the shared edge, so which shard's Bloom filter
// checks a reply depends on goroutine timing, and a filter false
// positive then drops a real responder in one rep and not in another.
// With parallel set, Unique, Duplicates and the responder digest may
// therefore differ, as long as their sum of validated replies does; the
// misses show in recall and in the mismatch count instead.
func (c counts) repeats(o counts, parallel bool) bool {
	if c == o {
		return true
	}
	if !parallel || c.Unique+c.Duplicates != o.Unique+o.Duplicates {
		return false
	}
	c.Unique, c.Duplicates, c.Digest = o.Unique, o.Duplicates, o.Digest
	return c == o
}

// rep is the result of one rep: set-up, one measured phase, truth check.
type rep struct {
	build, setup, scan time.Duration
	cpu                time.Duration
	heapBuilt          uint64 // live HeapInuse after topo.Build
	heapAfter          uint64 // live HeapInuse after the measured phase
	peakHeap           uint64 // largest live HeapInuse sampled after each block and at the end
	targets            uint64
	positives, found   int
	falsePos           int
	sendErrors         uint64
	counts             counts
	stats              xmap.Stats

	// Kept for the complementary passes of a traced run.
	dep    *topo.Deployment
	window ipv6.Window
	loop   *loopResult // loop census only

	// Observed rescan only: the end-of-run exports and what they wrote.
	obsSnapshot, obsExport time.Duration
	obsSpans, obsLines     uint64
}

// recall is the share of ground-truth positives reported.
func (r *rep) recall() float64 {
	if r.positives == 0 {
		return 1
	}
	return float64(r.found) / float64(r.positives)
}

// failures counts the rep's failed operations: probes the driver
// rejected and reported results the ground truth refutes.
func (r *rep) failures() uint64 { return r.sendErrors + uint64(r.falsePos) }

// simDriver is the concrete simulator driver of a deployment.
type simDriver interface {
	xmap.Driver
	xmap.PacketDriver
	RegisterTelemetry(*telemetry.Registry)
	RegisterTracer(*telemetry.Tracer)
}

// driverFor returns the deployment's driver: a GroupDriver when the
// simulated Internet is sharded, otherwise a SimDriver.
func driverFor(dep *topo.Deployment) simDriver {
	if dep.Group.NumShards() > 1 {
		return xmap.NewGroupDriver(dep.Group, dep.Edge)
	}
	return xmap.NewSimDriver(dep.Engine, dep.Edge)
}

// deviceCap is the per-ISP device cap at a window width: the workload's
// own cap, lowered to a quarter of the window's sub-prefixes for the
// narrow windows of smoke runs, which cannot hold the full population.
func deviceCap(width, limit int) int {
	if width >= 16 {
		return limit
	}
	if q := 1 << width / 4; limit == 0 || q < limit {
		return q
	}
	return limit
}

func scanSeed(kind string, seed int64, i int) []byte {
	return []byte(fmt.Sprintf("%s-%d-%d", kind, seed, i))
}

func heapInuse() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase brackets the measured phase of a rep: wall, CPU, engine
// counters and heap. Heap samples force a collection, so they read the
// live heap rather than wherever the collector's cycle happens to
// stand; the time and CPU they take are left out of the phase.
type phase struct {
	tr        *tracer
	t0        time.Time
	cpu0      time.Duration
	c0        netsim.Counters
	dep       *topo.Deployment
	r         *rep
	paused    time.Duration
	pausedCPU time.Duration
}

// startPhase ends set-up and samples the heap the set-up left, outside
// both.
func startPhase(r *rep, dep *topo.Deployment, tr *tracer, setupStart time.Time) *phase {
	r.setup = time.Since(setupStart)
	runtime.GC()
	r.heapBuilt = heapInuse()
	return &phase{tr: tr, t0: time.Now(), cpu0: cpuTime(), c0: dep.Group.Counters(), dep: dep, r: r}
}

// sampleHeap records HeapInuse after a block.
func (p *phase) sampleHeap() {
	t0, c0 := time.Now(), cpuTime()
	runtime.GC()
	if h := heapInuse(); h > p.r.peakHeap {
		p.r.peakHeap = h
	}
	d := time.Since(t0)
	p.paused += d
	p.pausedCPU += cpuTime() - c0
	if p.tr != nil {
		end := p.tr.now()
		p.tr.leaf(spanSample, end-int64(d), end, 1)
	}
}

func (p *phase) stop() {
	p.sampleHeap()
	p.r.scan = time.Since(p.t0) - p.paused
	p.r.cpu = cpuTime() - p.cpu0 - p.pausedCPU
	p.r.heapAfter = heapInuse()
	c := p.dep.Group.Counters()
	p.r.counts.Events = c.Events - p.c0.Events
	p.r.counts.Transmissions = c.Transmissions - p.c0.Transmissions
	p.r.counts.FastPathHits = c.FastPathHits - p.c0.FastPathHits
	p.r.counts.FastPathMisses = c.FastPathMisses - p.c0.FastPathMisses
}

// build generates a deployment and records its build time and ground
// truth counts.
func build(r *rep, cfg topo.Config) (*topo.Deployment, error) {
	t0 := time.Now()
	dep, err := topo.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("building deployment: %w", err)
	}
	r.build = time.Since(t0)
	r.counts.Devices = uint64(len(dep.Devices()))
	for _, d := range dep.Devices() {
		if d.Vulnerable() {
			r.counts.Vulns++
		}
	}
	return dep, nil
}

// output is the CLI's result path: CSV rows to io.Discard, timed as
// handler spans, with every unique responder kept for the truth check.
type output struct {
	csv        *xmap.CSVOutput
	write      xmap.Handler
	err        error
	responders []ipv6.Addr
}

func newOutput(tr *tracer) (*output, error) {
	csv, err := xmap.NewCSVOutput(io.Discard)
	if err != nil {
		return nil, err
	}
	o := &output{csv: csv}
	o.write = tr.handler(func(r xmap.Response) {
		if err := o.csv.Write(r); err != nil && o.err == nil {
			o.err = err
		}
	})
	return o, nil
}

func (o *output) handle(r xmap.Response) {
	o.write(r)
	o.responders = append(o.responders, r.Responder)
}

// checkDiscovery scores unique responders against the ground truth.
// A responder is found when it is the WAN address of a device of a
// scanned ISP. The ISP's own router also answers, with Destination
// Unreachable for undelegated sub-prefixes, from its address outside
// the scan window but inside the ISP block; such infrastructure replies
// are counted apart. Any other responder is a false positive.
func (r *rep) checkDiscovery(dep *topo.Deployment, isps []*topo.ISPDeployment, responders []ipv6.Addr) {
	scanned := make(map[int]bool, len(isps))
	for _, isp := range isps {
		scanned[isp.Spec.Index] = true
		r.positives += len(isp.Devices)
	}
	found := make(map[*topo.Device]bool, len(responders))
	for _, a := range responders {
		if dev, ok := dep.DeviceByWAN(a); ok && scanned[dev.Spec.Index] {
			found[dev] = true
			continue
		}
		if infrastructure(isps, a) {
			r.counts.Infra++
			continue
		}
		r.falsePos++
	}
	r.found += len(found)
}

// infrastructure reports whether a lies in a scanned ISP block outside
// its scan window.
func infrastructure(isps []*topo.ISPDeployment, a ipv6.Addr) bool {
	for _, isp := range isps {
		if isp.Block.Contains(a) && !isp.Window.Base.Contains(a) {
			return true
		}
	}
	return false
}

// digest hashes a responder list in sorted order.
func digest(h []byte, addrs []ipv6.Addr) []byte {
	sorted := append([]ipv6.Addr(nil), addrs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Uint128().Cmp(sorted[j].Uint128()) < 0 })
	d := sha256.New()
	d.Write(h)
	for _, a := range sorted {
		b := a.Bytes()
		d.Write(b[:])
	}
	return d.Sum(nil)
}

// addStats folds the stats of a scan over another window into total.
// Unlike shards of one scan, such scans share no responders, so their
// unique counts add up too.
func addStats(total *xmap.Stats, st xmap.Stats) {
	total.Merge(st)
	total.Unique += st.Unique
}

func (r *rep) setStats(st xmap.Stats) {
	r.stats = st
	r.targets = st.Targets
	r.sendErrors = st.SendErrors
	r.counts.Sent, r.counts.Unique = st.Sent, st.Unique
	r.counts.Duplicates, r.counts.Invalid = st.Duplicates, st.Invalid
}

// censusRep is one cold census: a fresh deployment of all 15 Table I
// blocks, then one scanner pass per block. With parallel set the
// simulated Internet has shards engine shards and each block is scanned
// by xmap.ScanParallel with one scanner and one ring per shard.
func censusRep(c repConfig, shards int, parallel bool) (*rep, error) {
	r := &rep{}
	start := time.Now()
	dep, err := build(r, topo.Config{
		Seed: c.seed, Scale: scale, WindowWidth: c.width, MaxDevicesPerISP: deviceCap(c.width, 0), Shards: shards,
	})
	if err != nil {
		return nil, err
	}
	var drv xmap.Driver = driverFor(dep)
	if c.tr != nil {
		if drv, err = wrapDriver(drv, c.tr, nil); err != nil {
			return nil, err
		}
	}
	out, err := newOutput(c.tr)
	if err != nil {
		return nil, err
	}
	cfgFor := func(i int) xmap.Config {
		cfg := xmap.Config{Window: dep.ISPs[i].Window, Seed: scanSeed("census", c.seed, dep.ISPs[i].Spec.Index)}
		if parallel {
			cfg.RingSize = ringSize
		}
		return cfg
	}
	var scanners []*xmap.Scanner
	if !parallel {
		for i := range dep.ISPs {
			sc, err := xmap.New(cfgFor(i), drv)
			if err != nil {
				return nil, err
			}
			scanners = append(scanners, sc)
		}
	}

	ph := startPhase(r, dep, c.tr, start)
	pass := c.tr.begin(spanPass, 0)
	var stats xmap.Stats
	for i := range dep.ISPs {
		blk := c.tr.begin(spanBlock, spanID(pass))
		var st xmap.Stats
		if !parallel {
			st, err = scanners[i].Run(context.Background(), out.handle)
		} else {
			st, err = xmap.ScanParallel(context.Background(), cfgFor(i), drv, shards, out.handle)
		}
		if err != nil {
			return nil, fmt.Errorf("scanning ISP %d: %w", dep.ISPs[i].Spec.Index, err)
		}
		c.tr.end(blk, int(st.Targets))
		addStats(&stats, st)
		ph.sampleHeap()
	}
	if err := out.csv.Flush(); err != nil {
		return nil, err
	}
	ph.stop()
	c.tr.end(pass, int(stats.Targets))
	if out.err != nil {
		return nil, out.err
	}

	r.setStats(stats)
	if uint64(len(out.responders)) != stats.Unique {
		return nil, fmt.Errorf("handler saw %d responders, stats report %d unique", len(out.responders), stats.Unique)
	}
	r.checkDiscovery(dep, dep.ISPs, out.responders)
	r.counts.Digest = hex.EncodeToString(digest(nil, out.responders))
	r.dep, r.window = dep, dep.ISPs[0].Window
	return r, nil
}

func spanID(s *span) uint32 {
	if s == nil {
		return 0
	}
	return s.id
}

// observability is the stack cmd/xmap attaches for -monitor-every
// -status-json -trace-sample 10 -watchdog.
type observability struct {
	reg    *telemetry.Registry
	mon    *telemetry.Monitor
	tracer *telemetry.Tracer
	wd     *telemetry.Watchdog
}

func attachObservability(dep *topo.Deployment, drv simDriver, seed []byte, total uint64) *observability {
	o := &observability{
		reg: telemetry.New(telemetry.Options{Shards: 1}),
		tracer: telemetry.NewTracer(telemetry.TracerOptions{
			Seed: seed, SampleShift: traceShift, ScanStreams: 1, SimStreams: dep.Group.NumShards(),
		}),
	}
	drv.RegisterTracer(o.tracer)
	drv.RegisterTelemetry(o.reg)
	o.reg.AttachTracer(o.tracer)
	o.wd = telemetry.NewWatchdog(1, 8, o.tracer)
	o.mon = telemetry.NewMonitor(o.reg, io.Discard, monitorEvery)
	o.mon.SetTotal(total)
	return o
}

func (o *observability) attach(cfg xmap.Config) xmap.Config {
	cfg.Telemetry, cfg.Monitor, cfg.Tracer, cfg.Watchdog = o.reg, o.mon, o.tracer, o.wd
	return cfg
}

// finish writes what the CLI writes at the end of an observed scan: the
// final status line, the status JSON and the probe trace. It returns the
// time each export took.
func (o *observability) finish(tr *tracer) (snapshot, export time.Duration, err error) {
	err = tr.export(func() error {
		o.mon.Final()
		o.wd.Check(1)
		t0 := time.Now()
		if err := o.reg.WriteJSON(io.Discard); err != nil {
			return fmt.Errorf("writing status JSON: %w", err)
		}
		t1 := time.Now()
		if err := o.tracer.WriteNDJSON(io.Discard); err != nil {
			return fmt.Errorf("writing probe trace: %w", err)
		}
		snapshot, export = t1.Sub(t0), time.Since(t1)
		return nil
	})
	return snapshot, export, err
}

// rescanDeployment builds the rescan deployment and runs the untimed
// warm-up pass that compiles its flows.
func rescanDeployment(r *rep, c repConfig) (*topo.Deployment, simDriver, error) {
	dep, err := build(r, topo.Config{
		Seed: c.seed, Scale: scale, WindowWidth: c.width, MaxDevicesPerISP: deviceCap(c.width, rescanCap),
		OnlyISPs: []int{rescanISP},
	})
	if err != nil {
		return nil, nil, err
	}
	drv := driverFor(dep)
	warm, err := xmap.New(xmap.Config{Window: dep.ISPs[0].Window, Seed: scanSeed("rescan-warm", c.seed, 0)}, drv)
	if err != nil {
		return nil, nil, err
	}
	if _, err := warm.Run(context.Background(), nil); err != nil {
		return nil, nil, fmt.Errorf("warm-up pass: %w", err)
	}
	return dep, drv, nil
}

// rescanRep is one observed rescan: build and warm up, then
// rescanPasses timed passes with distinct scan seeds on the same engine
// with the full observability stack attached, and the exports.
func rescanRep(c repConfig) (*rep, error) {
	r := &rep{}
	start := time.Now()
	dep, sd, err := rescanDeployment(r, c)
	if err != nil {
		return nil, err
	}
	isp := dep.ISPs[0]
	size, _ := isp.Window.Size()
	obs := attachObservability(dep, sd, scanSeed("rescan-trace", c.seed, 0), size.Lo*rescanPasses)
	var drv xmap.Driver = sd
	if c.tr != nil {
		if drv, err = wrapDriver(drv, c.tr, nil); err != nil {
			return nil, err
		}
	}
	out, err := newOutput(c.tr)
	if err != nil {
		return nil, err
	}

	ph := startPhase(r, dep, c.tr, start)
	pass := c.tr.begin(spanPass, 0)
	var stats xmap.Stats
	var dig []byte
	for p := 0; p < rescanPasses; p++ {
		sc, err := xmap.New(obs.attach(xmap.Config{Window: isp.Window, Seed: scanSeed("rescan", c.seed, p)}), drv)
		if err != nil {
			return nil, err
		}
		out.responders = out.responders[:0]
		blk := c.tr.begin(spanBlock, spanID(pass))
		st, err := sc.Run(context.Background(), out.handle)
		if err != nil {
			return nil, fmt.Errorf("rescan pass %d: %w", p, err)
		}
		c.tr.end(blk, int(st.Targets))
		addStats(&stats, st)
		r.checkDiscovery(dep, dep.ISPs, out.responders)
		dig = digest(dig, out.responders)
		ph.sampleHeap()
	}
	if err := out.csv.Flush(); err != nil {
		return nil, err
	}
	if r.obsSnapshot, r.obsExport, err = obs.finish(c.tr); err != nil {
		return nil, err
	}
	r.obsSpans, r.obsLines = obs.tracer.SpansRecorded(), obs.mon.Lines()
	ph.stop()
	c.tr.end(pass, int(stats.Targets))
	if out.err != nil {
		return nil, out.err
	}
	r.setStats(stats)
	r.counts.Digest = hex.EncodeToString(dig)
	r.dep, r.window = dep, isp.Window
	return r, nil
}

// loopResult accumulates a loop sweep over several windows.
type loopResult struct {
	targets, responses uint64
	vulnHops           []ipv6.Addr
}

// sweepLoops runs the Table XI sweep over each window, one window per
// block span. pd must be the driver det sends through.
func sweepLoops(det *loopscan.Detector, pd *timedPacketDriver, tr *tracer, parent uint32, windows []ipv6.Window, seed int64, ph *phase) (*loopResult, error) {
	res := &loopResult{}
	for i, w := range windows {
		blk := tr.begin(spanBlock, parent)
		sr, err := det.ScanWindows([]ipv6.Window{w}, scanSeed("loop", seed, i))
		if err != nil {
			return nil, fmt.Errorf("loop sweep of %s: %w", w, err)
		}
		pd.flush()
		tr.end(blk, int(sr.Targets))
		res.targets += sr.Targets
		res.responses += sr.Responses
		for _, h := range sr.VulnerableHops() {
			res.vulnHops = append(res.vulnHops, h.Addr)
		}
		if ph != nil {
			ph.sampleHeap()
		}
	}
	return res, nil
}

// packetDriver returns drv, timed when tr is set.
func packetDriver(drv xmap.PacketDriver, tr *tracer) (xmap.PacketDriver, *timedPacketDriver) {
	if tr == nil {
		return drv, nil
	}
	pd := &timedPacketDriver{d: drv, tr: tr}
	return pd, pd
}

// loopRep is one loop census: the census deployment swept for routing
// loops over every ISP window, one probe outstanding at a time.
func loopRep(c repConfig) (*rep, error) {
	r := &rep{}
	start := time.Now()
	dep, err := build(r, topo.Config{Seed: c.seed, Scale: scale, WindowWidth: c.width, MaxDevicesPerISP: deviceCap(c.width, 0)})
	if err != nil {
		return nil, err
	}
	pdrv, timed := packetDriver(driverFor(dep), c.tr)
	det := loopscan.NewDetector(pdrv)
	windows := make([]ipv6.Window, len(dep.ISPs))
	for i, isp := range dep.ISPs {
		windows[i] = isp.Window
	}

	ph := startPhase(r, dep, c.tr, start)
	pass := c.tr.begin(spanPass, 0)
	res, err := sweepLoops(det, timed, c.tr, spanID(pass), windows, c.seed, ph)
	if err != nil {
		return nil, err
	}
	ph.stop()
	c.tr.end(pass, int(res.targets))

	r.targets = res.targets
	r.counts.LoopTargets, r.counts.LoopResponses = res.targets, res.responses
	r.counts.LoopsFound = uint64(len(res.vulnHops))
	found := make(map[*topo.Device]bool)
	for _, a := range res.vulnHops {
		dev, ok := dep.DeviceByWAN(a)
		if !ok || !dev.Vulnerable() {
			r.falsePos++
			continue
		}
		found[dev] = true
	}
	r.positives, r.found = int(r.counts.Vulns), len(found)
	r.counts.Digest = hex.EncodeToString(digest([]byte(fmt.Sprint(res.targets, res.responses)), res.vulnHops))
	r.dep, r.window, r.loop = dep, windows[0], res
	return r, nil
}

// rescanObsOverhead measures what the observability stack costs the
// warm rescan: on one warmed engine it alternates passes with the stack
// attached and detached, each with its own scan seed, and returns the
// attached median time per pass over the detached one, minus one.
func rescanObsOverhead(c repConfig) (float64, error) {
	const pairs = 8
	dep, sd, err := rescanDeployment(&rep{}, c)
	if err != nil {
		return 0, err
	}
	window := dep.ISPs[0].Window
	size, _ := window.Size()
	obs := attachObservability(dep, sd, scanSeed("overhead-trace", c.seed, 0), size.Lo*pairs)
	var on, off []float64
	for p := 0; p < 2*pairs; p++ {
		// Alternate which side of a pair runs first.
		attached := (p%2 == 0) == (p/2%2 == 0)
		cfg := xmap.Config{Window: window, Seed: scanSeed("overhead", c.seed, p)}
		if attached {
			cfg = obs.attach(cfg)
			sd.RegisterTracer(obs.tracer)
		} else {
			dep.Engine.SetFlowTracer(nil)
		}
		sc, err := xmap.New(cfg, sd)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if _, err := sc.Run(context.Background(), nil); err != nil {
			return 0, err
		}
		if d := time.Since(t0).Seconds(); attached {
			on = append(on, d)
		} else {
			off = append(off, d)
		}
	}
	return median(on)/median(off) - 1, nil
}

// workload is one named benchmark workload.
type workload struct {
	name     string
	width    int  // default window width in bits
	windows  int  // scan windows per rep
	parallel bool // sharded engines scanned by xmap.ScanParallel
	observed bool // the observability stack is attached
	loop     bool // the loop detector instead of the scanner
	run      func(repConfig) (*rep, error)
}

func workloads() []*workload {
	nproc := runtime.NumCPU()
	return []*workload{
		{name: "census-cold", width: 16, windows: len(topo.Specs), run: func(c repConfig) (*rep, error) { return censusRep(c, 1, false) }},
		{name: "rescan-observed", width: 14, windows: 1, observed: true, run: rescanRep},
		{name: "loop-census", width: 16, windows: len(topo.Specs), loop: true, run: loopRep},
		{name: "census-sharded", width: 16, windows: len(topo.Specs), parallel: true, run: func(c repConfig) (*rep, error) { return censusRep(c, nproc, true) }},
	}
}
