// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the simulated IPv6 Internet for a fixed
// time, checks every rep's output against the deployment's ground truth
// and prints one JSON result line:
//
//	bash perfbench/run.sh --workload census-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced reps;
// with --trace 1 it alternates untraced and traced reps of the same
// seed, checks that both give the same deterministic counts, and
// reports the per-layer metrics of the traced rep together with the
// isolated replays of each layer. BENCHMARK.json at the repository root
// lists the workloads and metrics; PREDICTIONS.md beside this file says
// which end-to-end metric each layer metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	width    int
	spansDir string
}

// minReps is the fewest untraced reps a run makes, so each reported
// figure is a median of at least three.
const minReps = 3

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	var trace int
	fl.StringVar(&o.workload, "workload", "", "workload: census-cold, rescan-observed, loop-census or census-sharded")
	fl.Int64Var(&o.seed, "seed", 1, "deployment and scan seed")
	fl.Float64Var(&o.seconds, "seconds", 30, "measuring time; reps start only while they fit in it")
	fl.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	fl.IntVar(&o.width, "width", 0, "window width in bits (0 = the workload's default)")
	fl.StringVar(&o.spansDir, "spans-dir", "", "directory the spans of a traced run are written to (empty = not written)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	var w *workload
	for _, c := range workloads() {
		if c.name == o.workload {
			w = c
		}
	}
	if w == nil || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q or trace %d\n", o.workload, trace)
		return 2
	}
	if o.width == 0 {
		o.width = w.width
	}

	fp, _ := json.Marshal(fingerprint())
	fmt.Fprintf(stdout, "host %s\n", fp)
	var res *result
	var err error
	if o.trace {
		res, err = measureTraced(w, o, stdout, stderr)
	} else {
		res, err = measure(w, o, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !res.correct {
		return 1
	}
	return 0
}

// result is the printed outcome of a run.
type result struct {
	correct           bool
	attempted, failed uint64
	metrics           metrics
	// counts are the deterministic counts of the run's first rep, which
	// every later rep of the run repeated.
	counts counts
	// parallel relaxes the repeat check as counts.repeats describes;
	// mismatches counts the reps whose responder set differed.
	parallel   bool
	mismatches int
}

func (r *result) json() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	return string(b), err
}

// tally folds a rep into the result: attempted targets, failures, and
// the check that it repeats the first rep's deterministic counts.
func (r *result) tally(rp *rep, stderr io.Writer, label string) {
	if r.attempted == 0 {
		r.counts = rp.counts
	}
	r.attempted += rp.targets
	r.failed += rp.failures()
	if rp.failures() > 0 {
		fmt.Fprintf(stderr, "perfbench: %s rep: %d send errors, %d false positives\n", label, rp.sendErrors, rp.falsePos)
		r.correct = false
	}
	if rp.counts != r.counts {
		fmt.Fprintf(stderr, "perfbench: %s rep differs from the first rep of the same seed:\n  first %+v\n  this  %+v\n", label, r.counts, rp.counts)
		r.mismatches++
		if !r.counts.repeats(rp.counts, r.parallel) {
			r.correct = false
		}
	}
	fmt.Fprintf(stderr, "%s rep: setup %.3f s, scan %.3f s, %d targets, recall %.4f (%d/%d), heap %.1f MB\n",
		label, rp.setup.Seconds(), rp.scan.Seconds(), rp.targets, rp.recall(), rp.found, rp.positives, mb(rp.peakHeap))
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// keepGoing reports whether another rep of about repTime still fits in
// the measuring time, or fewer than atLeast reps have run.
func keepGoing(start time.Time, reps int, repTime time.Duration, o options, atLeast int) bool {
	if reps < atLeast {
		return true
	}
	return time.Since(start)+repTime <= time.Duration(o.seconds*float64(time.Second))
}

// measure runs untraced reps for the measuring time and reports the
// median of each end-to-end metric.
func measure(w *workload, o options, stderr io.Writer) (*result, error) {
	res := &result{correct: true, parallel: w.parallel}
	var tps, setup, cpu, heap, recall []float64
	start := time.Now()
	for reps := 0; ; reps++ {
		t0 := time.Now()
		runtime.GC() // free the previous rep, so its heap is not counted in this one
		rp, err := w.run(repConfig{seed: o.seed, width: o.width})
		if err != nil {
			return nil, err
		}
		rp.dep = nil
		res.tally(rp, stderr, w.name)
		tps = append(tps, float64(rp.targets)/rp.scan.Seconds())
		setup = append(setup, rp.setup.Seconds())
		cpu = append(cpu, rp.cpu.Seconds()/(float64(rp.targets)/1e6))
		heap = append(heap, mb(rp.peakHeap))
		recall = append(recall, rp.recall())
		if !keepGoing(start, reps+1, time.Since(t0), o, minReps) {
			break
		}
	}
	res.metrics.add("targets_per_s", median(tps), "1/s")
	res.metrics.add("setup_s", median(setup), "s")
	res.metrics.add("cpu_s_per_mtarget", median(cpu), "s/Mtarget")
	res.metrics.add("peak_heap_mb", median(heap), "MB")
	res.metrics.add("recall", median(recall), "frac")
	return res, nil
}

// measureTraced alternates untraced and traced reps of the same seed,
// then runs the complementary passes and isolated layer replays on the
// last traced rep's deployment, and reports the per-layer metrics.
func measureTraced(w *workload, o options, stdout, stderr io.Writer) (*result, error) {
	res := &result{correct: true, parallel: w.parallel}
	m := &res.metrics
	// First in the process, so the safe-prime search runs cold.
	cycleMs, err := permCycleMs(o.width, w.windows, o.seed)
	if err != nil {
		return nil, err
	}

	var bare, traced, single []float64
	var last, lastBare *rep
	var tr *tracer
	start := time.Now()
	for reps := 0; ; reps++ {
		t0 := time.Now()
		last, tr = nil, nil
		runtime.GC()
		u, err := w.run(repConfig{seed: o.seed, width: o.width})
		if err != nil {
			return nil, err
		}
		u.dep, lastBare = nil, u
		res.tally(u, stderr, w.name+" untraced")
		bare = append(bare, u.scan.Seconds())

		runtime.GC()
		tr = newTracer()
		if last, err = w.run(repConfig{seed: o.seed, width: o.width, tr: tr}); err != nil {
			return nil, err
		}
		res.tally(last, stderr, w.name+" traced")
		traced = append(traced, last.scan.Seconds())

		if w.parallel {
			// The one-engine census of the same seed, for the scaling figure.
			runtime.GC()
			s, err := censusRep(repConfig{seed: o.seed, width: o.width}, 1, false)
			if err != nil {
				return nil, err
			}
			s.dep = nil
			single = append(single, float64(s.targets)/s.scan.Seconds())
		}
		if !keepGoing(start, reps+1, time.Since(t0), o, 1) {
			break
		}
	}

	dep, window := last.dep, last.window
	var (
		xmapTr   = tr
		xmapSt   = last.stats
		xmapProc = 1
		loopTr   *tracer
		loopRes  *loopResult
	)
	if w.parallel {
		xmapProc = runtime.GOMAXPROCS(0)
	}
	if w.loop {
		loopTr, loopRes = tr, last.loop
		if xmapTr, xmapSt, err = scannerPass(dep, window, o.seed); err != nil {
			return nil, err
		}
	} else if loopTr, loopRes, err = loopSubSweep(dep, window, o.seed); err != nil {
		return nil, err
	}
	obsOverhead := 0.0
	if w.observed {
		if obsOverhead, err = rescanObsOverhead(repConfig{seed: o.seed, width: o.width}); err != nil {
			return nil, err
		}
	}
	capt, err := capturePass(dep, window, o.seed)
	if err != nil {
		return nil, err
	}
	rp, err := replayLayers(capt)
	if err != nil {
		return nil, err
	}
	if last.obsSpans > 0 {
		capt.snapshot, capt.export, capt.spans, capt.lines = last.obsSnapshot, last.obsExport, last.obsSpans, last.obsLines
	}

	// Layers.
	c := last.counts
	m.add("topo.build_s", last.build.Seconds(), "s")
	m.add("topo.devices", float64(c.Devices), "count")
	m.add("topo.vulnerable", float64(c.Vulns), "count")
	m.add("perm.cycle_ms", cycleMs, "ms")
	m.add("perm.next_ns", rp.permNext, "ns")
	scannerLayers(m, xmapTr, xmapSt, xmapProc)
	m.add("xmap.append_probe_ns", rp.appendProbe, "ns")
	m.add("xmap.classify_ns", rp.classify, "ns")
	m.add("bloom.check_add_ns", rp.checkAdd, "ns")

	send, recv, rel := tr.total(spanSend), tr.total(spanRecv), tr.total(spanRelease)
	probes := float64(send.n)
	m.add("netsim.send_ns_per_probe", ratio(float64(send.ns), probes), "ns")
	m.add("netsim.send_us_p50", quantile(tr.sendLat, 0.50)/1e3, "us")
	m.add("netsim.send_us_p99", quantile(tr.sendLat, 0.99)/1e3, "us")
	m.add("netsim.recv_ns_per_drain", ratio(float64(recv.ns+rel.ns), float64(recv.calls)), "ns")
	m.add("netsim.events_per_probe", ratio(float64(c.Events), probes), "count")
	m.add("netsim.tx_per_probe", ratio(float64(c.Transmissions), probes), "count")
	m.add("netsim.fastpath_hit_ratio", ratio(float64(c.FastPathHits), float64(c.FastPathHits+c.FastPathMisses)), "frac")
	m.add("netsim.fastpath_miss_per_probe", ratio(float64(c.FastPathMisses), probes), "count")
	// Heap figures come from the untraced rep: the traced one also holds its spans.
	m.add("netsim.heap_growth_mb", mb(lastBare.heapAfter)-mb(lastBare.heapBuilt), "MB")

	m.add("telemetry.overhead_frac", obsOverhead, "frac")
	m.add("telemetry.snapshot_ms", float64(capt.snapshot.Nanoseconds())/1e6, "ms")
	m.add("telemetry.trace_export_ms", float64(capt.export.Nanoseconds())/1e6, "ms")
	m.add("telemetry.spans", float64(capt.spans), "count")
	m.add("telemetry.monitor_lines", float64(capt.lines), "count")

	loopLayers(m, loopTr, loopRes)

	engines := dep.Group.NumShards()
	scaling := 1.0
	if len(single) > 0 {
		scaling = ratio(float64(last.targets)/median(bare), median(single))
	}
	m.add("xmap.parallel.scaling", scaling, "ratio")
	m.add("xmap.parallel.digest_mismatches", float64(res.mismatches), "count")
	m.add("netsim.group.send_busy_frac", ratio(float64(send.ns), float64(tr.wall())*float64(engines)), "frac")
	m.add("netsim.group.send_ns_per_probe", ratio(float64(send.ns), probes*float64(engines)), "ns")
	m.add("netsim.group.heap_mb", mb(lastBare.heapBuilt), "MB")
	m.add("trace.overhead_frac", ratio(median(traced), median(bare))-1, "frac")

	client := "xmap"
	if w.loop {
		client = "loopscan"
	}
	sh := attribute(tr, xmapProc, client)
	m.add("attr.netsim_share", sh.netsim, "frac")
	m.add("attr.client_share", sh.client, "frac")
	m.add("attr.output_share", sh.output, "frac")
	m.add("attr.telemetry_share", sh.telemetry, "frac")
	m.add("attr.residual_share", sh.residual, "frac")
	fmt.Fprintf(stdout, "attribution %s: %s\n", w.name, sh)

	if o.spansDir != "" {
		extra := labeled{"loop sweep of the first window", loopTr}
		if w.loop {
			extra = labeled{"scanner pass over the first window", xmapTr}
		}
		if err := writeSpans(o, w.name, labeled{"traced rep", tr}, extra); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// labeled is a tracer with the name of the pass it traced.
type labeled struct {
	label string
	tr    *tracer
}

// writeSpans writes the spans of the traced rep and of the
// complementary pass to one file.
func writeSpans(o options, name string, trs ...labeled) error {
	if err := os.MkdirAll(o.spansDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.tsv", name, o.seed)))
	if err != nil {
		return err
	}
	for _, t := range trs {
		if err := t.tr.writeTSV(f, t.label); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// host identifies the machine and code a result was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func fingerprint() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	h.Source = sourceDigest()
	return h
}

// sourceDigest hashes the program's Go sources under the working
// directory (the repository root), which identifies the code where no
// commit is recorded.
func sourceDigest() string {
	d := sha256.New()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "perfbench") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(path, ".go") || path == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(d, "%s %d\n", path, len(b))
			d.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(d.Sum(nil))[:16]
}
