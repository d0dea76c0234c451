package simtest

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/ipv6"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/wire"
	"repro/internal/xmap"
)

// The equivalence matrix is the harness's one differential oracle for
// the scanner and the engine beneath it. Each entry is a scenario (a
// seeded world) × a config transform that must not change the scan's
// outcome. The entry's run is compared against one shared reference
// run of its scenario — interpreted forwarding, the scanner's native
// batches, nothing observing — on one canonical digest. A transform
// names the digest fields it must reproduce and may add checks proving
// it took the path it claims (fast-path hits, batched replays, traced
// crossings, an empty ring at every checkpoint).

// digestField is one part of the canonical digest.
type digestField uint8

const (
	// fieldResponders is each pass's responder set.
	fieldResponders digestField = 1 << iota
	// fieldCounts is each pass's Targets/Sent/Received/Unique/
	// Duplicates/Invalid and the engine's transmission, byte and drop
	// totals.
	fieldCounts
	// fieldLinks is every link's per-direction transmission stats.
	fieldLinks
	// fieldTraces is every flow's hop-by-hop crossing sequence (node,
	// interface, hop limit, drop).
	fieldTraces
	fieldAll = fieldResponders | fieldCounts | fieldLinks | fieldTraces
)

// digest is the canonical outcome of one matrix run.
type digest struct {
	passes   []passDigest
	counters netsim.Counters
	links    []linkDigest
	traces   *traceCollector // nil when flows were not traced
	// problems are the run's own findings: path-engagement checks,
	// invariant violations, bounds.
	problems []string
}

// passDigest is one scan pass's outcome.
type passDigest struct {
	stats xmap.Stats
	set   map[ipv6.Addr]bool
}

// linkDigest is one link's per-direction transmission counters,
// labeled by its endpoints (identical seeds build identical topologies,
// so runs correspond link for link in connection order).
type linkDigest struct {
	ends  [2]string
	stats [2]netsim.LinkStats
}

// flowTrace folds one flow's (node, iface, hop-limit, drop) crossing
// sequence into an order-sensitive hash and a hop count.
type flowTrace struct {
	hops uint32
	sum  uint64
}

// fnvString folds s into the FNV-1a hash h. The key is fixed, so a
// failure's trace sums are the same on every replay of its seed.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001b3
	}
	return h
}

// traceCollector is the digest's netsim.FlowTracer: it samples every
// flow and folds each flow's full crossing sequence into a flowTrace, so
// the compiled fast path's synthesized traces are compared hop for hop
// against the interpreted reference without storing every crossing.
type traceCollector struct {
	flows map[[16]byte]flowTrace
	total uint64
}

func (t *traceCollector) SampleFlow(hi, lo uint64) bool { return true }

func (t *traceCollector) HopCrossing(hi, lo uint64, node, iface string, hop uint8, drop bool) {
	var k [16]byte
	binary.BigEndian.PutUint64(k[:8], hi)
	binary.BigEndian.PutUint64(k[8:], lo)
	x := fnvString(fnvString(fnvString(0xcbf29ce484222325, node), "\x00"), iface) ^ uint64(hop)<<1
	if drop {
		x ^= 1
	}
	f := t.flows[k]
	t.flows[k] = flowTrace{hops: f.hops + 1, sum: (f.sum ^ x) * 0x100000001b3}
	t.total++
}

// scenario is one seeded world: the ISP fixture under a fault profile,
// the fault-free fixture with planted hostile responders, or the
// multi-ISP deployment the sharding entry splits across engines.
type scenario struct {
	name       string
	profile    FaultProfile
	hostile    HostileProfile
	deployment bool
}

// transform is one matrix column: a config change that must leave the
// fields it names unchanged, on the scenarios it applies to.
type transform struct {
	name, group string
	fields      digestField
	applies     func(scenario) bool
	run         func(m *matrix, sc scenario, ref *digest) (*digest, error)
}

// leg is what a fixture run changes about its scenario's reference.
type leg struct {
	fastpath bool
	wrap     func(*xmap.SimDriver) xmap.Driver // nil: the driver itself
	observe  bool                              // registry, tracer, watchdog and monitor attached
	defend   bool
	drain    int // Config.DrainEvery (0 = the default 64)
}

// matrixPasses is how often each fixture run scans its window: the
// fixture delegates /64s and each pass probes every /64 once, so pass
// one compiles flows cold and pass two replays the warm cache.
const matrixPasses = 2

// resumeCheckpointEvery is the checkpoint interval of the resume
// entry; its re-sent-probe bound is stated against it.
const resumeCheckpointEvery = 32

func isFault(sc scenario) bool    { return !sc.deployment && sc.hostile.Mode == 0 }
func isLossless(sc scenario) bool { return isFault(sc) && sc.profile.Lossless() }

// fixtureTransform builds an entry that reruns the reference scan
// with one leg change.
func fixtureTransform(name, group string, fields digestField, applies func(scenario) bool,
	l leg, check func(got, ref *digest, sc scenario) []string) transform {
	return transform{name: name, group: group, fields: fields, applies: applies,
		run: func(m *matrix, sc scenario, ref *digest) (*digest, error) {
			d, err := m.scan(sc, l)
			if err == nil && check != nil {
				d.problems = append(d.problems, check(d, ref, sc)...)
			}
			return d, err
		}}
}

// batchTransform clamps the engine-visible send batch to n packets.
func batchTransform(n int) transform {
	return fixtureTransform(fmt.Sprintf("batch=%d", n), "oracle-fastpath", fieldAll, isFault,
		leg{fastpath: true, wrap: func(d *xmap.SimDriver) xmap.Driver { return &chunkDriver{under: d, n: n} }},
		func(got, _ *digest, sc scenario) []string {
			p := fastPathEngaged(got)
			// A fault-free world must exercise the batched resolve path
			// (an armed fault layer legitimately falls back to per-packet
			// interpretation).
			if !sc.profile.Active() && got.counters.FastPathBatched == 0 {
				p = append(p, "replayed zero probes through the batched path")
			}
			return p
		})
}

func fastPathEngaged(d *digest) []string {
	if d.counters.FastPathHits == 0 {
		return []string{"recorded zero flow-cache hits: fast path never engaged"}
	}
	return nil
}

// transforms is the matrix's column set, grouped under the TestScenarios
// subtests that run them.
var transforms = []transform{
	// The compiled fast path must be invisible to everything but the
	// event count: replays charge stats and consume fault-RNG draws in
	// exactly the interpreted order. Counters.Events is deliberately not
	// compared — fusing a probe's events is the fast path's point.
	fixtureTransform("fastpath", "oracle-fastpath", fieldAll,
		func(sc scenario) bool { return !sc.deployment }, leg{fastpath: true},
		func(got, ref *digest, _ scenario) []string {
			p := fastPathEngaged(got)
			if got.traces.total == 0 {
				p = append(p, "captured zero flow crossings: trace synthesis never engaged")
			}
			if c := ref.counters; c.FastPathHits != 0 || c.FastPathMisses != 0 {
				p = append(p, fmt.Sprintf("reference recorded flow-cache traffic (%d hits, %d misses): SetFastPath(false) leaked",
					c.FastPathHits, c.FastPathMisses))
			}
			if got.counters.Events >= ref.counters.Events {
				p = append(p, fmt.Sprintf("pumped %d events, interpreted %d: fusing saved nothing",
					got.counters.Events, ref.counters.Events))
			}
			return p
		}),
	// Batch 1 pins the per-probe injection path, 7 straddles drain
	// windows and InjectRunLen makes larger bursts span several locked
	// resolve runs. Batch 64 is the scanner's native window: the
	// fastpath cell.
	batchTransform(1), batchTransform(7), batchTransform(netsim.InjectRunLen),
	// The transmission path must be invisible: per-packet Sends through
	// AdaptPacketDriver, and the batches behind a RingDriver's SPSC ring
	// and pump goroutine, which the scanner flushes before every drain.
	fixtureTransform("per-packet", "oracle-batch", fieldAll, isFault,
		leg{fastpath: true, wrap: func(d *xmap.SimDriver) xmap.Driver { return xmap.AdaptPacketDriver(d) }}, nil),
	fixtureTransform("ring", "oracle-batch", fieldAll, isFault,
		leg{fastpath: true, wrap: func(d *xmap.SimDriver) xmap.Driver { return xmap.NewRingDriver(d, 64) }}, nil),
	// Observability must not perturb the scan: the registry (with the
	// engine collector), a tracer at full sampling, the stall watchdog
	// and a monitor, against the detached reference — and the published
	// scan.* counters must equal Stats.
	fixtureTransform("observed", "oracle-observed", fieldAll, isFault, leg{fastpath: true, observe: true}, nil),
	// The adversarial defenses must be inert on an honest world: no
	// detections, quarantines, blocklisting or shedding, and a
	// probe-for-probe identical scan. The hostile oracle's drain cadence
	// keeps the alias detector's cooldown clock as busy as it is against
	// an adversary; the cadence itself is invisible to the digest.
	fixtureTransform("defend", "oracle-defend", fieldAll, isFault,
		leg{fastpath: true, defend: true, drain: hostileDrainEvery}, nil),
	{name: "kill-resume", group: "oracle-resume", fields: fieldResponders, applies: isLossless, run: (*matrix).resume},
	{name: "udp", group: "oracle-udp", fields: fieldResponders,
		applies: func(sc scenario) bool { return isFault(sc) && !sc.profile.Active() }, run: (*matrix).udp},
	{name: "shards=4", group: "oracle-sharded", fields: fieldResponders | fieldCounts | fieldLinks,
		applies: func(sc scenario) bool { return sc.deployment }, run: (*matrix).shards},
}

// matrixGroups lists the transform groups in run order.
var matrixGroups = []string{
	"oracle-udp", "oracle-sharded", "oracle-batch", "oracle-fastpath",
	"oracle-resume", "oracle-observed", "oracle-defend",
}

// scenarios is the matrix's row set: every fault profile, every hostile
// model on a fault-free world, and the multi-ISP deployment.
func scenarios() []scenario {
	var out []scenario
	for _, p := range Profiles {
		out = append(out, scenario{name: p.Name, profile: p})
	}
	for _, hp := range HostileProfiles {
		if hp.Mode != 0 {
			out = append(out, scenario{name: "hostile=" + hp.Name, hostile: hp})
		}
	}
	return append(out, scenario{name: "deployment", deployment: true})
}

// matrix runs one seed's entries, building each scenario's reference
// run once and sharing it across every transform.
type matrix struct {
	seed int64
	refs map[string]*digest
}

func newMatrix(seed int64) *matrix { return &matrix{seed: seed, refs: map[string]*digest{}} }

// entry is one matrix cell.
type entry struct {
	sc scenario
	tr transform
}

// matrixEntries lists a group's cells, scenario-major.
func matrixEntries(group string) []entry {
	var out []entry
	for _, sc := range scenarios() {
		for _, tr := range transforms {
			if tr.group == group && tr.applies(sc) {
				out = append(out, entry{sc, tr})
			}
		}
	}
	return out
}

// reference returns the scenario's shared reference digest.
func (m *matrix) reference(sc scenario) (*digest, error) {
	if d, ok := m.refs[sc.name]; ok {
		return d, nil
	}
	var d *digest
	var err error
	if sc.deployment {
		d, err = m.deploy(0)
	} else {
		d, err = m.scan(sc, leg{})
	}
	if err != nil {
		return nil, err
	}
	m.refs[sc.name] = d
	return d, nil
}

// check runs one cell and diffs it against the reference.
func (m *matrix) check(e entry) ([]string, error) {
	ref, err := m.reference(e.sc)
	if err != nil {
		return nil, err
	}
	got, err := e.tr.run(m, e.sc, ref)
	if err != nil {
		return nil, err
	}
	// The reference's own findings (the deployment's invariant
	// violations) fail every cell of its scenario: a broken reference
	// proves nothing about the transforms compared with it.
	var problems []string
	for _, p := range ref.problems {
		problems = append(problems, "reference: "+p)
	}
	problems = append(problems, got.problems...)
	return append(problems, diffDigest(got, ref, e.tr.fields)...), nil
}

// world builds the scenario's fixture: the fault profile's injector is
// installed only when it injects something, since an armed fault layer
// — even a no-op one — pins the engine to per-packet interpretation.
func (m *matrix) world(sc scenario) (*ISPFixture, error) {
	if sc.hostile.Mode != 0 {
		return BuildHostileFixture(m.seed, sc.hostile)
	}
	return reliabilityFixture(m.seed, sc.profile)
}

// passSeed is the scan seed of one pass.
func (m *matrix) passSeed(pass int) []byte { return append(scanSeed(m.seed), byte('a'+pass)) }

// scan runs the scenario's fixture scan under one leg.
func (m *matrix) scan(sc scenario, l leg) (*digest, error) {
	f, err := m.world(sc)
	if err != nil {
		return nil, err
	}
	f.Eng.SetFastPath(l.fastpath)
	d := &digest{traces: &traceCollector{flows: map[[16]byte]flowTrace{}}}
	f.Eng.SetFlowTracer(d.traces)
	var drv xmap.Driver = f.Drv
	if l.wrap != nil {
		drv = l.wrap(f.Drv)
	}
	for pass := 0; pass < matrixPasses; pass++ {
		cfg := xmap.Config{Window: f.Window, Seed: m.passSeed(pass), DedupExact: true,
			Defend: l.defend, DrainEvery: l.drain}
		var reg *telemetry.Registry
		if l.observe || l.defend {
			reg = telemetry.New(telemetry.Options{Shards: 1})
			cfg.Telemetry = reg
		}
		if l.observe {
			f.Drv.RegisterTelemetry(reg)
			cfg.Tracer = telemetry.NewTracer(telemetry.TracerOptions{Seed: cfg.Seed, ScanStreams: 1, Depth: 64})
			cfg.Watchdog = telemetry.NewWatchdog(1, 4, cfg.Tracer)
			cfg.Monitor = telemetry.NewMonitor(reg, io.Discard, 32)
		}
		s, err := xmap.New(cfg, drv)
		if err != nil {
			return nil, err
		}
		p := passDigest{set: map[ipv6.Addr]bool{}}
		if p.stats, err = s.Run(context.Background(), func(r xmap.Response) { p.set[r.Responder] = true }); err != nil {
			return nil, err
		}
		d.passes = append(d.passes, p)
		if reg != nil {
			d.problems = append(d.problems, publishProblems(p.stats, reg.Snapshot())...)
		}
		if l.observe && cfg.Tracer.SpansRecorded() == 0 {
			d.problems = append(d.problems, "tracer recorded no spans at full sampling")
		}
		if st := p.stats; l.defend && (st.AliasDetected|st.AliasBlocked|st.Quarantined|st.Shed != 0) {
			d.problems = append(d.problems, fmt.Sprintf(
				"honest scan tripped defenses: detected=%d blocked=%d quarantined=%d shed=%d",
				st.AliasDetected, st.AliasBlocked, st.Quarantined, st.Shed))
		}
	}
	if c, ok := drv.(interface{ Close() }); ok {
		c.Close()
	}
	d.counters = f.Eng.Counters()
	for _, lk := range f.Eng.Links() {
		ends := lk.Ends()
		d.links = append(d.links, linkDigest{
			ends:  [2]string{ends[0].Name(), ends[1].Name()},
			stats: [2]netsim.LinkStats{lk.StatsFrom(ends[0]), lk.StatsFrom(ends[1])},
		})
	}
	return d, nil
}

// resume kills a checkpointing first pass mid-cycle and resumes it from
// its last periodic checkpoint, both legs scanning through a RingDriver:
// the union of their responders must be the uninterrupted pass's set.
// Probes in the ring are flushed before every checkpoint (the ring must
// be empty at each emission), and anything between the last checkpoint
// and the kill is re-sent on resume, never lost — at most one interval
// of it. Lossy profiles are out: responses to pre-crash probes are
// genuinely gone there, so set equality is not sound.
func (m *matrix) resume(sc scenario, ref *digest) (*digest, error) {
	f, err := m.world(sc)
	if err != nil {
		return nil, err
	}
	d := &digest{}
	cfg := xmap.Config{Window: f.Window, Seed: m.passSeed(0), DedupExact: true}
	killAt := uint64(48 + (m.seed*31)%150)
	kill := cfg
	kill.MaxTargets = killAt
	kill.CheckpointEvery = resumeCheckpointEvery
	ringKill := xmap.NewRingDriver(f.Drv, resumeCheckpointEvery)
	var states []xmap.ShardState
	kill.OnCheckpoint = func(st xmap.ShardState) {
		if n := ringKill.Pending(); n != 0 {
			d.problems = append(d.problems, fmt.Sprintf(
				"checkpoint at %d targets emitted with %d probes still in the ring", st.Stats.Targets, n))
		}
		states = append(states, st)
	}
	union := map[ipv6.Addr]bool{}
	collect := func(r xmap.Response) { union[r.Responder] = true }
	sKill, err := xmap.New(kill, ringKill)
	if err != nil {
		return nil, err
	}
	killStats, err := sKill.Run(context.Background(), collect)
	ringKill.Close()
	if err != nil {
		return nil, err
	}
	if len(states) < 2 {
		d.problems = append(d.problems, fmt.Sprintf("kill at %d targets emitted only %d checkpoint states", killAt, len(states)))
		return d, nil
	}
	// Everything after the last periodic state is discarded, as a real
	// kill -9 would; a restarted process builds a fresh ring on the
	// still-running network.
	crash := states[len(states)-2]
	cfg.Resume = &crash
	ringResume := xmap.NewRingDriver(f.Drv, resumeCheckpointEvery)
	sResume, err := xmap.New(cfg, ringResume)
	if err != nil {
		return nil, err
	}
	resumed, err := sResume.Run(context.Background(), collect)
	ringResume.Close()
	if err != nil {
		return nil, err
	}
	d.passes = []passDigest{{stats: resumed, set: union}}
	want := ref.passes[0].stats
	if resumed.Targets != want.Targets {
		d.problems = append(d.problems, fmt.Sprintf(
			"resumed scan covered %d cumulative targets, uninterrupted %d", resumed.Targets, want.Targets))
	}
	if wasted := killStats.Targets - crash.Stats.Targets; wasted > resumeCheckpointEvery {
		d.problems = append(d.problems, fmt.Sprintf(
			"crash re-sent %d targets, more than one checkpoint interval (%d)", wasted, resumeCheckpointEvery))
	}
	if sent := killStats.Sent + resumed.Sent - crash.Stats.Sent; sent > want.Sent+resumeCheckpointEvery {
		d.problems = append(d.problems, fmt.Sprintf(
			"kill+resume sent %d probes, uninterrupted %d (+%d allowed)", sent, want.Sent, resumeCheckpointEvery))
	}
	return d, nil
}

// udp runs the first pass through the loopback UDP driver bridged into
// an identical topology, with the invariants tapping the engine from
// the responder goroutine. UDP delivery is asynchronous, so stragglers
// are re-drained after Run until the set catches up or time runs out.
func (m *matrix) udp(sc scenario, ref *digest) (*digest, error) {
	f, err := m.world(sc)
	if err != nil {
		return nil, err
	}
	iv := NewInvariants(nil)
	iv.Attach(f.Eng)
	drv, err := xmap.NewUDPDriver(f.Edge.Addr(), func(pkt []byte) [][]byte {
		f.Eng.Inject(f.Edge.Iface(), pkt)
		return f.Edge.Drain()
	})
	if err != nil {
		return nil, err
	}
	defer drv.Close()
	s, err := xmap.New(xmap.Config{Window: f.Window, Seed: m.passSeed(0), DedupExact: true, DrainEvery: 16}, drv)
	if err != nil {
		return nil, err
	}
	p := passDigest{set: map[ipv6.Addr]bool{}}
	if p.stats, err = s.Run(context.Background(), func(r xmap.Response) { p.set[r.Responder] = true }); err != nil {
		return nil, err
	}
	probe := &xmap.ICMPEchoProbe{}
	for deadline := time.Now().Add(20 * time.Second); len(p.set) < len(ref.passes[0].set) && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		for _, raw := range drv.Recv() {
			if sum, err := wire.ParsePacket(raw); err == nil {
				if resp, ok := probe.Classify(sum, s.Validation); ok {
					p.set[resp.Responder] = true
				}
			}
		}
	}
	return &digest{passes: []passDigest{p}, problems: iv.Violations()}, nil
}

// shards scans the deployment split across a 4-engine EngineGroup with
// ScanParallel, against the single-engine reference.
func (m *matrix) shards(_ scenario, ref *digest) (*digest, error) {
	d, err := m.deploy(4)
	if err != nil {
		return nil, err
	}
	// Per-shard spine replicas preserve path lengths, so even the
	// event totals must agree.
	if a, b := ref.counters.Events, d.counters.Events; a != b {
		d.problems = append(d.problems, fmt.Sprintf("event totals diverge: single %d, sharded %d", a, b))
	}
	return d, nil
}

// deploy scans every ISP of a small multi-ISP deployment, on one engine
// (shards = 0) or through ScanParallel over a sharded EngineGroup. The
// deployment is lossless, so the outcome is independent of how shards
// interleave. The digest's links are the subscribers' access links —
// the spine is replicated per engine shard — and its one pass sums the
// ISPs' scans.
func (m *matrix) deploy(shards int) (*digest, error) {
	dep, err := topo.Build(topo.Config{
		Seed: m.seed, Scale: 0.0005, WindowWidth: 8, MaxDevicesPerISP: 25,
		OnlyISPs: []int{1, 5, 12, 13}, Shards: shards,
	})
	if err != nil {
		return nil, err
	}
	iv := NewInvariants(nil)
	var mu sync.Mutex
	p := passDigest{set: map[ipv6.Addr]bool{}}
	handler := func(r xmap.Response) {
		mu.Lock()
		p.set[r.Responder] = true
		mu.Unlock()
	}
	if shards == 0 {
		iv.Attach(dep.Engine)
	} else {
		dep.Group.SetTap(iv.Tap)
	}
	d := &digest{}
	for _, isp := range dep.ISPs {
		cfg := xmap.Config{Window: isp.Window, Seed: scanSeed(m.seed)}
		var st xmap.Stats
		if shards == 0 {
			s, err := xmap.New(cfg, xmap.NewSimDriver(dep.Engine, dep.Edge))
			if err != nil {
				return nil, err
			}
			st, err = s.Run(context.Background(), handler)
			if err != nil {
				return nil, err
			}
		} else {
			if st, err = xmap.ScanParallel(context.Background(), cfg, xmap.NewGroupDriver(dep.Group, dep.Edge), shards, handler); err != nil {
				return nil, err
			}
		}
		p.stats.Merge(st)
		p.stats.Unique += st.Unique
	}
	d.passes = []passDigest{p}
	if shards == 0 {
		d.counters = dep.Engine.Counters()
	} else {
		d.counters = dep.Group.Counters()
	}
	for _, dev := range dep.Devices() {
		ends := dev.AccessLink.Ends()
		d.links = append(d.links, linkDigest{
			ends:  [2]string{dev.WANAddr.String(), ends[1].Name()},
			stats: [2]netsim.LinkStats{dev.AccessLink.StatsFrom(ends[0]), dev.AccessLink.StatsFrom(ends[1])},
		})
	}
	d.problems = iv.Violations()
	return d, nil
}

// diffDigest compares a run against its reference on the named fields.
func diffDigest(got, ref *digest, fields digestField) []string {
	var problems []string
	add := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	for i, g := range got.passes {
		if i >= len(ref.passes) {
			add("ran %d passes, reference %d", len(got.passes), len(ref.passes))
			break
		}
		r := ref.passes[i]
		if fields&fieldCounts != 0 {
			for _, c := range []struct {
				field    string
				got, ref uint64
			}{
				{"Targets", g.stats.Targets, r.stats.Targets},
				{"Sent", g.stats.Sent, r.stats.Sent},
				{"Received", g.stats.Received, r.stats.Received},
				{"Unique", g.stats.Unique, r.stats.Unique},
				{"Duplicates", g.stats.Duplicates, r.stats.Duplicates},
				{"Invalid", g.stats.Invalid, r.stats.Invalid},
			} {
				if c.got != c.ref {
					add("pass %d %s = %d, reference %d", i+1, c.field, c.got, c.ref)
				}
			}
		}
		if fields&fieldResponders != 0 {
			for a := range r.set {
				if !g.set[a] {
					add("pass %d missed responder %s", i+1, a)
				}
			}
			for a := range g.set {
				if !r.set[a] {
					add("pass %d found phantom responder %s", i+1, a)
				}
			}
		}
	}
	if fields&fieldCounts != 0 {
		g, r := got.counters, ref.counters
		if g.Transmissions != r.Transmissions || g.Bytes != r.Bytes || g.Dropped != r.Dropped {
			add("engine totals %d tx / %d B / %d dropped, reference %d / %d / %d",
				g.Transmissions, g.Bytes, g.Dropped, r.Transmissions, r.Bytes, r.Dropped)
		}
	}
	if fields&fieldLinks != 0 {
		if len(got.links) != len(ref.links) {
			add("%d links, reference %d (worlds diverged)", len(got.links), len(ref.links))
		} else {
			for i, a := range got.links {
				if b := ref.links[i]; a != b {
					add("link %s<->%s stats %+v, reference %s<->%s %+v", a.ends[0], a.ends[1], a.stats, b.ends[0], b.ends[1], b.stats)
				}
			}
		}
	}
	if fields&fieldTraces != 0 {
		problems = append(problems, diffFlowTraces(got.traces, ref.traces)...)
	}
	return problems
}

// diffFlowTraces is the trace-parity check: every traced flow must have
// recorded an identical crossing sequence in both runs. Reporting is
// bounded: systematic divergence would otherwise flood the failure with
// one line per flow.
func diffFlowTraces(got, ref *traceCollector) []string {
	var problems []string
	const maxReports = 10
	mismatched := 0
	report := func(format string, args ...any) {
		mismatched++
		if len(problems) < maxReports {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	for k, r := range ref.flows {
		if g, ok := got.flows[k]; !ok {
			report("no trace for flow %s", ipv6.AddrFromBytes(k[:]))
		} else if g != r {
			report("flow %s crossed %d hops, reference %d (sequences differ: %#x vs %#x)",
				ipv6.AddrFromBytes(k[:]), g.hops, r.hops, g.sum, r.sum)
		}
	}
	for k := range got.flows {
		if _, ok := ref.flows[k]; !ok {
			report("traced phantom flow %s", ipv6.AddrFromBytes(k[:]))
		}
	}
	if mismatched > maxReports {
		problems = append(problems, fmt.Sprintf("trace parity: %d flows diverged in total", mismatched))
	}
	return problems
}

// chunkDriver splits every SendBatch into sub-batches of at most n
// packets, forcing the engine to see a chosen batch size regardless of
// the scanner's drain window. n = 1 is the per-probe injection path.
type chunkDriver struct {
	under xmap.Driver
	n     int
}

func (c *chunkDriver) SendBatch(pkts [][]byte) (int, error) {
	sent := 0
	for len(pkts) > 0 {
		m := min(c.n, len(pkts))
		k, err := c.under.SendBatch(pkts[:m])
		sent += k
		if err != nil || k < m {
			return sent, err
		}
		pkts = pkts[m:]
	}
	return sent, nil
}

func (c *chunkDriver) RecvBatch(buf [][]byte) [][]byte { return c.under.RecvBatch(buf) }
func (c *chunkDriver) SourceAddr() ipv6.Addr           { return c.under.SourceAddr() }

// Release forwards buffer recycling to the underlying driver, so
// chunked runs keep the zero-alloc buffer loop.
func (c *chunkDriver) Release(pkts [][]byte) {
	if r, ok := c.under.(xmap.Releaser); ok {
		r.Release(pkts)
	}
}
