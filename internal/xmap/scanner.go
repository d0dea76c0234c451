package xmap

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/ipv6"
	"repro/internal/lpm"
	"repro/internal/perm"
	"repro/internal/telemetry"
	"repro/internal/uint128"
	"repro/internal/wire"
)

// Config parameterizes one scan.
type Config struct {
	// Window is the target space: all sub-prefixes of the given length
	// within the base prefix, each probed once at a pseudo-random
	// interface identifier (Section III-B).
	Window ipv6.Window
	// Probe is the probe module; nil means ICMPv6 echo.
	Probe ProbeModule
	// Seed keys the permutation, the per-target IIDs and the stateless
	// validation. Scans with equal seeds are identical.
	Seed []byte
	// ShardIndex/Shards split the permutation across scanner instances
	// (ZMap-style sharding); Shards=0 means 1.
	ShardIndex, Shards int
	// Rate caps probes per second; 0 disables limiting (the simulator
	// runs faster than any real link).
	Rate int
	// MaxTargets stops after probing this many sub-prefixes (0 = all).
	MaxTargets uint64
	// Blocklist prefixes are never probed; Allowlist, when non-empty,
	// restricts probing to within it.
	Blocklist []ipv6.Prefix
	Allowlist []ipv6.Prefix
	// ProbesPerTarget sends this many copies of each probe (ZMap's -P),
	// recovering hit rate on lossy paths; default 1. Duplicate replies
	// are absorbed by responder dedup.
	ProbesPerTarget int
	// DrainEvery pumps the receive path after this many probes
	// (default 64).
	DrainEvery int
	// RingSize, under ScanParallel, inserts a lock-free SPSC
	// transmission ring of this capacity (rounded up to a power of two)
	// between each shard's scanner and the driver: probe generation and
	// driver transmission then run pipelined in separate goroutines, a
	// full ring acting as backpressure on the generator. 0 sends
	// directly. Single scanners wanting the same pipeline wrap their
	// driver in NewRingDriver themselves.
	RingSize int
	// DedupExact uses an exact map for responder dedup instead of the
	// default Bloom filter — the ablation knob of DESIGN.md.
	DedupExact bool
	// Retries re-probes each target that stays unanswered past its
	// timeout, up to this many extra probes with exponential backoff
	// (0 = off). Unlike ProbesPerTarget, which sends blind copies to
	// everyone, retries spend probes only on the silent fraction.
	Retries int
	// RetryRing bounds the retry scheduler's memory: at most this many
	// targets are tracked at once; overflow is dropped and counted in
	// Stats.RetryDropped (default 1024).
	RetryRing int
	// RetryTimeout is the probe-clock delay (in probes sent) before an
	// unanswered target's first retry; retry k waits RetryTimeout<<k
	// (default 2*DrainEvery).
	RetryTimeout int
	// AIMD adapts the send window — probes between receive drains — to
	// the observed reply rate: additive increase on clean windows,
	// multiplicative decrease when the reply ratio collapses (the
	// back-pressure signal of ICMPv6 rate limiting, RFC 4443 §2.4).
	AIMD bool
	// CooldownDrains bounds the drain phase at scan end, when stragglers
	// and pending retries are collected (default 3, or 8 with retries).
	CooldownDrains int
	// CheckpointEvery emits a resumable ShardState through OnCheckpoint
	// after roughly this many targets (0 = only at exit).
	CheckpointEvery uint64
	// OnCheckpoint, when set, receives checkpoint states: periodically
	// per CheckpointEvery, and at every exit including cancellation.
	OnCheckpoint func(ShardState)
	// Resume restores a previous run's ShardState — permutation cursor,
	// cumulative statistics, dedup and retry state — and continues the
	// scan mid-cycle.
	Resume *ShardState
	// CheckpointPath, under ScanParallel, persists the assembled scan
	// checkpoint to this file (atomic replace) on every shard update.
	CheckpointPath string
	// ResumeFrom, under ScanParallel, resumes a checkpoint written via
	// CheckpointPath; its config digest is verified first.
	ResumeFrom *Checkpoint
	// Telemetry, when set, receives the scan's counters, histograms and
	// gauges; the scanner writes to the registry shard matching
	// ShardIndex. The scan.* counters are Stats, published once per
	// drain window, so a live read lags the scan by at most one window.
	// The instrumentation is allocation-free and, when Telemetry is nil,
	// costs one predictable branch per histogram or gauge update.
	Telemetry *telemetry.Registry
	// Monitor, when set, is ticked on the probe clock once per drain
	// window, driving the periodic ZMap-style status line.
	Monitor *telemetry.Monitor

	// Defend enables the adversarial defenses: the cooldown alias
	// detector (saturated prefixes are re-probed and, if confirmed,
	// folded into the runtime blocklist), strict embedded-quote
	// validation, reply quarantine, and drain-window overload shedding.
	// Off by default; the hot path then carries no defense state.
	Defend bool
	// AliasPrefixLen is the detect-prefix granularity of the alias
	// detector, in [16,64] (default 60 — one detect-prefix per 16
	// window /64s, the aliased-delegation size the periphery papers
	// report most often).
	AliasPrefixLen int
	// CooldownProbes is j, the number of deterministic pseudo-random
	// re-probes sent into a suspicious prefix (default 3).
	CooldownProbes int
	// CooldownWindow is the cooldown length in drain windows before an
	// unconfirmed suspicious prefix is cleared (default 4).
	CooldownWindow int
	// AliasConfirm is the cooldown evidence needed to blocklist a
	// suspicious prefix (default 2).
	AliasConfirm int
	// ShedBudget caps the replies processed per drain under Defend:
	// when RecvBatch floods past it, lowest-value replies are dropped
	// deterministically instead of stalling the send path (default
	// 4*DrainEvery; ignored without Defend).
	ShedBudget int

	// Tracer, when set, records sampled probe-lifecycle spans: the
	// scanner writes span stream TraceStream and fires anomaly
	// exemplars on quarantine, alias detection, retry exhaustion and
	// shedding. Nil costs one predictable branch per hook.
	Tracer *telemetry.Tracer
	// TraceStream is the tracer span stream this scanner writes
	// (its shard index under ScanParallel).
	TraceStream int
	// Watchdog, when set, receives this shard's stage transitions and
	// one progress beat per drain window for stall diagnosis.
	Watchdog *telemetry.Watchdog

	// cycle, when set, is a pre-built permutation shared between the
	// scanners of one ScanParallel call (a Cycle is immutable, and its
	// construction — safe-prime search, generator selection — is the
	// dominant per-scanner setup cost).
	cycle *perm.Cycle
}

// Stats summarizes a finished scan.
type Stats struct {
	// Targets is the number of sub-prefixes probed.
	Targets    uint64
	Sent       uint64
	SendErrors uint64
	Received   uint64 // validated responses, including duplicates
	Invalid    uint64 // packets failing parse or validation
	Duplicates uint64 // validated responses from already-seen responders
	Unique     uint64 // unique responders handed to the handler
	Blocked    uint64 // targets skipped by blocklist/allowlist
	// Retry scheduler accounting.
	Retried        uint64 // retry probes sent
	RetryDropped   uint64 // targets untracked because the retry ring was full
	RetryExhausted uint64 // targets still silent after every allowed retry
	RetryAbandoned uint64 // pending retries given up at the cooldown deadline
	// AIMD rate-controller accounting.
	RateUp   uint64 // additive-increase decisions (clean windows)
	RateDown uint64 // multiplicative-decrease decisions (lossy windows)
	// Adversarial-defense accounting (Config.Defend).
	AliasDetected uint64 // prefixes entering an alias cooldown window
	AliasCooldown uint64 // cooldown re-probes sent
	AliasBlocked  uint64 // prefixes confirmed saturated and blocklisted
	Quarantined   uint64 // unvalidatable replies quarantined
	Shed          uint64 // buffered replies shed under overload
	Elapsed       time.Duration
}

// HitRate is unique responders per probe sent.
func (s Stats) HitRate() float64 {
	if s.Sent == 0 {
		return 0
	}
	return float64(s.Unique) / float64(s.Sent)
}

// Merge folds one shard scanner's stats into an aggregate: counts sum,
// Elapsed takes the slowest shard (the shards run concurrently). Unique
// is deliberately NOT merged — shard-local uniqueness double-counts a
// responder first seen by two shards, so aggregators (ScanParallel)
// count uniqueness across their own cross-shard dedup instead.
func (s *Stats) Merge(o Stats) {
	s.Targets += o.Targets
	s.Sent += o.Sent
	s.SendErrors += o.SendErrors
	s.Received += o.Received
	s.Invalid += o.Invalid
	s.Duplicates += o.Duplicates
	s.Blocked += o.Blocked
	s.Retried += o.Retried
	s.RetryDropped += o.RetryDropped
	s.RetryExhausted += o.RetryExhausted
	s.RetryAbandoned += o.RetryAbandoned
	s.RateUp += o.RateUp
	s.RateDown += o.RateDown
	s.AliasDetected += o.AliasDetected
	s.AliasCooldown += o.AliasCooldown
	s.AliasBlocked += o.AliasBlocked
	s.Quarantined += o.Quarantined
	s.Shed += o.Shed
	if o.Elapsed > s.Elapsed {
		s.Elapsed = o.Elapsed
	}
}

// Handler consumes one first-seen responder.
type Handler func(Response)

// Scanner executes scans against a Driver. A Scanner is not safe for
// concurrent use: Validation, TargetFor and Run share reusable PRF and
// buffer scratch state (ScanParallel gives each goroutine its own
// Scanner).
type Scanner struct {
	cfg     Config
	drv     Driver
	flusher Flusher // drv's Flusher capability, if any
	probe   ProbeModule
	cycle   *perm.Cycle
	block   *lpm.Table[bool]
	allow   *lpm.Table[bool]
	dedup   dedupSet
	retry   *retryRing      // nil unless Config.Retries > 0
	aimd    *aimdController // nil unless Config.AIMD
	alias   *aliasDetector  // nil unless Config.Defend
	tel     *telemetry.Shard
	// published is the Stats already added into tel's scan.* counters.
	published Stats
	// cross, under ScanParallel, counts the cross-shard dedup verdicts
	// on this shard's responders since the last publish; nil otherwise.
	cross *crossDedup

	// Probe-lifecycle tracing (nil tracer/watchdog = detached).
	tracer   *telemetry.Tracer
	trStream int
	wd       *telemetry.Watchdog

	// der derives the targets and validation values of the scan window.
	der Derivation
	// validate is the bound Validation method, constructed once —
	// passing s.Validation at a call site would allocate a closure per
	// packet.
	validate Validator
	batch    [][]byte
	// one is the single-probe batch for the paced send path.
	one [1][]byte
	// free holds probe buffers whose batch has been sent (the Driver
	// contract: SendBatch does not retain them); recycle stages drained
	// receive buffers for return to a Releaser driver; rx is the reused
	// RecvBatch drain slice. Together they make the steady-state probe
	// loop allocation-free against the simulator drivers.
	free    [][]byte
	recycle [][]byte
	rx      [][]byte
	// sum is the receive path's reusable packet decoder.
	sum wire.Summary
}

// defaultSeed is applied when Config.Seed is empty.
var defaultSeed = []byte("xmap-default-seed")

func seedOrDefault(seed []byte) []byte {
	if len(seed) == 0 {
		return defaultSeed
	}
	return seed
}

// New validates the configuration and prepares a scanner.
func New(cfg Config, drv Driver) (*Scanner, error) {
	if drv == nil {
		return nil, fmt.Errorf("xmap: nil driver")
	}
	if cfg.Window.To == 0 {
		return nil, fmt.Errorf("xmap: no scan window configured")
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.Shards {
		return nil, fmt.Errorf("xmap: shard %d of %d invalid", cfg.ShardIndex, cfg.Shards)
	}
	if cfg.DrainEvery <= 0 {
		cfg.DrainEvery = 64
	}
	if cfg.ProbesPerTarget <= 0 {
		cfg.ProbesPerTarget = 1
	}
	if cfg.ProbesPerTarget > 16 {
		return nil, fmt.Errorf("xmap: %d probes per target is unreasonable", cfg.ProbesPerTarget)
	}
	if cfg.Retries < 0 || cfg.Retries > 16 {
		return nil, fmt.Errorf("xmap: %d retries out of [0,16]", cfg.Retries)
	}
	if cfg.Retries > 0 {
		if cfg.RetryRing <= 0 {
			cfg.RetryRing = 1024
		}
		if cfg.RetryTimeout <= 0 {
			cfg.RetryTimeout = 2 * cfg.DrainEvery
		}
	}
	if cfg.CooldownDrains <= 0 {
		if cfg.Retries > 0 {
			// Retries need headroom: each cooldown round both drains and
			// fires the next backoff tier.
			cfg.CooldownDrains = 8
		} else {
			cfg.CooldownDrains = 3
		}
	}
	if cfg.Defend {
		if cfg.AliasPrefixLen == 0 {
			cfg.AliasPrefixLen = 60
		}
		if cfg.AliasPrefixLen < 16 || cfg.AliasPrefixLen > 64 {
			return nil, fmt.Errorf("xmap: alias prefix length /%d out of [16,64]", cfg.AliasPrefixLen)
		}
		if cfg.CooldownProbes <= 0 {
			cfg.CooldownProbes = 3
		}
		if cfg.CooldownWindow <= 0 {
			cfg.CooldownWindow = 4
		}
		if cfg.AliasConfirm <= 0 {
			cfg.AliasConfirm = 2
		}
		if cfg.ShedBudget <= 0 {
			cfg.ShedBudget = 4 * cfg.DrainEvery
		}
	}
	cfg.Seed = seedOrDefault(cfg.Seed)
	size, ok := cfg.Window.Size()
	if !ok {
		return nil, fmt.Errorf("xmap: window %s too large", cfg.Window)
	}
	cycle := cfg.cycle
	if cycle == nil {
		var err error
		cycle, err = perm.NewCycle(size, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("xmap: building permutation: %w", err)
		}
	}
	s := &Scanner{cfg: cfg, drv: drv, cycle: cycle}
	s.flusher, _ = drv.(Flusher)
	s.tel = cfg.Telemetry.Shard(cfg.ShardIndex)
	s.tracer = cfg.Tracer
	s.trStream = cfg.TraceStream
	s.wd = cfg.Watchdog
	s.der = NewDerivation(cfg.Window, cfg.Seed)
	s.validate = s.der.Validation
	s.probe = cfg.Probe
	if s.probe == nil {
		s.probe = &ICMPEchoProbe{}
	}
	if cfg.Defend {
		s.alias = newAliasDetector(&s.cfg)
		// Strict embedded-quote validation: error replies must quote an
		// invoking packet sourced from this scanner, closing the forged
		// verbatim-quote hole the malformed responder exploits.
		if ep, ok := s.probe.(*ICMPEchoProbe); ok && ep.StrictSource == (ipv6.Addr{}) {
			ep.StrictSource = drv.SourceAddr()
		}
	}
	if len(cfg.Blocklist) > 0 {
		s.block = lpm.New[bool]()
		for _, p := range cfg.Blocklist {
			s.block.Insert(p, true)
		}
	}
	if len(cfg.Allowlist) > 0 {
		s.allow = lpm.New[bool]()
		for _, p := range cfg.Allowlist {
			s.allow.Insert(p, true)
		}
	}
	if cfg.DedupExact {
		s.dedup = make(mapDedup)
	} else {
		// A sharded scanner only probes its slice of the space, so its
		// filter needs capacity for that slice, not the whole window.
		shardSpace := size
		if cfg.Shards > 1 {
			shardSpace, _ = size.Add64(uint64(cfg.Shards) - 1).Div64(uint64(cfg.Shards))
		}
		bf, err := newBloomDedup(shardSpace, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("xmap: sizing dedup filter: %w", err)
		}
		s.dedup = bf
	}
	if cfg.Retries > 0 {
		s.retry = newRetryRing(cfg.RetryRing)
	}
	if cfg.AIMD {
		s.aimd = newAIMD(cfg.DrainEvery)
	}
	if r := cfg.Resume; r != nil {
		if r.Shard != cfg.ShardIndex {
			return nil, fmt.Errorf("xmap: resume state is for shard %d, scanner is shard %d", r.Shard, cfg.ShardIndex)
		}
		if len(r.Dedup) > 0 {
			if r.DedupKind != s.dedup.kind() {
				return nil, fmt.Errorf("xmap: resume dedup kind %d, configuration wants %d (DedupExact changed?)", r.DedupKind, s.dedup.kind())
			}
			restored, err := dedupFromState(r.DedupKind, r.Dedup)
			if err != nil {
				return nil, fmt.Errorf("xmap: restoring dedup state: %w", err)
			}
			s.dedup = restored
		}
		if len(r.Retry) > 4 { // 4 bytes is an empty ring's count header
			if s.retry == nil {
				return nil, fmt.Errorf("xmap: resume state has pending retries but retries are disabled")
			}
			if err := s.retry.restoreState(r.Retry, s.TargetFor); err != nil {
				return nil, fmt.Errorf("xmap: restoring retry state: %w", err)
			}
		}
	}
	return s, nil
}

// ResponderCounts returns per-responder response counts when the exact
// dedup set is in use (Config.DedupExact), nil otherwise. Infrastructure
// routers answer for many destinations; peripheries for few — the
// distinction Section IV-E's periphery validation leans on.
func (s *Scanner) ResponderCounts() map[ipv6.Addr]uint64 {
	if m, ok := s.dedup.(mapDedup); ok {
		return m
	}
	return nil
}

// Validation derives the stateless validation value for dst (see
// Derivation.Validation), exposed so cooperating tools can pre-compute
// expected values.
func (s *Scanner) Validation(dst ipv6.Addr) uint32 { return s.der.Validation(dst) }

// TargetFor returns the probe address for a window index (see
// Derivation.TargetFor).
func (s *Scanner) TargetFor(idx uint128.Uint128) (ipv6.Addr, error) { return s.der.TargetFor(idx) }

// maxSendStalls bounds how many consecutive zero-progress short writes
// the scanner tolerates before declaring the rest of the burst failed —
// a wedged driver must not hang the scan.
const maxSendStalls = 1 << 16

// Run executes the scan, invoking handler for each first-seen responder.
// It honors ctx cancellation between probes.
//
// The send path is batch-first: probes accumulate and flush once per
// drain window through Driver.SendBatch, amortizing driver entry across
// the burst. A rate limit forces per-probe pacing, so the paced path
// sends each probe as a one-packet burst instead.
//
// With Config.Resume set, the scan continues mid-cycle: the permutation
// cursor fast-forwards past the probed prefix of the shard's sequence,
// statistics accumulate on top of the restored ones, and the restored
// dedup state keeps already-reported responders suppressed.
func (s *Scanner) Run(ctx context.Context, handler Handler) (Stats, error) {
	var stats Stats
	var priorElapsed time.Duration
	start := time.Now()
	var it *perm.Iterator
	if r := s.cfg.Resume; r != nil {
		stats = r.Stats
		priorElapsed = r.Stats.Elapsed
		it = s.cycle.ShardAt(s.cfg.ShardIndex, s.cfg.Shards, r.Consumed)
	} else {
		it = s.cycle.Shard(s.cfg.ShardIndex, s.cfg.Shards)
	}
	// The registry counts this process's own work: a resumed scan's
	// restored Stats are the publish baseline, not new counts.
	s.published = stats
	defer s.publish(&stats)
	src := s.drv.SourceAddr()
	s.wd.Stage(s.cfg.ShardIndex, "send")
	defer s.wd.Stage(s.cfg.ShardIndex, telemetry.StageDone)
	// pender exposes a pipelined driver's queued depth for watchdog beats.
	pender, _ := s.drv.(interface{ Pending() int })
	// traceSpan records one sampled probe-lifecycle span keyed by the
	// probe target; the address-hash sampler makes the decision, so the
	// same targets are traced here and in every other layer.
	traceSpan := func(kind telemetry.SpanKind, dst ipv6.Addr, arg uint64) {
		if s.tracer != nil {
			if b := dst.Bytes(); s.tracer.SampleAddr(b) {
				s.tracer.Span(s.trStream, kind, stats.Sent, b, arg)
			}
		}
	}

	var limiter *rateLimiter
	if s.cfg.Rate > 0 {
		limiter = newRateLimiter(s.cfg.Rate)
	}
	// Probe-buffer recycling needs the append-building probe module; the
	// Driver contract already guarantees SendBatch does not retain.
	appender, _ := s.probe.(AppendProbeModule)
	// sendAll pushes a burst through the driver with the SendBatch
	// short-write protocol: retry the unsent tail on transient
	// backpressure, count an errored packet once and move on. Probes are
	// neither dropped silently nor double-counted — Sent advances by
	// exactly what the driver accepted.
	sendAll := func(pkts [][]byte) {
		idle := 0
		for len(pkts) > 0 {
			n, err := s.drv.SendBatch(pkts)
			stats.Sent += uint64(n)
			pkts = pkts[n:]
			if len(pkts) == 0 {
				return
			}
			if err != nil {
				// pkts[0] is the packet the driver rejected.
				stats.SendErrors++
				pkts = pkts[1:]
				continue
			}
			// Short write without error: ENOBUFS-style pushback. Yield so
			// whatever drains the packet layer can run, then retry.
			if idle++; idle > maxSendStalls {
				stats.SendErrors += uint64(len(pkts))
				return
			}
			runtime.Gosched()
		}
	}
	flush := func() {
		if len(s.batch) == 0 {
			return
		}
		sendAll(s.batch)
		if appender != nil {
			for i, p := range s.batch {
				// ProbesPerTarget copies are the same slice appended
				// consecutively; recycle each buffer once.
				if i > 0 && len(p) > 0 && len(s.batch[i-1]) > 0 && &p[0] == &s.batch[i-1][0] {
					continue
				}
				s.free = append(s.free, p)
			}
		}
		clear(s.batch)
		s.batch = s.batch[:0]
	}
	// send stages one built probe into the current batch, or — when a
	// rate limit is set, since pacing is inherently per-probe — pushes it
	// through the driver immediately as a one-probe burst.
	send := func(pkt []byte) {
		if limiter == nil {
			s.batch = append(s.batch, pkt)
			return
		}
		limiter.wait()
		if s.tracer != nil && len(pkt) >= wire.HeaderLen && pkt[0]>>4 == 6 {
			var dst [16]byte
			copy(dst[:], pkt[24:40])
			if s.tracer.SampleAddr(dst) {
				s.tracer.Span(s.trStream, telemetry.SpanRateGate, stats.Sent, dst, 0)
			}
		}
		s.one[0] = pkt
		sendAll(s.one[:])
		s.one[0] = nil
		if appender != nil {
			s.free = append(s.free, pkt)
		}
	}
	buildProbe := func(target ipv6.Addr) ([]byte, error) {
		if appender != nil {
			var buf []byte
			if l := len(s.free); l > 0 {
				buf, s.free[l-1] = s.free[l-1], nil
				s.free = s.free[:l-1]
			}
			return appender.AppendProbe(buf, src, target, s.Validation(target))
		}
		return s.probe.MakeProbe(src, target, s.Validation(target))
	}

	// The drain cadence: a counter against the send window, which is
	// DrainEvery fixed, or AIMD-adjusted between drains. Counting locally
	// (not stats.Targets%DrainEvery) keeps the cadence correct across
	// resume offsets and retry traffic.
	window := s.cfg.DrainEvery
	sinceDrain := 0
	lastSent, lastRecv := stats.Sent, stats.Received
	baseUp, baseDown := stats.RateUp, stats.RateDown
	s.tel.SetGauge(telemetry.GaugeWindow, int64(window))
	var nextCkpt uint64
	if s.cfg.CheckpointEvery > 0 {
		nextCkpt = stats.Targets + s.cfg.CheckpointEvery
	}
	// emit hands the current resumable state to the checkpoint sink. It
	// runs only after a flush+drain, so the serialized dedup set reflects
	// every response collected so far.
	emit := func(done bool) {
		if s.cfg.OnCheckpoint == nil {
			return
		}
		stats.Elapsed = priorElapsed + time.Since(start)
		st := ShardState{
			Shard:     s.cfg.ShardIndex,
			Done:      done,
			Consumed:  it.Consumed(),
			Stats:     stats,
			DedupKind: s.dedup.kind(),
			Dedup:     s.dedup.appendState(nil),
		}
		if s.retry != nil {
			st.Retry = s.retry.appendState(nil)
		}
		s.cfg.OnCheckpoint(st)
		s.publish(&stats)
		s.tel.Inc(telemetry.ScanCheckpoints)
		// A cut concerns every target, so its span is recorded unsampled.
		s.tracer.Span(s.trStream, telemetry.SpanCheckpoint, stats.Sent, zeroAddr, stats.Targets)
	}
	// pumpDue reports whether the send window should close now: it is
	// full, or a checkpoint interval expired (a checkpoint needs the
	// flush+drain for a consistent dedup snapshot, so it forces one).
	pumpDue := func() bool {
		return sinceDrain >= window || (nextCkpt > 0 && stats.Targets >= nextCkpt)
	}
	// sendCooldown fires the alias detector's queued re-probes and
	// flushes them immediately: cooldown evidence must arrive within the
	// cooldown window regardless of how full the next send window is.
	sendCooldown := func() {
		if s.alias == nil {
			return
		}
		pending := s.alias.takePending()
		if len(pending) == 0 {
			return
		}
		for _, dst := range pending {
			pkt, err := buildProbe(dst)
			if err != nil {
				continue
			}
			send(pkt)
			stats.AliasCooldown++
			traceSpan(telemetry.SpanAliasCooldown, dst, 0)
		}
		flush()
	}
	// pump closes a send window: flush, drain, let AIMD reconsider the
	// window, and checkpoint if the interval has passed.
	pump := func() {
		if s.wd != nil {
			depth := 0
			if pender != nil {
				depth = pender.Pending()
			}
			s.wd.Beat(s.cfg.ShardIndex, stats.Sent, depth, uint64(sinceDrain))
		}
		flush()
		s.tel.Observe(telemetry.HistDrainBatch, uint64(sinceDrain))
		s.wd.Stage(s.cfg.ShardIndex, "drain")
		s.drain(&stats, handler)
		sendCooldown()
		s.wd.Stage(s.cfg.ShardIndex, "send")
		sinceDrain = 0
		if s.aimd != nil {
			prevWindow := window
			window = s.aimd.update(stats.Sent-lastSent, stats.Received-lastRecv)
			lastSent, lastRecv = stats.Sent, stats.Received
			stats.RateUp = baseUp + s.aimd.ups
			stats.RateDown = baseDown + s.aimd.downs
			if window != prevWindow {
				s.tel.SetGauge(telemetry.GaugeWindow, int64(window))
				// Window changes are rare and concern every target, so the
				// span is recorded unsampled.
				s.tracer.Span(s.trStream, telemetry.SpanAIMD, stats.Sent, zeroAddr, uint64(window))
			}
		}
		if s.retry != nil {
			s.tel.SetGauge(telemetry.GaugeRetryPending, int64(s.retry.pending))
		}
		if nextCkpt > 0 && stats.Targets >= nextCkpt {
			emit(false)
			nextCkpt = stats.Targets + s.cfg.CheckpointEvery
		}
		s.publish(&stats)
		s.cfg.Monitor.Tick()
	}
	// sendRetry re-probes a due entry (one probe, not ProbesPerTarget
	// copies) and reschedules it with exponential backoff.
	sendRetry := func(e retryEntry) error {
		pkt, err := buildProbe(e.dst)
		if err != nil {
			return fmt.Errorf("xmap: building retry probe for %s: %w", e.dst, err)
		}
		send(pkt)
		stats.Retried++
		sinceDrain++
		e.attempts++
		e.due = stats.Sent + uint64(s.cfg.RetryTimeout)<<(e.attempts-1)
		traceSpan(telemetry.SpanRetry, e.dst, uint64(e.attempts))
		if !s.retry.push(e) {
			stats.RetryDropped++
		}
		return nil
	}

	ranOut := false
	for {
		if err := ctx.Err(); err != nil {
			flush()
			if s.cfg.OnCheckpoint != nil {
				// Collect what the driver already has, then leave a
				// resumable state behind: cancellation is the crash-safe
				// shutdown path.
				s.drain(&stats, handler)
				emit(false)
			}
			stats.Elapsed = priorElapsed + time.Since(start)
			return stats, err
		}
		// Service due retries ahead of fresh targets: their backoff
		// deadline has passed, and resolving them frees ring capacity.
		if s.retry != nil {
			for {
				e, ok := s.retry.popDue(stats.Sent)
				if !ok {
					break
				}
				if int(e.attempts) >= 1+s.cfg.Retries {
					stats.RetryExhausted++
					s.tracer.Anomaly(telemetry.AnomalyRetryExhausted, s.trStream, stats.Sent, e.dst.Bytes())
					continue
				}
				if err := sendRetry(e); err != nil {
					flush()
					stats.Elapsed = priorElapsed + time.Since(start)
					return stats, err
				}
				if pumpDue() {
					pump()
				}
			}
		}
		if s.cfg.MaxTargets > 0 && stats.Targets >= s.cfg.MaxTargets {
			break
		}
		idx, ok := it.Next()
		if !ok {
			ranOut = true
			break
		}
		target, err := s.TargetFor(idx)
		if err != nil {
			flush()
			stats.Elapsed = priorElapsed + time.Since(start)
			return stats, err
		}
		if s.skipTarget(target) {
			stats.Blocked++
			continue
		}
		pkt, err := buildProbe(target)
		if err != nil {
			flush()
			stats.Elapsed = priorElapsed + time.Since(start)
			return stats, fmt.Errorf("xmap: building probe for %s: %w", target, err)
		}
		for copyN := 0; copyN < s.cfg.ProbesPerTarget; copyN++ {
			send(pkt)
		}
		if s.retry != nil {
			if !s.retry.push(retryEntry{
				idx:      idx,
				dst:      target,
				due:      stats.Sent + uint64(s.cfg.RetryTimeout),
				attempts: 1,
			}) {
				stats.RetryDropped++
			}
		}
		stats.Targets++
		sinceDrain++
		traceSpan(telemetry.SpanSent, target, stats.Targets)
		if pumpDue() {
			pump()
		}
	}
	flush()

	// Cooldown: a bounded sequence of drain rounds collects stragglers (a
	// real driver may deliver late). Between rounds the probe clock jumps
	// to the next retry deadline, so pending retries get their backoff
	// tiers fired before the deadline expires; the final round only
	// drains.
	s.wd.Stage(s.cfg.ShardIndex, "cooldown")
	for round := 0; round < s.cfg.CooldownDrains; round++ {
		s.drain(&stats, handler)
		sendCooldown()
		if s.retry == nil || round == s.cfg.CooldownDrains-1 {
			continue
		}
		clock := stats.Sent
		if due, ok := s.retry.nextDue(); ok && due > clock {
			clock = due
		}
		for {
			e, ok := s.retry.popDue(clock)
			if !ok {
				break
			}
			if int(e.attempts) >= 1+s.cfg.Retries {
				stats.RetryExhausted++
				s.tracer.Anomaly(telemetry.AnomalyRetryExhausted, s.trStream, stats.Sent, e.dst.Bytes())
				continue
			}
			if err := sendRetry(e); err != nil {
				stats.Elapsed = priorElapsed + time.Since(start)
				return stats, err
			}
		}
		flush()
	}
	// Account for whatever the deadline left unresolved.
	if s.retry != nil {
		for {
			e, ok := s.retry.popDue(^uint64(0))
			if !ok {
				break
			}
			if int(e.attempts) >= 1+s.cfg.Retries {
				stats.RetryExhausted++
				s.tracer.Anomaly(telemetry.AnomalyRetryExhausted, s.trStream, stats.Sent, e.dst.Bytes())
			} else {
				stats.RetryAbandoned++
			}
		}
		s.tel.SetGauge(telemetry.GaugeRetryPending, 0)
	}
	emit(ranOut)
	stats.Elapsed = priorElapsed + time.Since(start)
	return stats, nil
}

// publish adds the change in each Stats counter since the last publish
// into the registry shard's matching scan.* slot. It is the only writer
// of the slots that mirror Stats: the scanner keeps its counts in Stats
// and publishes once per drain window, at checkpoints and when Run
// returns. Adding deltas keeps several scanners sharing one registry
// shard correct.
func (s *Scanner) publish(st *Stats) {
	if s.tel == nil {
		return
	}
	p := &s.published
	unique, dups := st.Unique-p.Unique, st.Duplicates-p.Duplicates
	if s.cross != nil {
		// Under ScanParallel, uniqueness is the cross-shard verdict: a
		// responder first seen by another shard is a duplicate here.
		unique, dups = s.cross.unique, dups+s.cross.dups
		*s.cross = crossDedup{}
	}
	s.tel.Add(telemetry.ScanTargets, st.Targets-p.Targets)
	s.tel.Add(telemetry.ScanSent, st.Sent-p.Sent)
	s.tel.Add(telemetry.ScanSendErrors, st.SendErrors-p.SendErrors)
	s.tel.Add(telemetry.ScanReceived, st.Received-p.Received)
	s.tel.Add(telemetry.ScanInvalid, st.Invalid-p.Invalid)
	s.tel.Add(telemetry.ScanDuplicates, dups)
	s.tel.Add(telemetry.ScanUnique, unique)
	s.tel.Add(telemetry.ScanBlocked, st.Blocked-p.Blocked)
	s.tel.Add(telemetry.ScanRetried, st.Retried-p.Retried)
	s.tel.Add(telemetry.ScanRetryDropped, st.RetryDropped-p.RetryDropped)
	s.tel.Add(telemetry.ScanRetryExhausted, st.RetryExhausted-p.RetryExhausted)
	s.tel.Add(telemetry.ScanRetryAbandoned, st.RetryAbandoned-p.RetryAbandoned)
	s.tel.Add(telemetry.ScanRateUp, st.RateUp-p.RateUp)
	s.tel.Add(telemetry.ScanRateDown, st.RateDown-p.RateDown)
	s.tel.Add(telemetry.ScanAliasDetected, st.AliasDetected-p.AliasDetected)
	s.tel.Add(telemetry.ScanAliasCooldown, st.AliasCooldown-p.AliasCooldown)
	s.tel.Add(telemetry.ScanAliasBlocked, st.AliasBlocked-p.AliasBlocked)
	s.tel.Add(telemetry.ScanQuarantined, st.Quarantined-p.Quarantined)
	s.tel.Add(telemetry.ScanShed, st.Shed-p.Shed)
	*p = *st
}

// zeroAddr is the all-zero trace address for events that concern no
// particular target (window changes, checkpoints).
var zeroAddr [16]byte

// skipTarget applies allowlist then blocklist.
func (s *Scanner) skipTarget(a ipv6.Addr) bool {
	if s.allow != nil {
		if _, ok := s.allow.Lookup(a); !ok {
			return true
		}
	}
	if s.block != nil {
		if _, ok := s.block.Lookup(a); ok {
			return true
		}
	}
	return false
}

// drain pumps the receive path through classification, validation and
// dedup. A pipelined driver is flushed first, so the drain window is a
// barrier: every probe accepted before it has reached the packet layer,
// which keeps checkpoints (emitted only after a drain) and the
// batch-vs-per-packet oracle sound. Buffers that no Response retains
// (only KindUDPData keeps a Payload reference) go back to a Releaser
// driver afterwards.
func (s *Scanner) drain(stats *Stats, handler Handler) {
	rawMod, isRaw := s.probe.(RawProbeModule)
	releaser, _ := s.drv.(Releaser)
	if s.flusher != nil {
		s.flusher.Flush()
	}
	s.rx = s.drv.RecvBatch(s.rx[:0])
	if s.alias != nil && len(s.rx) > s.cfg.ShedBudget {
		s.shed(stats, releaser)
	}
	for _, raw := range s.rx {
		var (
			resp   Response
			ok     bool
			parsed bool
		)
		if isRaw {
			resp, ok = rawMod.ClassifyRaw(raw, s.validate)
		} else if err := s.sum.Parse(raw); err == nil {
			resp, ok = s.probe.Classify(&s.sum, s.validate)
			parsed = true
		}
		if releaser != nil && resp.Payload == nil {
			s.recycle = append(s.recycle, raw)
		}
		if !ok {
			stats.Invalid++
			if s.alias != nil {
				s.aliasQuarantine(raw, stats)
			}
			continue
		}
		stats.Received++
		var hop uint64
		if parsed {
			hop = uint64(s.sum.IP.HopLimit)
			s.tel.Observe(telemetry.HistReplyHopLimit, hop)
		}
		// Spans key by the probed target (not the responder) so the
		// reply stitches onto the target's sent/hop spans.
		if s.tracer != nil {
			if b := resp.ProbeDst.Bytes(); s.tracer.SampleAddr(b) {
				kind := telemetry.SpanReply
				if resp.Kind == KindDestUnreach || resp.Kind == KindTimeExceeded {
					kind = telemetry.SpanICMPError
				}
				s.tracer.Span(s.trStream, kind, stats.Sent, b, hop)
			}
		}
		if s.retry != nil {
			// Any validated response resolves the probed target, even a
			// duplicate responder or an ICMP error: the path answered. The
			// resolved entry dates the probe, yielding the reply latency in
			// probe-clock ticks.
			if e, answered := s.retry.answered(resp.ProbeDst); answered {
				sentAt := e.due - uint64(s.cfg.RetryTimeout)<<(e.attempts-1)
				s.tel.Observe(telemetry.HistReplyLatency, stats.Sent-sentAt)
			}
		}
		if s.alias != nil && s.aliasObserve(&resp, stats) {
			// Detector traffic (cooldown-probe replies, saturation
			// chatter from prefixes under suspicion): consumed, never
			// dedup'd or handed to the handler.
			continue
		}
		if !s.dedup.checkAdd(resp.Responder) {
			stats.Duplicates++
			if s.tracer != nil {
				if b := resp.ProbeDst.Bytes(); s.tracer.SampleAddr(b) {
					s.tracer.Span(s.trStream, telemetry.SpanDedup, stats.Sent, b, 0)
				}
			}
			continue
		}
		stats.Unique++
		if handler != nil {
			handler(resp)
		}
	}
	if releaser != nil && len(s.recycle) > 0 {
		// Deferred past the loop: s.sum still references the most
		// recently parsed buffer until the next Parse.
		releaser.Release(s.recycle)
		clear(s.recycle)
		s.recycle = s.recycle[:0]
	}
	// Drop the drain slice's references so released buffers are not
	// pinned until the next drain.
	clear(s.rx)
	s.rx = s.rx[:0]
	if s.alias != nil {
		s.aliasTick()
	}
}

// rateLimiter is a token bucket over wall-clock time. Tokens refill in
// batches of ~1ms worth of probes rather than one per probe: at high
// rates a per-probe time.Sleep would need sub-microsecond precision the
// OS timer cannot deliver, silently capping throughput near the timer
// frequency. Batched refills sleep at most once per batch and keep the
// long-run average at the configured rate.
type rateLimiter struct {
	interval time.Duration // wall-clock budget per token batch
	batch    int           // tokens granted per refill
	tokens   int           // sends remaining before the next refill
	next     time.Time     // when the next refill is due
}

func newRateLimiter(rate int) *rateLimiter {
	batch := rate / 1000
	if batch < 1 {
		batch = 1
	}
	return &rateLimiter{
		interval: time.Duration(batch) * time.Second / time.Duration(rate),
		batch:    batch,
		next:     time.Now(),
	}
}

func (r *rateLimiter) wait() {
	if r.tokens > 0 {
		r.tokens--
		return
	}
	now := time.Now()
	if now.Before(r.next) {
		time.Sleep(r.next.Sub(now))
	}
	r.next = r.next.Add(r.interval)
	if r.next.Before(now.Add(-time.Second)) {
		// Deep deficit (slow sender); don't accumulate unbounded burst.
		r.next = now
	}
	r.tokens = r.batch - 1
}
