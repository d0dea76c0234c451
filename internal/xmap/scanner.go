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
	cfg      Config
	drv      Driver
	flusher  Flusher  // drv's Flusher capability, if any
	releaser Releaser // drv's Releaser capability, if any
	probe    ProbeModule
	raw      RawProbeModule // probe, when it parses received packets itself
	cycle    *perm.Cycle
	block    *lpm.Table[bool]
	allow    *lpm.Table[bool]
	dedup    dedupSet
	retry    *retryRing      // nil unless Config.Retries > 0
	aimd     *aimdController // nil unless Config.AIMD
	alias    *aliasDetector  // nil unless Config.Defend
	tel      *telemetry.Shard
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
	// batch holds the probes queued for the next flush and built the
	// distinct buffers behind them; free holds probe buffers whose
	// probes have been sent (the Driver contract: SendBatch does not
	// retain them); recycle stages drained receive buffers for return to
	// a Releaser driver; rx is the reused RecvBatch drain slice. Together
	// they make the steady-state probe loop allocation-free against the
	// simulator drivers.
	batch   [][]byte
	built   [][]byte
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
	s.releaser, _ = drv.(Releaser)
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
	s.raw, _ = s.probe.(RawProbeModule)
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

// scanRun is one Run's state, shared by its stage methods; the Scanner
// keeps what outlives a run (buffers, dedup and retry state).
type scanRun struct {
	*Scanner
	handler Handler
	stats   Stats
	it      *perm.Iterator
	src     ipv6.Addr
	limiter *rateLimiter               // nil unless Config.Rate > 0
	pender  interface{ Pending() int } // a pipelined driver's queue depth, for watchdog beats
	// The drain cadence counts probes against the send window (DrainEvery,
	// or AIMD's choice) locally, not as stats.Targets%DrainEvery, so it
	// stays correct across resume offsets and retry traffic.
	window, sinceDrain int
	lastSent, lastRecv uint64 // AIMD's view at the previous drain
	baseUp, baseDown   uint64 // restored AIMD decisions
	nextCkpt           uint64 // Targets at which a checkpoint is due (0 = none)
	prior              time.Duration
	start              time.Time
}

// Run executes the scan, invoking handler for each first-seen responder.
// It honors ctx cancellation between probes.
//
// Run drives the stages of one scanRun — generate → build → send → pump
// (flush, drain: classify/validate → dedup, then defend/AIMD/checkpoint)
// with due retries ahead of fresh targets — then the cooldown rounds and
// the final retry accounting. Probes flush once per drain window through
// Driver.SendBatch; a rate limit is a wait before a one-probe flush.
// Every exit goes through finish.
//
// With Config.Resume set, the scan continues mid-cycle: the permutation
// cursor fast-forwards past the probed prefix of the shard's sequence,
// statistics accumulate on top of the restored ones, and the restored
// dedup state keeps already-reported responders suppressed.
func (s *Scanner) Run(ctx context.Context, handler Handler) (Stats, error) {
	r := s.begin(handler)
	ranOut, err := r.generate(ctx)
	r.flush()
	switch {
	case err == nil:
		if err = r.cooldown(); err == nil {
			r.emit(ranOut)
		}
	case err == ctx.Err() && s.cfg.OnCheckpoint != nil:
		// Collect what the driver already has, then leave a resumable
		// state behind: cancellation is the crash-safe shutdown path.
		r.drain()
		r.emit(false)
	}
	return r.finish(), err
}

// begin sets up a run: cursor, statistics and publish baseline (fresh
// or resumed), rate limiter, drain and checkpoint schedules.
func (s *Scanner) begin(handler Handler) *scanRun {
	r := &scanRun{Scanner: s, handler: handler, start: time.Now(),
		src: s.drv.SourceAddr(), window: s.cfg.DrainEvery}
	if res := s.cfg.Resume; res != nil {
		r.stats, r.prior = res.Stats, res.Stats.Elapsed
		r.it = s.cycle.ShardAt(s.cfg.ShardIndex, s.cfg.Shards, res.Consumed)
	} else {
		r.it = s.cycle.Shard(s.cfg.ShardIndex, s.cfg.Shards)
	}
	// The registry counts this process's own work: a resumed scan's
	// restored Stats are the publish baseline, not new counts.
	s.published = r.stats
	r.pender, _ = s.drv.(interface{ Pending() int })
	if s.cfg.Rate > 0 {
		r.limiter = newRateLimiter(s.cfg.Rate)
	}
	r.lastSent, r.lastRecv = r.stats.Sent, r.stats.Received
	r.baseUp, r.baseDown = r.stats.RateUp, r.stats.RateDown
	if s.cfg.CheckpointEvery > 0 {
		r.nextCkpt = r.stats.Targets + s.cfg.CheckpointEvery
	}
	s.wd.Stage(s.cfg.ShardIndex, "send")
	s.tel.SetGauge(telemetry.GaugeWindow, int64(r.window))
	return r
}

// generate is the main loop: service due retries, take the next
// permutation index, derive and filter its target, build and send its
// probe, and close the send window when due. ranOut reports that the
// shard's permutation walk is complete.
func (r *scanRun) generate(ctx context.Context) (ranOut bool, err error) {
	for {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		// Due retries go ahead of fresh targets: their backoff deadline
		// has passed, and resolving them frees ring capacity.
		if r.retry != nil {
			if err := r.retries(0, true); err != nil {
				return false, err
			}
		}
		if r.cfg.MaxTargets > 0 && r.stats.Targets >= r.cfg.MaxTargets {
			return false, nil
		}
		idx, ok := r.it.Next()
		if !ok {
			return true, nil
		}
		target, err := r.TargetFor(idx)
		if err != nil {
			return false, err
		}
		if r.skipTarget(target) {
			r.stats.Blocked++
			continue
		}
		pkt, err := r.build(target)
		if err != nil {
			return false, fmt.Errorf("xmap: building probe for %s: %w", target, err)
		}
		r.send(pkt, r.cfg.ProbesPerTarget)
		r.track(retryEntry{idx: idx, dst: target, due: r.stats.Sent + uint64(r.cfg.RetryTimeout), attempts: 1})
		r.stats.Targets++
		r.sinceDrain++
		r.span(telemetry.SpanSent, target, r.stats.Targets)
		if r.pumpDue() {
			r.pump()
		}
	}
}

// build has the probe module build target's probe into a recycled
// buffer from the free list.
func (r *scanRun) build(target ipv6.Addr) ([]byte, error) {
	var buf []byte
	if l := len(r.free); l > 0 {
		buf, r.free[l-1] = r.free[l-1], nil
		r.free = r.free[:l-1]
	}
	return r.probe.AppendProbe(buf, r.src, target, r.Validation(target))
}

// send queues copies of one built probe. Unpaced, they wait in the batch
// for the window's flush; paced, each copy is a rate wait then a
// one-probe flush. Either way the buffer returns to the free list once,
// at the first flush after its last copy left.
func (r *scanRun) send(pkt []byte, copies int) {
	for i := 0; i < copies; i++ {
		r.batch = append(r.batch, pkt)
		if r.limiter != nil {
			r.limiter.wait()
			if r.tracer != nil && len(pkt) >= wire.HeaderLen && pkt[0]>>4 == 6 {
				r.span(telemetry.SpanRateGate, ipv6.AddrFromBytes(pkt[24:40]), 0)
			}
			r.flush()
		}
	}
	r.built = append(r.built, pkt)
}

// flush pushes the batch through the driver with the SendBatch
// short-write protocol — retry the unsent tail on transient
// backpressure, count an errored packet once and move on, so Sent
// advances by exactly what the driver accepted — and then recycles the
// buffers of probes that have left (the Driver contract: SendBatch does
// not retain them).
func (r *scanRun) flush() {
	pkts, idle := r.batch, 0
	for len(pkts) > 0 {
		n, err := r.drv.SendBatch(pkts)
		r.stats.Sent += uint64(n)
		if pkts = pkts[n:]; len(pkts) == 0 {
			break
		}
		if err != nil {
			// pkts[0] is the packet the driver rejected.
			r.stats.SendErrors++
			pkts = pkts[1:]
			continue
		}
		// Short write without error: ENOBUFS-style pushback. Yield so
		// whatever drains the packet layer can run, then retry.
		if idle++; idle > maxSendStalls {
			r.stats.SendErrors += uint64(len(pkts))
			break
		}
		runtime.Gosched()
	}
	clear(r.batch)
	r.batch = r.batch[:0]
	r.free = append(r.free, r.built...)
	clear(r.built)
	r.built = r.built[:0]
}

// pumpDue reports whether the send window should close now: it is full,
// or a checkpoint interval expired (a checkpoint needs the flush+drain
// for a consistent dedup snapshot, so it forces one).
func (r *scanRun) pumpDue() bool {
	return r.sinceDrain >= r.window || (r.nextCkpt > 0 && r.stats.Targets >= r.nextCkpt)
}

// pump closes a send window: flush, drain, fire the alias detector's
// cooldown probes, let AIMD reconsider the window, checkpoint if the
// interval has passed, publish and tick the monitor.
func (r *scanRun) pump() {
	if r.wd != nil {
		depth := 0
		if r.pender != nil {
			depth = r.pender.Pending()
		}
		r.wd.Beat(r.cfg.ShardIndex, r.stats.Sent, depth, uint64(r.sinceDrain))
	}
	r.flush()
	r.tel.Observe(telemetry.HistDrainBatch, uint64(r.sinceDrain))
	r.wd.Stage(r.cfg.ShardIndex, "drain")
	r.drain()
	r.sendCooldown()
	r.wd.Stage(r.cfg.ShardIndex, "send")
	r.sinceDrain = 0
	if r.aimd != nil {
		prevWindow := r.window
		r.window = r.aimd.update(r.stats.Sent-r.lastSent, r.stats.Received-r.lastRecv)
		r.lastSent, r.lastRecv = r.stats.Sent, r.stats.Received
		r.stats.RateUp = r.baseUp + r.aimd.ups
		r.stats.RateDown = r.baseDown + r.aimd.downs
		if r.window != prevWindow {
			r.tel.SetGauge(telemetry.GaugeWindow, int64(r.window))
			// Window changes are rare and concern every target, so the
			// span is recorded unsampled.
			r.tracer.Span(r.trStream, telemetry.SpanAIMD, r.stats.Sent, zeroAddr, uint64(r.window))
		}
	}
	if r.retry != nil {
		r.tel.SetGauge(telemetry.GaugeRetryPending, int64(r.retry.pending))
	}
	if r.nextCkpt > 0 && r.stats.Targets >= r.nextCkpt {
		r.emit(false)
		r.nextCkpt = r.stats.Targets + r.cfg.CheckpointEvery
	}
	r.publish(&r.stats)
	r.cfg.Monitor.Tick()
}

// sendCooldown fires the alias detector's queued re-probes and flushes
// them immediately: cooldown evidence must arrive within the cooldown
// window regardless of how full the next send window is.
func (r *scanRun) sendCooldown() {
	if r.alias == nil {
		return
	}
	for _, dst := range r.alias.takePending() {
		pkt, err := r.build(dst)
		if err != nil {
			continue
		}
		r.send(pkt, 1)
		r.stats.AliasCooldown++
		r.span(telemetry.SpanAliasCooldown, dst, 0)
	}
	r.flush()
}

// retries services the retry ring — the one routine behind the main
// loop, the cooldown rounds and the final accounting. live follows the
// probe clock and closes full send windows; otherwise clock is fixed,
// and ^0 ends the scan. A due entry out of attempts counts as exhausted;
// at the end the rest are abandoned, else re-probed (one probe, not
// ProbesPerTarget copies) and rescheduled with exponential backoff.
func (r *scanRun) retries(clock uint64, live bool) error {
	for r.retry != nil {
		if live {
			clock = r.stats.Sent
		}
		e, ok := r.retry.popDue(clock)
		switch {
		case !ok:
			return nil
		case int(e.attempts) >= 1+r.cfg.Retries:
			r.stats.RetryExhausted++
			r.tracer.Anomaly(telemetry.AnomalyRetryExhausted, r.trStream, r.stats.Sent, e.dst.Bytes())
			continue
		case clock == ^uint64(0):
			r.stats.RetryAbandoned++
			continue
		}
		pkt, err := r.build(e.dst)
		if err != nil {
			return fmt.Errorf("xmap: building retry probe for %s: %w", e.dst, err)
		}
		r.send(pkt, 1)
		r.stats.Retried++
		r.sinceDrain++
		e.attempts++
		e.due = r.stats.Sent + uint64(r.cfg.RetryTimeout)<<(e.attempts-1)
		r.span(telemetry.SpanRetry, e.dst, uint64(e.attempts))
		r.track(e)
		if live && r.pumpDue() {
			r.pump()
		}
	}
	return nil
}

// track schedules a probed target's retry, counting it dropped when the
// ring is full.
func (r *scanRun) track(e retryEntry) {
	if r.retry != nil && !r.retry.push(e) {
		r.stats.RetryDropped++
	}
}

// cooldown runs the bounded drain rounds at scan end, collecting
// stragglers (a real driver may deliver late). Between rounds the probe
// clock jumps to the next retry deadline, so pending retries get their
// backoff tiers fired before the deadline expires; the final round only
// drains. Whatever is still pending afterwards is accounted for.
func (r *scanRun) cooldown() error {
	r.wd.Stage(r.cfg.ShardIndex, "cooldown")
	for round := 0; round < r.cfg.CooldownDrains; round++ {
		r.drain()
		r.sendCooldown()
		if r.retry == nil || round == r.cfg.CooldownDrains-1 {
			continue
		}
		clock := r.stats.Sent
		if due, ok := r.retry.nextDue(); ok && due > clock {
			clock = due
		}
		if err := r.retries(clock, false); err != nil {
			return err
		}
		r.flush()
	}
	if r.retry != nil {
		r.tel.SetGauge(telemetry.GaugeRetryPending, 0)
	}
	return r.retries(^uint64(0), false)
}

// emit hands the current resumable state to the checkpoint sink. It
// runs only after a flush+drain, so the serialized dedup set reflects
// every response collected so far.
func (r *scanRun) emit(done bool) {
	if r.cfg.OnCheckpoint == nil {
		return
	}
	st := ShardState{
		Shard:     r.cfg.ShardIndex,
		Done:      done,
		Consumed:  r.it.Consumed(),
		Stats:     r.stamped(),
		DedupKind: r.dedup.kind(),
		Dedup:     r.dedup.appendState(nil),
	}
	if r.retry != nil {
		st.Retry = r.retry.appendState(nil)
	}
	r.cfg.OnCheckpoint(st)
	r.publish(&r.stats)
	r.tel.Inc(telemetry.ScanCheckpoints)
	// A cut concerns every target, so its span is recorded unsampled.
	r.tracer.Span(r.trStream, telemetry.SpanCheckpoint, r.stats.Sent, zeroAddr, r.stats.Targets)
}

// stamped returns the statistics with Elapsed brought up to date: the
// one place Stats.Elapsed is set.
func (r *scanRun) stamped() Stats {
	st := r.stats
	st.Elapsed = r.prior + time.Since(r.start)
	return st
}

// finish is Run's single exit: publish the last counts, mark the shard
// done for the watchdog and return the stamped statistics.
func (r *scanRun) finish() Stats {
	r.publish(&r.stats)
	r.wd.Stage(r.cfg.ShardIndex, telemetry.StageDone)
	return r.stamped()
}

// span records one sampled probe-lifecycle span keyed by the probe
// target; the address-hash sampler makes the decision, so the same
// targets are traced here and in every other layer. The nil check
// inlines, keeping a detached tracer to one branch per hook.
func (r *scanRun) span(kind telemetry.SpanKind, dst ipv6.Addr, arg uint64) {
	if r.tracer != nil {
		r.sampledSpan(kind, dst, arg)
	}
}

func (r *scanRun) sampledSpan(kind telemetry.SpanKind, dst ipv6.Addr, arg uint64) {
	if b := dst.Bytes(); r.tracer.SampleAddr(b) {
		r.tracer.Span(r.trStream, kind, r.stats.Sent, b, arg)
	}
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
// equivalence matrix's ring entry sound. Buffers that no Response
// retains (only KindUDPData keeps a Payload reference) go back to a
// Releaser driver afterwards.
func (r *scanRun) drain() {
	if r.flusher != nil {
		r.flusher.Flush()
	}
	stats := &r.stats
	r.rx = r.drv.RecvBatch(r.rx[:0])
	if r.alias != nil && len(r.rx) > r.cfg.ShedBudget {
		r.shed(stats)
	}
	for _, raw := range r.rx {
		var (
			resp   Response
			ok     bool
			parsed bool
		)
		if r.raw != nil {
			resp, ok = r.raw.ClassifyRaw(raw, r.validate)
		} else if err := r.sum.Parse(raw); err == nil {
			resp, ok = r.probe.Classify(&r.sum, r.validate)
			parsed = true
		}
		if r.releaser != nil && resp.Payload == nil {
			r.recycle = append(r.recycle, raw)
		}
		if !ok {
			stats.Invalid++
			if r.alias != nil {
				r.aliasQuarantine(raw, stats)
			}
			continue
		}
		stats.Received++
		var hop uint64
		if parsed {
			hop = uint64(r.sum.IP.HopLimit)
			r.tel.Observe(telemetry.HistReplyHopLimit, hop)
		}
		// Spans key by the probed target (not the responder) so the
		// reply stitches onto the target's sent/hop spans.
		kind := telemetry.SpanReply
		if resp.Kind == KindDestUnreach || resp.Kind == KindTimeExceeded {
			kind = telemetry.SpanICMPError
		}
		r.span(kind, resp.ProbeDst, hop)
		if r.retry != nil {
			// Any validated response resolves the probed target, even a
			// duplicate responder or an ICMP error: the path answered. The
			// resolved entry dates the probe, yielding the reply latency in
			// probe-clock ticks.
			if e, answered := r.retry.answered(resp.ProbeDst); answered {
				sentAt := e.due - uint64(r.cfg.RetryTimeout)<<(e.attempts-1)
				r.tel.Observe(telemetry.HistReplyLatency, stats.Sent-sentAt)
			}
		}
		if r.alias != nil && r.aliasObserve(&resp, stats) {
			// Detector traffic (cooldown-probe replies, saturation
			// chatter from prefixes under suspicion): consumed, never
			// dedup'd or handed to the handler.
			continue
		}
		if !r.dedup.checkAdd(resp.Responder) {
			stats.Duplicates++
			r.span(telemetry.SpanDedup, resp.ProbeDst, 0)
			continue
		}
		stats.Unique++
		if r.handler != nil {
			r.handler(resp)
		}
	}
	if r.releaser != nil && len(r.recycle) > 0 {
		// Deferred past the loop: r.sum still references the most
		// recently parsed buffer until the next Parse.
		r.releaser.Release(r.recycle)
		clear(r.recycle)
		r.recycle = r.recycle[:0]
	}
	// Drop the drain slice's references so released buffers are not
	// pinned until the next drain.
	clear(r.rx)
	r.rx = r.rx[:0]
	if r.alias != nil {
		r.aliasTick()
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
