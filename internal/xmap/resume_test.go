package xmap

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/ipv6"
)

// collectScan runs a scan to completion, returning stats and the set of
// emitted responders.
func collectScan(t *testing.T, cfg Config, drv Driver) (Stats, map[ipv6.Addr]bool) {
	t.Helper()
	s, err := New(cfg, drv)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[ipv6.Addr]bool{}
	stats, err := s.Run(context.Background(), func(r Response) { seen[r.Responder] = true })
	if err != nil {
		t.Fatal(err)
	}
	return stats, seen
}

// TestResumeMatchesUninterrupted is the kill-and-resume differential
// oracle at the single-scanner level: a scan stopped mid-cycle and
// resumed from its last periodic checkpoint must report exactly the
// responders an uninterrupted scan reports, re-sending at most one
// checkpoint interval of probes.
func TestResumeMatchesUninterrupted(t *testing.T) {
	const checkpointEvery = 32
	base := func(f *scanFixture) Config {
		return Config{Window: window(t, f), Seed: []byte("resume")}
	}

	// Leg 0: the uninterrupted reference on its own fixture.
	fRef := buildFixture(t)
	refStats, refSeen := collectScan(t, base(fRef), fRef.drv)

	// Leg 1: same scan on a fresh identical fixture, killed at target
	// 100 with periodic checkpoints. The crash discards everything after
	// the last periodic state (target 96), like a real kill -9 would.
	f := buildFixture(t)
	var states []ShardState
	cfg := base(f)
	cfg.MaxTargets = 100
	cfg.CheckpointEvery = checkpointEvery
	cfg.OnCheckpoint = func(st ShardState) { states = append(states, st) }
	s, err := New(cfg, f.drv)
	if err != nil {
		t.Fatal(err)
	}
	leg1Seen := map[ipv6.Addr]bool{}
	if _, err := s.Run(context.Background(), func(r Response) { leg1Seen[r.Responder] = true }); err != nil {
		t.Fatal(err)
	}
	if len(states) < 2 {
		t.Fatalf("only %d checkpoint states emitted", len(states))
	}
	crash := states[len(states)-2] // last periodic state, not the exit flush
	if crash.Stats.Targets != 96 {
		t.Fatalf("periodic checkpoint at %d targets, want 96", crash.Stats.Targets)
	}

	// Leg 2: resume on the same fixture (the network kept existing).
	cfg2 := base(f)
	cfg2.Resume = &crash
	s2, err := New(cfg2, f.drv)
	if err != nil {
		t.Fatal(err)
	}
	leg2Seen := map[ipv6.Addr]bool{}
	leg2Stats, err := s2.Run(context.Background(), func(r Response) { leg2Seen[r.Responder] = true })
	if err != nil {
		t.Fatal(err)
	}

	// The union of both legs' emissions equals the uninterrupted set.
	union := map[ipv6.Addr]bool{}
	for a := range leg1Seen {
		union[a] = true
	}
	for a := range leg2Seen {
		union[a] = true
	}
	if len(union) != len(refSeen) {
		t.Fatalf("union has %d responders, uninterrupted %d", len(union), len(refSeen))
	}
	for a := range refSeen {
		if !union[a] {
			t.Errorf("responder %s lost across the crash", a)
		}
	}
	// Cumulative coverage: every target probed exactly once, except the
	// re-sent tail between the checkpoint and the kill.
	if leg2Stats.Targets != refStats.Targets {
		t.Errorf("resumed scan probed %d cumulative targets, want %d", leg2Stats.Targets, refStats.Targets)
	}
	resent := leg2Stats.Sent + 100 - crash.Stats.Sent - refStats.Sent
	if resent > checkpointEvery {
		t.Errorf("crash re-sent %d probes, more than one checkpoint interval (%d)", resent, checkpointEvery)
	}
}

// TestResumeAfterCancellation: context cancellation is the signal-driven
// shutdown path; the state it emits must resume to full coverage.
func TestResumeAfterCancellation(t *testing.T) {
	f := buildFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	var last ShardState
	cfg := Config{
		Window: window(t, f), Seed: []byte("cancel"),
		CheckpointEvery: 16,
		OnCheckpoint: func(st ShardState) {
			last = st
			if st.Stats.Targets >= 48 {
				cancel() // the "signal" arrives mid-scan
			}
		},
	}
	s, err := New(cfg, f.drv)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[ipv6.Addr]bool{}
	if _, err := s.Run(ctx, func(r Response) { seen[r.Responder] = true }); err != context.Canceled {
		t.Fatalf("run returned %v, want context.Canceled", err)
	}
	if last.Done {
		t.Fatal("cancelled scan checkpointed as done")
	}

	cfg2 := Config{Window: window(t, f), Seed: []byte("cancel"), Resume: &last}
	s2, err := New(cfg2, f.drv)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := s2.Run(context.Background(), func(r Response) { seen[r.Responder] = true })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Targets != 256 {
		t.Errorf("cumulative targets = %d, want 256", stats.Targets)
	}
	if len(seen) < fixtureCPEs+1 {
		t.Errorf("found %d responders across cancel+resume, want %d", len(seen), fixtureCPEs+1)
	}
}

// TestScanParallelCheckpointResume drives the whole stack: a sharded
// scan writes its checkpoint file, stops early, and a second process
// (modelled by a fresh ScanParallel call) resumes it without re-emitting
// responders the first leg already reported.
func TestScanParallelCheckpointResume(t *testing.T) {
	const shards = 4
	path := filepath.Join(t.TempDir(), "scan.ckpt")

	f := buildFixture(t)
	cfg := Config{
		Window: window(t, f), Seed: []byte("parallel-resume"),
		MaxTargets:      40, // per shard: 160 of 256 targets, then "crash"
		CheckpointEvery: 16,
		CheckpointPath:  path,
	}
	emitted := map[ipv6.Addr]int{}
	if _, err := ScanParallel(context.Background(), cfg, f.drv, shards, func(r Response) { emitted[r.Responder]++ }); err != nil {
		t.Fatal(err)
	}

	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.States) != shards {
		t.Fatalf("checkpoint has %d shard states, want %d", len(ck.States), shards)
	}
	if len(ck.Responders) != len(emitted) {
		t.Fatalf("checkpoint has %d responders, handler saw %d", len(ck.Responders), len(emitted))
	}

	cfg2 := Config{
		Window: window(t, f), Seed: []byte("parallel-resume"),
		CheckpointPath: path,
		ResumeFrom:     ck,
	}
	total, err := ScanParallel(context.Background(), cfg2, f.drv, shards, func(r Response) { emitted[r.Responder]++ })
	if err != nil {
		t.Fatal(err)
	}
	if total.Targets != 256 {
		t.Errorf("cumulative targets = %d, want 256", total.Targets)
	}
	if len(emitted) != fixtureCPEs+1 {
		t.Errorf("found %d responders, want %d", len(emitted), fixtureCPEs+1)
	}
	if total.Unique != uint64(len(emitted)) {
		t.Errorf("Unique = %d, handler saw %d", total.Unique, len(emitted))
	}
	for a, n := range emitted {
		if n != 1 {
			t.Errorf("responder %s emitted %d times across resume", a, n)
		}
	}
	// The final checkpoint marks every shard done.
	final, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range final.States {
		if !st.Done {
			t.Errorf("shard %d not marked done after completion", st.Shard)
		}
	}
}

// TestScanParallelResumeKeepsDuplicates: a 2-shard scan killed mid-cycle
// and resumed from its checkpoint file must still account for every
// validated reply: Unique + Duplicates == Received, the cross-shard
// duplicates of the interrupted leg included.
func TestScanParallelResumeKeepsDuplicates(t *testing.T) {
	const shards = 2
	path := filepath.Join(t.TempDir(), "scan.ckpt")
	f := buildFixture(t)
	cfg := Config{
		Window: window(t, f), Seed: []byte("parallel-dups"),
		MaxTargets:      60, // per shard, then "crash"
		CheckpointEvery: 16,
		CheckpointPath:  path,
	}
	if _, err := ScanParallel(context.Background(), cfg, f.drv, shards, nil); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxTargets = 0
	cfg.ResumeFrom = ck
	total, err := ScanParallel(context.Background(), cfg, f.drv, shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	if total.Targets != 256 {
		t.Errorf("cumulative targets = %d, want 256", total.Targets)
	}
	if total.Unique+total.Duplicates != total.Received {
		t.Errorf("Unique %d + Duplicates %d = %d, Received %d",
			total.Unique, total.Duplicates, total.Unique+total.Duplicates, total.Received)
	}
}

// TestScanParallelResumeRejectsSkew: a checkpoint must not resume under
// a different identity configuration.
func TestScanParallelResumeRejectsSkew(t *testing.T) {
	f := buildFixture(t)
	cfg := Config{Window: window(t, f), Seed: []byte("skew")}
	ck := &Checkpoint{Digest: ConfigDigest(cfg, 2), Shards: 2}

	bad := cfg
	bad.Seed = []byte("other-seed")
	bad.ResumeFrom = ck
	if _, err := ScanParallel(context.Background(), bad, f.drv, 2, nil); err == nil {
		t.Error("seed skew accepted")
	}
	cfg.ResumeFrom = ck
	if _, err := ScanParallel(context.Background(), cfg, f.drv, 4, nil); err == nil {
		t.Error("shard-count skew accepted")
	}
}

// TestResumeRestoresDedup: a responder reported before the crash must
// not be re-emitted after resume even when its sub-prefix is re-probed.
func TestResumeRestoresDedup(t *testing.T) {
	for _, exact := range []bool{false, true} {
		f := buildFixture(t)
		var states []ShardState
		cfg := Config{
			Window: window(t, f), Seed: []byte("dedup-resume"),
			DedupExact: exact, MaxTargets: 220, CheckpointEvery: 16,
			OnCheckpoint: func(st ShardState) { states = append(states, st) },
		}
		s, err := New(cfg, f.drv)
		if err != nil {
			t.Fatal(err)
		}
		stats1, err := s.Run(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats1.Unique == 0 {
			t.Fatal("leg 1 found nothing; dedup restore untestable")
		}
		crash := states[len(states)-1]
		cfg2 := Config{
			Window: window(t, f), Seed: []byte("dedup-resume"),
			DedupExact: exact, Resume: &crash,
		}
		s2, err := New(cfg2, f.drv)
		if err != nil {
			t.Fatal(err)
		}
		reEmitted := 0
		stats2, err := s2.Run(context.Background(), func(r Response) { reEmitted++ })
		if err != nil {
			t.Fatal(err)
		}
		if want := stats2.Unique - stats1.Unique; uint64(reEmitted) != want {
			t.Errorf("exact=%v: leg 2 emitted %d responders, want %d new ones", exact, reEmitted, want)
		}
		if exact {
			// The restored exact set still carries response counts.
			if counts := s2.ResponderCounts(); len(counts) == 0 {
				t.Error("restored exact dedup lost responder counts")
			}
		}
	}
}

// TestResumeValidation: malformed shard states must be rejected at
// construction, not crash the scan.
func TestResumeValidation(t *testing.T) {
	f := buildFixture(t)
	base := Config{Window: window(t, f), Seed: []byte("val")}

	wrongShard := base
	wrongShard.Resume = &ShardState{Shard: 3}
	if _, err := New(wrongShard, f.drv); err == nil {
		t.Error("shard-index mismatch accepted")
	}

	kindSkew := base
	kindSkew.Resume = &ShardState{DedupKind: dedupKindExact, Dedup: (mapDedup{}).appendState(nil)}
	if _, err := New(kindSkew, f.drv); err == nil {
		t.Error("dedup kind skew accepted (bloom config, exact state)")
	}

	badDedup := base
	badDedup.DedupExact = true
	badDedup.Resume = &ShardState{DedupKind: dedupKindExact, Dedup: []byte{1, 2, 3}}
	if _, err := New(badDedup, f.drv); err == nil {
		t.Error("corrupt dedup state accepted")
	}

	retriesOff := base
	r := newRetryRing(4)
	r.push(retryEntry{dst: retryAddr(1), due: 1, attempts: 1})
	retriesOff.Resume = &ShardState{Retry: r.appendState(nil)}
	if _, err := New(retriesOff, f.drv); err == nil {
		t.Error("pending retries accepted with retries disabled")
	}
}
