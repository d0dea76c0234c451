package xmap

import (
	"context"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// scanCounters maps each Stats counter field to its scan.* slot — the
// test's own statement of the publish map.
func scanCounters(st Stats) map[telemetry.Counter]uint64 {
	return map[telemetry.Counter]uint64{
		telemetry.ScanTargets:        st.Targets,
		telemetry.ScanSent:           st.Sent,
		telemetry.ScanSendErrors:     st.SendErrors,
		telemetry.ScanReceived:       st.Received,
		telemetry.ScanInvalid:        st.Invalid,
		telemetry.ScanDuplicates:     st.Duplicates,
		telemetry.ScanUnique:         st.Unique,
		telemetry.ScanBlocked:        st.Blocked,
		telemetry.ScanRetried:        st.Retried,
		telemetry.ScanRetryDropped:   st.RetryDropped,
		telemetry.ScanRetryExhausted: st.RetryExhausted,
		telemetry.ScanRetryAbandoned: st.RetryAbandoned,
		telemetry.ScanRateUp:         st.RateUp,
		telemetry.ScanRateDown:       st.RateDown,
		telemetry.ScanAliasDetected:  st.AliasDetected,
		telemetry.ScanAliasCooldown:  st.AliasCooldown,
		telemetry.ScanAliasBlocked:   st.AliasBlocked,
		telemetry.ScanQuarantined:    st.Quarantined,
		telemetry.ScanShed:           st.Shed,
	}
}

// checkPublished asserts every scan.* counter equals its Stats field
// minus base (the Stats a resumed scan started from).
func checkPublished(t *testing.T, snap *telemetry.Snapshot, stats, base Stats) {
	t.Helper()
	want, sub := scanCounters(stats), scanCounters(base)
	for c, v := range want {
		if got := snap.Counters[c.String()]; got != v-sub[c] {
			t.Errorf("counter %s = %d, stats say %d (base %d)", c, got, v-sub[c], sub[c])
		}
	}
}

// TestTelemetryMatchesStats: the scan.* counters are Stats published
// through the scanner's publish map, so after a run they equal Stats
// slot for slot — on a clean scan, with retries, AIMD and the defenses
// on, after a resume (minus the resumed base), and under ScanParallel
// with a transmission ring that fails some sends. At full sampling the
// span log carries one sent span per target and one reply or
// icmp-error span per validated response.
func TestTelemetryMatchesStats(t *testing.T) {
	// Every Stats field but Elapsed is a counter, and each has a slot.
	if n := reflect.TypeOf(Stats{}).NumField() - 1; n != len(scanCounters(Stats{})) {
		t.Fatalf("Stats has %d counter fields, the publish map covers %d", n, len(scanCounters(Stats{})))
	}

	t.Run("plain", func(t *testing.T) {
		f := buildFixture(t)
		reg := telemetry.New(telemetry.Options{Shards: 1})
		f.drv.RegisterTelemetry(reg)
		tracer := telemetry.NewTracer(telemetry.TracerOptions{ScanStreams: 1, Depth: 2048})
		stats, results := runScan(t, Config{
			Window: window(t, f), Seed: []byte("tel"), Telemetry: reg, Tracer: tracer,
		}, f.drv)
		snap := reg.Snapshot()
		checkPublished(t, snap, stats, Stats{})
		if stats.Unique != uint64(len(results)) {
			t.Fatalf("fixture sanity: Unique %d != %d results", stats.Unique, len(results))
		}
		// The engine collector registered by the driver contributes the
		// simulated network's totals to the same snapshot.
		if snap.Counters[telemetry.SimTransmissions.String()] == 0 {
			t.Error("sim.transmissions = 0: engine collector not folded in")
		}
		if snap.Counters[telemetry.SimBytes.String()] == 0 {
			t.Error("sim.bytes = 0")
		}
		spans := tracer.AppendSpans(nil, 0)
		if uint64(len(spans)) != tracer.SpansRecorded() {
			t.Fatalf("span ring wrapped: %d retained of %d", len(spans), tracer.SpansRecorded())
		}
		var sent, replies uint64
		for _, sp := range spans {
			switch sp.Kind {
			case telemetry.SpanSent:
				sent++
				if sp.Addr == ([16]byte{}) {
					t.Error("sent span without a target address")
				}
			case telemetry.SpanReply, telemetry.SpanICMPError:
				replies++
			}
		}
		if sent != stats.Targets {
			t.Errorf("%d sent spans for %d targets", sent, stats.Targets)
		}
		if replies != stats.Received {
			t.Errorf("%d reply spans for %d received responses", replies, stats.Received)
		}
		// The hop-limit histogram saw every validated response.
		hh := snap.Histograms[telemetry.HistReplyHopLimit.String()]
		if hh == nil || hh.Count != stats.Received {
			t.Errorf("hop-limit histogram = %+v, want count %d", hh, stats.Received)
		}
		if snap.Gauges[telemetry.GaugeWindow.String()] == 0 {
			t.Error("scan.window gauge never set")
		}
	})

	t.Run("retries-aimd-defend", func(t *testing.T) {
		f := buildLossyFixture(t, 0.4)
		reg := telemetry.New(telemetry.Options{Shards: 1})
		stats, _ := runScan(t, Config{
			Window: window(t, f), Seed: []byte("tel-rel"), Telemetry: reg,
			Retries: 2, RetryRing: 16, AIMD: true, Defend: true,
		}, f.drv)
		if stats.Retried == 0 || stats.RetryDropped == 0 || stats.RateUp+stats.RateDown == 0 {
			t.Fatalf("leg exercises too little: %+v", stats)
		}
		checkPublished(t, reg.Snapshot(), stats, Stats{})
	})

	t.Run("resume", func(t *testing.T) {
		f := buildFixture(t)
		var states []ShardState
		runScan(t, Config{
			Window: window(t, f), Seed: []byte("tel-resume"), MaxTargets: 100,
			CheckpointEvery: 32, OnCheckpoint: func(st ShardState) { states = append(states, st) },
		}, f.drv)
		if len(states) < 2 {
			t.Fatalf("only %d checkpoint states emitted", len(states))
		}
		crash := states[len(states)-2]
		reg := telemetry.New(telemetry.Options{Shards: 1})
		stats, _ := runScan(t, Config{
			Window: window(t, f), Seed: []byte("tel-resume"), Telemetry: reg, Resume: &crash,
		}, f.drv)
		if crash.Stats.Sent == 0 || stats.Sent <= crash.Stats.Sent {
			t.Fatalf("resume leg did no work of its own: base %+v, final %+v", crash.Stats, stats)
		}
		checkPublished(t, reg.Snapshot(), stats, crash.Stats)
	})

	t.Run("parallel-ring", func(t *testing.T) {
		f := buildFixture(t)
		reg := telemetry.New(telemetry.Options{Shards: 1})
		// One shard: faultyDriver is not safe for concurrent senders.
		faulty := &faultyDriver{d: f.drv, failEvery: 5}
		stats, err := ScanParallel(context.Background(), Config{
			Window: window(t, f), Seed: []byte("tel-ring"), Telemetry: reg, RingSize: 64,
		}, faulty, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.SendErrors == 0 {
			t.Fatal("fault injection never fired")
		}
		checkPublished(t, reg.Snapshot(), stats, Stats{})
	})
}

// TestTelemetryConcurrentReaders: snapshot and monitor readers run
// against a live 2-shard ScanParallel (a race-detector target). The
// published scan.* counters never go backwards, and once the scan
// returns they equal its Stats, uniqueness included: the shards
// publish the cross-shard dedup verdicts, not their local filters'.
func TestTelemetryConcurrentReaders(t *testing.T) {
	f := buildFixture(t)
	reg := telemetry.New(telemetry.Options{Shards: 2})
	mon := telemetry.NewMonitor(reg, io.Discard, 16)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last map[string]uint64
		for {
			select {
			case <-done:
				return
			default:
			}
			mon.Tick()
			snap := reg.Snapshot()
			for k, v := range last {
				if snap.Counters[k] < v {
					t.Errorf("counter %s went backwards: %d after %d", k, snap.Counters[k], v)
				}
			}
			last = snap.Counters
			time.Sleep(50 * time.Microsecond)
		}
	}()
	stats, err := ScanParallel(context.Background(), Config{
		Window: window(t, f), Seed: []byte("tel-par"), Telemetry: reg, Monitor: mon,
	}, f.drv, 2, nil)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkPublished(t, reg.Snapshot(), stats, Stats{})
	if mon.Lines() == 0 {
		t.Error("monitor printed no line during the scan")
	}
}

// TestScanUnaffectedByTelemetry: attaching a registry must not change
// what a seeded scan finds — instrumentation observes, never steers.
func TestScanUnaffectedByTelemetry(t *testing.T) {
	f1 := buildFixture(t)
	bare, bareResults := runScan(t, Config{Window: window(t, f1), Seed: []byte("same")}, f1.drv)
	f2 := buildFixture(t)
	reg := telemetry.New(telemetry.Options{Shards: 1})
	inst, instResults := runScan(t,
		Config{Window: window(t, f2), Seed: []byte("same"), Telemetry: reg}, f2.drv)
	if bare.Sent != inst.Sent || bare.Received != inst.Received || bare.Unique != inst.Unique {
		t.Errorf("stats diverge with telemetry attached: %+v vs %+v", bare, inst)
	}
	if len(bareResults) != len(instResults) {
		t.Fatalf("result counts diverge: %d vs %d", len(bareResults), len(instResults))
	}
	for i := range bareResults {
		if bareResults[i].Responder != instResults[i].Responder {
			t.Errorf("result %d diverges: %s vs %s", i, bareResults[i].Responder, instResults[i].Responder)
		}
	}
}

// TestStatsMerge: counts sum, Elapsed takes the slowest shard, and
// Unique stays untouched (aggregators count uniqueness across their own
// cross-shard dedup).
func TestStatsMerge(t *testing.T) {
	a := Stats{Targets: 10, Sent: 12, Received: 5, Duplicates: 1, Unique: 4,
		Retried: 2, RateUp: 1, Elapsed: 3 * time.Second}
	b := Stats{Targets: 20, Sent: 21, Received: 9, Duplicates: 2, Unique: 7,
		Retried: 1, RateDown: 2, Elapsed: 2 * time.Second}
	a.Merge(b)
	if a.Targets != 30 || a.Sent != 33 || a.Received != 14 || a.Duplicates != 3 ||
		a.Retried != 3 || a.RateUp != 1 || a.RateDown != 2 {
		t.Errorf("merged counts wrong: %+v", a)
	}
	if a.Unique != 4 {
		t.Errorf("Unique = %d after merge, want the receiver's own 4", a.Unique)
	}
	if a.Elapsed != 3*time.Second {
		t.Errorf("Elapsed = %v, want the max 3s", a.Elapsed)
	}
}
