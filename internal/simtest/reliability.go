package simtest

import (
	"context"
	"fmt"

	"repro/internal/telemetry"
	"repro/internal/xmap"
)

// reliabilityFixture is one seeded fixture with the profile's injector
// installed — every oracle leg starts from an identical world. An
// inactive profile ("none") installs no fault layer at all, keeping the
// engine's batched replay eligible; a no-op injector would pin every
// leg to per-packet interpretation and hide the batched path from the
// oracles.
func reliabilityFixture(seed int64, p FaultProfile) (*ISPFixture, error) {
	f, err := BuildISPFixture(seed)
	if err != nil {
		return nil, err
	}
	if p.Active() {
		inj := NewInjector(seed, p)
		f.Eng.SetFault(inj.Apply)
	}
	return f, nil
}

// RunAdaptiveOracle compares loss-recovery strategies under a lossy
// profile: the blind fixed multiplier (ProbesPerTarget 3, ZMap's -P)
// against the adaptive reliability layer (retry scheduler + AIMD). The
// adaptive scan must match or beat the blind hit rate while sending
// strictly fewer probes — retries spend probes only on silent targets.
func RunAdaptiveOracle(seed int64, p FaultProfile) ([]string, error) {
	if p.Lossless() {
		return nil, nil
	}
	var problems []string
	run := func(mutate func(*xmap.Config)) (xmap.Stats, error) {
		f, err := reliabilityFixture(seed, p)
		if err != nil {
			return xmap.Stats{}, err
		}
		reg := telemetry.New(telemetry.Options{Shards: 1})
		cfg := xmap.Config{Window: f.Window, Seed: scanSeed(seed), DedupExact: true, Telemetry: reg}
		mutate(&cfg)
		s, err := xmap.New(cfg, f.Drv)
		if err != nil {
			return xmap.Stats{}, err
		}
		st, err := s.Run(context.Background(), nil)
		// The retry and AIMD counters are published like every other.
		problems = append(problems, publishProblems(st, reg.Snapshot())...)
		return st, err
	}
	blind, err := run(func(c *xmap.Config) { c.ProbesPerTarget = 3 })
	if err != nil {
		return nil, err
	}
	adaptive, err := run(func(c *xmap.Config) { c.Retries = 3; c.AIMD = true })
	if err != nil {
		return nil, err
	}

	if adaptive.Sent >= blind.Sent {
		problems = append(problems, fmt.Sprintf(
			"adaptive sent %d probes, blind multiplier %d — no probe savings", adaptive.Sent, blind.Sent))
	}
	if adaptive.HitRate() < blind.HitRate() {
		problems = append(problems, fmt.Sprintf(
			"adaptive hit rate %.5f (unique %d / sent %d) below blind %.5f (unique %d / sent %d)",
			adaptive.HitRate(), adaptive.Unique, adaptive.Sent,
			blind.HitRate(), blind.Unique, blind.Sent))
	}
	if adaptive.Retried == 0 {
		problems = append(problems, "lossy profile triggered no retries")
	}
	if p.FlapLen > 0 && adaptive.RateDown == 0 {
		problems = append(problems, "link flap triggered no AIMD backoff")
	}
	return problems, nil
}
