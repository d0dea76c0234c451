package xmap

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/ipv6"
	"repro/internal/topo"
)

// delegatedCells counts the window cells of one ISP block that hold a
// device: its WAN /64 and its delegated prefix, where they fall in the
// window. Every other cell is unassigned space the ISP router answers.
func delegatedCells(isp *topo.ISPDeployment) int {
	cells := map[uint64]bool{}
	mark := func(a ipv6.Addr) {
		if idx, ok := isp.Window.Base.SubIndexIn(a, isp.Window.To); ok {
			cells[idx.Lo] = true
		}
	}
	for _, d := range isp.Devices {
		mark(d.WANAddr)
		if d.CPE != nil && d.CPE.Delegated().Bits() > 0 {
			mark(d.CPE.Delegated().Addr())
		}
	}
	return len(cells)
}

// TestCensusColdPassCompilesPerDelegation pins the flow cache's cost on
// the paper's workload: one cold pass over every block's window, each
// sub-prefix probed once. Unassigned space must share one guarded
// entry per block, so flows compile only for delegated cells (each
// probed once, its probe and reply flows compiled once) plus a few per
// block, and the table never evicts. Without the guarded block-wide
// claim every probe into empty space compiles its own entry and misses
// approach the probe count.
func TestCensusColdPassCompilesPerDelegation(t *testing.T) {
	const width = 10
	dep, err := topo.Build(topo.Config{
		Seed: 5, Scale: 0.0005, WindowWidth: width, MaxDevicesPerISP: 1 << width / 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	drv := NewSimDriver(dep.Engine, dep.Edge)
	before := dep.Engine.Counters()
	var sent uint64
	cells := 0
	for _, isp := range dep.ISPs {
		sc, err := New(Config{Window: isp.Window, Seed: []byte(fmt.Sprintf("census-%d", isp.Spec.Index))}, drv)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sc.Run(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		sent += st.Sent
		cells += delegatedCells(isp)
	}
	c := dep.Engine.Counters()
	misses := c.FastPathMisses - before.FastPathMisses
	compiles := c.FastPathCompiles - before.FastPathCompiles
	t.Logf("%d probes, %d delegated cells in %d blocks: %d misses, %d compiles, %d evictions",
		sent, cells, len(dep.ISPs), misses, compiles, c.FastPathEvictions)
	if sent != uint64(len(dep.ISPs))<<width {
		t.Fatalf("sent %d probes, want one per window cell (%d)", sent, len(dep.ISPs)<<width)
	}
	if c.FastPathEvictions != 0 {
		t.Errorf("FastPathEvictions = %d on one cold pass, want 0", c.FastPathEvictions)
	}
	const perBlock = 2
	if bound := uint64(cells + perBlock*len(dep.ISPs)); misses > bound {
		t.Errorf("FastPathMisses = %d, want <= %d (delegated cells %d + %d per block)",
			misses, bound, cells, perBlock)
	}
}
