package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestISPStatusJSON sweeps one narrow ISP window with -status-json and
// checks the loop detector's counters reached the snapshot.
func TestISPStatusJSON(t *testing.T) {
	status := filepath.Join(t.TempDir(), "status.json")
	var out, errb bytes.Buffer
	args := []string{"-mode", "isp", "-width", "8", "-max-devices", "64", "-status-json", status}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run(%v): %v\nstderr:\n%s", args, err, errb.String())
	}
	if !strings.Contains(out.String(), "256 targets") {
		t.Errorf("report does not cover the 2^8-target window:\n%s", out.String())
	}
	raw, err := os.ReadFile(status)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"loop.probes", "loop.responses", "loop.confirmed"} {
		if snap.Counters[key] == 0 {
			t.Errorf("%s = 0 after a sweep of a loop-prone ISP", key)
		}
	}
}

// TestHopLimitFlagRange: a -hop-limit the detector cannot use fails the
// run instead of being truncated to 8 bits.
func TestHopLimitFlagRange(t *testing.T) {
	for _, h := range []string{"0", "254", "300", "-1"} {
		var out, errb bytes.Buffer
		if err := run([]string{"-width", "8", "-hop-limit", h}, &out, &errb); err == nil {
			t.Errorf("-hop-limit %s accepted", h)
		}
	}
}
