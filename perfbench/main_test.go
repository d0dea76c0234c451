package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/xmap"
)

// smokeWidth keeps every workload to a few thousand targets.
const smokeWidth = 8

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSmoke runs every workload of BENCHMARK.json at a tiny width in
// both modes and checks that the result line names every metric with
// its unit.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, mode := range []struct {
			trace string
			want  []struct {
				Name string `json:"name"`
				Unit string `json:"unit"`
			}
		}{{"0", bf.EndToEnd}, {"1", bf.PerLayer}} {
			t.Run(w.Name+"/trace="+mode.trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				args := []string{"-workload", w.Name, "-seed", "3", "-seconds", "0", "-width", strconv.Itoa(smokeWidth), "-trace", mode.trace}
				if code := run(args, &out, &errb); code != 0 {
					t.Fatalf("exit %d\n%s", code, errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool   `json:"correct"`
					Attempted uint64 `json:"attempted"`
					Failed    uint64 `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(mode.want) {
					t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(res.Metrics), len(mode.want))
				}
				for _, m := range mode.want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestSmokeRepeats checks that a second run of the same seed repeats
// every deterministic count of the first.
func TestSmokeRepeats(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			o := options{workload: w.name, seed: 5, width: smokeWidth}
			var counts []counts
			for i := 0; i < 2; i++ {
				res, err := measure(w, o, &bytes.Buffer{})
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct {
					t.Fatal("run not correct")
				}
				counts = append(counts, res.counts)
			}
			if !counts[0].repeats(counts[1], w.parallel) {
				t.Errorf("second run differs:\n first %+v\nsecond %+v", counts[0], counts[1])
			}
			if counts[0].Digest == "" || counts[0].Devices == 0 {
				t.Errorf("empty counts %+v", counts[0])
			}
		})
	}
}

// TestWrapDriverCapabilities checks that a timing wrapper presents
// exactly the optional interfaces of the driver it wraps.
func TestWrapDriverCapabilities(t *testing.T) {
	for _, d := range []xmap.Driver{
		&xmap.ChanDriver{},
		xmap.NewSimDriver(nil, nil),
		xmap.NewRingDriver(&xmap.ChanDriver{}, 8),
	} {
		w, err := wrapDriver(d, newTracer(), nil)
		if err != nil {
			t.Fatal(err)
		}
		r1, f1, p1 := capabilities(d)
		r2, f2, p2 := capabilities(w)
		if r1 != r2 || f1 != f2 || p1 != p2 {
			t.Errorf("%T: wrapper capabilities (%v %v %v), driver (%v %v %v)", d, r2, f2, p2, r1, f1, p1)
		}
		if rd, ok := d.(*xmap.RingDriver); ok {
			rd.Close()
		}
	}
}
