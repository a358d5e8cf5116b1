package main

import (
	"encoding/json"
	"path/filepath"
	"testing"
	"time"
)

// resultLine is the JSON object a run prints last.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// smoke runs one workload at tiny scale and parses its result line.
func smoke(t *testing.T, workload string, trace, corrupt bool) resultLine {
	t.Helper()
	dir := t.TempDir()
	p := params{
		workload: workload, seed: 7, window: 300 * time.Millisecond, trace: trace,
		tiny: true, dataDir: dir, traceOut: filepath.Join(dir, "trace.json"), corruptRef: corrupt,
	}
	res, err := workloads[workload](p)
	if err != nil {
		t.Fatal(err)
	}
	line, err := render(res, trace, testSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	var out resultLine
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatalf("result line %q: %v", line, err)
	}
	return out
}

// TestSmoke runs every workload of BENCHMARK.json untraced and traced and
// checks that each run reports exactly the metrics BENCHMARK.json names,
// with their units, and passes its output checks.
func TestSmoke(t *testing.T) {
	spec := testSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if _, ok := workloads[w.Name]; !ok {
				t.Fatalf("workload %q is not implemented", w.Name)
			}
			for _, trace := range []bool{false, true} {
				out := smoke(t, w.Name, trace, false)
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", trace, out.Correct, out.Attempted, out.Failed)
				}
				want := map[string]string{}
				if trace {
					for _, m := range spec.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range spec.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					got, ok := out.Metrics[name]
					switch {
					case !ok:
						t.Errorf("trace=%v: metric %s missing", trace, name)
					case got.Unit != unit:
						t.Errorf("trace=%v: metric %s has unit %q, BENCHMARK.json says %q", trace, name, got.Unit, unit)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", name, got.Value)
					}
				}
				for name := range out.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("trace=%v: metric %s is not in BENCHMARK.json", trace, name)
					}
				}
			}
		})
	}
}

// TestCorruptReferenceFails checks the output checks themselves: with the
// reference digests corrupted, every measured operation must fail.
func TestCorruptReferenceFails(t *testing.T) {
	for _, w := range []string{"discover-warm", "augment-cold"} {
		t.Run(w, func(t *testing.T) {
			out := smoke(t, w, false, true)
			if out.Correct || out.Attempted < 1 || out.Failed != out.Attempted {
				t.Errorf("correct=%v attempted=%d failed=%d, want every operation failed", out.Correct, out.Attempted, out.Failed)
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestSelfTime checks that overlapping children are counted once.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "p", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "c", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "c", Start: 30, End: 70},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	if self["p"] != 30 { // 100 - [10,70) - [90,100)
		t.Errorf("self(p) = %v, want 30", self["p"])
	}
	if self["c"] != 40+40+30 {
		t.Errorf("self(c) = %v, want 110", self["c"])
	}
}
