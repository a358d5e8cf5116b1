// Command afbench is the AutoFeat end-to-end benchmark. It drives the
// resident Lake API in-process on three seeded workloads, checks every
// measured result against a reference computed at set-up, and prints one
// JSON result line: the end-to-end metrics, or with --trace 1 the
// per-layer metrics of a traced run. See README.md for the workloads and
// what each metric is expected to move.
//
//	afbench --workload discover-warm --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// params is one benchmark invocation.
type params struct {
	workload string
	seed     int64
	window   time.Duration // measured time
	trace    bool
	tiny     bool   // smoke-test scale
	dataDir  string // scratch space for on-disk lakes
	traceOut string // where a traced run writes its spans
	// corruptRef flips the reference digests, so every checked operation
	// must count as failed (the self-test of the output checks).
	corruptRef bool
}

// result is what a workload measured.
type result struct {
	attempted, failed int
	// e2e holds the end-to-end metrics of the untraced measurement, with
	// timings in reference-host time; raw holds those timings as measured.
	e2e, raw map[string]float64
	// layer holds the per-layer metrics; only filled by traced runs.
	layer map[string]float64
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spec is the part of BENCHMARK.json a run reports against: the name and
// unit of every metric.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

var workloads = map[string]func(params) (*result, error){
	"discover-warm": runWarm,
	"augment-cold":  runCold,
	"lake-churn":    runChurn,
}

func main() {
	var p params
	var seconds float64
	var trace int
	flag.StringVar(&p.workload, "workload", "", "workload to run: discover-warm, augment-cold or lake-churn")
	flag.Int64Var(&p.seed, "seed", 1, "seed every input is derived from")
	flag.Float64Var(&seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&p.dataDir, "data", ".bench_build/data", "scratch directory for generated lakes and traces")
	flag.Parse()
	p.window = time.Duration(seconds * float64(time.Second))
	p.trace = trace == 1
	run, ok := workloads[p.workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "afbench: need --workload discover-warm|augment-cold|lake-churn, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	// Run from the repository root, whose BENCHMARK.json names every
	// metric and its unit.
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "afbench:", err)
		os.Exit(1)
	}
	line, err := execute(p, run, sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "afbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// execute runs one workload in a private data directory and renders the
// result line.
func execute(p params, run func(params) (*result, error), sp *spec) (string, error) {
	dir := filepath.Join(p.dataDir, fmt.Sprintf("%s-%d-%d", p.workload, p.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	p.traceOut = filepath.Join(p.dataDir, fmt.Sprintf("trace-%s-seed%d.json", p.workload, p.seed))
	p.dataDir = dir
	res, err := run(p)
	if err != nil {
		return "", fmt.Errorf("%s: %w", p.workload, err)
	}
	fmt.Fprintf(os.Stderr, "afbench: workload=%s seed=%d trace=%v attempted=%d failed=%d\n",
		p.workload, p.seed, p.trace, res.attempted, res.failed)
	if p.trace {
		fmt.Fprintf(os.Stderr, "afbench: spans written to %s\n", p.traceOut)
	} else {
		fmt.Fprintf(os.Stderr, "afbench: as measured, before scaling to the reference host: setup_s=%.4f latency_p50_ms=%.4f throughput_ops_s=%.4f\n",
			res.raw["setup_s"], res.raw["latency_p50_ms"], res.raw["throughput_ops_s"])
	}
	return render(res, p.trace, sp)
}

// render formats the result line: exactly correct, attempted, failed and
// metrics, with the end-to-end metrics untraced and the per-layer
// metrics traced, each named and with its unit as in sp. A per-layer
// metric the workload does not exercise reports 0; any other metric
// missing from res, or any metric sp does not name, is an error.
func render(res *result, traced bool, sp *spec) (string, error) {
	want, got := sp.EndToEnd, res.e2e
	if traced {
		want, got = sp.PerLayer, res.layer
	}
	out := map[string]metric{}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok && !traced {
			return "", fmt.Errorf("end-to-end metric %q was not measured", m.Name)
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return "", fmt.Errorf("metric %q is not named in BENCHMARK.json", name)
		}
	}
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", n, out[n].Value, out[n].Unit)
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, out})
	return string(b), err
}
