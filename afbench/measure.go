package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"autofeat/internal/core"
	"autofeat/internal/discovery"
	"autofeat/internal/lake"
)

// quantile returns the q-quantile of xs with linear interpolation between
// order statistics (the numpy/R-7 definition); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// digest fingerprints everything a discovery returns that a user could
// observe: the ranked paths with their scores, the search counters and,
// when a model ran, the evaluated paths and their accuracies. Two runs of
// the same request must produce the same digest at any worker count.
func digest(res *lake.Result) string {
	h := sha256.New()
	var buf [8]byte
	num := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	flt := func(v float64) { num(math.Float64bits(v)) }
	str := func(s string) {
		num(uint64(len(s)))
		h.Write([]byte(s))
	}
	path := func(p core.RankedPath) {
		num(uint64(len(p.Edges)))
		for _, e := range p.Edges {
			str(e.A)
			str(e.ColA)
			str(e.B)
			str(e.ColB)
			flt(e.Weight)
		}
		flt(p.Score)
		flt(p.Quality)
		num(uint64(len(p.Features)))
		for i, f := range p.Features {
			str(f)
			flt(p.RelScores[i])
			flt(p.RedScores[i])
		}
	}
	r := res.Ranking
	num(uint64(r.PathsExplored))
	num(uint64(r.Prune.Discarded()))
	num(uint64(len(r.Paths)))
	for _, p := range r.Paths {
		path(p)
	}
	if a := res.Augment; a != nil {
		num(uint64(len(a.Evaluated)))
		for _, pe := range a.Evaluated {
			path(pe.Path)
			flt(pe.Eval.Accuracy)
		}
		path(a.Best.Path)
		flt(a.Best.Eval.Accuracy)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// runtimeSample is a reading of the Go runtime's allocation and CPU
// counters; the difference of two readings attributes allocations and GC
// CPU to the work between them.
type runtimeSample struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64
}

var runtimeMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	copy(s, runtimeMetrics)
	metrics.Read(s)
	return runtimeSample{
		mallocs:    s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// goMetrics reports the runtime cost of ops operations run between a and
// b: allocations and allocated megabytes per operation, and the share of
// process CPU spent in the garbage collector.
func goMetrics(a, b runtimeSample, ops int) map[string]float64 {
	n := float64(max(ops, 1))
	frac := 0.0
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		frac = (b.gcCPU - a.gcCPU) / cpu
	}
	return map[string]float64{
		"go.allocs_per_op":   float64(b.mallocs-a.mallocs) / n,
		"go.alloc_mb_per_op": float64(b.allocBytes-a.allocBytes) / 1e6 / n,
		"go.gc_cpu_fraction": frac,
	}
}

// liveHeapMB collects garbage and returns the live heap in megabytes.
// Callers keep the workload's resident state reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// candidatePairs counts the column pairs an LSH index over lk's tables
// offers the DRG build for verification; DRG edges over this count is the
// index's candidate yield.
func candidatePairs(lk *lake.Lake) int {
	idx := discovery.NewLSHIndex(0, -1)
	for _, t := range lk.Tables() {
		idx.Add(t)
	}
	return len(idx.AllCandidates())
}

// searchCounts are a reference run's search counters. They are fixed by
// the seed: if one moves, the search itself changed.
type searchCounts struct{ explored, kept, prunedQuality int }

func (c *searchCounts) add(r *core.Ranking) {
	c.explored += r.PathsExplored
	c.kept += len(r.Paths)
	c.prunedQuality += r.Prune.QualityBelowTau
}

func (c searchCounts) put(m map[string]float64) {
	m["core.paths_explored"] = float64(c.explored)
	m["core.paths_kept"] = float64(c.kept)
	m["core.pruned_quality"] = float64(c.prunedQuality)
}
