package fselect

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"autofeat/internal/stats"
)

// The scan-once selection paths must reproduce, bit for bit, the plain
// per-call stats kernels they replaced; the references below are those
// kernels composed the straightforward way.

// refSpearmanScore is |stats.Spearman| of c against the label as floats.
func refSpearmanScore(c []float64, y []int) float64 {
	return math.Abs(stats.Spearman(c, labelFloats(y)))
}

// refCLMSelect is CLM.Select over plain code slices: every kernel call
// discretises nothing and scans both code ranges itself.
func refCLMSelect(m CLM, candidates, selected [][]float64, y []int) ([]int, []float64) {
	b := bins(m.Bins)
	var sel [][]int
	for _, c := range selected {
		sel = append(sel, stats.Discretize(c, b))
	}
	var accepted []int
	var scores []float64
	for ci, cand := range candidates {
		xk := stats.Discretize(cand, b)
		j := stats.CorrectedMutualInformation(xk, y)
		if len(sel) > 0 {
			beta, lambda := m.Beta(len(sel)), m.Lambda(len(sel))
			for _, xj := range sel {
				if beta != 0 {
					j -= beta * stats.CorrectedMutualInformation(xj, xk)
				}
				if lambda != 0 {
					j += lambda * stats.CorrectedConditionalMutualInformation(xj, xk, y)
				}
			}
		}
		if j > 0 {
			accepted = append(accepted, ci)
			scores = append(scores, j)
			sel = append(sel, xk)
		}
	}
	return accepted, scores
}

// refCMIMSelect is CMIM.Select over plain code slices.
func refCMIMSelect(m CMIM, candidates, selected [][]float64, y []int) ([]int, []float64) {
	b := bins(m.Bins)
	var sel [][]int
	for _, c := range selected {
		sel = append(sel, stats.Discretize(c, b))
	}
	var accepted []int
	var scores []float64
	for ci, cand := range candidates {
		xk := stats.Discretize(cand, b)
		j := stats.CorrectedMutualInformation(xk, y)
		maxPenalty := 0.0
		for _, xj := range sel {
			p := stats.CorrectedMutualInformation(xj, xk) - stats.CorrectedConditionalMutualInformation(xj, xk, y)
			maxPenalty = max(maxPenalty, p)
		}
		j -= maxPenalty
		if j > 0 {
			accepted = append(accepted, ci)
			scores = append(scores, j)
			sel = append(sel, xk)
		}
	}
	return accepted, scores
}

// joinedBatch returns a batch of n-row columns shaped like left-join
// output: nulls, ties, discrete and continuous columns, a monotone copy
// of the label and a constant, with labels drawn by label.
func joinedBatch(rng *rand.Rand, n, cols int, label func() int) ([][]float64, []int) {
	y := make([]int, n)
	for i := range y {
		y[i] = label()
	}
	out := make([][]float64, cols)
	for c := range out {
		col := make([]float64, n)
		nulls := rng.Intn(4) // a quarter of columns null-free
		for i := range col {
			switch c % 5 {
			case 0:
				col[i] = rng.NormFloat64() + float64(y[i])
			case 1:
				col[i] = float64(rng.Intn(4))
			case 2:
				col[i] = float64(y[i]) * 3
			case 3:
				col[i] = 1.5
			default:
				col[i] = []float64{math.Copysign(0, -1), 0, math.Inf(1), -2}[rng.Intn(4)]
			}
			if nulls > 0 && rng.Intn(2+nulls*3) == 0 {
				col[i] = math.NaN()
			}
		}
		out[c] = col
	}
	return out, y
}

func TestSpearmanScoresMatchSpearman(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	labels := map[string]func() int{
		"binary":   func() int { return rng.Intn(2) },
		"classes":  func() int { return rng.Intn(7) },
		"negative": func() int { return rng.Intn(5) - 9 },
		"sparse":   func() int { return rng.Intn(3) << 40 },
		"wide":     func() int { return rng.Intn(1 << 20) },
	}
	for name, label := range labels {
		for _, n := range []int{0, 1, 3, 200} {
			cols, y := joinedBatch(rng, n, 17, label)
			got := SpearmanRelevance{}.Scores(cols, y)
			for i, c := range cols {
				if want := refSpearmanScore(c, y); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("%s n=%d column %d: score %v, stats.Spearman %v", name, n, i, got[i], want)
				}
			}
		}
	}
}

func TestSpearmanScoresLongColumnUsesCommonPrefix(t *testing.T) {
	// A column longer than the label is ranked over the common prefix
	// whether or not it has a null past the label's end. The null-free
	// column used to be ranked over all its rows: 0.8452 against the
	// nulled column's 0.8944.
	y := []int{0, 1, 1, 0}
	clean := []float64{1, 50, 3, 2, 20, 99}
	nulled := []float64{1, 50, 3, 2, 20, math.NaN()}
	got := SpearmanRelevance{}.Scores([][]float64{clean, nulled, clean[:4]}, y)
	want := refSpearmanScore(clean[:4], y)
	if math.Abs(want-0.8944) > 1e-4 {
		t.Fatalf("common-prefix Spearman = %v, want 0.8944", want)
	}
	for i, g := range got {
		if math.Float64bits(g) != math.Float64bits(want) {
			t.Fatalf("column %d scores %v, want the common-prefix %v", i, g, want)
		}
	}
	// A label longer than the column is cut to the column too.
	short := SpearmanRelevance{}.Scores([][]float64{clean[:4]}, append(slices.Clone(y), 1, 0, 1))
	if math.Float64bits(short[0]) != math.Float64bits(want) {
		t.Fatalf("column shorter than the label scores %v, want %v", short[0], want)
	}
}

func TestSelectMatchesPerPairKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, n := range []int{0, 1, 5, 300} {
		for _, bins := range []int{0, 3, 64} {
			cands, y := joinedBatch(rng, n, 12, func() int { return rng.Intn(3) })
			selected, _ := joinedBatch(rng, n, 4, func() int { return 0 })
			for _, m := range AllRedundancy() {
				var gotIdx, wantIdx []int
				var gotJ, wantJ []float64
				switch m := m.(type) {
				case CLM:
					m.Bins = bins
					gotIdx, gotJ = m.Select(cands, selected, y)
					wantIdx, wantJ = refCLMSelect(m, cands, selected, y)
				case CMIM:
					m.Bins = bins
					gotIdx, gotJ = m.Select(cands, selected, y)
					wantIdx, wantJ = refCMIMSelect(m, cands, selected, y)
				default:
					t.Fatalf("unexpected metric type %T", m)
				}
				if !slices.Equal(gotIdx, wantIdx) || len(gotJ) != len(wantJ) {
					t.Fatalf("%s n=%d bins=%d: accepted %v, per-pair kernels %v", m.Name(), n, bins, gotIdx, wantIdx)
				}
				for i := range wantJ {
					if math.Float64bits(gotJ[i]) != math.Float64bits(wantJ[i]) {
						t.Fatalf("%s n=%d bins=%d: J[%d] = %v, per-pair kernels %v", m.Name(), n, bins, i, gotJ[i], wantJ[i])
					}
				}
			}
		}
	}
}

func BenchmarkSpearmanScores(b *testing.B) {
	rng := rand.New(rand.NewSource(63))
	cols, y := joinedBatch(rng, 1000, 20, func() int { return rng.Intn(2) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SpearmanRelevance{}.Scores(cols, y)
	}
}

func BenchmarkMRMRSelect(b *testing.B) {
	rng := rand.New(rand.NewSource(64))
	cands, y := joinedBatch(rng, 1000, 15, func() int { return rng.Intn(2) })
	selected, _ := joinedBatch(rng, 1000, 10, func() int { return 0 })
	m := NewMRMR()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Select(cands, selected, y)
	}
}
