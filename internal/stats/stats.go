// Package stats provides the statistical and information-theoretic
// primitives behind AutoFeat's relevance and redundancy analyses:
// correlation coefficients (Pearson, Spearman), Shannon entropy, mutual
// information and conditional mutual information over discretised features,
// and supporting utilities (ranking, discretisation, normalisation).
//
// All estimators skip rows where either input is NaN (null), matching the
// pairwise-complete convention used by dataframe libraries.
package stats

import (
	"math"
	"math/bits"
	"slices"
)

// Mean returns the arithmetic mean of the non-NaN entries, or NaN if none.
func Mean(x []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range x {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Variance returns the population variance of the non-NaN entries.
func Variance(x []float64) float64 {
	m := Mean(x)
	if math.IsNaN(m) {
		return math.NaN()
	}
	sum, n := 0.0, 0
	for _, v := range x {
		if !math.IsNaN(v) {
			d := v - m
			sum += d * d
			n++
		}
	}
	return sum / float64(n)
}

// Pearson returns the Pearson correlation coefficient between x and y,
// computed over rows where both are non-NaN. Returns 0 when either variable
// is constant (no linear association can be measured) or fewer than two
// complete pairs exist. Mismatched lengths — the signature of a corrupt
// table — degrade to the common prefix instead of panicking, so one bad
// input prunes one feature rather than killing the process.
func Pearson(x, y []float64) float64 {
	x, y = commonPrefix(x, y)
	var sx, sy, sxx, syy, sxy float64
	n := 0
	for i := range x {
		if math.IsNaN(x[i]) || math.IsNaN(y[i]) {
			continue
		}
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		syy += y[i] * y[i]
		sxy += x[i] * y[i]
		n++
	}
	if n < 2 {
		return 0
	}
	fn := float64(n)
	cov := sxy - sx*sy/fn
	vx := sxx - sx*sx/fn
	vy := syy - sy*sy/fn
	if vx <= 0 || vy <= 0 {
		return 0
	}
	r := cov / math.Sqrt(vx*vy)
	// Guard against floating point drift outside [-1, 1].
	return math.Max(-1, math.Min(1, r))
}

// Spearman returns the Spearman rank correlation coefficient: Pearson
// correlation over fractional ranks, which handles ties correctly.
//
// Rows where either input is NaN are deleted BEFORE ranking (scipy's
// pairwise-complete semantics): ranking first and deleting afterwards
// would correlate ranks computed over different row sets, which skews the
// coefficient whenever the deletion changes the tie structure or spacing
// of the surviving ranks.
func Spearman(x, y []float64) float64 {
	x, y = pairwiseComplete(x, y)
	return Pearson(Ranks(x), Ranks(y))
}

// commonPrefix truncates both slices to the shorter length. Length
// mismatches only arise from corrupt input; degrading to the shared rows
// keeps the estimators total (no panics on user-reachable paths).
func commonPrefix[T any](x, y []T) ([]T, []T) {
	if len(x) == len(y) {
		return x, y
	}
	n := min(len(x), len(y))
	return x[:n], y[:n]
}

// pairwiseComplete returns x and y restricted to rows where both are
// non-NaN. When every row is complete the inputs are returned as-is.
// Mismatched lengths degrade to the common prefix (see commonPrefix).
func pairwiseComplete(x, y []float64) ([]float64, []float64) {
	x, y = commonPrefix(x, y)
	n := 0
	for i := range x {
		if !math.IsNaN(x[i]) && !math.IsNaN(y[i]) {
			n++
		}
	}
	if n == len(x) {
		return x, y
	}
	cx := make([]float64, 0, n)
	cy := make([]float64, 0, n)
	for i := range x {
		if !math.IsNaN(x[i]) && !math.IsNaN(y[i]) {
			cx = append(cx, x[i])
			cy = append(cy, y[i])
		}
	}
	return cx, cy
}

// MinMaxNormalize rescales non-NaN entries to [0, 1] in place and returns
// the slice. A constant vector maps to all zeros.
func MinMaxNormalize(x []float64) []float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range x {
		if math.IsNaN(v) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	span := hi - lo
	for i, v := range x {
		if math.IsNaN(v) {
			continue
		}
		if span == 0 {
			x[i] = 0
		} else {
			x[i] = (v - lo) / span
		}
	}
	return x
}

// DefaultBins is the number of bins used when discretising continuous
// features for entropy-based estimators. Ten equal-width bins is the common
// default in feature-selection toolkits (e.g. scikit-feature).
const DefaultBins = 10

// Discretize maps continuous values to integer bin codes using equal-width
// binning with the given bin count. NaN entries map to code -1 (treated as
// "missing" by the entropy estimators). Values with few distinct levels
// (≤ bins) keep one code per level, so already-discrete features are not
// distorted.
func Discretize(x []float64, bins int) []int {
	return DiscretizeCodes(nil, x, bins).Ints()
}

// DiscretizeCodes is Discretize writing into out, which it reallocates
// when shorter than x. It returns the codes with their range, which
// binning knows without a scan: codes lie in [0, bins) or, for a
// discrete column, in [0, levels).
func DiscretizeCodes(out []int, x []float64, bins int) Codes {
	if bins < 2 {
		bins = 2
	}
	out = resize(out, len(x))
	// The first pass looks every value up in a hash table of the distinct
	// levels seen, while there are at most bins of them, and codes its row
	// with the level's id: the order in which the level was first seen.
	// If the column stays discrete, one lookup per row turns ids into
	// the codes of the sorted levels.
	var levelStack [32]level // a power of two, at least 2*DefaultBins
	size := len(levelStack)
	for size < 2*min(bins, len(x)) {
		size *= 2
	}
	slots := resize(levelStack[:0], size)
	for i := range slots {
		slots[i].id = -1
	}
	shift, mask := 64-bits.TrailingZeros(uint(size)), uint64(size-1)
	var distinctStack [DefaultBins]float64
	distinct := distinctStack[:0] // in first-seen order
	discrete := true
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, v := range x {
		if math.IsNaN(v) {
			out[i] = -1
			continue
		}
		// Plain comparisons, unlike math.Min/Max, may keep +0 over -0 as
		// a bound; no code depends on a zero bound's sign.
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		if !discrete {
			continue
		}
		// v+0 is +0 for either zero, so the two zeros, which are one
		// level, hash alike.
		for h := math.Float64bits(v+0) * 0x9E3779B97F4A7C15 >> shift; ; h = (h + 1) & mask {
			e := &slots[h]
			if e.id < 0 {
				if len(distinct) == bins {
					discrete = false // one level more than bins: continuous
					break
				}
				e.v, e.id = v, len(distinct)
				distinct = append(distinct, v)
			}
			if e.v == v {
				out[i] = e.id
				break
			}
		}
	}
	if discrete {
		// Already discrete: stable code per sorted distinct value.
		var sortedStack [DefaultBins]float64
		sorted := append(sortedStack[:0], distinct...)
		slices.Sort(sorted)
		var codeStack [DefaultBins]int
		code := resize(codeStack[:0], len(distinct))
		for id, v := range distinct {
			code[id] = searchLevels(sorted, v)
		}
		for i, c := range out {
			if c >= 0 {
				out[i] = code[c]
			}
		}
		return codesIn(out, len(distinct))
	}
	span := hi - lo
	for i, v := range x {
		switch {
		case math.IsNaN(v):
			out[i] = -1
		case span == 0:
			out[i] = 0
		default:
			b := int(float64(bins) * (v - lo) / span)
			if b >= bins {
				b = bins - 1
			}
			out[i] = b
		}
	}
	return codesIn(out, bins)
}

// level is one slot of DiscretizeCodes' hash table: a distinct value and
// its first-seen order, or id -1 for an empty slot.
type level struct {
	v  float64
	id int
}

// searchLevels returns the index of the first of the sorted levels that
// is not below v. Unlike slices.BinarySearch it compares with plain <,
// which is all a NaN-free search needs and costs a fraction as much.
func searchLevels(levels []float64, v float64) int {
	lo, hi := 0, len(levels)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if levels[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Entropy returns the Shannon entropy (nats) of the discrete variable x.
// Codes < 0 (missing) are skipped.
func Entropy(x []int) float64 {
	lo, w, ok := codeRange(x)
	if !ok || !fits(w, len(x)) {
		x, w = compact(x)
		lo = 0
	}
	var stack [stackCells]int
	counts := scratch(stack[:], w)
	n := 0
	for _, v := range x {
		if v >= 0 {
			counts[v-lo]++
			n++
		}
	}
	if n == 0 {
		return 0
	}
	// Sum in ascending code order: float addition is not associative, and
	// a fixed order keeps results identical between runs.
	h := 0.0
	for _, c := range counts {
		if c > 0 {
			p := float64(c) / float64(n)
			h -= p * math.Log(p)
		}
	}
	return h
}

// MutualInformation returns I(X;Y) in nats for discrete variables, skipping
// rows where either code is < 0. I is symmetric and zero for independent
// variables; this is the paper's "information gain" relevance metric.
// Mismatched lengths degrade to the common prefix instead of panicking.
func MutualInformation(x, y []int) float64 {
	mi, _, _, _ := mutualInfo(x, y)
	return mi
}

// CorrectedMutualInformation returns the Miller–Madow bias-corrected MI
// estimate: the maximum-likelihood estimator overestimates by roughly
// (kx−1)(ky−1)/(2n) nats, which matters when many near-independent feature
// pairs are compared (the MRMR penalty term sums exactly such pairs).
// Clamped at zero. Mismatched lengths degrade to the common prefix.
func CorrectedMutualInformation(x, y []int) float64 {
	return correctMI(mutualInfo(x, y))
}

// CorrectedMutualInformationCodes is CorrectedMutualInformation over
// codes whose ranges were computed once, for callers that pair the same
// vectors many times.
func CorrectedMutualInformationCodes(x, y Codes) float64 {
	return correctMI(mutualInfoCodes(x, y))
}

func correctMI(mi float64, kx, ky, n int) float64 {
	if n == 0 {
		return 0
	}
	mi -= float64((kx-1)*(ky-1)) / (2 * float64(n))
	if mi < 0 {
		return 0
	}
	return mi
}

// CorrectedConditionalMutualInformation applies the Miller–Madow-style
// correction to I(X;Y|Z): the bias grows with the number of conditioning
// strata, approximately (kx−1)(ky−1)·kz/(2n), where kx, ky and n count
// the rows with x and y present and kz the strata with z present.
// Clamped at zero. Mismatched lengths degrade to the common prefix.
func CorrectedConditionalMutualInformation(x, y, z []int) float64 {
	return correctCMI(condMutualInfo(x, y, z))
}

// CorrectedConditionalMutualInformationCodes is
// CorrectedConditionalMutualInformation over codes whose ranges were
// computed once.
func CorrectedConditionalMutualInformationCodes(x, y, z Codes) float64 {
	return correctCMI(condMutualInfoCodes(x, y, z))
}

func correctCMI(cmi float64, kx, ky, n, kz int) float64 {
	if n == 0 || kz == 0 {
		return 0
	}
	cmi -= float64((kx-1)*(ky-1)*kz) / (2 * float64(n))
	if cmi < 0 {
		return 0
	}
	return cmi
}

// ConditionalMutualInformation returns I(X;Y|Z) in nats for discrete
// variables: sum_z p(z) * I(X;Y | Z=z). Rows with any negative code are
// skipped. Mismatched lengths degrade to the common prefix instead of
// panicking.
func ConditionalMutualInformation(x, y, z []int) float64 {
	cmi, _, _, _, _ := condMutualInfo(x, y, z)
	return cmi
}

// SymmetricUncertainty returns SU(X,Y) = 2*I(X;Y)/(H(X)+H(Y)), a normalised
// correlation in [0,1]; 0 means independent, 1 means fully dependent. SU
// compensates for information gain's bias toward many-valued features.
func SymmetricUncertainty(x, y []int) float64 {
	hx, hy := Entropy(x), Entropy(y)
	if hx+hy == 0 {
		return 0
	}
	su := 2 * MutualInformation(x, y) / (hx + hy)
	return math.Max(0, math.Min(1, su))
}

// InformationGain is an alias for mutual information with the label, named
// as the paper's Section V-C relevance metric.
func InformationGain(x, y []int) float64 { return MutualInformation(x, y) }
