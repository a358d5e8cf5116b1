package stats

import (
	"math"
	"slices"
)

// The information kernels behind Entropy, MutualInformation and
// ConditionalMutualInformation count codes in dense []int tables indexed
// by a code's offset from the smallest code present. Every table is
// summed in ascending code order — lexicographic for joint cells — which
// is the order a sort of the distinct keys gives, so the sums do not
// depend on row order and are reproducible bit for bit. Codes are
// arbitrary caller integers, so no table is sized by a code's value:
// when a range would need a table that does not fit (see fits), Entropy
// counts the codes' ranks instead, and mutual information compacts both
// variables to ranks and sorts the joint cells, which keeps the same
// order. Conditional mutual information gathers each stratum's rows and
// reuses the mutual information kernel. The map-based reference
// implementations live in the tests as the oracle.

// denseCells bounds the number of cells of one counting table, 512 KiB
// of ints. It is a memory cap only: a table that would exceed it is
// never built, whatever its speed.
const denseCells = 1 << 16

// stackCells is the table size served from the stack. A mutual
// information table over two Discretize outputs at DefaultBins, or one
// against a label of up to 40 classes, fits, so the MRMR kernel
// allocates nothing.
const stackCells = 512

// fits reports whether a counting table of the given number of cells
// suits n rows. Beyond the stack buffer it may neither exceed denseCells
// nor 16 cells per row: clearing and scanning a sparser table costs more
// than compacting and sorting the rows. Timing both MI paths on the same
// inputs (2-vCPU Xeon) put the crossover at about 24 cells per row for
// 128 rows and above 32 for 2,048 rows; at 16 the table was the faster
// one for every size from 64 to 4,096 rows. Callers count an empty
// dimension as width one, so no single width escapes the bound.
func fits(cells, n int) bool {
	return cells <= stackCells || cells <= min(denseCells, 16*n)
}

// scratch returns n zeroed cells, carved from buf when it is long enough.
func scratch(buf []int, n int) []int {
	if n > len(buf) {
		return make([]int, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// codeRange returns the smallest non-negative code in x and the width of
// a table indexing x's non-negative codes by their offset from it (0 when
// there are none). ok is false when that width would exceed denseCells.
func codeRange(x []int) (lo, width int, ok bool) {
	// A negative code converted to uint lies above every non-negative
	// one, so the unsigned minimum skips missing codes without a branch.
	ulo, hi := uint(math.MaxUint), -1
	for _, v := range x {
		ulo = min(ulo, uint(v))
		hi = max(hi, v)
	}
	lo = int(ulo)
	switch {
	case hi < 0:
		return 0, 0, true
	case hi-lo >= denseCells:
		return lo, 0, false
	}
	return lo, hi - lo + 1, true
}

// Codes is a vector of discrete codes together with a range that holds
// all of its non-negative codes, so a kernel called on many pairs of the
// same vectors scans each vector's range once rather than once per pair.
// The range may be wider than the codes present: the dense tables skip
// empty cells, so a wider range yields the same bits. Build one with
// NewCodes or DiscretizeCodes; its codes must not change while it is in
// use.
type Codes struct {
	x         []int
	lo, width int
	ok        bool // the range fits a dense table (width <= denseCells)
}

// NewCodes scans x once for the range of its non-negative codes.
func NewCodes(x []int) Codes {
	lo, width, ok := codeRange(x)
	return Codes{x, lo, width, ok}
}

// codesIn returns x as Codes whose non-negative codes lie in [0, width).
func codesIn(x []int, width int) Codes {
	return Codes{x, 0, width, width <= denseCells}
}

// Ints returns the code vector.
func (c Codes) Ints() []int { return c.x }

// prefix returns c's first n codes; the range still holds them.
func (c Codes) prefix(n int) Codes {
	c.x = c.x[:n]
	return c
}

// compact returns x with every non-negative code replaced by its rank
// among x's distinct non-negative codes, which keeps their order, and
// every negative code by -1, together with the number of distinct codes.
func compact(x []int) ([]int, int) {
	vals := make([]int, 0, len(x))
	for _, v := range x {
		if v >= 0 {
			vals = append(vals, v)
		}
	}
	slices.Sort(vals)
	vals = slices.Compact(vals)
	out := make([]int, len(x))
	for i, v := range x {
		out[i] = -1
		if v >= 0 {
			out[i], _ = slices.BinarySearch(vals, v)
		}
	}
	return out, len(vals)
}

// support returns how many cells of counts are non-zero and their total.
func support(counts []int) (k, n int) {
	for _, c := range counts {
		if c > 0 {
			k++
			n += c
		}
	}
	return k, n
}

// mutualInfo returns the maximum-likelihood I(X;Y) together with the
// support sizes of x and y and the number of rows where both codes are
// present — everything CorrectedMutualInformation needs, from one
// counting pass over an x-major joint table. Codes whose table would not
// fit go to sortedMutualInfo. Mismatched lengths degrade to the common
// prefix.
func mutualInfo(x, y []int) (mi float64, kx, ky, n int) {
	x, y = commonPrefix(x, y)
	return mutualInfoCodes(NewCodes(x), NewCodes(y))
}

// mutualInfoCodes is mutualInfo over codes whose ranges are known.
func mutualInfoCodes(xc, yc Codes) (mi float64, kx, ky, n int) {
	x, y := commonPrefix(xc.x, yc.x)
	lox, wx, loy, wy := xc.lo, xc.width, yc.lo, yc.width
	if !xc.ok || !yc.ok || !fits(max(wx, 1)*max(wy, 1), len(x)) {
		return sortedMutualInfo(x, y)
	}
	var stack [stackCells]int
	buf := scratch(stack[:], wx*wy+wx+wy)
	tab, mx, my := buf[:wx*wy], buf[wx*wy:wx*wy+wx], buf[wx*wy+wx:]
	y = y[:len(x)]
	for i, v := range x {
		if v|y[i] >= 0 { // both codes present
			tab[(v-lox)*wy+y[i]-loy]++
		}
	}
	for i := range mx {
		for j, c := range tab[i*wy : (i+1)*wy] {
			mx[i] += c
			my[j] += c
		}
	}
	kx, n = support(mx)
	ky, _ = support(my)
	if n == 0 {
		return 0, kx, ky, 0
	}
	fn := float64(n)
	for i, cx := range mx {
		if cx == 0 {
			continue
		}
		px := float64(cx) / fn
		for j, c := range tab[i*wy : (i+1)*wy] {
			if c == 0 {
				continue
			}
			pxy := float64(c) / fn
			py := float64(my[j]) / fn
			mi += pxy * math.Log(pxy/(px*py))
		}
	}
	if mi < 0 {
		mi = 0 // floating point guard; MI is non-negative
	}
	return mi, kx, ky, n
}

// sortedMutualInfo is mutualInfo for codes whose dense table would not
// fit. It compacts both variables to their ranks and sorts the joint
// cells, which visits them in the same lexicographic order a table
// would.
func sortedMutualInfo(x, y []int) (mi float64, kx, ky, n int) {
	xr, wx := compact(x)
	yr, wy := compact(y)
	mx, my := make([]int, wx), make([]int, wy)
	cells := make([]int, 0, len(xr))
	for i, v := range xr {
		if v >= 0 && yr[i] >= 0 {
			cells = append(cells, v*wy+yr[i])
			mx[v]++
			my[yr[i]]++
		}
	}
	kx, n = support(mx)
	ky, _ = support(my)
	if n == 0 {
		return 0, kx, ky, 0
	}
	slices.Sort(cells)
	fn := float64(n)
	for i := 0; i < n; {
		j := i + 1
		for j < n && cells[j] == cells[i] {
			j++
		}
		pxy := float64(j-i) / fn
		px := float64(mx[cells[i]/wy]) / fn
		py := float64(my[cells[i]%wy]) / fn
		mi += pxy * math.Log(pxy/(px*py))
		i = j
	}
	if mi < 0 {
		mi = 0
	}
	return mi, kx, ky, n
}

// condMutualInfo returns I(X;Y|Z) together with what its Miller–Madow
// correction needs: the support sizes kx and ky and the count nxy of the
// rows where x and y are present, and the support size kz of z. It
// gathers the complete rows stratum by stratum, in ascending z order,
// and weights each stratum's mutual information by its share of the
// complete rows. Mismatched lengths degrade to the common prefix.
func condMutualInfo(x, y, z []int) (cmi float64, kx, ky, nxy, kz int) {
	n := min(len(x), len(y), len(z))
	return condMutualInfoCodes(NewCodes(x[:n]), NewCodes(y[:n]), NewCodes(z[:n]))
}

// condMutualInfoCodes is condMutualInfo over codes whose ranges are
// known; each stratum keeps x's and y's ranges, which hold its codes.
func condMutualInfoCodes(xc, yc, zc Codes) (cmi float64, kx, ky, nxy, kz int) {
	n := min(len(xc.x), len(yc.x), len(zc.x))
	xc, yc, zc = xc.prefix(n), yc.prefix(n), zc.prefix(n)
	x, y := xc.x, yc.x
	_, kx, ky, nxy = mutualInfoCodes(xc, yc)
	zr, kz := compact(zc.x)
	start := make([]int, kz+1)
	for i, s := range zr {
		if s >= 0 && x[i] >= 0 && y[i] >= 0 {
			start[s+1]++
		}
	}
	for s := 0; s < kz; s++ {
		start[s+1] += start[s]
	}
	complete := start[kz]
	gx, gy := make([]int, complete), make([]int, complete)
	next := slices.Clone(start[:kz])
	for i, s := range zr {
		if s >= 0 && x[i] >= 0 && y[i] >= 0 {
			gx[next[s]], gy[next[s]] = x[i], y[i]
			next[s]++
		}
	}
	for s := 0; s < kz; s++ {
		if lo, hi := start[s], start[s+1]; hi > lo {
			xc.x, yc.x = gx[lo:hi], gy[lo:hi]
			mi, _, _, _ := mutualInfoCodes(xc, yc)
			cmi += float64(hi-lo) / float64(complete) * mi
		}
	}
	return cmi, kx, ky, nxy, kz
}
