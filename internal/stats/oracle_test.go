package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The map-based implementations below are the reference the dense
// kernels must match bit for bit: they count in maps and sum over sorted
// keys, which is the specification the dense tables reproduce. They are
// test-only; production code has exactly one implementation of each
// estimator.

func refEntropy(x []int) float64 {
	counts := make(map[int]int, 16)
	n := 0
	for _, v := range x {
		if v >= 0 {
			counts[v]++
			n++
		}
	}
	if n == 0 {
		return 0
	}
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	h := 0.0
	for _, k := range keys {
		p := float64(counts[k]) / float64(n)
		h -= p * math.Log(p)
	}
	return h
}

func refMutualInformation(x, y []int) float64 {
	x, y = commonPrefix(x, y)
	joint := make(map[[2]int]int, 64)
	mx := make(map[int]int, 16)
	my := make(map[int]int, 16)
	n := 0
	for i := range x {
		if x[i] < 0 || y[i] < 0 {
			continue
		}
		joint[[2]int{x[i], y[i]}]++
		mx[x[i]]++
		my[y[i]]++
		n++
	}
	if n == 0 {
		return 0
	}
	fn := float64(n)
	keys := make([][2]int, 0, len(joint))
	for k := range joint {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	mi := 0.0
	for _, k := range keys {
		pxy := float64(joint[k]) / fn
		px := float64(mx[k[0]]) / fn
		py := float64(my[k[1]]) / fn
		mi += pxy * math.Log(pxy/(px*py))
	}
	if mi < 0 {
		mi = 0
	}
	return mi
}

// refJointSupport returns the support sizes of x and y and the number of
// rows where both are present, over the common prefix.
func refJointSupport(x, y []int) (kx, ky, n int) {
	x, y = commonPrefix(x, y)
	sx := make(map[int]struct{}, 16)
	sy := make(map[int]struct{}, 16)
	for i := range x {
		if x[i] < 0 || y[i] < 0 {
			continue
		}
		sx[x[i]] = struct{}{}
		sy[y[i]] = struct{}{}
		n++
	}
	return len(sx), len(sy), n
}

func refCorrectedMutualInformation(x, y []int) float64 {
	mi := refMutualInformation(x, y)
	kx, ky, n := refJointSupport(x, y)
	if n == 0 {
		return 0
	}
	mi -= float64((kx-1)*(ky-1)) / (2 * float64(n))
	if mi < 0 {
		return 0
	}
	return mi
}

func refConditionalMutualInformation(x, y, z []int) float64 {
	n := min(len(x), len(y), len(z))
	x, y, z = x[:n], y[:n], z[:n]
	groups := make(map[int][]int, 8)
	n = 0
	for i := range x {
		if x[i] < 0 || y[i] < 0 || z[i] < 0 {
			continue
		}
		groups[z[i]] = append(groups[z[i]], i)
		n++
	}
	if n == 0 {
		return 0
	}
	zs := make([]int, 0, len(groups))
	for z := range groups {
		zs = append(zs, z)
	}
	sort.Ints(zs)
	cmi := 0.0
	for _, zv := range zs {
		rows := groups[zv]
		gx := make([]int, len(rows))
		gy := make([]int, len(rows))
		for j, i := range rows {
			gx[j] = x[i]
			gy[j] = y[i]
		}
		cmi += float64(len(rows)) / float64(n) * refMutualInformation(gx, gy)
	}
	return cmi
}

func refCorrectedConditionalMutualInformation(x, y, z []int) float64 {
	cmi := refConditionalMutualInformation(x, y, z)
	n := min(len(x), len(y), len(z))
	x, y, z = x[:n], y[:n], z[:n]
	kx, ky, nxy := refJointSupport(x, y)
	sz := make(map[int]struct{}, 16)
	for _, v := range z {
		if v >= 0 {
			sz[v] = struct{}{}
		}
	}
	kz := len(sz)
	if nxy == 0 || kz == 0 {
		return 0
	}
	cmi -= float64((kx-1)*(ky-1)*kz) / (2 * float64(nxy))
	if cmi < 0 {
		return 0
	}
	return cmi
}

func refDiscretize(x []float64, bins int) []int {
	if bins < 2 {
		bins = 2
	}
	distinct := make(map[float64]struct{}, bins+1)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range x {
		if math.IsNaN(v) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
		if len(distinct) <= bins {
			distinct[v] = struct{}{}
		}
	}
	out := make([]int, len(x))
	if len(distinct) <= bins {
		vals := make([]float64, 0, len(distinct))
		for v := range distinct {
			vals = append(vals, v)
		}
		sort.Float64s(vals)
		code := make(map[float64]int, len(vals))
		for i, v := range vals {
			code[v] = i
		}
		for i, v := range x {
			if math.IsNaN(v) {
				out[i] = -1
			} else {
				out[i] = code[v]
			}
		}
		return out
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
	return out
}

// searchDiscretize is the sort-and-search Discretize this package used
// before the hash-table one: it keeps the sorted distinct levels and
// binary-searches every row, twice for a discrete column.
func searchDiscretize(x []float64, bins int) []int {
	if bins < 2 {
		bins = 2
	}
	var distinct []float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range x {
		if math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		if len(distinct) <= bins {
			if i := searchLevels(distinct, v); i == len(distinct) || distinct[i] != v {
				distinct = slices.Insert(distinct, i, v)
			}
		}
	}
	out := make([]int, len(x))
	if len(distinct) <= bins {
		for i, v := range x {
			out[i] = -1
			if !math.IsNaN(v) {
				out[i] = searchLevels(distinct, v)
			}
		}
		return out
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
	return out
}

// refRanks is the comparison-sort Ranks this package used before the
// radix sort: it sorts (row, value) pairs and averages each tie group.
func refRanks(x []float64) []float64 {
	type iv struct {
		i int
		v float64
	}
	vals := make([]iv, 0, len(x))
	for i, v := range x {
		if !math.IsNaN(v) {
			vals = append(vals, iv{i, v})
		}
	}
	slices.SortFunc(vals, func(a, b iv) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return 0
	})
	out := make([]float64, len(x))
	for i := range out {
		out[i] = math.NaN()
	}
	for i := 0; i < len(vals); {
		j := i
		for j < len(vals) && vals[j].v == vals[i].v {
			j++
		}
		avg := (float64(i+1) + float64(j)) / 2
		for k := i; k < j; k++ {
			out[vals[k].i] = avg
		}
		i = j
	}
	return out
}

// sameBits reports whether a and b are the same float64 bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// codeKind is one way of drawing label-like integer codes.
type codeKind struct {
	name string
	draw func(rng *rand.Rand) int
}

var codeKinds = []codeKind{
	{"binary", func(rng *rand.Rand) int { return rng.Intn(2) }},
	{"bins", func(rng *rand.Rand) int { return rng.Intn(DefaultBins) }},
	{"bins+nulls", func(rng *rand.Rand) int { return rng.Intn(DefaultBins+1) - 1 }},
	{"beyond-bins", func(rng *rand.Rand) int { return 3 + rng.Intn(4*DefaultBins) }},
	{"offset", func(rng *rand.Rand) int { return 1000 + rng.Intn(7) }},
	{"negatives", func(rng *rand.Rand) int { return rng.Intn(9) - 4 }},
	{"table-sized", func(rng *rand.Rand) int { return rng.Intn(200) }},
	{"too-wide", func(rng *rand.Rand) int { return rng.Intn(300) }},
	{"sparse-pair", func(rng *rand.Rand) int { return rng.Intn(2) << 40 }},
	{"sparse", func(rng *rand.Rand) int {
		if rng.Intn(10) == 0 {
			return -1
		}
		return int(rng.Int63n(1 << 40))
	}},
}

func drawCodes(rng *rand.Rand, k codeKind, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = k.draw(rng)
	}
	return out
}

func TestDenseKernelsMatchMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sizes := []int{0, 1, 2, 7, 100, 2000}
	if !testing.Short() {
		sizes = append(sizes, 50000)
	}
	for _, n := range sizes {
		for ix, kx := range codeKinds {
			for iy, ky := range codeKinds {
				if n > 2000 && (ix+iy)%5 != 0 {
					continue // a fifth of the pairings keeps the large size quick
				}
				x := drawCodes(rng, kx, n)
				y := drawCodes(rng, ky, n)
				z := drawCodes(rng, codeKinds[rng.Intn(len(codeKinds))], n)
				// Every third case mismatches the lengths, as a corrupt
				// table would.
				switch rng.Intn(3) {
				case 1:
					y = y[:rng.Intn(n+1)]
				case 2:
					z = z[:rng.Intn(n+1)]
				}
				checkAgainstOracle(t, x, y, z)
				if t.Failed() {
					t.Fatalf("n=%d x=%s y=%s", n, kx.name, ky.name)
				}
			}
		}
	}
}

func checkAgainstOracle(t *testing.T, x, y, z []int) {
	t.Helper()
	pairs := []struct {
		name      string
		got, want float64
	}{
		{"Entropy", Entropy(x), refEntropy(x)},
		{"MutualInformation", MutualInformation(x, y), refMutualInformation(x, y)},
		{"CorrectedMutualInformation", CorrectedMutualInformation(x, y), refCorrectedMutualInformation(x, y)},
		{"ConditionalMutualInformation", ConditionalMutualInformation(x, y, z), refConditionalMutualInformation(x, y, z)},
		{"CorrectedConditionalMutualInformation", CorrectedConditionalMutualInformation(x, y, z), refCorrectedConditionalMutualInformation(x, y, z)},
		// Ranges of the whole vectors hold their common prefix's codes,
		// so the Codes forms must agree even when the lengths differ.
		{"CorrectedMutualInformationCodes", CorrectedMutualInformationCodes(NewCodes(x), NewCodes(y)), refCorrectedMutualInformation(x, y)},
		{"CorrectedConditionalMutualInformationCodes", CorrectedConditionalMutualInformationCodes(NewCodes(x), NewCodes(y), NewCodes(z)), refCorrectedConditionalMutualInformation(x, y, z)},
	}
	for _, p := range pairs {
		if !sameBits(p.got, p.want) {
			t.Errorf("%s = %v, oracle %v (len x=%d y=%d z=%d)", p.name, p.got, p.want, len(x), len(y), len(z))
		}
	}
}

// checkDiscretize compares DiscretizeCodes with both Discretize oracles
// and checks that the range it reports holds every code.
func checkDiscretize(t *testing.T, x []float64, bins int, buf []int) {
	t.Helper()
	c := DiscretizeCodes(buf, x, bins)
	got := c.Ints()
	if want := refDiscretize(x, bins); !slices.Equal(got, want) {
		t.Fatalf("bins=%d x=%v: codes %v, map oracle %v", bins, x, got, want)
	}
	if want := searchDiscretize(x, bins); !slices.Equal(got, want) {
		t.Fatalf("bins=%d x=%v: codes %v, search oracle %v", bins, x, got, want)
	}
	checkRangeHolds(t, c)
}

// checkRangeHolds fails unless every non-negative code of c lies in its
// range, which must be marked as fitting a dense table when it does.
func checkRangeHolds(t *testing.T, c Codes) {
	t.Helper()
	if c.ok != (c.width <= denseCells) {
		t.Fatalf("range [%d, %d+%d) marked ok=%v", c.lo, c.lo, c.width, c.ok)
	}
	for _, v := range c.x {
		if v >= 0 && c.ok && (v < c.lo || v >= c.lo+c.width) {
			t.Fatalf("code %d outside range [%d, %d)", v, c.lo, c.lo+c.width)
		}
	}
}

func TestDiscretizeMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	negZero := math.Copysign(0, -1)
	levels := []float64{negZero, 0, 1.5, -2, math.Inf(1), math.Inf(-1), 7, 3, 3.25, 1e300, -1e-300}
	draws := []struct {
		name string
		draw func() float64
	}{
		{"continuous", rng.NormFloat64},
		{"levels", func() float64 { return levels[rng.Intn(len(levels))] }},
		{"few-levels", func() float64 { return levels[rng.Intn(3)] }},
		{"signed-zeros", func() float64 { return []float64{negZero, 0}[rng.Intn(2)] }},
		{"zero-floor", func() float64 { return []float64{negZero, 0, rng.Float64()}[rng.Intn(3)] }},
		{"zero-ceiling", func() float64 { return []float64{0, negZero, -rng.Float64()}[rng.Intn(3)] }},
		{"nan-heavy", func() float64 { return []float64{math.NaN(), 1, 2, rng.Float64()}[rng.Intn(4)] }},
		{"all-nan", math.NaN},
		{"constant", func() float64 { return 4.5 }},
		{"integer-codes", func() float64 { return float64(rng.Intn(12)) }},
		{"many-levels", func() float64 { return float64(rng.Intn(70)) }},
	}
	var buf []int // reused, as CLM.Select reuses a rejected candidate's codes
	for _, d := range draws {
		for _, n := range []int{0, 1, 5, 11, 12, 500} {
			for _, bins := range []int{-3, 0, 2, DefaultBins, 11, 64, 1 << 17} {
				x := make([]float64, n)
				for i := range x {
					x[i] = d.draw()
				}
				checkDiscretize(t, x, bins, buf)
				buf = make([]int, rng.Intn(600))
			}
		}
	}
}

// rankDraws are the value mixes the rank kernels are checked on: ties,
// both zeros, infinities, NaN, and keys that differ only in low bytes.
func rankDraws(rng *rand.Rand) []struct {
	name string
	draw func() float64
} {
	negZero := math.Copysign(0, -1)
	special := []float64{negZero, 0, math.Inf(1), math.Inf(-1), math.NaN(), 1, -1, math.SmallestNonzeroFloat64, -math.MaxFloat64}
	return []struct {
		name string
		draw func() float64
	}{
		{"continuous", rng.NormFloat64},
		{"ties", func() float64 { return float64(rng.Intn(3)) }},
		{"wide-ties", func() float64 { return float64(rng.Intn(40)) - 20 }},
		{"distinct-ints", func() float64 { return float64(rng.Intn(1 << 30)) }},
		{"specials", func() float64 { return special[rng.Intn(len(special))] }},
		{"signed-zeros", func() float64 { return []float64{negZero, 0}[rng.Intn(2)] }},
		{"low-bits", func() float64 { return math.Float64frombits(0x3ff0000000000000 | uint64(rng.Intn(300))) }},
		{"nan-some", func() float64 { return []float64{math.NaN(), rng.Float64(), -rng.Float64()}[rng.Intn(3)] }},
		{"all-nan", math.NaN},
		{"constant", func() float64 { return -7.25 }},
	}
}

func TestRanksMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var s RankScratch // shared across every case, as a Scores batch shares it
	var out []float64
	for _, d := range rankDraws(rng) {
		for _, n := range []int{0, 1, 2, 50, 3000} {
			x := make([]float64, n)
			for i := range x {
				x[i] = d.draw()
			}
			want := refRanks(x)
			got := Ranks(x)
			out = RanksInto(out, x, &s)
			for i := range want {
				if !sameBits(got[i], want[i]) || !sameBits(out[i], want[i]) {
					t.Fatalf("%s n=%d: rank[%d] = %v (into scratch %v), oracle %v", d.name, n, i, got[i], out[i], want[i])
				}
			}
			if len(got) != n || len(out) != n {
				t.Fatalf("%s n=%d: %d and %d ranks", d.name, n, len(got), len(out))
			}
		}
	}
}

// checkLabelRanks compares LabelRanks with the sort oracle over the
// labels converted to float64.
func checkLabelRanks(t *testing.T, y, rows []int, out []float64, s *RankScratch) []float64 {
	t.Helper()
	f := make([]float64, len(rows))
	for k, r := range rows {
		f[k] = float64(y[r])
	}
	want := refRanks(f)
	out = LabelRanks(out, y, rows, s)
	if len(out) != len(rows) {
		t.Fatalf("%d ranks for %d rows", len(out), len(rows))
	}
	for k := range want {
		if !sameBits(out[k], want[k]) {
			t.Fatalf("rank[%d] of label %d = %v, oracle %v", k, y[rows[k]], out[k], want[k])
		}
	}
	return out
}

func TestLabelRanksMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	kinds := slices.Concat(codeKinds, []codeKind{
		{"beyond-float", func(rng *rand.Rand) int { return 1<<60 + rng.Intn(5) }},
		{"min-int", func(rng *rand.Rand) int { return []int{math.MinInt, 0, math.MaxInt}[rng.Intn(3)] }},
		{"constant", func(*rand.Rand) int { return -3 }},
	})
	var s RankScratch
	var out []float64
	for _, n := range []int{0, 1, 2, 7, 100, 2000} {
		for _, k := range kinds {
			y := drawCodes(rng, k, n)
			var rows []int // a random subset, as a nulled column selects
			for i := range y {
				if rng.Intn(4) != 0 {
					rows = append(rows, i)
				}
			}
			out = checkLabelRanks(t, y, rows, out, &s)
			all := make([]int, n)
			for i := range all {
				all[i] = i
			}
			out = checkLabelRanks(t, y, all, out, &s)
			if t.Failed() {
				t.Fatalf("n=%d labels=%s", n, k.name)
			}
		}
	}
}

func TestRankKernelsAllocateNothingWarm(t *testing.T) {
	x, _ := discretizedPair(2000)
	vals := make([]float64, len(x))
	rows := make([]int, len(x))
	for i := range x {
		vals[i] = float64(x[i]) + 0.5*math.Sin(float64(i))
		rows[i] = i
	}
	var s RankScratch
	out := RanksInto(nil, vals, &s)
	lab := LabelRanks(nil, x, rows, &s)
	if allocs := testing.AllocsPerRun(20, func() {
		out = RanksInto(out, vals, &s)
		lab = LabelRanks(lab, x, rows, &s)
	}); allocs != 0 {
		t.Fatalf("warm RanksInto+LabelRanks allocate %v times per call, want 0", allocs)
	}
}

// FuzzSelectionKernels checks Ranks, LabelRanks and Discretize against
// their oracles on arbitrary input. Each 8 bytes of raw are one float64
// bit pattern, so NaN payloads, both zeros, infinities and subnormals are
// reached; with ties set each byte instead picks one of a few values, so
// tie groups are large. Each byte of labels is one signed label scaled
// by 1<<shift, which reaches labels too wide for a counting table and
// beyond float64's exact integers. The seed corpus is under
// testdata/fuzz.
func FuzzSelectionKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw, labels []byte, ties bool, shift uint8) {
		var x []float64
		if ties {
			levels := []float64{math.Copysign(0, -1), 0, 1, -1, math.Inf(1), math.Inf(-1), math.NaN(), 2.5}
			for _, b := range raw {
				x = append(x, levels[int(b)%len(levels)])
			}
		} else {
			for i := 0; i+8 <= len(raw); i += 8 {
				x = append(x, math.Float64frombits(binary.LittleEndian.Uint64(raw[i:])))
			}
		}
		want := refRanks(x)
		got := Ranks(x)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("Ranks(%v)[%d] = %v, oracle %v", x, i, got[i], want[i])
			}
		}
		for _, bins := range []int{2, DefaultBins, int(shift)} {
			checkDiscretize(t, x, bins, nil)
		}
		y := make([]int, len(labels))
		for i, b := range labels {
			y[i] = int(int8(b)) << (shift % 64)
		}
		// Rank the labels over the rows a Spearman score keeps: the
		// common prefix's non-NaN rows of x.
		var rows []int
		for i := range min(len(x), len(y)) {
			if !math.IsNaN(x[i]) {
				rows = append(rows, i)
			}
		}
		var s RankScratch
		checkLabelRanks(t, y, rows, nil, &s)
	})
}

// FuzzCorrectedMutualInformation checks the dense MI kernels against the
// map oracle on arbitrary codes: each byte is one signed code (negative
// means missing), scaled by 1<<shift so wide and huge code ranges are
// reached; the two byte strings give independent, possibly mismatched,
// lengths. The seed corpus is under testdata/fuzz.
func FuzzCorrectedMutualInformation(f *testing.F) {
	f.Fuzz(func(t *testing.T, xb, yb []byte, shift uint8) {
		decode := func(b []byte) []int {
			out := make([]int, len(b))
			for i, c := range b {
				out[i] = int(int8(c)) << (shift % 48)
			}
			return out
		}
		x, y := decode(xb), decode(yb)
		if got, want := CorrectedMutualInformation(x, y), refCorrectedMutualInformation(x, y); !sameBits(got, want) {
			t.Fatalf("CorrectedMutualInformation = %v, oracle %v", got, want)
		}
		if got, want := MutualInformation(x, y), refMutualInformation(x, y); !sameBits(got, want) {
			t.Fatalf("MutualInformation = %v, oracle %v", got, want)
		}
		if got, want := CorrectedConditionalMutualInformation(x, y, x), refCorrectedConditionalMutualInformation(x, y, x); !sameBits(got, want) {
			t.Fatalf("CorrectedConditionalMutualInformation = %v, oracle %v", got, want)
		}
	})
}

// discretizedPair returns two Discretize outputs over n correlated rows
// with a few nulls, the MRMR kernel's usual input.
func discretizedPair(n int) (x, y []int) {
	rng := rand.New(rand.NewSource(15))
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = a[i] + rng.NormFloat64()
		if rng.Intn(50) == 0 {
			b[i] = math.NaN()
		}
	}
	return Discretize(a, DefaultBins), Discretize(b, DefaultBins)
}

var miSink float64

func TestCorrectedMutualInformationAllocatesNothing(t *testing.T) {
	x, y := discretizedPair(2000)
	if allocs := testing.AllocsPerRun(50, func() { miSink = CorrectedMutualInformation(x, y) }); allocs != 0 {
		t.Fatalf("CorrectedMutualInformation allocates %v times per call, want 0", allocs)
	}
}

func TestCorrectedMutualInformationCodesAllocatesNothing(t *testing.T) {
	x, y := discretizedPair(2000)
	xc, yc := NewCodes(x), NewCodes(y)
	if allocs := testing.AllocsPerRun(50, func() { miSink = CorrectedMutualInformationCodes(xc, yc) }); allocs != 0 {
		t.Fatalf("CorrectedMutualInformationCodes allocates %v times per call, want 0", allocs)
	}
}

func BenchmarkCorrectedMutualInformation(b *testing.B) {
	x, y := discretizedPair(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miSink = CorrectedMutualInformation(x, y)
	}
}
