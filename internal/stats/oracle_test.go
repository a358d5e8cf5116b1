package stats

import (
	"math"
	"math/rand"
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
	sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
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
	}
	for _, p := range pairs {
		if !sameBits(p.got, p.want) {
			t.Errorf("%s = %v, oracle %v (len x=%d y=%d z=%d)", p.name, p.got, p.want, len(x), len(y), len(z))
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
		{"integer-codes", func() float64 { return float64(rng.Intn(12)) }},
	}
	for _, d := range draws {
		for _, n := range []int{0, 1, 5, 11, 12, 500} {
			for _, bins := range []int{0, 2, DefaultBins, 11, 64} {
				x := make([]float64, n)
				for i := range x {
					x[i] = d.draw()
				}
				got, want := Discretize(x, bins), refDiscretize(x, bins)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s n=%d bins=%d: code[%d] = %d, oracle %d", d.name, n, bins, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestRanksMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{0, 1, 2, 50, 3000} {
		for _, ties := range []int{1, 3, 40, 1 << 30} {
			x := make([]float64, n)
			for i := range x {
				x[i] = float64(rng.Intn(ties))
				if rng.Intn(8) == 0 {
					x[i] = math.NaN()
				}
				if rng.Intn(16) == 0 {
					x[i] = math.Copysign(0, -1)
				}
			}
			got, want := Ranks(x), refRanks(x)
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("n=%d ties=%d: rank[%d] = %v, oracle %v", n, ties, i, got[i], want[i])
				}
			}
		}
	}
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

func BenchmarkCorrectedMutualInformation(b *testing.B) {
	x, y := discretizedPair(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miSink = CorrectedMutualInformation(x, y)
	}
}
