package stats

import (
	"math"
	"slices"
)

// Ranking sorts nothing by comparison. Ranks keys every non-NaN value to
// a uint64 whose unsigned order is the values' numeric order and sorts
// the keys with an LSD radix sort, one byte per pass, skipping the
// passes whose byte is the same in every key. LabelRanks counts integer
// labels in a table indexed by their offset from the smallest label.
// Both give each tie group the mean of the ranks it spans with the same
// (i+1+j)/2 expression, so their ranks equal a comparison sort's bit
// for bit. The sort-based reference lives in the tests as the oracle.

// RankScratch holds the buffers Ranks and LabelRanks reuse between
// calls. The zero value is ready to use; a scratch serves one goroutine
// at a time.
type RankScratch struct {
	keyed, tmp []keyedRow
	counts     []int
	classRanks []float64
}

// keyedRow is one non-NaN value's sort key and its row.
type keyedRow struct {
	key uint64
	row int
}

// floatKey maps v to a key whose unsigned order is v's numeric order:
// the sign bit is flipped for positive values and every bit for
// negative ones. -0 is keyed as +0, so the two zeros tie as they
// compare equal.
func floatKey(v float64) uint64 {
	if v == 0 {
		v = 0
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// Ranks returns the fractional (average) ranks of x in [1, n], assigning
// tied values the mean of the ranks they span. NaN entries receive NaN
// ranks, so downstream Pearson skips them.
func Ranks(x []float64) []float64 {
	var s RankScratch
	return RanksInto(nil, x, &s)
}

// RanksInto is Ranks writing into out, which it reallocates when shorter
// than x and which may be x itself, with its buffers taken from s. It
// returns the ranks.
func RanksInto(out, x []float64, s *RankScratch) []float64 {
	out = resize(out, len(x))
	keyed := slices.Grow(s.keyed[:0], len(x))
	for i, v := range x {
		if math.IsNaN(v) {
			out[i] = math.NaN()
			continue
		}
		keyed = append(keyed, keyedRow{floatKey(v), i})
	}
	s.keyed = keyed
	keyed = s.sort(keyed)
	for i := 0; i < len(keyed); {
		j := i + 1
		for j < len(keyed) && keyed[j].key == keyed[i].key {
			j++
		}
		// average rank for the tie group [i, j)
		avg := (float64(i+1) + float64(j)) / 2
		for _, k := range keyed[i:j] {
			out[k.row] = avg
		}
		i = j
	}
	return out
}

// sort orders keyed by key with an LSD radix sort and returns the sorted
// slice, which is keyed itself or s.tmp. Ties keep no particular order.
func (s *RankScratch) sort(keyed []keyedRow) []keyedRow {
	if len(keyed) < 2 {
		return keyed
	}
	// diff has a bit set wherever some key differs from the first.
	var diff uint64
	for _, k := range keyed {
		diff |= k.key ^ keyed[0].key
	}
	s.tmp = resize(s.tmp, len(keyed))
	src, dst := keyed, s.tmp
	for shift := uint(0); diff>>shift != 0; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue // every key has the same byte here
		}
		var counts [256]int
		for _, k := range src {
			counts[byte(k.key>>shift)]++
		}
		sum := 0
		for b, n := range counts {
			counts[b] = sum
			sum += n
		}
		for _, k := range src {
			b := byte(k.key >> shift)
			dst[counts[b]] = k
			counts[b]++
		}
		src, dst = dst, src
	}
	return src
}

// maxExactInt bounds the integers that convert to float64 exactly, so
// distinct labels within it stay distinct as floats.
const maxExactInt = 1 << 53

// LabelRanks returns the fractional ranks of the integer labels y[r] for
// r in rows, in rows' order: out[k] is y[rows[k]]'s rank among the
// selected labels, exactly as Ranks ranks those labels converted to
// float64. It counts the labels in a table over their range in O(n);
// labels whose range would not fit a table (see fits), or that lie
// beyond ±2^53, are ranked by Ranks instead. out is reallocated when
// shorter than rows.
func LabelRanks(out []float64, y, rows []int, s *RankScratch) []float64 {
	out = resize(out, len(rows))
	if len(rows) == 0 {
		return out
	}
	lo, hi := y[rows[0]], y[rows[0]]
	for _, r := range rows {
		lo, hi = min(lo, y[r]), max(hi, y[r])
	}
	if lo < -maxExactInt || hi > maxExactInt || !fits(hi-lo+1, len(rows)) {
		for k, r := range rows {
			out[k] = float64(y[r])
		}
		return RanksInto(out, out, s)
	}
	w := hi - lo + 1
	counts := scratch(s.counts[:cap(s.counts)], w)
	for _, r := range rows {
		counts[y[r]-lo]++
	}
	ranks := resize(s.classRanks, w)
	below := 0
	for c, n := range counts {
		// the tie group of class c spans ranks below+1 .. below+n
		ranks[c] = (float64(below+1) + float64(below+n)) / 2
		below += n
	}
	for k, r := range rows {
		out[k] = ranks[y[r]-lo]
	}
	s.counts, s.classRanks = counts, ranks
	return out
}

// resize returns buf with length n, reallocated when its capacity is
// short. The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
