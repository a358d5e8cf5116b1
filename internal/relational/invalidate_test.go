package relational

import (
	"reflect"
	"testing"

	"autofeat/internal/frame"
)

func TestKeyIndexCacheInvalidateColumns(t *testing.T) {
	a := frame.NewIntColumn("a", []int64{1, 2, 3}, nil)
	b := frame.NewIntColumn("b", []int64{4, 5, 6}, nil)
	cache := NewKeyIndexCache()
	cache.index(a, Options{})
	cache.index(a, Options{Normalize: true})
	cache.index(b, Options{})
	if cache.Len() != 3 {
		t.Fatalf("Len = %d, want 3 resident indexes", cache.Len())
	}
	keptB := cache.Peek(b, false)
	if keptB == nil {
		t.Fatal("Peek must surface b's resident index")
	}

	// Invalidating a must drop exactly a's two entries (both normalize
	// variants) and leave b's untouched — by pointer identity.
	cache.InvalidateColumns([]*frame.Column{a})
	if cache.Len() != 1 {
		t.Fatalf("Len after invalidate = %d, want 1", cache.Len())
	}
	if cache.Peek(a, false) != nil || cache.Peek(a, true) != nil {
		t.Fatal("a's entries must be gone")
	}
	if got := cache.Peek(b, false); !sameMap(got, keptB) {
		t.Fatal("b's entry must survive untouched (pointer identity)")
	}

	// Peek must not count as a hit or miss, and nil/empty calls are
	// no-ops on a nil-safe receiver.
	if hits, _ := cache.Stats(); hits != 0 {
		t.Fatalf("Peek must not record hits, got %d", hits)
	}
	cache.InvalidateColumns(nil)
	var nilCache *KeyIndexCache
	nilCache.InvalidateColumns([]*frame.Column{a})
	if nilCache.Peek(a, false) != nil {
		t.Fatal("nil cache peeks nil")
	}

	// Same name, different column pointer: the cache keys on identity,
	// so a rebuilt column never aliases a stale index.
	a2 := frame.NewIntColumn("a", []int64{7, 8, 9}, nil)
	idx := cache.index(a2, Options{})
	if reflect.DeepEqual(idx, map[string]int{"1": 0, "2": 1, "3": 2}) {
		t.Fatal("fresh column must not see the old column's index")
	}
}

// sameMap reports pointer identity of two maps (reflect on the header).
func sameMap(x, y map[string]int) bool {
	return reflect.ValueOf(x).Pointer() == reflect.ValueOf(y).Pointer()
}

// TestPinnedKeyIndexCacheSkipsInsertsAfterInvalidation: a pinned handle
// serves hits and inserts misses until the next InvalidateColumns; after
// it, misses are built and kept by the handle alone, while the shared
// counters and unpinned handles carry on as before.
func TestPinnedKeyIndexCacheSkipsInsertsAfterInvalidation(t *testing.T) {
	a := frame.NewIntColumn("a", []int64{1, 2, 3}, nil)
	b := frame.NewIntColumn("b", []int64{4, 5, 6}, nil)
	c := frame.NewIntColumn("c", []int64{7, 8, 9}, nil)
	cache := NewKeyIndexCache()
	pinned := cache.Pin()
	pinned.index(a, Options{})
	if cache.Peek(a, false) == nil {
		t.Fatal("a pinned handle must insert while its generation is current")
	}

	cache.InvalidateColumns([]*frame.Column{c})
	if got := pinned.index(a, Options{}); !sameMap(got, cache.Peek(a, false)) {
		t.Fatal("a pinned handle must serve hits after an invalidation")
	}
	idx := pinned.index(b, Options{})
	if idx["4"] != 0 {
		t.Fatalf("a skipped insert must still return the built index, got %v", idx)
	}
	if cache.Peek(b, false) != nil || cache.Len() != 1 {
		t.Fatal("a pinned handle must not insert into the shared cache after an invalidation")
	}
	if again := pinned.index(b, Options{}); !sameMap(again, idx) {
		t.Fatal("a pinned handle must reuse the index it kept after an invalidation")
	}
	if hits, misses := cache.Stats(); hits != 2 || misses != 2 {
		t.Fatalf("Stats = %d hits, %d misses; want 2, 2 shared across handles", hits, misses)
	}
	cache.index(b, Options{})
	if cache.Peek(b, false) == nil || cache.Len() != 2 {
		t.Fatal("the unpinned cache must keep inserting")
	}
	if cache.Pin().index(c, Options{}); cache.Peek(c, false) == nil {
		t.Fatal("a handle pinned after the invalidation must insert")
	}
	var nilCache *KeyIndexCache
	if nilCache.Pin() != nil {
		t.Fatal("pinning a nil cache gives a nil cache")
	}
}
