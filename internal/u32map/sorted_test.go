package u32map

import (
	"maps"
	"slices"
	"testing"

	"vicinity/internal/xrand"
)

// naiveIntersect is Intersect's reference: the first element of a
// present in b, found by brute force, with the stopping positions the
// contract defines for a miss (a side exhausted, the other at the count
// of its entries below the exhausted side's last).
func naiveIntersect(a, b []uint32) (i, j int, ok bool) {
	for i, x := range a {
		for j, y := range b {
			if x == y {
				// No smaller common element exists (both sides ascend),
				// so this is the first one.
				return i, j, true
			}
		}
	}
	below := func(xs []uint32, v uint32) int {
		n := 0
		for _, x := range xs {
			if x < v {
				n++
			}
		}
		return n
	}
	switch {
	case len(a) == 0 || len(b) == 0:
		return 0, 0, false
	case a[len(a)-1] < b[len(b)-1]:
		return len(a), below(b, a[len(a)-1]), false
	default:
		return below(a, b[len(b)-1]), len(b), false
	}
}

// runOf codes keys as one run of a weighted table of its own.
func runOf(keys []uint32) Run {
	if len(keys) == 0 {
		return Run{}
	}
	run, _ := addTable(&Arena{}, keys, nil, make([]uint32, len(keys))).Run(0)
	return run
}

// checkIntersect compares Intersect, and a Meet of a plain side against
// a coded one, with the reference on one pair, in both argument orders.
func checkIntersect(t *testing.T, a, b []uint32) {
	t.Helper()
	for _, sides := range [][2][]uint32{{a, b}, {b, a}} {
		wi, wj, wok := naiveIntersect(sides[0], sides[1])
		gi, gj, gok := Intersect(runOf(sides[0]), runOf(sides[1]))
		if gi != wi || gj != wj || gok != wok {
			t.Fatalf("Intersect(%v, %v) = (%d, %d, %v), want (%d, %d, %v)",
				sides[0], sides[1], gi, gj, gok, wi, wj, wok)
		}
		var m Meet
		m.Keys(sides[0], runOf(sides[1]))
		if gi, gj, gok := m.Next(); gi != wi || gj != wj || gok != wok {
			t.Fatalf("Meet.Keys(%v, %v) = (%d, %d, %v), want (%d, %d, %v)",
				sides[0], sides[1], gi, gj, gok, wi, wj, wok)
		}
	}
}

// ascending returns n distinct keys below limit, sorted.
func ascending(r *xrand.Rand, n int, limit uint32) []uint32 {
	seen := map[uint32]bool{}
	for len(seen) < n {
		seen[r.Uint32n(limit)] = true
	}
	return slices.Sorted(maps.Keys(seen))
}

// TestIntersect runs the walk over shapes where a merge and a search
// of the shorter side into the longer once took different strategies
// (the switch sat at a 16× length ratio); the coded walk must stop at
// the same positions on all of them, skipped blocks or not.
func TestIntersect(t *testing.T) {
	long := make([]uint32, 0, 400)
	for k := uint32(0); k < 400; k++ {
		long = append(long, 3*k+1)
	}
	for _, tc := range []struct {
		name string
		a, b []uint32
	}{
		{"both empty", nil, nil},
		{"one empty", nil, []uint32{1, 2, 3}},
		{"equal", []uint32{4, 8, 15, 16, 23, 42}, []uint32{4, 8, 15, 16, 23, 42}},
		{"disjoint interleaved", []uint32{1, 3, 5, 7}, []uint32{2, 4, 6, 8}},
		{"disjoint ranges", []uint32{1, 2, 3}, []uint32{10, 11, 12}},
		{"last element of both", []uint32{1, 3, 5, 9}, []uint32{2, 4, 6, 9}},
		{"merge side of the switch", long[:30], long[29:60]},
		{"search side of the switch, a hit", []uint32{long[250]}, long[:16]},
		{"search side of the switch, a hit at the end", []uint32{2, long[399]}, long},
		{"search side of the switch, a miss", []uint32{0, 2, 600, 2000}, long},
		{"search side of the switch, past the end", []uint32{5000}, long},
		{"just below the switch", long[:25], long[1:]},         // 25·16 > 399: a merge
		{"just at the switch", long[:24], long[16 : 16+16*24]}, // 24·16 = 384: a search
	} {
		t.Run(tc.name, func(t *testing.T) { checkIntersect(t, tc.a, tc.b) })
	}

	r := xrand.New(3)
	for trial := 0; trial < 2000; trial++ {
		na, nb := int(r.Uint32n(40)), int(r.Uint32n(40))
		if trial%2 == 0 {
			nb *= 20 // a skewed pair: the short side skips blocks
		}
		limit := uint32(na+nb)*2 + 1
		checkIntersect(t, ascending(r, na, limit), ascending(r, nb, limit))
	}
}

// FuzzIntersect compares Intersect with the reference on sides built
// from arbitrary bytes: each byte is a gap to the next key, so every
// side strictly increases, and a length byte picks the first side.
func FuzzIntersect(f *testing.F) {
	f.Add(uint8(3), []byte{1, 2, 3, 1, 2, 3})
	f.Add(uint8(1), []byte{9, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add(uint8(0), []byte{4, 4, 4})
	f.Fuzz(func(t *testing.T, split uint8, gaps []byte) {
		n := min(int(split), len(gaps))
		side := func(gaps []byte) []uint32 {
			var xs []uint32
			k := uint32(0)
			for _, g := range gaps {
				k += uint32(g) + 1
				xs = append(xs, k)
			}
			return xs
		}
		checkIntersect(t, side(gaps[:n]), side(gaps[n:]))
	})
}

// TestSorter checks both strategies against slices.Sort, with the
// distances carried along, on runs of small and large keys.
func TestSorter(t *testing.T) {
	var s Sorter
	r := xrand.New(4)
	for _, n := range []int{0, 1, 2, shortRun, shortRun + 1, 300, 5000} {
		for _, limit := range []uint32{uint32(2*n + 1), 1 << 20, 1 << 31} {
			sorted := ascending(r, n, limit)
			keys := make([]uint32, n)
			for i, p := range r.Perm(n) {
				keys[i] = sorted[p]
			}
			dists := make([]uint32, n)
			for i, k := range keys {
				dists[i] = k ^ 0x5555
			}
			s.Sort(keys, dists)
			if !slices.IsSorted(keys) {
				t.Fatalf("n=%d limit=%d: keys not sorted", n, limit)
			}
			for i, k := range keys {
				if dists[i] != k^0x5555 {
					t.Fatalf("n=%d limit=%d: distance of %d not carried along", n, limit, k)
				}
			}
			s.Sort(keys, nil)
			if !slices.IsSorted(keys) {
				t.Fatalf("n=%d limit=%d: sorted keys disturbed", n, limit)
			}
		}
	}
}
