package u32map

import (
	"errors"
	"slices"
	"testing"

	"vicinity/internal/xrand"
)

// checkCodec codes keys (strictly increasing node ids) as a one-run
// weighted table and checks it against naive references: the run
// decodes to keys, Check accepts it, Get finds every key with its
// distance and no neighbor of one, and Intersect with other finds the
// reference's first common element and stopping positions.
func checkCodec(t *testing.T, keys, other []uint32) {
	t.Helper()
	dists := make([]uint32, len(keys))
	for i, k := range keys {
		dists[i] = k ^ 0x9e3779b9
	}
	f := buildFlat(keys, dists)
	if len(keys) == 0 {
		if f.Len() != 0 {
			t.Fatal("an empty table has entries")
		}
		return
	}
	run, _ := f.Run(0)
	if got := keysOf(run); !slices.Equal(got, keys) {
		t.Fatalf("round trip of %v decoded %v", keys, got)
	}
	if err := f.Check(keys[len(keys)-1] + 1); err != nil {
		t.Fatalf("Check(%v): %v", keys, err)
	}
	present := make(map[uint32]bool, len(keys))
	for i, k := range keys {
		present[k] = true
		if d, ok := f.Get(k); !ok || d != dists[i] {
			t.Fatalf("Get(%d) = %d,%v, want %d", k, d, ok, dists[i])
		}
	}
	for _, k := range keys {
		for _, probe := range []uint32{k - 1, k + 1} {
			if _, ok := f.Get(probe); ok != present[probe] {
				t.Fatalf("Get(%d) membership %v, want %v", probe, ok, present[probe])
			}
		}
	}
	checkIntersect(t, keys, other)
}

// gappy returns n strictly increasing keys from lo with gaps drawn
// below maxGap.
func gappy(r *xrand.Rand, n int, lo, maxGap uint32) []uint32 {
	keys := make([]uint32, 0, n)
	for k := lo; len(keys) < n; k += 1 + r.Uint32n(maxGap) {
		keys = append(keys, k)
	}
	return keys
}

// TestRunCodec checks the codec on the shapes its block arithmetic has
// edges for: one-key runs, runs of exactly B and B+1 keys, consecutive
// ids (zero-width blocks, a path graph's levels), a gap of at least
// 2^31 (a 32-bit width), key 0, and a first common element in the last
// block.
func TestRunCodec(t *testing.T) {
	r := xrand.New(9)
	consecutive := make([]uint32, 3*BlockLen+5)
	for i := range consecutive {
		consecutive[i] = uint32(i)
	}
	everyOther := make([]uint32, 4*BlockLen)
	for i := range everyOther {
		everyOther[i] = uint32(2 * i)
	}
	lastOf := everyOther[len(everyOther)-1]
	for _, tc := range []struct {
		name        string
		keys, other []uint32
	}{
		{"one key", []uint32{5}, []uint32{5}},
		{"one key 0", []uint32{0}, []uint32{1, 2}},
		{"one key near the top", []uint32{1<<32 - 2}, []uint32{7, 1<<32 - 2}},
		{"exactly B", gappy(r, BlockLen, 3, 40), gappy(r, 10, 0, 200)},
		{"B+1", gappy(r, BlockLen+1, 0, 40), gappy(r, BlockLen+1, 1, 40)},
		{"consecutive", consecutive, []uint32{2*BlockLen - 1, 3 * BlockLen}},
		{"gap of 2^31", []uint32{0, 1, 1<<31 + 2, 1<<32 - 2}, []uint32{1<<31 + 2}},
		{"gap of 2^32-2", []uint32{0, 1<<32 - 2}, []uint32{1<<32 - 2}},
		{"match in the last block", everyOther, []uint32{1, lastOf}},
		{"miss past the last block", everyOther, []uint32{lastOf + 1}},
		{"long skewed", gappy(r, 20*BlockLen, 0, 9), gappy(r, 7, 100, 2000)},
		{"two long", gappy(r, 9*BlockLen, 0, 5), gappy(r, 7*BlockLen, 2, 7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkCodec(t, tc.keys, tc.other)
			checkCodec(t, tc.other, tc.keys)
		})
	}
	for trial := 0; trial < 300; trial++ {
		n, m := int(r.Uint32n(5*BlockLen)), int(r.Uint32n(5*BlockLen))
		gap := uint32(1) << r.Uint32n(12)
		checkCodec(t, gappy(r, n, r.Uint32n(9), gap), gappy(r, m, r.Uint32n(9), gap))
	}
}

// TestMeetAllShared walks every shared key of two sides with one Meet,
// over two coded runs and over a plain side against a coded run, and
// checks them, and the final stopping positions, against a merge.
func TestMeetAllShared(t *testing.T) {
	r := xrand.New(11)
	for trial := 0; trial < 200; trial++ {
		a := gappy(r, int(r.Uint32n(4*BlockLen)), 0, 4)
		b := gappy(r, int(r.Uint32n(4*BlockLen)), r.Uint32n(3), 4)
		var want [][2]int
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] < b[j]:
				i++
			case a[i] > b[j]:
				j++
			default:
				want = append(want, [2]int{i, j})
				i, j = i+1, j+1
			}
		}
		endI, endJ, _ := naiveIntersect(a[min(i, len(a)):], b[min(j, len(b)):])
		// The same walk over two coded runs and over a plain side.
		var coded, plain Meet
		coded.Runs(runOf(a), runOf(b))
		plain.Keys(a, runOf(b))
		for _, m := range []*Meet{&coded, &plain} {
			for _, w := range want {
				if gi, gj, ok := m.Next(); !ok || gi != w[0] || gj != w[1] || m.Key() != a[gi] {
					t.Fatalf("%v ∩ %v: Next = (%d, %d, %v), want %v", a, b, gi, gj, ok, w)
				}
			}
			if gi, gj, ok := m.Next(); ok || gi != i+endI || gj != j+endJ {
				t.Fatalf("%v ∩ %v: final Next = (%d, %d, %v), want (%d, %d)", a, b, gi, gj, ok, i+endI, j+endJ)
			}
		}
	}
}

// FuzzRunCodec checks the codec's properties (round trip, Check, Get,
// first common element) on runs built from arbitrary bytes: each byte
// below 0xF0 is a gap to the next key, a byte from 0xF0 up a gap of its
// low nibble times 2^28, so runs hold zero-width, narrow and 32-bit
// blocks; split picks where the second run's gaps begin.
func FuzzRunCodec(f *testing.F) {
	f.Add(uint8(3), []byte{0, 0, 0, 1, 2, 3})
	f.Add(uint8(33), []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add(uint8(2), []byte{0xF8, 7, 0xF7, 5})
	f.Fuzz(func(t *testing.T, split uint8, gaps []byte) {
		side := func(gaps []byte) []uint32 {
			var xs []uint32
			k := uint64(0)
			for i, g := range gaps {
				if i > 0 || g != 0 {
					step := uint64(g)
					if g >= 0xF0 {
						step = uint64(g&0xF) << 28
					}
					k += step + 1
				}
				if k >= 1<<32-1 {
					break
				}
				xs = append(xs, uint32(k))
			}
			return xs
		}
		n := min(int(split), len(gaps))
		checkCodec(t, side(gaps[:n]), side(gaps[n:]))
	})
}

// TestTableCheck corrupts coded tables one field at a time: Check, the
// loader's structural check, must reject each one.
func TestTableCheck(t *testing.T) {
	r := xrand.New(13)
	keys := gappy(r, 3*BlockLen+4, 1, 300) // four blocks in one run
	build := func() Flat {
		return addTable(&Arena{}, keys, nil, make([]uint32, len(keys)))
	}
	n := keys[len(keys)-1] + 1
	if err := build().Check(n); err != nil {
		t.Fatal(err)
	}
	// Word indexes in a one-run weighted table: run count, then the
	// run record {end, last, block}, then the block records.
	const head1, meta1, meta3 = 4 + 2, 4 + 3, 4 + 7
	for _, tc := range []struct {
		name   string
		mutate func(w []uint32)
	}{
		{"run count past the table", func(w []uint32) { w[0] = 1 << 30 }},
		{"run end past the distances", func(w []uint32) { w[1]++ }},
		{"no run", func(w []uint32) { w[0] = 0 }},
		{"run's first block", func(w []uint32) { w[3] = 1 }},
		{"run's last key", func(w []uint32) { w[2]-- }},
		{"block head not above the previous block's last key", func(w []uint32) { w[head1] = keys[BlockLen-1] }},
		{"key out of range", func(w []uint32) { w[head1] = n + 5 }},
		{"width over 32", func(w []uint32) { w[meta1] = w[meta1]&^widthMask | 33 }},
		{"data offset out of place", func(w []uint32) { w[meta1] += 1 << widthBits }},
		{"last block's data shorter than its width implies", func(w []uint32) { w[meta3] = w[meta3]&^widthMask | 32 }},
	} {
		f := build()
		tc.mutate(f.Words())
		if err := f.Check(n); !errors.Is(err, ErrBadTable) {
			t.Errorf("%s: Check = %v", tc.name, err)
		}
	}
	// A word between the last block's data and the distances.
	a := &Arena{}
	words := append(AppendTable(nil, false, keys, nil, nil), 0)
	words = append(words, make([]uint32, len(keys))...)
	if err := a.Add(words).Check(n); !errors.Is(err, ErrBadTable) {
		t.Errorf("trailing word: Check = %v", err)
	}
	// No distances after the data.
	if err := a.Add(AppendTable(nil, false, keys, nil, nil)).Check(n); !errors.Is(err, ErrBadTable) {
		t.Errorf("missing distances: Check = %v", err)
	}
	// A 32-bit gap-1 of 2^32-1 wraps the key around to its predecessor.
	wrap := addTable(&Arena{}, []uint32{0, 1<<32 - 2}, nil, make([]uint32, 2))
	wrap.Words()[len(wrap.Words())-3] = 1<<32 - 1 // the data word, before two distances
	if err := wrap.Check(1<<32 - 1); !errors.Is(err, ErrBadTable) {
		t.Errorf("wrapping gap: Check = %v", err)
	}
	// Leveled run ends: each level non-empty, strictly increasing, the
	// last at the entry count.
	lv := &Arena{Leveled: true}
	f := addTable(lv, []uint32{9, 1, 2, 3, 4}, []uint32{3}, nil)
	if err := f.Check(10); err != nil {
		t.Fatal(err)
	}
	f.Words()[2] = 1 // level 1 would be empty
	if err := f.Check(10); !errors.Is(err, ErrBadTable) {
		t.Errorf("empty level: Check = %v", err)
	}
	if err := addTable(lv, []uint32{9, 1}, nil, nil).Check(9); !errors.Is(err, ErrBadTable) {
		t.Errorf("owner out of range: Check = %v", err)
	}
}
