package u32map

import (
	"slices"
	"testing"

	"vicinity/internal/xrand"
)

// buildFlatArena packs the given tables (as key slices; dist = key+1)
// into one weighted arena, each table sorted into a single run.
func buildFlatArena(t *testing.T, tables [][]uint32) (*Arena, []Flat) {
	t.Helper()
	a := &Arena{}
	var views []Flat
	for _, keys := range tables {
		sorted := slices.Sorted(slices.Values(keys))
		eOff := uint32(len(a.Keys))
		for _, k := range sorted {
			a.Keys = append(a.Keys, k)
			a.Dists = append(a.Dists, k+1)
		}
		views = append(views, a.View(Range{EOff: eOff, ELen: uint32(len(a.Keys)) - eOff}))
	}
	return a, views
}

func TestFlatLayouts(t *testing.T) {
	r := xrand.New(1)
	tables := make([][]uint32, 50)
	for i := range tables {
		n := int(r.Uint32n(200))
		seen := map[uint32]bool{}
		for len(seen) < n {
			seen[r.Uint32n(100000)] = true
		}
		for k := range seen {
			tables[i] = append(tables[i], k)
		}
	}
	_, views := buildFlatArena(t, tables)
	for i, keys := range tables {
		f := views[i]
		if f.Len() != len(keys) {
			t.Fatalf("table %d: Len %d, want %d", i, f.Len(), len(keys))
		}
		for _, k := range keys {
			d, ok := f.Get(k)
			if !ok || d != k+1 {
				t.Fatalf("table %d: Get(%d) = %d,%v", i, k, d, ok)
			}
		}
		// Absent keys, including ones present in *other* tables of
		// the same arena (no cross-table bleed).
		for trial := 0; trial < 200; trial++ {
			k := r.Uint32n(1 << 30)
			want := false
			for _, have := range keys {
				if have == k {
					want = true
				}
			}
			if _, ok := f.Get(k); ok != want {
				t.Fatalf("table %d: Get(%d) membership %v, want %v", i, k, ok, want)
			}
		}
		// At and Tail enumerate exactly the entries, sorted by key.
		got := map[uint32]bool{}
		all := f.Tail(f.Len())
		if len(all.Keys) != f.Len() {
			t.Fatalf("table %d: Tail length %d, want %d", i, len(all.Keys), f.Len())
		}
		sorted := slices.Sorted(slices.Values(keys))
		for j := 0; j < f.Len(); j++ {
			k, d := f.At(j)
			if d != k+1 || k != sorted[j] || all.Keys[j] != k || all.Dist(j) != d {
				t.Fatalf("At(%d) returned (%d,%d)", j, k, d)
			}
			got[k] = true
		}
		if len(got) != len(keys) {
			t.Fatalf("At enumerated %d distinct keys, want %d", len(got), len(keys))
		}
	}
}

func TestFlatMatchesMap(t *testing.T) {
	r := xrand.New(7)
	keys := make([]uint32, 0, 500)
	seen := map[uint32]bool{}
	for len(keys) < 500 {
		k := r.Uint32n(1 << 20)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	m := New(len(keys))
	for _, k := range keys {
		m.Put(k, k*3)
	}
	a := &Arena{Keys: slices.Sorted(slices.Values(keys))}
	for _, k := range a.Keys {
		a.Dists = append(a.Dists, k*3)
	}
	f := a.View(Range{ELen: uint32(len(keys))})
	for trial := 0; trial < 5000; trial++ {
		k := r.Uint32n(1 << 21)
		dm, okM := m.Get(k)
		df, okF := f.Get(k)
		if dm != df || okM != okF {
			t.Fatalf("Get(%d): Map %d,%v vs Flat %d,%v", k, dm, okM, df, okF)
		}
	}
}

func TestFlatEmpty(t *testing.T) {
	var f Flat
	if f.Len() != 0 || f.Bytes() != 0 {
		t.Fatal("zero Flat not empty")
	}
	if _, ok := f.Get(0); ok {
		t.Fatal("zero Flat contains a key")
	}
	if s := f.Tail(0); s.Keys != nil {
		t.Fatal("zero Flat has entries")
	}
}

func TestRanges(t *testing.T) {
	a, views := buildFlatArena(t, [][]uint32{{1, 2, 3}, {}, {10, 20}})
	if r := views[0].Range(); r.EOff != 0 || r.ELen != 3 || r.LLen != 0 {
		t.Fatalf("ranges[0] = %+v", r)
	}
	if r := views[1].Range(); r.ELen != 0 {
		t.Fatalf("empty table ranges = %+v", r)
	}
	if r := views[2].Range(); r.EOff != 3 || r.ELen != 2 {
		t.Fatalf("ranges[2] = %+v", r)
	}
	if a.NumEntries() != 5 {
		t.Fatalf("NumEntries = %d", a.NumEntries())
	}
	if a.Bytes() != 4*5*2 {
		t.Fatalf("Bytes = %d", a.Bytes())
	}
	if b := views[0].Bytes(); b != 8*3 {
		t.Fatalf("table Bytes = %d, want 8 per entry and no index", b)
	}
}

func TestArenaAllocAndClone(t *testing.T) {
	a := &Arena{
		Keys:   make([]uint32, 2, 8),
		Dists:  make([]uint32, 2, 8),
		Levels: make([]uint32, 0, 8),
	}
	a.Keys[0], a.Keys[1] = 7, 9

	c := a.Clone()
	off := c.AllocEntries(3)
	if off != 2 || len(c.Keys) != 5 {
		t.Fatalf("alloc off=%d len=%d", off, len(c.Keys))
	}
	c.Keys[off] = 42
	// The original header still sees only its own range.
	if len(a.Keys) != 2 || a.Keys[0] != 7 || a.Keys[1] != 9 {
		t.Fatal("clone append disturbed the original view")
	}
	// Reused spare capacity must come back zeroed.
	c.Levels = append(c.Levels, 5, 6)[:0]
	loff := c.AllocLevels(4)
	for i := loff; i < loff+4; i++ {
		if c.Levels[i] != 0 {
			t.Fatal("AllocLevels returned non-zeroed space")
		}
	}
	// Growth past capacity reallocates without touching the original.
	c2 := c.Clone()
	c2.AllocEntries(100)
	if len(c.Keys) != 5 || c.Keys[off] != 42 {
		t.Fatal("reallocation disturbed the parent snapshot")
	}
}

// TestLeveledArena checks the distance-free layout: a table's entries
// in level order, sorted by key within each level, plus its level
// starts resolve every member's distance through Get, At, Tail and Run,
// survive CopyTo, and cost one word per entry plus the starts.
func TestLeveledArena(t *testing.T) {
	// Three tables: levels 0..3 with starts {4, 6}, an owner with one
	// neighbor level and no starts, and an owner alone.
	tables := []struct {
		keys, starts, dists []uint32
	}{
		{[]uint32{50, 7, 9, 11, 60, 61, 90}, []uint32{4, 6}, []uint32{0, 1, 1, 1, 2, 2, 3}},
		{[]uint32{3, 1, 5}, nil, []uint32{0, 1, 1}},
		{[]uint32{8}, nil, []uint32{0}},
	}
	a := &Arena{Leveled: true}
	var views []Flat
	for _, tb := range tables {
		r := Range{ELen: uint32(len(tb.keys)), LLen: uint32(len(tb.starts))}
		r.EOff = a.AllocEntries(len(tb.keys))
		copy(a.Keys[r.EOff:], tb.keys)
		r.LOff = a.AllocLevels(len(tb.starts))
		copy(a.Levels[r.LOff:], tb.starts)
		views = append(views, a.View(r))
	}
	if a.Dists != nil {
		t.Fatalf("leveled arena grew a distance array: %v", a.Dists)
	}
	check := func(f Flat, keys, dists []uint32) {
		t.Helper()
		if !f.Sorted() || !f.Leveled() {
			t.Fatalf("table %v: Sorted %v, Leveled %v", keys, f.Sorted(), f.Leveled())
		}
		for i, k := range keys {
			if d, ok := f.Get(k); !ok || d != dists[i] {
				t.Fatalf("Get(%d) = %d,%v, want %d", k, d, ok, dists[i])
			}
			if gk, gd := f.At(i); gk != k || gd != dists[i] {
				t.Fatalf("At(%d) = %d/%d, want %d/%d", i, gk, gd, k, dists[i])
			}
		}
		for _, k := range []uint32{0, 2, 10, 55, 100} {
			if _, ok := f.Get(k); ok {
				t.Fatalf("Get(%d) found an absent key", k)
			}
		}
		for n := 0; n <= len(keys); n++ {
			s := f.Tail(n)
			for j := range s.Keys {
				if i := len(keys) - n + j; s.Keys[j] != keys[i] || s.Dist(j) != dists[i] {
					t.Fatalf("Tail(%d)[%d] = %d/%d, want %d/%d", n, j, s.Keys[j], s.Dist(j), keys[i], dists[i])
				}
			}
		}
		i := 0
		for k := 0; k < f.Runs(); k++ {
			run, rd := f.Run(k)
			if rd != nil {
				t.Fatalf("leveled run %d has distances", k)
			}
			for _, key := range run {
				if key != keys[i] || dists[i] != uint32(k) {
					t.Fatalf("run %d holds %d, want %d at level %d", k, key, keys[i], dists[i])
				}
				i++
			}
		}
		if i != len(keys) {
			t.Fatalf("runs hold %d entries, want %d", i, len(keys))
		}
	}
	for i, tb := range tables {
		check(views[i], tb.keys, tb.dists)
		if b, want := views[i].Bytes(), 4*(len(tb.keys)+len(tb.starts)); b != want {
			t.Fatalf("table %d: Bytes = %d, want %d", i, b, want)
		}
	}
	if a.Bytes() != views[0].Bytes()+views[1].Bytes()+views[2].Bytes() {
		t.Fatalf("arena Bytes = %d, tables %d", a.Bytes(), views[0].Bytes()+views[1].Bytes()+views[2].Bytes())
	}
	dst := &Arena{Leveled: true}
	for i := len(tables) - 1; i >= 0; i-- { // reversed: offsets move
		check(views[i].CopyTo(dst), tables[i].keys, tables[i].dists)
	}
}

// TestWeightedRuns checks a weighted table of two runs, an interior
// and a tail split by one run start: Get finds keys in either run with
// their own distances, Run returns each run with its distances, and a
// key out of order inside a run fails Sorted.
func TestWeightedRuns(t *testing.T) {
	a := &Arena{
		Keys:   []uint32{2, 5, 9, 1, 6, 30},
		Dists:  []uint32{20, 50, 90, 10, 60, 300},
		Levels: []uint32{3},
	}
	f := a.View(Range{ELen: 6, LLen: 1})
	if f.Runs() != 2 || f.Leveled() || !f.Sorted() {
		t.Fatalf("Runs %d, Leveled %v, Sorted %v", f.Runs(), f.Leveled(), f.Sorted())
	}
	for i, k := range a.Keys {
		if d, ok := f.Get(k); !ok || d != a.Dists[i] {
			t.Fatalf("Get(%d) = %d,%v, want %d", k, d, ok, a.Dists[i])
		}
	}
	for _, k := range []uint32{0, 3, 7, 31} {
		if _, ok := f.Get(k); ok {
			t.Fatalf("Get(%d) found an absent key", k)
		}
	}
	if keys, dists := f.Run(1); !slices.Equal(keys, []uint32{1, 6, 30}) || !slices.Equal(dists, []uint32{10, 60, 300}) {
		t.Fatalf("tail run %v/%v", keys, dists)
	}
	one := a.View(Range{ELen: 3})
	if one.Runs() != 1 || one.Bytes() != 4*6 {
		t.Fatalf("one-run table: Runs %d, Bytes %d", one.Runs(), one.Bytes())
	}
	a.Keys[4], a.Keys[5] = 30, 6
	if f.Sorted() {
		t.Fatal("a tail run out of order passed Sorted")
	}
	a.Keys[4], a.Keys[5] = 6, 6
	if f.Sorted() {
		t.Fatal("a tail run with a key stored twice passed Sorted")
	}
}

func TestValidLevels(t *testing.T) {
	for _, tc := range []struct {
		starts []uint32
		eLen   uint32
		ok     bool
	}{
		{nil, 1, true},
		{[]uint32{2}, 3, true},
		{[]uint32{4, 6}, 7, true},
		{[]uint32{1}, 3, false},    // level 1 would be empty
		{[]uint32{3, 3}, 5, false}, // not strictly increasing
		{[]uint32{5, 4}, 6, false},
		{[]uint32{2, 4}, 4, false}, // last level would be empty
	} {
		if got := ValidLevels(tc.starts, tc.eLen); got != tc.ok {
			t.Errorf("ValidLevels(%v, %d) = %v, want %v", tc.starts, tc.eLen, got, tc.ok)
		}
	}
}
