package u32map

import (
	"testing"

	"vicinity/internal/xrand"
)

// buildFlatArena packs the given tables (as key slices; dist = key+1)
// into one arena.
func buildFlatArena(t *testing.T, tables [][]uint32) (*Arena, []Flat) {
	t.Helper()
	a := &Arena{}
	var views []Flat
	for _, keys := range tables {
		eOff := uint32(len(a.Keys))
		for _, k := range keys {
			a.Keys = append(a.Keys, k)
			a.Dists = append(a.Dists, k+1)
		}
		eEnd := uint32(len(a.Keys))
		sOff := uint32(len(a.Slots))
		if len(keys) > 0 {
			a.Slots = append(a.Slots, make([]uint32, IndexSize(len(keys)))...)
			FillIndex(a.Slots[sOff:], a.Keys[eOff:eEnd])
		}
		views = append(views, a.View(Range{EOff: eOff, ELen: eEnd - eOff, SOff: sOff, SLen: uint32(len(a.Slots)) - sOff}))
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
		// At and Tail enumerate exactly the entries, in insertion
		// order.
		got := map[uint32]bool{}
		all := f.Tail(f.Len())
		if len(all.Keys) != f.Len() {
			t.Fatalf("table %d: Tail length %d, want %d", i, len(all.Keys), f.Len())
		}
		for j := 0; j < f.Len(); j++ {
			k, d := f.At(j)
			if d != k+1 || k != keys[j] || all.Keys[j] != k || all.Dist(j) != d {
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
	a := &Arena{Keys: keys}
	for _, k := range keys {
		a.Dists = append(a.Dists, k*3)
	}
	a.Slots = make([]uint32, IndexSize(len(keys)))
	FillIndex(a.Slots, a.Keys)
	f := a.View(Range{ELen: uint32(len(keys)), SLen: uint32(len(a.Slots))})
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

func TestValidIndex(t *testing.T) {
	keys := []uint32{5, 9, 13, 200, 77}
	slots := make([]uint32, IndexSize(len(keys)))
	FillIndex(slots, keys)
	if !ValidIndex(slots, uint32(len(keys))) {
		t.Fatal("valid index rejected")
	}
	// Out-of-range entry index.
	bad := append([]uint32(nil), slots...)
	for i, s := range bad {
		if s != 0 {
			bad[i] = s | 0xFF // index beyond eLen
			break
		}
	}
	if ValidIndex(bad, uint32(len(keys))) {
		t.Fatal("out-of-range slot accepted")
	}
	// A full table can never terminate an unsuccessful probe.
	full := make([]uint32, 8)
	for i := range full {
		full[i] = 1
	}
	if ValidIndex(full, 8) {
		t.Fatal("full slot table accepted")
	}
}

func TestRanges(t *testing.T) {
	a, views := buildFlatArena(t, [][]uint32{{1, 2, 3}, {}, {10, 20}})
	if r := views[0].Range(); r.EOff != 0 || r.ELen != 3 || r.SOff != 0 || int(r.SLen) != IndexSize(3) {
		t.Fatalf("ranges[0] = %+v", r)
	}
	if r := views[1].Range(); r.ELen != 0 || r.SLen != 0 {
		t.Fatalf("empty table ranges = %+v", r)
	}
	if r := views[2].Range(); r.EOff != 3 || r.ELen != 2 || int(r.SOff) != IndexSize(3) || int(r.SLen) != IndexSize(2) {
		t.Fatalf("ranges[2] = %+v", r)
	}
	if a.NumEntries() != 5 {
		t.Fatalf("NumEntries = %d", a.NumEntries())
	}
	if a.Bytes() != 4*(5*2+len(a.Slots)) {
		t.Fatalf("Bytes = %d", a.Bytes())
	}
	if b := views[0].Bytes(); b != 8*3+4*IndexSize(3) {
		t.Fatalf("table Bytes = %d, want 8 per entry plus its slots", b)
	}
}

func TestArenaAllocAndClone(t *testing.T) {
	a := &Arena{
		Keys:  make([]uint32, 2, 8),
		Dists: make([]uint32, 2, 8),
		Slots: make([]uint32, 0, 8),
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
	// Reused spare capacity must come back zeroed (slot arenas rely on it).
	soff := c.AllocSlots(4)
	for i := soff; i < soff+4; i++ {
		if c.Slots[i] != 0 {
			t.Fatal("AllocSlots returned non-zeroed space")
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
// in level order plus its level starts resolve every member's distance
// through Get, At and Tail, survive CopyTo, and cost one word per entry
// plus slots and starts.
func TestLeveledArena(t *testing.T) {
	// Two tables: levels 0..3 with starts {4, 6}, and an owner with one
	// neighbor level and no starts.
	tables := []struct {
		keys, starts, dists []uint32
	}{
		{[]uint32{50, 7, 9, 11, 60, 61, 90}, []uint32{4, 6}, []uint32{0, 1, 1, 1, 2, 2, 3}},
		{[]uint32{3, 4, 5}, nil, []uint32{0, 1, 1}},
	}
	a := &Arena{Leveled: true}
	var views []Flat
	for _, tb := range tables {
		r := Range{ELen: uint32(len(tb.keys)), SLen: uint32(IndexSize(len(tb.keys))), LLen: uint32(len(tb.starts))}
		r.EOff = a.AllocEntries(len(tb.keys))
		copy(a.Keys[r.EOff:], tb.keys)
		r.SOff = a.AllocSlots(int(r.SLen))
		FillIndex(a.Slots[r.SOff:r.SOff+r.SLen], tb.keys)
		r.LOff = a.AllocLevels(len(tb.starts))
		copy(a.Levels[r.LOff:], tb.starts)
		views = append(views, a.View(r))
	}
	if a.Dists != nil {
		t.Fatalf("leveled arena grew a distance array: %v", a.Dists)
	}
	check := func(f Flat, keys, dists []uint32) {
		t.Helper()
		for i, k := range keys {
			if d, ok := f.Get(k); !ok || d != dists[i] {
				t.Fatalf("Get(%d) = %d,%v, want %d", k, d, ok, dists[i])
			}
			if gk, gd := f.At(i); gk != k || gd != dists[i] {
				t.Fatalf("At(%d) = %d/%d, want %d/%d", i, gk, gd, k, dists[i])
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
	}
	for i, tb := range tables {
		check(views[i], tb.keys, tb.dists)
		if b, want := views[i].Bytes(), 4*(len(tb.keys)+IndexSize(len(tb.keys))+len(tb.starts)); b != want {
			t.Fatalf("table %d: Bytes = %d, want %d", i, b, want)
		}
	}
	if a.Bytes() != views[0].Bytes()+views[1].Bytes() {
		t.Fatalf("arena Bytes = %d, tables %d", a.Bytes(), views[0].Bytes()+views[1].Bytes())
	}
	dst := &Arena{Leveled: true}
	for i := len(tables) - 1; i >= 0; i-- { // reversed: offsets move
		check(views[i].CopyTo(dst), tables[i].keys, tables[i].dists)
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
