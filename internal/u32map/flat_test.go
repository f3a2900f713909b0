package u32map

import (
	"errors"
	"slices"
	"testing"

	"vicinity/internal/xrand"
)

// keysOf decodes every key of a run, in order.
func keysOf(r Run) []uint32 {
	var buf [BlockLen]uint32
	var keys []uint32
	for b := 0; b < r.Blocks(); b++ {
		keys = append(keys, r.Block(b, &buf)...)
	}
	return keys
}

// entries decodes a table in stored order: the owner first on leveled
// arenas, then every run, with each entry's distance.
func entries(f Flat) (keys, dists []uint32) {
	if f.Len() == 0 {
		return nil, nil
	}
	if f.Leveled() {
		keys, dists = []uint32{f.Owner()}, []uint32{0}
	}
	for k := 0; k < f.Runs(); k++ {
		run, rd := f.Run(k)
		keys = append(keys, keysOf(run)...)
		for i := 0; i < run.Len(); i++ {
			if rd != nil {
				dists = append(dists, rd[i])
			} else {
				dists = append(dists, uint32(k)+1)
			}
		}
	}
	return keys, dists
}

// buildFlatArena codes the given tables (as key slices; dist = key+1)
// into one weighted arena, each table sorted into a single run.
func buildFlatArena(t *testing.T, tables [][]uint32) (*Arena, []Flat) {
	t.Helper()
	a := &Arena{}
	var views []Flat
	for _, keys := range tables {
		sorted := slices.Sorted(slices.Values(keys))
		dists := make([]uint32, len(sorted))
		for i, k := range sorted {
			dists[i] = k + 1
		}
		views = append(views, addTable(a, sorted, nil, dists))
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
	a, views := buildFlatArena(t, tables)
	for i, keys := range tables {
		f := views[i]
		if f.Len() != len(keys) {
			t.Fatalf("table %d: Len %d, want %d", i, f.Len(), len(keys))
		}
		if err := f.Check(100000); err != nil {
			t.Fatalf("table %d: %v", i, err)
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
			want := slices.Contains(keys, k)
			if _, ok := f.Get(k); ok != want {
				t.Fatalf("table %d: Get(%d) membership %v, want %v", i, k, ok, want)
			}
		}
		// The runs enumerate exactly the entries, sorted by key.
		got, dists := entries(f)
		if !slices.Equal(got, slices.Sorted(slices.Values(keys))) {
			t.Fatalf("table %d: runs hold %v", i, got)
		}
		for j, k := range got {
			if dists[j] != k+1 {
				t.Fatalf("table %d: entry %d = %d/%d", i, j, k, dists[j])
			}
		}
	}
	total := 0
	for _, f := range views {
		total += f.Bytes()
	}
	if a.Bytes() != total {
		t.Fatalf("arena Bytes = %d, tables %d", a.Bytes(), total)
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
	dists := make([]uint32, len(keys))
	for i, k := range keys {
		m.Put(k, k*3)
		dists[i] = k * 3
	}
	f := buildFlat(keys, dists)
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
	if !f.Empty() || f.Len() != 0 || f.Bytes() != 0 || f.Runs() != 0 || f.Words() != nil {
		t.Fatal("zero Flat not empty")
	}
	if _, ok := f.Get(0); ok {
		t.Fatal("zero Flat contains a key")
	}
	if f.CopyTo(&Arena{}) != (Flat{}) {
		t.Fatal("zero Flat copied to a table")
	}
}

func TestRanges(t *testing.T) {
	a, views := buildFlatArena(t, [][]uint32{{1, 2, 3}, {}, {10, 20}})
	w0 := views[0].Range().WLen
	if r := views[0].Range(); r.WOff != 0 || views[0].Len() != 3 {
		t.Fatalf("ranges[0] = %+v, %d entries", r, views[0].Len())
	}
	if r := views[1].Range(); r.WLen != 0 || !views[1].Empty() {
		t.Fatalf("empty table ranges = %+v", r)
	}
	if r := views[2].Range(); r.WOff != w0 || views[2].Len() != 2 {
		t.Fatalf("ranges[2] = %+v, %d entries", r, views[2].Len())
	}
	// {1, 2, 3}: run count, one run record, one block record and no
	// data (consecutive ids take width 0), then three distances.
	if b := views[0].Bytes(); w0 != 6+3 || b != 4*(6+3) {
		t.Fatalf("table of 3 consecutive keys: %d words, Bytes %d", w0, b)
	}
	if w := views[0].Words(); !slices.Equal(w[6:], []uint32{2, 3, 4}) {
		t.Fatalf("distances do not end the table: %v", w)
	}
	if a.Bytes() != views[0].Bytes()+views[2].Bytes() {
		t.Fatalf("Bytes = %d", a.Bytes())
	}
}

func TestArenaAllocAndClone(t *testing.T) {
	a := &Arena{Words: make([]uint32, 0, 64)}
	f := addTable(a, []uint32{7, 9}, nil, []uint32{1, 2})

	c := a.Clone()
	g := c.Add(AppendTable(nil, false, []uint32{3, 4, 42}, nil, []uint32{5, 6, 7}))
	if r := g.Range(); r.WOff != f.Range().WLen {
		t.Fatalf("added table at %+v", r)
	}
	// The original header still sees only its own range.
	if len(a.Words) != int(f.Range().WLen) {
		t.Fatal("clone append disturbed the original view")
	}
	if d, ok := f.Get(9); !ok || d != 2 {
		t.Fatalf("original Get(9) = %d,%v", d, ok)
	}
	// Growth past capacity reallocates without touching the parent.
	c2 := c.Clone()
	c2.Add(make([]uint32, 100))
	if d, ok := g.Get(42); !ok || d != 7 {
		t.Fatalf("reallocation disturbed the parent snapshot: Get(42) = %d,%v", d, ok)
	}
}

// TestLeveledArena checks the distance-free layout: a table's entries
// in level order, sorted by key within each level, with the owner in
// the header, resolve every member's distance through Get and Run,
// survive CopyTo, and cost their coded words only.
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
		views = append(views, addTable(a, tb.keys, tb.starts, nil))
	}
	check := func(f Flat, keys, dists []uint32) {
		t.Helper()
		if err := f.Check(100); err != nil || !f.Leveled() || f.Owner() != keys[0] {
			t.Fatalf("table %v: Check %v, Leveled %v, Owner %d", keys, err, f.Leveled(), f.Owner())
		}
		for i, k := range keys {
			if d, ok := f.Get(k); !ok || d != dists[i] {
				t.Fatalf("Get(%d) = %d,%v, want %d", k, d, ok, dists[i])
			}
		}
		for _, k := range []uint32{0, 2, 10, 55, 100} {
			if _, ok := f.Get(k); ok {
				t.Fatalf("Get(%d) found an absent key", k)
			}
		}
		gk, gd := entries(f)
		if !slices.Equal(gk, keys) || !slices.Equal(gd, dists) {
			t.Fatalf("entries %v/%v, want %v/%v", gk, gd, keys, dists)
		}
		for k := 0; k < f.Runs(); k++ {
			if _, rd := f.Run(k); rd != nil {
				t.Fatalf("leveled run %d has distances", k)
			}
		}
	}
	total := 0
	for i, tb := range tables {
		check(views[i], tb.keys, tb.dists)
		if w := AppendTable(nil, true, tb.keys, tb.starts, nil); !slices.Equal(views[i].Words(), w) {
			t.Fatalf("table %d: words %v, want its coded keys only, %v", i, views[i].Words(), w)
		}
		total += views[i].Bytes()
	}
	if views[2].Runs() != 0 || views[2].Range().WLen != 2 {
		t.Fatalf("an owner alone: %d runs in %d words", views[2].Runs(), views[2].Range().WLen)
	}
	if a.Bytes() != total {
		t.Fatalf("arena Bytes = %d, tables %d", a.Bytes(), total)
	}
	dst := &Arena{Leveled: true}
	for i := len(tables) - 1; i >= 0; i-- { // reversed: offsets move
		check(views[i].CopyTo(dst), tables[i].keys, tables[i].dists)
	}
}

// TestWeightedRuns checks a weighted table of two runs, an interior
// and a tail split by one run start: Get finds keys in either run with
// their own distances, and Run returns each run with its distances.
func TestWeightedRuns(t *testing.T) {
	keys := []uint32{2, 5, 9, 1, 6, 30}
	dists := []uint32{20, 50, 90, 10, 60, 300}
	a := &Arena{}
	f := addTable(a, keys, []uint32{3}, dists)
	if f.Runs() != 2 || f.Leveled() || f.Check(31) != nil {
		t.Fatalf("Runs %d, Leveled %v, Check %v", f.Runs(), f.Leveled(), f.Check(31))
	}
	for i, k := range keys {
		if d, ok := f.Get(k); !ok || d != dists[i] {
			t.Fatalf("Get(%d) = %d,%v, want %d", k, d, ok, dists[i])
		}
	}
	for _, k := range []uint32{0, 3, 7, 31} {
		if _, ok := f.Get(k); ok {
			t.Fatalf("Get(%d) found an absent key", k)
		}
	}
	if run, rd := f.Run(1); !slices.Equal(keysOf(run), []uint32{1, 6, 30}) || !slices.Equal(rd, []uint32{10, 60, 300}) {
		t.Fatalf("tail run %v/%v", keysOf(run), rd)
	}
	one := addTable(a, keys[:3], nil, dists[:3])
	if w := one.Words(); one.Runs() != 1 || one.Len() != 3 || !slices.Equal(w[len(w)-3:], dists[:3]) {
		t.Fatalf("one-run table: Runs %d, Len %d, words %v", one.Runs(), one.Len(), w)
	}
	if err := f.Check(30); !errors.Is(err, ErrBadTable) {
		t.Fatalf("key 30 passed Check below n = 30: %v", err)
	}
}
