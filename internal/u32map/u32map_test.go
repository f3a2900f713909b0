package u32map

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"

	"vicinity/internal/xrand"
)

func TestMapBasics(t *testing.T) {
	m := New(4)
	if m.Len() != 0 {
		t.Fatal("fresh map not empty")
	}
	if _, ok := m.Get(7); ok {
		t.Fatal("Get on empty map found something")
	}
	m.Put(7, 2)
	m.Put(9, 5)
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
	if d, ok := m.Get(7); !ok || d != 2 {
		t.Fatalf("Get(7) = %d,%v", d, ok)
	}
	if d, ok := m.Get(9); !ok || d != 5 {
		t.Fatalf("Get(9) = %d,%v", d, ok)
	}
	if _, ok := m.Get(8); ok {
		t.Fatal("Get(8) found phantom key")
	}
	// Overwrite.
	m.Put(7, 10)
	if d, _ := m.Get(7); d != 10 {
		t.Fatalf("overwrite failed: %d", d)
	}
	if m.Len() != 2 {
		t.Fatalf("Len after overwrite = %d", m.Len())
	}
	// Insertion order iteration.
	if k, _ := m.At(0); k != 7 {
		t.Fatalf("At(0) key = %d", k)
	}
	if k, d := m.At(1); k != 9 || d != 5 {
		t.Fatalf("At(1) = %d,%d", k, d)
	}
}

func TestMapZeroValue(t *testing.T) {
	var m Map
	if _, ok := m.Get(1); ok {
		t.Fatal("zero map Get found key")
	}
	m.Put(1, 2)
	if d, ok := m.Get(1); !ok || d != 2 {
		t.Fatalf("zero map after Put: %d,%v", d, ok)
	}
}

func TestMapGrowth(t *testing.T) {
	m := New(0)
	const n = 10000
	for i := uint32(0); i < n; i++ {
		m.Put(i*2654435761, i)
	}
	if m.Len() != n {
		t.Fatalf("Len = %d", m.Len())
	}
	for i := uint32(0); i < n; i++ {
		d, ok := m.Get(i * 2654435761)
		if !ok || d != i {
			t.Fatalf("entry %d lost after growth: %d,%v", i, d, ok)
		}
	}
}

func TestMapCompact(t *testing.T) {
	m := New(1000)
	for i := uint32(0); i < 10; i++ {
		m.Put(i, i)
	}
	before := m.Bytes()
	m.Compact()
	if m.Bytes() >= before {
		t.Fatalf("Compact did not shrink: %d -> %d", before, m.Bytes())
	}
	for i := uint32(0); i < 10; i++ {
		if d, ok := m.Get(i); !ok || d != i {
			t.Fatalf("entry %d lost after Compact", i)
		}
	}
	empty := New(100)
	empty.Compact()
	if _, ok := empty.Get(0); ok {
		t.Fatal("empty compacted map found key")
	}
}

func TestCollidingKeys(t *testing.T) {
	// Keys that collide under the Fibonacci hash for small tables:
	// multiples of large powers of two map near each other.
	m := New(4)
	keys := []uint32{0, 1 << 28, 2 << 28, 3 << 28, 4 << 28, 5 << 28}
	for i, k := range keys {
		m.Put(k, uint32(i))
	}
	for i, k := range keys {
		if d, ok := m.Get(k); !ok || d != uint32(i) {
			t.Fatalf("colliding key %d lost: %d,%v", k, d, ok)
		}
	}
}

// TestQuickAllImplementationsAgree drives Map and a coded Flat with
// the same data and checks identical lookup results.
func TestQuickAllImplementationsAgree(t *testing.T) {
	f := func(raw []uint32) bool {
		m := New(0)
		ref := map[uint32]uint32{}
		var ks, ds []uint32
		for i := 0; i+1 < len(raw); i += 2 {
			k, d := raw[i], raw[i+1]
			if k == ^uint32(0) {
				continue // not a node id
			}
			if _, dup := ref[k]; !dup {
				ks = append(ks, k)
				ds = append(ds, d)
			}
			m.Put(k, d)
			ref[k] = d
		}
		// Flat layouts are build-once; they must not see duplicate keys,
		// so feed the deduplicated pairs overwritten to final values.
		for i, k := range ks {
			ds[i] = ref[k]
		}
		fh := buildFlat(ks, ds)
		for k, want := range ref {
			if d, ok := m.Get(k); !ok || d != want {
				return false
			}
			if d, ok := fh.Get(k); !ok || d != want {
				return false
			}
		}
		// Probe absent keys.
		for i := 0; i < 50; i++ {
			k := uint32(i) * 2654435761
			_, wantOK := ref[k]
			_, okM := m.Get(k)
			_, okF := fh.Get(k)
			if okM != wantOK || okF != wantOK {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// buildFlat materializes the pairs as an arena-backed Flat view of one
// coded run, sorted by key.
func buildFlat(ks, ds []uint32) Flat {
	order := make([]int, len(ks))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int { return cmp.Compare(ks[i], ks[j]) })
	keys := make([]uint32, 0, len(ks))
	dists := make([]uint32, 0, len(ks))
	for _, i := range order {
		keys = append(keys, ks[i])
		dists = append(dists, ds[i])
	}
	return addTable(&Arena{}, keys, nil, dists)
}

// addTable codes one table into a and returns its view: keys in stored
// order, starts as AppendTable takes them, dists nil on leveled arenas.
func addTable(a *Arena, keys, starts, dists []uint32) Flat {
	if len(keys) == 0 {
		return Flat{}
	}
	return a.Add(AppendTable(nil, a.Leveled, keys, starts, dists))
}

func buildBenchTables(n int) (*Map, Flat, []uint32) {
	r := xrand.New(1)
	m := New(n)
	ks := make([]uint32, 0, n)
	ds := make([]uint32, 0, n)
	seen := map[uint32]bool{}
	for len(ks) < n {
		k := r.Uint32()
		if seen[k] || k == ^uint32(0) {
			continue
		}
		seen[k] = true
		ks = append(ks, k)
		ds = append(ds, r.Uint32())
	}
	for i := range ks {
		m.Put(ks[i], ds[i])
	}
	return m, buildFlat(ks, ds), ks
}

// The Get benchmarks compare the hash table (Map) against the
// arena-backed Flat layout, one coded run whose block heads are
// bisected, on identical data (ablation A3).

func BenchmarkMapGet(b *testing.B) {
	m, _, ks := buildBenchTables(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(ks[i&4095])
	}
}

func BenchmarkFlatGet(b *testing.B) {
	_, fh, ks := buildBenchTables(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fh.Get(ks[i&4095])
	}
}
