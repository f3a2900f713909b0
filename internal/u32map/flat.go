package u32map

// Arena holds the shared backing arrays behind every Flat table: one
// contiguous key arena (concatenated per table), the per-table run
// starts, and, on weighted arenas, one distance per entry. Many Flat
// views index into one Arena, so a built oracle is a handful of large
// allocations instead of per-node pointer soup: the garbage collector
// has almost nothing to scan, the entries of one table are adjacent in
// memory, and the whole structure serializes as a few array copies.
//
// There is no hash index. A table's entries are grouped into runs,
// and every run strictly increases by key: a point lookup
// binary-searches each run, and a scan intersects sorted runs (see
// Intersect). Levels holds, per table, the entry index where each run
// past the implicit ones begins — strictly increasing, local to the
// table. An arena stores distances in one of two ways, fixed for its
// life:
//
//   - Leveled arenas (Leveled set) keep each table in BFS level order,
//     run k being level k, and store no per-entry distance: an entry's
//     distance is its level. Entry 0 is level 0 (the table's owner),
//     level 1 starts at entry 1, and Levels holds where each level
//     from 2 on begins. A table of top level r therefore costs r-1
//     words there, instead of one word per entry.
//   - Weighted arenas keep one distance per entry in Dists and split a
//     table into at most two runs, an interior and a tail (internal/core
//     keeps each vicinity's boundary there). Levels holds the tail's
//     start when both are non-empty; a table with no start is one run.
//
// Entry and level offsets are uint32, so each array holds at most
// 2^32-1 words (callers enforce the cap).
type Arena struct {
	Keys    []uint32
	Dists   []uint32 // per-entry distances; weighted arenas only
	Levels  []uint32 // per-table run starts
	Leveled bool
}

// NumEntries returns the number of entries stored across all tables.
func (a *Arena) NumEntries() int { return len(a.Keys) }

// Bytes returns the heap footprint of the arena backing arrays.
func (a *Arena) Bytes() int {
	return 4 * (len(a.Keys) + len(a.Dists) + len(a.Levels))
}

// AllocEntries reserves room for n more entries at the end of the entry
// arena and returns the offset of the reserved range. Growth goes
// through append, so reserving within spare capacity does not move the
// backing arrays and existing Flat views (including those held by other
// snapshots sharing this arena's backing) remain valid.
func (a *Arena) AllocEntries(n int) uint32 {
	off := uint32(len(a.Keys))
	a.Keys = grow(a.Keys, n)
	if !a.Leveled {
		a.Dists = grow(a.Dists, n)
	}
	return off
}

// AllocLevels reserves n more run-start words at the end of the level
// arena and returns the offset of the reserved range.
func (a *Arena) AllocLevels(n int) uint32 {
	off := uint32(len(a.Levels))
	a.Levels = grow(a.Levels, n)
	return off
}

// Clone returns a new Arena header over the same backing arrays.
// Appends through the clone never disturb ranges visible to the
// original: writes land beyond the original's lengths (or in fresh
// arrays after reallocation), which its views never read.
func (a *Arena) Clone() *Arena {
	c := *a
	return &c
}

// grow extends xs by n zeroed elements.
func grow(xs []uint32, n int) []uint32 {
	if cap(xs)-len(xs) >= n {
		tail := xs[len(xs) : len(xs)+n]
		for i := range tail {
			tail[i] = 0
		}
		return xs[:len(xs)+n]
	}
	return append(xs, make([]uint32, n)...)
}

// ValidLevels reports whether a deserialized leveled table's level
// starts fit its eLen entries: every start lies in [2, eLen) and the
// starts strictly increase, so every level from 1 on is non-empty and
// every entry's level is well defined.
func ValidLevels(starts []uint32, eLen uint32) bool {
	prev := uint32(1) // level 1 starts at entry 1
	for _, s := range starts {
		if s <= prev || s >= eLen {
			return false
		}
		prev = s
	}
	return true
}

// Range locates one table inside an Arena: its entries and its run
// starts. Serializers derive CSR offset arrays from the ranges of a set
// of views.
type Range struct {
	EOff, ELen uint32
	LOff, LLen uint32
}

// Flat is a zero-allocation view of one table's ranges within an
// Arena. The zero value is an empty table. Flat is a value type;
// constructing one performs no allocation, so owners can store plain
// CSR offset arrays and materialize views on demand.
type Flat struct {
	a          *Arena
	eOff, eLen uint32
	lOff, lLen uint32
}

// View returns the table at r.
func (a *Arena) View(r Range) Flat {
	if r.ELen == 0 {
		return Flat{}
	}
	return Flat{a: a, eOff: r.EOff, eLen: r.ELen, lOff: r.LOff, lLen: r.LLen}
}

// Range returns the view's ranges within its arena.
func (f Flat) Range() Range {
	if f.eLen == 0 {
		return Range{EOff: f.eOff}
	}
	return Range{EOff: f.eOff, ELen: f.eLen, LOff: f.lOff, LLen: f.lLen}
}

// Get returns the distance recorded for key: one binary search per run
// whose key range covers it. It is the oracle's point lookup (both
// direct cases of every pair land here). The receiver is a pointer so
// that a caller probing one table hands over a single word per probe
// instead of the whole view.
func (f *Flat) Get(key uint32) (uint32, bool) {
	if f.eLen == 0 {
		return 0, false
	}
	a := f.a
	keys := a.Keys[f.eOff : f.eOff+f.eLen]
	starts := a.Levels[f.lOff : f.lOff+f.lLen]
	lo, level := uint32(0), uint32(0)
	if a.Leveled {
		if keys[0] == key {
			return 0, true
		}
		lo, level = 1, 1
	}
	for k := 0; ; k++ {
		hi := uint32(len(keys))
		if k < len(starts) {
			hi = starts[k]
		}
		if lo < hi && keys[lo] <= key && key <= keys[hi-1] {
			i, j := lo, hi-1 // keys[j] >= key: the search ends inside the run
			for i < j {
				if m := (i + j) >> 1; keys[m] < key {
					i = m + 1
				} else {
					j = m
				}
			}
			if keys[i] == key {
				if a.Leveled {
					return level, true
				}
				return a.Dists[f.eOff+i], true
			}
		}
		if k >= len(starts) {
			return 0, false
		}
		lo = hi
		level++
	}
}

// Leveled reports whether the table's distances are its run indexes
// (a table of a leveled arena) rather than per-entry values.
func (f Flat) Leveled() bool { return f.a != nil && f.a.Leveled }

// Runs returns the number of sorted runs in the table: on a leveled
// arena one per BFS level, so run k is level k; on a weighted arena
// its interior and then its tail, or one run when either is empty.
func (f Flat) Runs() int {
	if f.eLen == 0 {
		return 0
	}
	if f.a.Leveled && f.eLen > 1 {
		return 2 + int(f.lLen)
	}
	return 1 + int(f.lLen)
}

// Run returns the keys of run k, 0 <= k < Runs(), strictly increasing,
// and on weighted arenas their distances (nil on leveled arenas, where
// every key of run k is at distance k). Both are shared with the
// arena: callers must not modify them.
func (f Flat) Run(k int) (keys, dists []uint32) {
	lo, hi := f.eOff+f.bound(k), f.eOff+f.bound(k+1)
	keys = f.a.Keys[lo:hi:hi]
	if !f.a.Leveled {
		dists = f.a.Dists[lo:hi:hi]
	}
	return keys, dists
}

// bound returns the table-local index where run k begins; bound(Runs())
// is the table's length.
func (f Flat) bound(k int) uint32 {
	if k == 0 {
		return 0
	}
	if f.a.Leveled {
		if k == 1 {
			return 1
		}
		k--
	}
	if k-1 < int(f.lLen) {
		return f.a.Levels[f.lOff+uint32(k-1)]
	}
	return f.eLen
}

// Sorted reports whether every run of the table strictly increases,
// which also rules out a key stored twice in one run. Loaders call it
// after checking the run starts, on tables whose order they cannot
// trust.
func (f Flat) Sorted() bool {
	for k := 0; k < f.Runs(); k++ {
		keys, _ := f.Run(k)
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				return false
			}
		}
	}
	return true
}

// dist resolves the distance of the table's idx-th entry.
func (f Flat) dist(idx uint32) uint32 {
	if !f.a.Leveled {
		return f.a.Dists[f.eOff+idx]
	}
	return levelOf(f.levels(), idx)
}

// levels returns the table's run starts.
func (f Flat) levels() []uint32 {
	if f.lLen == 0 {
		return nil
	}
	return f.a.Levels[f.lOff : f.lOff+f.lLen : f.lOff+f.lLen]
}

// levelOf returns the level of entry idx of a leveled table with the
// given level starts: 0 for the owner, else 1 plus the number of starts
// at or below idx.
func levelOf(starts []uint32, idx uint32) uint32 {
	if idx == 0 {
		return 0
	}
	lo, hi := 0, len(starts)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if starts[m] <= idx {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return 1 + uint32(lo)
}

// Len returns the number of entries.
func (f Flat) Len() int { return int(f.eLen) }

// At returns the i-th entry in stored order: run by run (level order on
// leveled arenas), by id within a run.
func (f Flat) At(i int) (key, dist uint32) {
	return f.a.Keys[f.eOff+uint32(i)], f.dist(uint32(i))
}

// Span is a run of consecutive entries of one table, for walks that
// read every member in order (boundary scans, batch marks): the keys as
// a shared sub-slice of the arena, and Dist to resolve each one's
// distance without a lookup.
type Span struct {
	Keys   []uint32
	dists  []uint32 // weighted arenas: Keys' own distances
	starts []uint32 // leveled arenas: the table's level starts
	off    uint32   // leveled arenas: table-local index of Keys[0]
}

// Dist returns the distance of Keys[i].
func (s Span) Dist(i int) uint32 {
	if s.dists != nil {
		return s.dists[i]
	}
	return levelOf(s.starts, s.off+uint32(i))
}

// Tail returns the view's last n entries as a Span; Tail(Len()) is the
// whole table. The keys are shared with the arena: callers must not
// modify them.
func (f Flat) Tail(n int) Span {
	if n == 0 {
		return Span{}
	}
	from := f.eLen - uint32(n)
	e0, e1 := f.eOff+from, f.eOff+f.eLen
	s := Span{Keys: f.a.Keys[e0:e1:e1]}
	if f.a.Leveled {
		s.starts, s.off = f.levels(), from
	} else {
		s.dists = f.a.Dists[e0:e1:e1]
	}
	return s
}

// CopyTo appends the view's entry and run-start ranges to dst and
// returns the equivalent view over dst. Run starts hold table-local
// entry indexes, so they copy verbatim. dst must be of the same kind
// and must not share backing arrays with the view's own ranges
// (compaction copies into a fresh arena).
func (f Flat) CopyTo(dst *Arena) Flat {
	if f.eLen == 0 {
		return Flat{}
	}
	r := f.Range()
	e0, e1 := r.EOff, r.EOff+r.ELen
	r.EOff = dst.AllocEntries(int(r.ELen))
	copy(dst.Keys[r.EOff:], f.a.Keys[e0:e1])
	if !dst.Leveled {
		copy(dst.Dists[r.EOff:], f.a.Dists[e0:e1])
	}
	l0 := r.LOff
	r.LOff = dst.AllocLevels(int(r.LLen))
	copy(dst.Levels[r.LOff:], f.a.Levels[l0:l0+r.LLen])
	return dst.View(r)
}

// Bytes returns the share of the arena footprint attributable to this
// table: its keys, its run starts and, on weighted arenas, its
// distances.
func (f Flat) Bytes() int {
	if f.eLen == 0 {
		return 0
	}
	words := int(f.eLen) + int(f.lLen)
	if !f.a.Leveled {
		words += int(f.eLen)
	}
	return 4 * words
}

var _ Table = (*Flat)(nil)
