package u32map

// Arena holds the shared backing arrays behind every Flat table: one
// contiguous key arena (concatenated per table), one contiguous slot
// arena (concatenated per-table open-addressing indexes), and the
// arrays that give each key its distance. Many Flat views index into
// one Arena, so a built oracle is a handful of large allocations
// instead of per-node pointer soup: the garbage collector has almost
// nothing to scan, the entries of one table are adjacent in memory,
// and the whole structure serializes as a few array copies.
//
// An arena stores distances in one of two ways, fixed for its life:
//
//   - Weighted arenas keep one distance per entry in Dists.
//   - Leveled arenas (Leveled set) keep each table's entries in BFS
//     level order and store no per-entry distance: an entry's distance
//     is its level. Entry 0 is level 0 (the table's owner), level 1
//     starts at entry 1, and Levels holds, per table, the entry index
//     where each level from 2 on begins — strictly increasing, local to
//     the table. A table of top level r therefore costs r-1 words
//     there, instead of one word per entry.
//
// Slot values are entry indexes local to their table's entry range,
// plus one; zero means empty. Entry, slot and level offsets are
// uint32, so each array holds at most 2^32-1 words (callers enforce
// the cap).
type Arena struct {
	Keys    []uint32
	Dists   []uint32 // per-entry distances; weighted arenas only
	Slots   []uint32
	Levels  []uint32 // per-table level starts; leveled arenas only
	Leveled bool
}

// NumEntries returns the number of entries stored across all tables.
func (a *Arena) NumEntries() int { return len(a.Keys) }

// Bytes returns the heap footprint of the arena backing arrays.
func (a *Arena) Bytes() int {
	return 4 * (len(a.Keys) + len(a.Dists) + len(a.Slots) + len(a.Levels))
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

// AllocSlots reserves n more zeroed slot words at the end of the slot
// arena and returns the offset of the reserved range.
func (a *Arena) AllocSlots(n int) uint32 {
	off := uint32(len(a.Slots))
	a.Slots = grow(a.Slots, n)
	return off
}

// AllocLevels reserves n more level-start words at the end of the
// level arena and returns the offset of the reserved range.
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

// IndexSize returns the power-of-two slot count a Flat table uses for
// n entries (load factor at most 2/3). It is exported so arena
// builders can pre-compute slot-range offsets.
func IndexSize(n int) int { return indexSize(n) }

// Flat slot words pack the entry index (plus one; zero means empty)
// into the low 24 bits and an 8-bit key fingerprint — the high byte of
// the key's Fibonacci hash, independent of the low bits that pick the
// slot — into the top byte. A probe compares the fingerprint before
// touching the entries arrays, so collision probes (and the occupied
// slots walked during an unsuccessful linear-probe scan, the common
// case in boundary scans) cost one slot load instead of a dependent
// random read of Keys. The packing caps a single table at 2^24-1
// entries; vicinities are ~α√n, far below it.
const (
	slotIdxBits = 24
	slotIdxMask = 1<<slotIdxBits - 1
)

// MaxFlatEntries is the largest entry count a single Flat table
// supports (the slot packing reserves 24 bits for the index).
const MaxFlatEntries = slotIdxMask

// FillIndex builds the open-addressing index for keys into slots.
// len(slots) must be IndexSize(len(keys)) and slots must be zeroed;
// keys must be distinct and fewer than 2^24. Disjoint calls are safe
// concurrently, so an arena's slot ranges can be filled in parallel.
func FillIndex(slots, keys []uint32) {
	mask := uint32(len(slots) - 1)
	for idx, key := range keys {
		h := key * fib32
		i := h & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = uint32(idx+1) | (h >> slotIdxBits << slotIdxBits)
	}
}

// ValidIndex reports whether a deserialized slot range is safe to
// probe: every occupied slot references an entry index in [1, eLen],
// and at least one slot is empty so unsuccessful probes terminate.
// It does not verify that the index matches the keys (the file
// checksum covers accidental corruption).
func ValidIndex(slots []uint32, eLen uint32) bool {
	occupied := 0
	for _, s := range slots {
		if s == 0 {
			continue
		}
		occupied++
		if idx := s & slotIdxMask; idx == 0 || idx > eLen {
			return false
		}
	}
	return occupied < len(slots)
}

// ValidLevels reports whether a deserialized level-start range fits a
// table of eLen entries: every start lies in [2, eLen) and the starts
// strictly increase, so every level from 1 on is non-empty and every
// entry's level is well defined.
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

// Range locates one table inside an Arena: its entries, its slot words
// (SLen is 0 for an empty table) and, on leveled arenas, its level
// starts. Serializers derive CSR offset arrays from the ranges of a set
// of views.
type Range struct {
	EOff, ELen uint32
	SOff, SLen uint32
	LOff, LLen uint32
}

// Flat is a zero-allocation view of one table's ranges within an
// Arena. The zero value is an empty table. Flat is a value type (32
// bytes); constructing one performs no allocation, so owners can store
// plain CSR offset arrays and materialize views on demand.
type Flat struct {
	a          *Arena
	eOff, eLen uint32
	sOff       uint32
	sMask      uint32 // slot count - 1
	lOff, lLen uint32
}

// View returns the table at r. r.SLen must be IndexSize(r.ELen) for a
// non-empty table.
func (a *Arena) View(r Range) Flat {
	if r.ELen == 0 {
		return Flat{}
	}
	return Flat{a: a, eOff: r.EOff, eLen: r.ELen, sOff: r.SOff, sMask: r.SLen - 1, lOff: r.LOff, lLen: r.LLen}
}

// Range returns the view's ranges within its arena.
func (f Flat) Range() Range {
	if f.eLen == 0 {
		return Range{EOff: f.eOff}
	}
	return Range{EOff: f.eOff, ELen: f.eLen, SOff: f.sOff, SLen: f.sMask + 1, LOff: f.lOff, LLen: f.lLen}
}

// Get returns the distance recorded for key.
//
// The hash probe is the oracle's innermost query loop (every vicinity
// hit and every boundary-scan probe lands here). The fingerprint
// comparison is a single XOR against the full hash — the high byte of
// s^h is zero exactly when the stored fingerprint matches — so no
// canonicalized fingerprint needs to stay live across the probe loop.
// The receiver is a pointer so that a scan loop probing one table hands
// over a single word per probe instead of the whole view.
func (f *Flat) Get(key uint32) (uint32, bool) {
	if f.eLen == 0 {
		return 0, false
	}
	a := f.a
	h := key * fib32
	i := h & f.sMask
	for {
		s := a.Slots[f.sOff+i]
		if s == 0 {
			return 0, false
		}
		if (s^h)>>slotIdxBits == 0 {
			if idx := (s & slotIdxMask) - 1; a.Keys[f.eOff+idx] == key {
				if !a.Leveled {
					return a.Dists[f.eOff+idx], true
				}
				// levelOf, written out: a call here would make every
				// probe save the view's registers first.
				if idx == 0 {
					return 0, true
				}
				lo, hi := f.lOff, f.lOff+f.lLen
				for lo < hi {
					if m := (lo + hi) >> 1; a.Levels[m] <= idx {
						lo = m + 1
					} else {
						hi = m
					}
				}
				return 1 + lo - f.lOff, true
			}
		}
		i = (i + 1) & f.sMask
	}
}

// dist resolves the distance of the table's idx-th entry.
func (f Flat) dist(idx uint32) uint32 {
	if !f.a.Leveled {
		return f.a.Dists[f.eOff+idx]
	}
	return levelOf(f.levels(), idx)
}

// levels returns the table's level starts (nil on weighted arenas).
func (f Flat) levels() []uint32 {
	if f.lLen == 0 {
		return nil
	}
	return f.a.Levels[f.lOff : f.lOff+f.lLen : f.lOff+f.lLen]
}

// levelOf returns the level of entry idx of a table with the given
// level starts: 0 for the owner, else 1 plus the number of starts at or
// below idx.
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

// At returns the i-th entry in insertion order.
func (f Flat) At(i int) (key, dist uint32) {
	return f.a.Keys[f.eOff+uint32(i)], f.dist(uint32(i))
}

// Span is a run of consecutive entries of one table, for walks that
// read every member in order (boundary scans, batch passes, hop
// scans): the keys as a shared sub-slice of the arena, and Dist to
// resolve each one's distance without probing.
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

// CopyTo appends the view's entry, slot and level ranges to dst and
// returns the equivalent view over dst. Slot words and level starts
// hold table-local entry indexes, so they copy verbatim. dst must be of
// the same kind and must not share backing arrays with the view's own
// ranges (compaction copies into a fresh arena).
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
	s0 := r.SOff
	r.SOff = dst.AllocSlots(int(r.SLen))
	copy(dst.Slots[r.SOff:], f.a.Slots[s0:s0+r.SLen])
	l0 := r.LOff
	r.LOff = dst.AllocLevels(int(r.LLen))
	copy(dst.Levels[r.LOff:], f.a.Levels[l0:l0+r.LLen])
	return dst.View(r)
}

// Bytes returns the share of the arena footprint attributable to this
// table: its keys, its distances (weighted arenas), its slot range and
// its level starts (leveled arenas).
func (f Flat) Bytes() int {
	if f.eLen == 0 {
		return 0
	}
	words := int(f.eLen) + int(f.sMask) + 1 + int(f.lLen)
	if !f.a.Leveled {
		words += int(f.eLen)
	}
	return 4 * words
}

var _ Table = (*Flat)(nil)
