package u32map

// Arena holds the shared backing arrays behind every Flat table: one
// contiguous entry arena (key/dist pairs, concatenated per table) and
// one contiguous slot arena (concatenated per-table
// open-addressing indexes). Many Flat views index into one Arena, so a
// built oracle is a handful of large allocations instead of per-node
// pointer soup: the garbage collector has almost nothing to scan, the
// entries of one table are adjacent in memory, and the whole structure
// serializes as a few array copies.
//
// Slot values are entry indexes local to their table's entry range,
// plus one; zero means empty. Entry and slot offsets are uint32, so an
// arena holds at most 2^32-1 entries (callers enforce the cap).
type Arena struct {
	Keys  []uint32
	Dists []uint32
	Slots []uint32
}

// NumEntries returns the number of entries stored across all tables.
func (a *Arena) NumEntries() int { return len(a.Keys) }

// Bytes returns the heap footprint of the arena backing arrays.
func (a *Arena) Bytes() int {
	return 4 * (len(a.Keys) + len(a.Dists) + len(a.Slots))
}

// AllocEntries reserves room for n more entries at the end of the entry
// arena and returns the offset of the reserved range. Growth goes
// through append, so reserving within spare capacity does not move the
// backing arrays and existing Flat views (including those held by other
// snapshots sharing this arena's backing) remain valid.
func (a *Arena) AllocEntries(n int) uint32 {
	off := uint32(len(a.Keys))
	a.Keys = grow(a.Keys, n)
	a.Dists = grow(a.Dists, n)
	return off
}

// AllocSlots reserves n more zeroed slot words at the end of the slot
// arena and returns the offset of the reserved range.
func (a *Arena) AllocSlots(n int) uint32 {
	off := uint32(len(a.Slots))
	a.Slots = grow(a.Slots, n)
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

// Flat is a zero-allocation view of one table's ranges within an
// Arena. The zero value is an empty table. Flat is a value type (24
// bytes); constructing one performs no allocation, so owners can store
// plain CSR offset arrays and materialize views on demand.
type Flat struct {
	a          *Arena
	eOff, eLen uint32
	sOff       uint32
	sMask      uint32 // slot count - 1
}

// Hash returns the view of entries [eOff, eEnd) indexed by
// slots [sOff, sEnd). sEnd-sOff must be IndexSize(eEnd-eOff) for a
// non-empty table.
func (a *Arena) Hash(eOff, eEnd, sOff, sEnd uint32) Flat {
	if eOff == eEnd {
		return Flat{}
	}
	return Flat{a: a, eOff: eOff, eLen: eEnd - eOff, sOff: sOff, sMask: sEnd - sOff - 1}
}

// Get returns the distance recorded for key.
//
// The hash probe is the oracle's innermost query loop (every vicinity
// hit and every boundary-scan probe lands here). The fingerprint
// comparison is a single XOR against the full hash — the high byte of
// s^h is zero exactly when the stored fingerprint matches — so no
// canonicalized fingerprint needs to stay live across the probe loop.
func (f Flat) Get(key uint32) (uint32, bool) {
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
			if e := f.eOff + (s & slotIdxMask) - 1; a.Keys[e] == key {
				return a.Dists[e], true
			}
		}
		i = (i + 1) & f.sMask
	}
}

// Len returns the number of entries.
func (f Flat) Len() int { return int(f.eLen) }

// Ranges returns the view's entry range [eOff, eOff+eLen) and slot
// range [sOff, sOff+sLen) within its arena (sLen is 0 for empty
// tables). Serializers use it to derive CSR offset arrays from a set
// of views.
func (f Flat) Ranges() (eOff, eLen, sOff, sLen uint32) {
	if f.eLen > 0 {
		return f.eOff, f.eLen, f.sOff, f.sMask + 1
	}
	return f.eOff, f.eLen, f.sOff, 0
}

// At returns the i-th entry in insertion order.
func (f Flat) At(i int) (key, dist uint32) {
	e := f.eOff + uint32(i)
	return f.a.Keys[e], f.a.Dists[e]
}

// Entries returns the view's keys and distances in insertion order, as
// sub-slices of the arena (no copy; callers must not modify them). An
// owner that orders a table's entries can read any prefix directly.
func (f Flat) Entries() (keys, dists []uint32) {
	if f.eLen == 0 {
		return nil, nil
	}
	e0, e1 := f.eOff, f.eOff+f.eLen
	return f.a.Keys[e0:e1:e1], f.a.Dists[e0:e1:e1]
}

// CopyTo appends the view's entry and slot ranges to dst and returns
// the equivalent view over dst. Slot words hold table-local entry
// indexes, so they copy verbatim. dst must not share backing arrays
// with the view's own ranges (compaction copies into a fresh arena).
func (f Flat) CopyTo(dst *Arena) Flat {
	if f.eLen == 0 {
		return Flat{}
	}
	eOff := dst.AllocEntries(int(f.eLen))
	copy(dst.Keys[eOff:], f.a.Keys[f.eOff:f.eOff+f.eLen])
	copy(dst.Dists[eOff:], f.a.Dists[f.eOff:f.eOff+f.eLen])
	sLen := f.sMask + 1
	sOff := dst.AllocSlots(int(sLen))
	copy(dst.Slots[sOff:], f.a.Slots[f.sOff:f.sOff+sLen])
	return dst.Hash(eOff, eOff+f.eLen, sOff, sOff+sLen)
}

// Bytes returns the share of the arena footprint attributable to this
// table: 8 bytes per entry plus its slot range.
func (f Flat) Bytes() int {
	if f.eLen == 0 {
		return 0
	}
	return 8*int(f.eLen) + 4*(int(f.sMask)+1)
}

var _ Table = Flat{}
