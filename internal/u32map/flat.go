package u32map

// Arena holds the shared backing arrays behind every Flat table: one
// contiguous entry arena (key/dist/parent triples, concatenated per
// table) and one contiguous slot arena (concatenated per-table
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
	Keys    []uint32
	Dists   []uint32
	Parents []uint32
	Slots   []uint32
}

// NumEntries returns the number of entries stored across all tables.
func (a *Arena) NumEntries() int { return len(a.Keys) }

// Bytes returns the heap footprint of the arena backing arrays.
func (a *Arena) Bytes() int {
	return 4 * (len(a.Keys) + len(a.Dists) + len(a.Parents) + len(a.Slots))
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

// GetEntry returns the distance and parent recorded for key. The probe
// loop mirrors Get (see there for why it is shaped this way).
func (f Flat) GetEntry(key uint32) (dist, parent uint32, ok bool) {
	if f.eLen == 0 {
		return 0, 0, false
	}
	a := f.a
	h := key * fib32
	i := h & f.sMask
	for {
		s := a.Slots[f.sOff+i]
		if s == 0 {
			return 0, 0, false
		}
		if (s^h)>>slotIdxBits == 0 {
			if e := f.eOff + (s & slotIdxMask) - 1; a.Keys[e] == key {
				return a.Dists[e], a.Parents[e], true
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
func (f Flat) At(i int) (key, dist, parent uint32) {
	e := f.eOff + uint32(i)
	return f.a.Keys[e], f.a.Dists[e], f.a.Parents[e]
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
	copy(dst.Parents[eOff:], f.a.Parents[f.eOff:f.eOff+f.eLen])
	sLen := f.sMask + 1
	sOff := dst.AllocSlots(int(sLen))
	copy(dst.Slots[sOff:], f.a.Slots[f.sOff:f.sOff+sLen])
	return dst.Hash(eOff, eOff+f.eLen, sOff, sOff+sLen)
}

// Bytes returns the share of the arena footprint attributable to this
// table: 12 bytes per entry plus its slot range.
func (f Flat) Bytes() int {
	if f.eLen == 0 {
		return 0
	}
	return 12*int(f.eLen) + 4*(int(f.sMask)+1)
}

var _ Table = Flat{}
