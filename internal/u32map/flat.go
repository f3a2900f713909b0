package u32map

// Arena holds the one backing array behind every Flat table: the coded
// tables back to back in Words (see AppendTable for a table's layout).
// Many Flat views index into one Arena, so a built oracle is one large
// allocation instead of per-node pointer soup: the garbage collector
// has almost nothing to scan, the words of one table are adjacent in
// memory, and each table serializes as one copy of its words.
//
// There is no hash index. A table's entries are grouped into runs, and
// every run strictly increases by key: a point lookup skips the runs
// whose key range misses the key and bisects the block heads of the
// others, and a scan intersects runs (Meet). Every offset inside a
// coded table is local to it, and a table holds all of its own data,
// so tables move between arenas verbatim. An arena stores distances in
// one of two ways, fixed for its life:
//
//   - Leveled arenas (Leveled set) keep each table in BFS level order,
//     stored run k being level k+1 below the owner (level 0), and store
//     no per-entry distance: an entry's distance is its level.
//   - Weighted arenas end each table with one distance per entry, after
//     its coded data, and split a table into at most two runs, an
//     interior and a tail (internal/core keeps each vicinity's boundary
//     there).
//
// Word offsets are uint32, so the array holds at most 2^32-1 words
// (callers enforce the cap), and one table at most MaxTableWords words.
type Arena struct {
	Words   []uint32 // coded tables
	Leveled bool
}

// Bytes returns the heap footprint of the arena's backing array.
func (a *Arena) Bytes() int {
	return 4 * len(a.Words)
}

// Add appends one coded table (AppendTable's output) and returns its
// view. Growth goes through append, so adding within spare capacity
// does not move the backing array, and existing Flat views (including
// those held by other snapshots sharing this arena's backing) remain
// valid.
func (a *Arena) Add(words []uint32) Flat {
	r := Range{WOff: uint32(len(a.Words)), WLen: uint32(len(words))}
	a.Words = append(a.Words, words...)
	return a.View(r)
}

// Clone returns a new Arena header over the same backing array.
// Appends through the clone never disturb ranges visible to the
// original: writes land beyond the original's length (or in a fresh
// array after reallocation), which its views never read.
func (a *Arena) Clone() *Arena {
	c := *a
	return &c
}

// Range locates one table's words inside an Arena. A table's entry
// count is in its words, so a serializer needs only each table's words
// to place it.
type Range struct {
	WOff, WLen uint32
}

// Flat is a zero-allocation view of one table's words within an Arena.
// The zero value is an empty table. Flat is a value type; constructing
// one performs no allocation, so owners can store plain offset arrays
// and materialize views on demand.
type Flat struct {
	a          *Arena
	wOff, wLen uint32
}

// View returns the table at r.
func (a *Arena) View(r Range) Flat {
	if r.WLen == 0 {
		return Flat{}
	}
	return Flat{a: a, wOff: r.WOff, wLen: r.WLen}
}

// Range returns the view's range within its arena.
func (f Flat) Range() Range {
	return Range{WOff: f.wOff, WLen: f.wLen}
}

// Empty reports whether the view holds no table.
func (f Flat) Empty() bool { return f.wLen == 0 }

// Words returns the table's words, its distances included on weighted
// arenas: what a serializer writes. Callers must not modify them.
func (f Flat) Words() []uint32 {
	if f.wLen == 0 {
		return nil
	}
	return f.a.Words[f.wOff : f.wOff+f.wLen : f.wOff+f.wLen]
}

// header returns the word index of the table's run count and the entry
// index where its first run begins.
func (f Flat) header() (h int, start uint32) {
	if f.a.Leveled {
		return 1, 1
	}
	return 0, 0
}

// entryCount returns the entry count of table t, whose run count is at
// word h and whose first run begins at entry start: where its last run
// ends, or start when it has none (a leveled table's owner alone).
func entryCount(t []uint32, h int, start uint32) uint32 {
	if runs := int(t[h]); runs > 0 {
		return t[h+3*runs-2]
	}
	return start
}

// Get returns the distance recorded for key. It is the oracle's point
// lookup (both direct cases of every pair land here): runs whose first
// to last key range misses key are skipped, and in a run that covers it
// the block heads are bisected and one block is decoded up to the first
// key at least key. The receiver is a pointer so that a caller probing
// one table hands over a single word per probe instead of the whole
// view.
func (f *Flat) Get(key uint32) (uint32, bool) {
	if f.wLen == 0 {
		return 0, false
	}
	a := f.a
	t := a.Words[f.wOff : f.wOff+f.wLen]
	h, start := 0, uint32(0)
	if a.Leveled {
		if t[0] == key {
			return 0, true
		}
		h, start = 1, 1
	}
	runs := int(t[h])
	bb := h + 1 + 3*runs
	for k := 0; k < runs; k++ {
		rec := t[h+1+3*k : h+4+3*k]
		end := rec[0]
		if key <= rec[1] {
			nb := int(end-start+BlockLen-1) / BlockLen
			blocks := t[bb+2*int(rec[2]) : bb+2*(int(rec[2])+nb)]
			if blocks[0] <= key {
				// The last block whose head is at most key.
				lo, hi := 0, nb
				for hi-lo > 1 {
					if m := int(uint(lo+hi) >> 1); blocks[2*m] <= key {
						lo = m
					} else {
						hi = m
					}
				}
				cnt := min(BlockLen, int(end-start)-lo*BlockLen)
				if i, ok := find(t, blocks[2*lo], blocks[2*lo+1], cnt, key); ok {
					if a.Leveled {
						return uint32(k) + 1, true
					}
					// The distances end the table, one per entry.
					return t[len(t)-int(t[3*runs-2])+int(start)+lo*BlockLen+i], true
				}
			}
		}
		start = end
	}
	return 0, false
}

// Leveled reports whether the table's distances are its levels (a
// table of a leveled arena) rather than per-entry values.
func (f Flat) Leveled() bool { return f.a != nil && f.a.Leveled }

// Owner returns a leveled table's level 0, the node it belongs to.
func (f Flat) Owner() uint32 { return f.a.Words[f.wOff] }

// Runs returns the number of stored runs: on a leveled table one per
// BFS level from 1 on, so run k is level k+1 (level 0 is Owner); on a
// weighted table its interior and then its tail, or one run when either
// is empty.
func (f Flat) Runs() int {
	if f.wLen == 0 {
		return 0
	}
	h, _ := f.header()
	return int(f.a.Words[f.wOff+uint32(h)])
}

// Run returns stored run k, 0 <= k < Runs(), and on weighted arenas its
// distances (nil on leveled arenas, where every key of run k is at
// distance k+1). The distances are the table's own words: callers must
// not modify them.
func (f Flat) Run(k int) (Run, []uint32) {
	t := f.Words()
	h, start := f.header()
	rec := h + 1 + 3*k
	if k > 0 {
		start = t[rec-3]
	}
	end := t[rec]
	r := Run{t: t, bb: h + 1 + 3*int(t[h]) + 2*int(t[rec+2]), n: int(end - start), last: t[rec+1]}
	if f.a.Leveled {
		return r, nil
	}
	d0 := uint32(len(t)) - entryCount(t, h, 0)
	return r, t[d0+start : d0+end : d0+end]
}

// Len returns the number of entries.
func (f Flat) Len() int {
	if f.wLen == 0 {
		return 0
	}
	h, start := f.header()
	return int(entryCount(f.Words(), h, start))
}

// CopyTo appends the view's table to dst and returns the equivalent
// view over dst. Offsets inside a coded table are local to it, so the
// words copy verbatim. dst must be of the same kind and must not share
// a backing array with the view's own range (compaction copies into a
// fresh arena). An empty view copies to an empty view.
func (f Flat) CopyTo(dst *Arena) Flat {
	return dst.Add(f.Words())
}

// Bytes returns the share of the arena footprint attributable to this
// table: its words, slack bits of its last data words included, and on
// weighted arenas its distances.
func (f Flat) Bytes() int {
	return 4 * int(f.wLen)
}
