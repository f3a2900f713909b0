// Package u32map provides the compact node-indexed tables that store
// vicinities: for each member node, its exact distance from the vicinity
// owner. Nothing else is stored per member; path hops are derived from
// these distances at query time (see internal/core's path.go). On
// unweighted graphs not even the distance is stored per member: a
// table's entries are kept in BFS level order, and each level's run
// implies its members' distance.
//
// The paper stores vicinities in hash tables (GNU C++ unordered_map) and
// reports query cost in hash-table look-ups (Table 3). The oracle's
// representation is the Flat view over a shared Arena: every table's
// runs, each sorted by node id (one run per BFS level on unweighted
// graphs), coded back to back in one word array, and distances either
// per entry (weighted arenas) or per level (leveled arenas) — see
// flat.go. A run is cut into blocks of BlockLen keys; each block keeps
// its first key in full and bit-packs the gaps after it at the block's
// own width (binary packing, or frame of reference: Lemire & Boytsov,
// "Decoding billions of integers per second through vectorization",
// 2015) — see code.go. A point lookup bisects block heads and decodes
// one block; a scan walks two runs block by block (Meet). This is the
// "more customized implementation of the data structures" the paper
// floats in §5. Map is an open-addressing hash table, for callers that
// build tables incrementally (internal/tz); the Get benchmarks compare
// it with Flat (ablation A3).
package u32map

// Map is an open-addressing hash table from keys to distances. The
// zero value is an empty usable map. It is safe for concurrent readers
// once fully built.
type Map struct {
	keys  []uint32
	dists []uint32
	slots []int32 // entry index + 1; 0 means empty
	mask  uint32
}

// New returns a Map with capacity for about hint entries before growing.
func New(hint int) *Map {
	m := &Map{}
	if hint > 0 {
		m.rehash(indexSize(hint))
	}
	return m
}

// indexSize returns the power-of-two slot count for n entries at a load
// factor of at most 2/3.
func indexSize(n int) int {
	c := 8
	for c*2 < n*3 {
		c <<= 1
	}
	return c
}

const fib32 = 0x9E3779B9 // 2^32 / golden ratio

func (m *Map) slot(key uint32) uint32 {
	return (key * fib32) & m.mask
}

// Len returns the number of entries.
func (m *Map) Len() int { return len(m.keys) }

// Put inserts or overwrites the entry for key.
func (m *Map) Put(key, dist uint32) {
	if m.slots == nil || len(m.keys)*3 >= len(m.slots)*2 {
		m.rehash(indexSize(len(m.keys) + 1))
	}
	i := m.slot(key)
	for {
		s := m.slots[i]
		if s == 0 {
			m.slots[i] = int32(len(m.keys) + 1)
			m.keys = append(m.keys, key)
			m.dists = append(m.dists, dist)
			return
		}
		if m.keys[s-1] == key {
			m.dists[s-1] = dist
			return
		}
		i = (i + 1) & m.mask
	}
}

// Get returns the distance recorded for key.
func (m *Map) Get(key uint32) (uint32, bool) {
	if m.slots == nil {
		return 0, false
	}
	i := m.slot(key)
	for {
		s := m.slots[i]
		if s == 0 {
			return 0, false
		}
		if m.keys[s-1] == key {
			return m.dists[s-1], true
		}
		i = (i + 1) & m.mask
	}
}

// At returns the i-th entry in insertion order.
func (m *Map) At(i int) (key, dist uint32) {
	return m.keys[i], m.dists[i]
}

// Bytes returns the approximate heap footprint.
func (m *Map) Bytes() int {
	return 4*(len(m.keys)+len(m.dists)) + 4*len(m.slots)
}

// Compact shrinks the entry arrays and rebuilds the index at the minimum
// power-of-two size. Call once after construction finishes.
func (m *Map) Compact() {
	m.keys = clip(m.keys)
	m.dists = clip(m.dists)
	if len(m.keys) == 0 {
		m.slots, m.mask = nil, 0
		return
	}
	m.rehash(indexSize(len(m.keys)))
}

func clip(xs []uint32) []uint32 {
	if cap(xs) > len(xs) {
		out := make([]uint32, len(xs))
		copy(out, xs)
		return out
	}
	return xs
}

func (m *Map) rehash(size int) {
	m.slots = make([]int32, size)
	m.mask = uint32(size - 1)
	for idx, key := range m.keys {
		i := m.slot(key)
		for m.slots[i] != 0 {
			i = (i + 1) & m.mask
		}
		m.slots[i] = int32(idx + 1)
	}
}
