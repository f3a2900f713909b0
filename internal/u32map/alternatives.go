package u32map

// Builtin is a Table backed by Go's builtin map, for baseline comparison
// in the data-structure ablation. Entries also live in insertion-order
// arrays so At works.
type Builtin struct {
	idx   map[uint32]int32
	keys  []uint32
	dists []uint32
}

// NewBuiltin returns a Builtin table with room for about hint entries.
func NewBuiltin(hint int) *Builtin {
	return &Builtin{idx: make(map[uint32]int32, hint)}
}

// Put inserts or overwrites the entry for key.
func (b *Builtin) Put(key, dist uint32) {
	if i, ok := b.idx[key]; ok {
		b.dists[i] = dist
		return
	}
	b.idx[key] = int32(len(b.keys))
	b.keys = append(b.keys, key)
	b.dists = append(b.dists, dist)
}

// Get returns the distance recorded for key.
func (b *Builtin) Get(key uint32) (uint32, bool) {
	if i, ok := b.idx[key]; ok {
		return b.dists[i], true
	}
	return 0, false
}

// Len returns the number of entries.
func (b *Builtin) Len() int { return len(b.keys) }

// At returns the i-th entry in insertion order.
func (b *Builtin) At(i int) (key, dist uint32) {
	return b.keys[i], b.dists[i]
}

// Bytes returns the approximate heap footprint (map overhead estimated
// at 48 bytes per entry, the typical Go runtime bucket cost).
func (b *Builtin) Bytes() int {
	return 8*len(b.keys) + 48*len(b.idx)
}

var _ Table = (*Builtin)(nil)
