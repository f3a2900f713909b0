// Package heap provides Min, an indexed binary min-heap with
// DecreaseKey specialized for shortest-path computation over graphs
// with uint32 node ids and uint32 distances: the workhorse for Dijkstra
// on arbitrary non-negative integer weights. It is not safe for
// concurrent use.
package heap

// Min is an indexed binary min-heap keyed by uint32 priority. Each node id
// may appear at most once; Push on a present id with a smaller key behaves
// as DecreaseKey. Capacity is fixed at construction (node ids < n).
type Min struct {
	ids  []uint32 // heap array of node ids
	key  []uint32 // key[id] = current priority
	pos  []int32  // pos[id] = index in ids, or -1 if absent
	size int
}

// NewMin returns a heap for node ids in [0, n).
func NewMin(n int) *Min {
	h := &Min{
		ids: make([]uint32, 0, 64),
		key: make([]uint32, n),
		pos: make([]int32, n),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len returns the number of queued ids.
func (h *Min) Len() int { return h.size }

// Empty reports whether the heap is empty.
func (h *Min) Empty() bool { return h.size == 0 }

// Contains reports whether id is currently queued.
func (h *Min) Contains(id uint32) bool { return h.pos[id] >= 0 }

// Key returns the current priority of id. Only valid if Contains(id).
func (h *Min) Key(id uint32) uint32 { return h.key[id] }

// Reset empties the heap in O(size).
func (h *Min) Reset() {
	for _, id := range h.ids[:h.size] {
		h.pos[id] = -1
	}
	h.ids = h.ids[:0]
	h.size = 0
}

// Push inserts id with priority k, or decreases its key if already present
// with a larger key. Pushing a present id with k >= current key is a no-op.
func (h *Min) Push(id uint32, k uint32) {
	if p := h.pos[id]; p >= 0 {
		if k < h.key[id] {
			h.key[id] = k
			h.up(int(p))
		}
		return
	}
	h.key[id] = k
	if h.size == len(h.ids) {
		h.ids = append(h.ids, id)
	} else {
		h.ids[h.size] = id
	}
	h.pos[id] = int32(h.size)
	h.size++
	h.up(h.size - 1)
}

// Peek returns the id with the minimum key and that key without removing
// it. It panics on an empty heap.
func (h *Min) Peek() (id uint32, k uint32) {
	if h.size == 0 {
		panic("heap: Peek on empty heap")
	}
	id = h.ids[0]
	return id, h.key[id]
}

// Pop removes and returns the id with the minimum key, and that key.
// It panics on an empty heap.
func (h *Min) Pop() (id uint32, k uint32) {
	if h.size == 0 {
		panic("heap: Pop on empty heap")
	}
	id = h.ids[0]
	k = h.key[id]
	h.size--
	last := h.ids[h.size]
	h.pos[id] = -1
	if h.size > 0 {
		h.ids[0] = last
		h.pos[last] = 0
		h.down(0)
	}
	return id, k
}

func (h *Min) up(i int) {
	id := h.ids[i]
	k := h.key[id]
	for i > 0 {
		parent := (i - 1) / 2
		pid := h.ids[parent]
		if h.key[pid] <= k {
			break
		}
		h.ids[i] = pid
		h.pos[pid] = int32(i)
		i = parent
	}
	h.ids[i] = id
	h.pos[id] = int32(i)
}

func (h *Min) down(i int) {
	id := h.ids[i]
	k := h.key[id]
	for {
		l := 2*i + 1
		if l >= h.size {
			break
		}
		c, ck := l, h.key[h.ids[l]]
		if r := l + 1; r < h.size {
			if rk := h.key[h.ids[r]]; rk < ck {
				c, ck = r, rk
			}
		}
		if ck >= k {
			break
		}
		cid := h.ids[c]
		h.ids[i] = cid
		h.pos[cid] = int32(i)
		i = c
	}
	h.ids[i] = id
	h.pos[id] = int32(i)
}
