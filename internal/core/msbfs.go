package core

import (
	"math/bits"

	"vicinity/internal/graph"
)

// msbfs is one worker's scratch for the bit-parallel multi-source BFS
// that fills unweighted landmark rows (MS-BFS: Then et al., "The More
// the Merrier: Efficient Multi-Source Graph Traversal", PVLDB 8(4),
// 2014). Bit j of a node's word stands for the j-th source of the
// current batch, so one scan of an edge advances up to 64 traversals.
// The scratch is 3 words per node plus two n-bit node sets, and it is
// all zero between runs.
type msbfs struct {
	seen  []uint64 // sources that have reached the node
	visit []uint64 // sources whose current level holds the node
	next  []uint64 // sources that reach the node at the next level
	// frontier marks the nodes with visit != 0 and touched the nodes
	// with next != 0. Walking their set bits visits nodes in ascending
	// id order, so CSR reads stream, and a level costs its frontier's
	// edges plus n/64 bitmap words, never a sweep over all n nodes.
	frontier []uint64
	touched  []uint64
}

func newMSBFS(n int) *msbfs {
	words := (n + 63) / 64
	return &msbfs{
		seen:     make([]uint64, n),
		visit:    make([]uint64, n),
		next:     make([]uint64, n),
		frontier: make([]uint64, words),
		touched:  make([]uint64, words),
	}
}

// run traverses g from up to 64 distinct sources at once. For every
// node v it calls found(v, set, d) once per distance d at which some
// sources first reach v; bit j of set stands for srcs[j]. Each
// source's calls together give exactly its BFS distance row: d is the
// hop distance, and a node a source never reaches never carries its
// bit.
func (m *msbfs) run(g *graph.Graph, srcs []uint32, found func(v uint32, set uint64, d uint32)) {
	seen, visit, next := m.seen, m.visit, m.next
	for j, s := range srcs {
		seen[s] = 1 << j
		visit[s] = 1 << j
		m.frontier[s>>6] |= 1 << (s & 63)
		found(s, 1<<j, 0)
	}
	for d := uint32(1); ; d++ {
		frontier, touched := m.frontier, m.touched
		// Expand: every frontier node offers its sources to each
		// neighbor that has not seen them yet.
		for wi, word := range frontier {
			if word == 0 {
				continue
			}
			frontier[wi] = 0
			for ; word != 0; word &= word - 1 {
				u := uint32(wi<<6 | bits.TrailingZeros64(word))
				set := visit[u]
				visit[u] = 0
				for _, v := range g.Neighbors(u) {
					if add := set &^ seen[v]; add != 0 {
						next[v] |= add
						touched[v>>6] |= 1 << (v & 63)
					}
				}
			}
		}
		// Settle: the touched nodes form the next frontier.
		reached := false
		for wi, word := range touched {
			if word == 0 {
				continue
			}
			reached = true
			for ; word != 0; word &= word - 1 {
				v := uint32(wi<<6 | bits.TrailingZeros64(word))
				set := next[v]
				next[v] = 0
				seen[v] |= set
				visit[v] = set
				found(v, set, d)
			}
		}
		if !reached {
			break
		}
		m.frontier, m.touched = touched, frontier
	}
	clear(seen)
}
