// Package tz implements a Thorup–Zwick approximate distance oracle with
// k = 2 (stretch 3), the construction the paper builds on: its vicinity
// definition and the "modified shortest path algorithm" used to grow
// balls come from Thorup & Zwick [16], and reference [1] analyzes the
// same degree-aware sampling in sparse graphs.
//
// Construction: sample A ⊆ V with probability ~n^{-1/2}; every a ∈ A
// stores a full shortest path tree; every u ∉ A stores its bunch
// B(u) = {v ∈ V\A : d(u,v) < d(u, p(u))} with exact distances, where
// p(u) is u's nearest A-node. Query(u,v) returns d(u,v) exactly when one
// endpoint lies in the other's bunch, and d(u,p(u)) + d(p(u),v) ≤
// 3·d(u,v) otherwise.
package tz

import (
	"math"

	"vicinity/internal/graph"
	"vicinity/internal/queue"
	"vicinity/internal/traverse"
	"vicinity/internal/u32map"
	"vicinity/internal/xrand"
)

// NoDist is the sentinel for unreachable pairs.
const NoDist = traverse.NoDist

// Oracle is a k=2 Thorup–Zwick distance oracle. Distance-only; exact for
// bunch hits, stretch ≤ 3 otherwise.
type Oracle struct {
	g       *graph.Graph
	aNodes  []uint32
	aIdx    []int32       // node → index into aNodes, or -1
	pivot   []uint32      // p(u): nearest A-node
	pivotD  []uint32      // d(u, p(u))
	bunches []*u32map.Map // per node: exact distances to bunch members
	aTrees  [][]uint32    // per A-node: full distance table
}

// New builds the oracle. Sampling is deterministic in seed; the A set is
// never empty for non-empty graphs.
func New(g *graph.Graph, seed uint64) *Oracle {
	n := g.NumNodes()
	o := &Oracle{
		g:       g,
		aIdx:    make([]int32, n),
		pivot:   make([]uint32, n),
		pivotD:  make([]uint32, n),
		bunches: make([]*u32map.Map, n),
	}
	if n == 0 {
		return o
	}
	r := xrand.New(seed ^ 0x7a3d91c4b8f06e25)
	p := 1 / math.Sqrt(float64(n))
	for u := 0; u < n; u++ {
		o.aIdx[u] = -1
		o.pivot[u] = graph.NoNode
		o.pivotD[u] = NoDist
	}
	for u := 0; u < n; u++ {
		if r.Bernoulli(p) {
			o.aIdx[u] = int32(len(o.aNodes))
			o.aNodes = append(o.aNodes, uint32(u))
		}
	}
	if len(o.aNodes) == 0 {
		_, u := g.MaxDegree()
		o.aIdx[u] = 0
		o.aNodes = append(o.aNodes, u)
	}
	// Full trees from every A-node, plus global nearest-A assignment via
	// a multi-source BFS.
	weighted := g.Weighted()
	for _, a := range o.aNodes {
		var tr *traverse.Tree
		if weighted {
			tr = traverse.Dijkstra(g, a)
		} else {
			tr = traverse.BFS(g, a)
		}
		o.aTrees = append(o.aTrees, tr.Dist)
	}
	o.assignPivots()
	// Bunches: truncated BFS per non-A node, strictly inside d(u, p(u)).
	nm := traverse.NewNodeMap(n)
	q := queue.NewU32(256)
	for u := 0; u < n; u++ {
		if o.aIdx[u] >= 0 {
			continue
		}
		o.bunches[u] = o.buildBunch(uint32(u), nm, q)
	}
	return o
}

// assignPivots computes p(u) and d(u,p(u)) for every node with one
// multi-source BFS from all A-nodes (unweighted) or a sweep over the
// A-trees (weighted).
func (o *Oracle) assignPivots() {
	n := o.g.NumNodes()
	if !o.g.Weighted() {
		q := queue.NewU32(len(o.aNodes) * 2)
		for _, a := range o.aNodes {
			o.pivotD[a] = 0
			o.pivot[a] = a
			q.Push(a)
		}
		for !q.Empty() {
			u := q.Pop()
			for _, v := range o.g.Neighbors(u) {
				if o.pivotD[v] == NoDist {
					o.pivotD[v] = o.pivotD[u] + 1
					o.pivot[v] = o.pivot[u]
					q.Push(v)
				}
			}
		}
		return
	}
	for v := 0; v < n; v++ {
		for i, a := range o.aNodes {
			if d := o.aTrees[i][v]; d < o.pivotD[v] {
				o.pivotD[v] = d
				o.pivot[v] = a
			}
		}
	}
}

// buildBunch collects {v : d(u,v) < d(u,p(u))} with exact distances.
// Weighted graphs use a small Dijkstra; the unweighted path uses BFS.
func (o *Oracle) buildBunch(u uint32, nm *traverse.NodeMap, q *queue.U32) *u32map.Map {
	limit := o.pivotD[u]
	b := u32map.New(8)
	b.Put(u, 0)
	if limit == 0 || limit == NoDist {
		return b
	}
	if o.g.Weighted() {
		o.boundedDijkstraBunch(u, limit, b)
		return b
	}
	nm.Reset()
	q.Reset()
	nm.Set(u, 0, graph.NoNode)
	q.Push(u)
	for !q.Empty() {
		x := q.Pop()
		dx := nm.Dist(x)
		if dx+1 >= limit {
			continue
		}
		for _, v := range o.g.Neighbors(x) {
			if nm.Has(v) {
				continue
			}
			nm.Set(v, dx+1, x)
			b.Put(v, dx+1)
			q.Push(v)
		}
	}
	b.Compact()
	return b
}

// boundedDijkstraBunch fills b with all nodes at weighted distance
// strictly below limit.
func (o *Oracle) boundedDijkstraBunch(u uint32, limit uint32, b *u32map.Map) {
	ws := newDijkstraState(o.g.NumNodes())
	ws.nm.Set(u, 0, graph.NoNode)
	ws.h.Push(u, 0)
	for !ws.h.Empty() {
		x, dx := ws.h.Pop()
		if ws.settled.Has(x) {
			continue
		}
		if dx >= limit {
			break
		}
		ws.settled.Set(x, 0, 0)
		if x != u {
			b.Put(x, dx)
		}
		adj := o.g.Neighbors(x)
		wts := o.g.NeighborWeights(x)
		for i, v := range adj {
			if ws.settled.Has(v) {
				continue
			}
			w := uint32(1)
			if wts != nil {
				w = wts[i]
			}
			nd := dx + w
			if old := ws.nm.Dist(v); nd < old {
				ws.nm.Set(v, nd, x)
				ws.h.Push(v, nd)
			}
		}
	}
	b.Compact()
}

// Name identifies the oracle in benchmark tables.
func (o *Oracle) Name() string { return "thorup-zwick-k2" }

// NumSamples returns |A|.
func (o *Oracle) NumSamples() int { return len(o.aNodes) }

// Distance returns an estimate d with d(u,v) <= d <= 3·d(u,v), or NoDist
// if u and v are disconnected (detectable only via A-trees).
func (o *Oracle) Distance(u, v uint32) uint32 {
	if u == v {
		return 0
	}
	// Exact hits: A-membership or bunch membership (either direction).
	if i := o.aIdx[u]; i >= 0 {
		return o.aTrees[i][v]
	}
	if i := o.aIdx[v]; i >= 0 {
		return o.aTrees[i][u]
	}
	if d, ok := o.bunches[v].Get(u); ok {
		return d
	}
	if d, ok := o.bunches[u].Get(v); ok {
		return d
	}
	// Stretch-3 step through u's pivot.
	w := o.pivot[u]
	if w == graph.NoNode {
		return NoDist
	}
	dv := o.aTrees[o.aIdx[w]][v]
	if dv == NoDist {
		return NoDist
	}
	return o.pivotD[u] + dv
}

// Entries returns the stored entry count (|A|·n for trees plus bunch
// totals), for memory comparisons.
func (o *Oracle) Entries() int64 {
	total := int64(len(o.aNodes)) * int64(o.g.NumNodes())
	for _, b := range o.bunches {
		if b != nil {
			total += int64(b.Len())
		}
	}
	return total
}
