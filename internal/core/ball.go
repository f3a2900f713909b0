package core

import (
	"vicinity/internal/graph"
	"vicinity/internal/heap"
	"vicinity/internal/queue"
	"vicinity/internal/traverse"
	"vicinity/internal/u32map"
)

// NoDist is the sentinel for "no distance" (re-exported for callers).
const NoDist = traverse.NoDist

// vicResult is the offline product for one node: its vicinity coded as
// one table (u32map.AppendTable), later concatenated into the oracle's
// arena, with one distance per member on weighted graphs; the size of
// the boundary ∂Γ(u), which is the table's last run; its radius
// d(u, l(u)) and its nearest landmark l(u). The boundary run is exactly
// the members the online scan walks (Algorithm 1 line 5), so the scan
// reads d(s,w) straight off s's own table without a lookup.
//
// Members come in runs (see u32map.Arena), each sorted by node id. An
// unweighted vicinity lists its members in BFS level order, one run per
// level, and its distances are the levels. A weighted one records
// dists, one per member, and splits its members into the interior and
// the boundary tail.
//
// The slices alias the workspace's reusable buffers and are valid only
// until the workspace's next search: the parallel build appends them to
// its worker shard immediately, and the update path detaches a copy.
type vicResult struct {
	code     []uint32
	dists    []uint32 // weighted only
	entries  uint32   // |Γ(u)|
	boundLen uint32
	radius   uint32
	nearest  uint32
}

// buildWS is the per-worker scratch state for vicinity construction.
// Entry buffers are reused across nodes; one worker's results must be
// consumed (shard-appended or detached) before its next search.
type buildWS struct {
	nm      *traverse.NodeMap // distance during the search
	settled *traverse.NodeMap // Dijkstra settle marks (weighted only)
	q       *queue.U32
	h       *heap.Min
	keys    []uint32 // members in stored order
	dists   []uint32
	levels  []uint32 // run starts, as u32map.AppendTable takes them
	code    []uint32 // the coded table
	sorter  u32map.Sorter
}

func newBuildWS(n int) *buildWS {
	return &buildWS{
		nm:      traverse.NewNodeMap(n),
		settled: traverse.NewNodeMap(n),
		q:       queue.NewU32(256),
		h:       heap.NewMin(n),
	}
}

func (ws *buildWS) reset() {
	ws.nm.Reset()
	ws.settled.Reset()
	ws.q.Reset()
	ws.h.Reset()
	ws.keys = ws.keys[:0]
	ws.dists = ws.dists[:0]
	ws.levels = ws.levels[:0]
}

// vicinityBFS constructs Γ(u) for an unweighted graph by truncated BFS.
//
// For unweighted graphs Definition 1's Γ(u) = B(u) ∪ N(B(u)) equals the
// closed ball {v : d(u,v) <= r} with r = d(u, l(u)): every node at
// distance exactly r has a BFS parent at distance r-1 inside B(u), and no
// neighbor of B(u) can be farther than r. The BFS therefore completes
// level r and stops. Members are kept in level order, so their
// distances are implied by their level, sorted by id within each level
// (level 1 is u's adjacency, sorted already), and then coded. Every
// member at distance d > 0 has a neighbor at d-1 inside Γ(u), so paths
// derive entirely from u's table (see vicinityChain).
//
// The boundary ∂Γ(u) is all of level r, the tail of the entries. Only
// level-r members can have a neighbor outside the ball, and scanning the
// members that have none stays exact: each adds a candidate
// d(s,w) + d(w,t) >= d(s,t), and Theorem 1's witness is a level-r
// member either way. A vicinity that reaches no landmark (a flood of
// u's whole component) has no boundary.
func vicinityBFS(g *graph.Graph, isL []bool, ws *buildWS, u uint32) vicResult {
	ws.reset()
	nm, q := ws.nm, ws.q
	nm.Set(u, 0, graph.NoNode)
	ws.keys = append(ws.keys, u)
	q.Push(u)
	r := NoDist
	nearest := graph.NoNode
	top := uint32(0) // deepest level recorded so far
	for !q.Empty() {
		x := q.Pop()
		dx := nm.Dist(x)
		if dx >= r { // r == NoDist means "not yet found": never triggers
			continue
		}
		for _, v := range g.Neighbors(x) {
			if nm.Has(v) {
				continue
			}
			d := dx + 1
			nm.Set(v, d, x)
			if d > top {
				top = d
				if d >= 2 {
					ws.levels = append(ws.levels, uint32(len(ws.keys)))
				}
			}
			ws.keys = append(ws.keys, v)
			if r == NoDist && isL[v] {
				r, nearest = d, v
			}
			q.Push(v)
		}
	}
	// Level 1 is u's adjacency, sorted already; sort each deeper level.
	for i, from := range ws.levels {
		to := uint32(len(ws.keys))
		if i+1 < len(ws.levels) {
			to = ws.levels[i+1]
		}
		ws.sorter.Sort(ws.keys[from:to], nil)
	}
	var boundLen uint32
	if r != NoDist {
		last := uint32(1) // level 1 starts at entry 1
		if r >= 2 {
			last = ws.levels[r-2]
		}
		boundLen = uint32(len(ws.keys)) - last
	}
	return ws.result(false, boundLen, r, nearest)
}

// result codes the sorted members into the workspace's table buffer,
// the one encoder that build and repair share, and returns the result.
func (ws *buildWS) result(weighted bool, boundLen, r, nearest uint32) vicResult {
	ws.code = u32map.AppendTable(ws.code[:0], !weighted, ws.keys, ws.levels)
	res := vicResult{code: ws.code, entries: uint32(len(ws.keys)), boundLen: boundLen, radius: r, nearest: nearest}
	if weighted {
		res.dists = ws.dists
	}
	return res
}

// hasOutside reports whether k has a neighbor outside the vicinity,
// whose members are the nodes marked in members.
func hasOutside(g *graph.Graph, k uint32, members *traverse.NodeMap) bool {
	for _, nb := range g.Neighbors(k) {
		if !members.Has(nb) {
			return true
		}
	}
	return false
}

// vicinityDijkstra constructs Γ(u) for a weighted graph: a truncated
// Dijkstra settles every node with d(u,v) <= r where r is the distance of
// the first settled landmark. All recorded distances are exact and every
// member's shortest-path predecessor is itself settled (d(pred) < d(v)),
// keeping derived path chains inside the table.
func vicinityDijkstra(g *graph.Graph, isL []bool, ws *buildWS, u uint32) vicResult {
	ws.reset()
	nm, h, settled := ws.nm, ws.h, ws.settled
	nm.Set(u, 0, graph.NoNode)
	h.Push(u, 0)
	r := NoDist
	nearest := graph.NoNode
	for !h.Empty() {
		x, dx := h.Pop()
		if settled.Has(x) {
			continue
		}
		if dx > r { // r == NoDist: never triggers
			break
		}
		settled.Set(x, 0, 0)
		ws.keys = append(ws.keys, x)
		ws.dists = append(ws.dists, dx)
		if r == NoDist && isL[x] {
			r, nearest = dx, x
		}
		adj := g.Neighbors(x)
		wts := g.NeighborWeights(x)
		for i, v := range adj {
			if settled.Has(v) {
				continue
			}
			w := uint32(1)
			if wts != nil {
				w = wts[i]
			}
			nd := traverse.SatAdd(dx, w)
			if old := nm.Dist(v); nd < old {
				nm.Set(v, nd, x)
				h.Push(v, nd)
			}
		}
	}
	// Boundary: any member with a non-member neighbor. Unlike the
	// unweighted case, interior members can abut non-members through
	// heavy edges, so every member is checked; the boundary members then
	// move to the tail, as on unweighted graphs. Each part is sorted by
	// id on its own, so the table does not depend on settle order, and
	// then coded.
	boundLen := ws.partition(func(i int) bool { return hasOutside(g, ws.keys[i], settled) })
	split := len(ws.keys) - int(boundLen)
	ws.sorter.Sort(ws.keys[:split], ws.dists[:split])
	ws.sorter.Sort(ws.keys[split:], ws.dists[split:])
	if split > 0 && boundLen > 0 {
		ws.levels = append(ws.levels, uint32(split))
	}
	return ws.result(true, boundLen, r, nearest)
}

// partition moves the entries isBoundary selects to the tail and
// returns the size of the boundary tail. Order within either part is
// not kept: the caller sorts both.
func (ws *buildWS) partition(isBoundary func(i int) bool) uint32 {
	h := len(ws.keys)
	for i := 0; i < h; {
		if !isBoundary(i) {
			i++
			continue
		}
		h--
		ws.keys[i], ws.keys[h] = ws.keys[h], ws.keys[i]
		ws.dists[i], ws.dists[h] = ws.dists[h], ws.dists[i]
	}
	return uint32(len(ws.keys) - h)
}

// detach copies the result out of its workspace's reusable buffers so
// it survives the workspace's next search. The update path uses it to
// collect repaired vicinities before installing them.
func (res vicResult) detach() vicResult {
	res.code = append([]uint32(nil), res.code...)
	res.dists = append([]uint32(nil), res.dists...)
	return res
}
