package core

import (
	"fmt"

	"vicinity/internal/graph"
	"vicinity/internal/traverse"
	"vicinity/internal/u32map"
)

// assembleTablePath builds the s→t path for a table-resolved query by
// following next hops (§3.1: "the path is retrieved by following the
// series of next-hops"). Hops are derived from stored distances, not
// stored beside them: within vicinities the chain descends u's
// distances in Γ(u), through an intersection the two half-paths join at
// the witness node meet, and landmark hits descend the landmark's
// distance row. m is the table pass's method; ok is false when a chain
// cannot be completed (the caller falls back).
func (o *Oracle) assembleTablePath(s, t uint32, m Method, meet uint32) ([]uint32, bool) {
	switch m {
	case MethodSame:
		return []uint32{s}, true

	case MethodLandmarkSource:
		// Walk t up s's global tree, then reverse.
		p, ok := o.landmarkChain(o.lidx[s], t)
		if !ok {
			return nil, false
		}
		reverseU32(p)
		return p, true

	case MethodLandmarkTarget:
		// Walk s up t's global tree: already oriented s→t.
		return o.landmarkChain(o.lidx[t], s)

	case MethodVicinitySource:
		// t ∈ Γ(s): walk t back to s inside s's table, reverse.
		p, ok := o.vicinityChain(s, t)
		if !ok {
			return nil, false
		}
		reverseU32(p)
		return p, true

	case MethodVicinityTarget:
		// s ∈ Γ(t): walk s back to t inside t's table.
		return o.vicinityChain(t, s)

	case MethodIntersection:
		half1, ok1 := o.vicinityChain(s, meet) // meet..s
		half2, ok2 := o.vicinityChain(t, meet) // meet..t
		if !ok1 || !ok2 {
			return nil, false
		}
		reverseU32(half1) // s..meet
		return append(half1, half2[1:]...), true

	default:
		return nil, false
	}
}

// vicinityChain walks v back to u inside Γ(u), returning the chain
// v, ..., u. Each hop goes from cur to the smallest-id neighbor w of
// cur that lies in Γ(u) one step closer: d(u,w) + wt(w,cur) =
// d(u,cur). Such a w always exists in a built vicinity (see
// vicinityBFS/vicinityDijkstra), so the choice among equal-length paths
// is a pure function of the graph and the stored distances. It fails
// when v ∉ Γ(u) or a hop has no candidate.
//
// Adjacency lists and runs are both sorted by id, so a hop is an
// intersection (u32map.Meet walks the plain adjacency list against a
// coded run). On an unweighted table the candidates are exactly level
// d(u,cur)-1, and the hop is the first id that cur's adjacency shares
// with that level; level 0 is u alone. A weighted table's runs are each
// walked against the adjacency, keeping the first common member whose
// distance and edge weight add up to d(u,cur).
func (o *Oracle) vicinityChain(u, v uint32) ([]uint32, bool) {
	tbl, ok := o.vicinity(u)
	if !ok {
		return nil, false
	}
	d, ok := tbl.Get(v)
	if !ok {
		return nil, false
	}
	var m u32map.Meet
	return o.descend(v, u, d, func(cur, d uint32) (uint32, uint32) {
		adj := o.g.Neighbors(cur)
		if tbl.Leveled() {
			// cur is not u, so d >= 1; a level-1 member's hop is u.
			if d == 1 {
				return u, 0
			}
			level, _ := tbl.Run(int(d) - 2)
			m.Keys(adj, level)
			if i, _, ok := m.Next(); ok {
				return adj[i], d - 1
			}
			return graph.NoNode, NoDist
		}
		wts := o.g.NeighborWeights(cur)
		next, dn := graph.NoNode, NoDist
		for k := 0; k < tbl.Runs(); k++ {
			run, dists := tbl.Run(k)
			m.Keys(adj, run)
			for {
				a, b, ok := m.Next()
				if !ok {
					break
				}
				if satAdd(dists[b], hopWeight(wts, a)) == d {
					if adj[a] < next {
						next, dn = adj[a], dists[b]
					}
					break
				}
			}
		}
		return next, dn
	})
}

// landmarkChain walks v to landmark li along li's distance row,
// returning v, ..., landmark, with the same smallest-id-neighbor hop
// rule as vicinityChain (adjacency lists are sorted). It fails when li has no built table or v is
// unreachable from it.
func (o *Oracle) landmarkChain(li int32, v uint32) ([]uint32, bool) {
	if !o.hasLandmarkTable(li) {
		return nil, false
	}
	row := &o.lrows[o.lpos[li]]
	return o.descend(v, o.landmarks[li], row.at(v), func(cur, d uint32) (uint32, uint32) {
		wts := o.g.NeighborWeights(cur)
		for i, w := range o.g.Neighbors(cur) {
			// The hop needs w's distance to be dw = d − wt. When dw has a
			// code, only that code holds it; otherwise only the escape
			// can, and then the exception must be dw. So the code decides
			// every neighbor but an escaped one, with no call to at,
			// which does not inline.
			wt := hopWeight(wts, i)
			if wt > d {
				continue
			}
			dw := d - wt
			c := min(dw-row.base, row.esc)
			if row.code(w) == c && (c != row.esc || row.exception(w) == dw) {
				return w, dw
			}
		}
		return graph.NoNode, NoDist
	})
}

// descend follows next hops from v, at distance d, down to root; hop
// returns cur's next node and its distance, or graph.NoNode. A hop must
// match d exactly, which NoDist never does, so over positive weights
// every hop strictly lowers a finite distance; the hop cap ends the
// walk on anything else a loaded file can hold (a zero-weight edge).
func (o *Oracle) descend(v, root, d uint32, hop func(cur, d uint32) (uint32, uint32)) ([]uint32, bool) {
	if d == NoDist {
		return nil, false
	}
	chain := make([]uint32, 0, 8)
	for cur := v; ; {
		chain = append(chain, cur)
		if cur == root {
			return chain, true
		}
		if len(chain) > o.g.NumNodes() {
			return nil, false
		}
		if cur, d = hop(cur, d); cur == graph.NoNode {
			return nil, false
		}
	}
}

// hopWeight is the weight of cur's i-th edge given its weight row (nil
// on unweighted graphs).
func hopWeight(wts []uint32, i int) uint32 {
	if wts == nil {
		return 1
	}
	return wts[i]
}

// estimatePath stitches the landmark-triangulation path s→l(s)→t.
// The result is a valid path realizing the estimate (not necessarily
// shortest).
func (o *Oracle) estimatePath(s, t uint32) ([]uint32, bool) {
	ls := o.nearest[s]
	if ls == graph.NoNode {
		return nil, false
	}
	li := o.lidx[ls]
	if !o.hasLandmarkTable(li) {
		return nil, false
	}
	// s..l(s) via s's vicinity (l(s) ∈ Γ(s) by construction).
	head, ok := o.vicinityChain(s, ls) // l(s)..s
	if !ok {
		return nil, false
	}
	reverseU32(head) // s..l(s)
	// l(s)..t via the landmark tree: walk t up to l(s), reverse.
	tail, ok := o.landmarkChain(li, t) // t..l(s)
	if !ok {
		return nil, false
	}
	reverseU32(tail) // l(s)..t
	return append(head, tail[1:]...), true
}

// fallbackPathWS answers a path query with the exact bidirectional
// search over a caller-owned workspace (the batch engine reuses one
// across a target list) under lim, adding the search and its
// expansions to c. d is the length of the returned path; on an early
// outcome the path (if any) realizes the best-known upper bound and
// the method is MethodBudgetBound (MethodNone when the frontiers never
// met).
func (o *Oracle) fallbackPathWS(s, t uint32, c *Cost, ws *traverse.Workspace, lim traverse.Limits) ([]uint32, uint32, Method, traverse.Outcome) {
	var p []uint32
	var d uint32
	var out traverse.Outcome
	if o.g.Weighted() {
		p, d, out = ws.BiDijkstraPathLim(s, t, lim)
	} else {
		p, d, out = ws.BiBFSPathLim(s, t, lim)
	}
	c.Fallbacks++
	c.Expanded += ws.Expanded()
	switch {
	case out != traverse.OutcomeDone:
		return p, d, boundMethod(d), out
	case p == nil:
		return nil, NoDist, MethodUnreachable, out
	default:
		return p, d, MethodFallbackExact, out
	}
}

// PathString formats a path for display, e.g. "0 → 5 → 9".
func PathString(p []uint32) string {
	if len(p) == 0 {
		return "(none)"
	}
	s := fmt.Sprint(p[0])
	for _, v := range p[1:] {
		s += fmt.Sprintf(" → %d", v)
	}
	return s
}

func reverseU32(xs []uint32) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}
