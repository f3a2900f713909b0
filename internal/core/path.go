package core

import (
	"fmt"

	"vicinity/internal/graph"
	"vicinity/internal/traverse"
)

// assembleTablePath builds the s→t path for a table-resolved query from
// stored parent pointers (§3.1: "the path is retrieved by following the
// series of next-hops"): within vicinities the chain walks u's shortest
// path tree, through an intersection the two half-paths join at the
// witness node meet, and landmark hits walk the landmark's global tree.
// m is the table pass's method; ok is false when a chain cannot be
// completed (the caller falls back).
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

// vicinityChain walks v back to u through Γ(u)'s parent pointers,
// returning the chain v, parent(v), ..., u. It fails when path data is
// disabled or a parent link is missing.
func (o *Oracle) vicinityChain(u, v uint32) ([]uint32, bool) {
	tbl, ok := o.vicinity(u)
	if !ok {
		return nil, false
	}
	chain := make([]uint32, 0, 8)
	cur := v
	for {
		chain = append(chain, cur)
		if cur == u {
			return chain, true
		}
		_, parent, ok := tbl.GetEntry(cur)
		if !ok || parent == graph.NoNode {
			return nil, false
		}
		if len(chain) > o.g.NumNodes() {
			// Defensive: corrupted parent pointers must not hang queries.
			return nil, false
		}
		cur = parent
	}
}

// landmarkChain walks v up landmark li's global shortest path tree,
// returning v, parent(v), ..., landmark.
func (o *Oracle) landmarkChain(li int32, v uint32) ([]uint32, bool) {
	parent := o.landmarkParents(li)
	if parent == nil {
		return nil, false
	}
	root := o.landmarks[li]
	chain := make([]uint32, 0, 16)
	cur := v
	for {
		chain = append(chain, cur)
		if cur == root {
			return chain, true
		}
		cur = parent[cur]
		if cur == graph.NoNode || len(chain) > o.g.NumNodes() {
			return nil, false
		}
	}
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
	if o.landmarkParents(li) == nil {
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
