package core

import (
	"fmt"

	"vicinity/internal/graph"
	"vicinity/internal/traverse"
	"vicinity/internal/u32map"
)

// Method identifies how a query was answered (Algorithm 1's cases plus
// the fallbacks).
type Method uint8

const (
	// MethodNone: the query was not resolved (vicinities disjoint and
	// fallback disabled or uncovered nodes).
	MethodNone Method = iota
	// MethodSame: s == t.
	MethodSame
	// MethodLandmarkSource: s ∈ L, answered from s's full table.
	MethodLandmarkSource
	// MethodLandmarkTarget: t ∈ L, answered from t's full table.
	MethodLandmarkTarget
	// MethodVicinitySource: t ∈ Γ(s), answered from s's vicinity.
	MethodVicinitySource
	// MethodVicinityTarget: s ∈ Γ(t), answered from t's vicinity.
	MethodVicinityTarget
	// MethodIntersection: answered by the boundary scan (Algorithm 1
	// lines 5-9).
	MethodIntersection
	// MethodFallbackExact: answered by the exact bidirectional fallback.
	MethodFallbackExact
	// MethodFallbackEstimate: answered by the landmark-triangulation
	// estimate (upper bound, not exact).
	MethodFallbackEstimate
	// MethodUnreachable: s and t are in different components (exact).
	MethodUnreachable
	// MethodBudgetBound: a fallback search cut short by Request.Budget
	// or the request context; the distance is its best-known upper
	// bound, not necessarily exact.
	MethodBudgetBound
)

// String returns a short name for the method.
func (m Method) String() string {
	switch m {
	case MethodNone:
		return "none"
	case MethodSame:
		return "same"
	case MethodLandmarkSource:
		return "landmark-source"
	case MethodLandmarkTarget:
		return "landmark-target"
	case MethodVicinitySource:
		return "vicinity-source"
	case MethodVicinityTarget:
		return "vicinity-target"
	case MethodIntersection:
		return "intersection"
	case MethodFallbackExact:
		return "fallback-exact"
	case MethodFallbackEstimate:
		return "fallback-estimate"
	case MethodUnreachable:
		return "unreachable"
	case MethodBudgetBound:
		return "budget-bound"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Resolved reports whether the stored tables answered the query without
// any fallback (the paper's "vicinities intersect" success event).
func (m Method) Resolved() bool {
	switch m {
	case MethodSame, MethodLandmarkSource, MethodLandmarkTarget,
		MethodVicinitySource, MethodVicinityTarget, MethodIntersection:
		return true
	}
	return false
}

// Exact reports whether the returned distance is guaranteed exact for
// unweighted graphs (everything except estimates and unresolved).
func (m Method) Exact() bool {
	return m.Resolved() || m == MethodFallbackExact || m == MethodUnreachable
}

// satAdd sums two stored distances, saturating at NoDist (see
// traverse.SatAdd): a raw uint32 add can wrap past the sentinel on
// large weighted distances, and a wrapped candidate would beat the
// true minimum.
func satAdd(a, b uint32) uint32 { return traverse.SatAdd(a, b) }

// tableDistance runs Algorithm 1 over the stored tables only, adding
// its look-ups and scanned members to c. It returns the distance, the
// method that resolved the pair (including s == t and exact
// unreachability read off a landmark row) and, for MethodIntersection,
// the witness w minimizing d(s,w)+d(w,t) that assembleTablePath joins
// the two half-paths at (graph.NoNode otherwise). MethodNone means the
// tables could not decide the pair and the caller owns the fallback,
// so every query runs at most one slow search.
func (o *Oracle) tableDistance(s, t uint32, c *Cost) (uint32, Method, uint32, error) {
	n := o.g.NumNodes()
	if int(s) >= n || int(t) >= n {
		return NoDist, MethodNone, graph.NoNode, errRange(n)
	}
	if s == t {
		return 0, MethodSame, graph.NoNode, nil
	}

	// Algorithm 1 line 3: the four direct cases.
	if o.isL[s] {
		if li := o.lidx[s]; o.hasLandmarkTable(li) {
			c.Lookups++
			d := o.landmarkDist(li, t)
			if d == NoDist {
				return d, MethodUnreachable, graph.NoNode, nil
			}
			return d, MethodLandmarkSource, graph.NoNode, nil
		}
	}
	if o.isL[t] {
		if li := o.lidx[t]; o.hasLandmarkTable(li) {
			c.Lookups++
			d := o.landmarkDist(li, s)
			if d == NoDist {
				return d, MethodUnreachable, graph.NoNode, nil
			}
			return d, MethodLandmarkTarget, graph.NoNode, nil
		}
	}

	// The vicinity cases hold u32map.Flat views in locals, so every
	// table probe — including each iteration of the boundary scan — is
	// a single call frame over contiguous arrays. Coverage of t is
	// decided from the view's length alone, and the 24-byte view itself
	// is materialized only after the Γ(s) probe misses: the common
	// vicinity-source hit then touches one word of vicFlat[t] instead
	// of copying the whole view it never probes.
	vs, okS := o.vicinity(s)
	okT := o.vicFlat[t].Len() > 0
	if !okS && !o.isL[s] {
		return NoDist, MethodNone, graph.NoNode, errNotCovered(s)
	}
	if !okT && !o.isL[t] {
		return NoDist, MethodNone, graph.NoNode, errNotCovered(t)
	}
	if okS {
		c.Lookups++
		if d, ok := vs.Get(t); ok {
			return d, MethodVicinitySource, graph.NoNode, nil
		}
	}
	var vt u32map.Flat
	if okT {
		vt = o.vicFlat[t]
		c.Lookups++
		if d, ok := vt.Get(s); ok {
			return d, MethodVicinityTarget, graph.NoNode, nil
		}
	}

	// Algorithm 1 lines 5-9: scan ∂Γ(s), probing Γ(t). Lemma 1 makes
	// boundary-only scanning sufficient.
	if okS && okT {
		scan := o.boundary(s)
		best := NoDist
		meet := graph.NoNode
		for i, w := range scan.Keys {
			if dw, ok := vt.Get(w); ok {
				if cand := satAdd(scan.Dist(i), dw); cand < best {
					best = cand
					meet = w
				}
			}
		}
		c.Lookups += len(scan.Keys)
		c.Scanned += len(scan.Keys)
		if best != NoDist {
			return best, MethodIntersection, meet, nil
		}
	}

	return NoDist, MethodNone, graph.NoNode, nil
}

// fallbackDistanceWS answers a pair the stored tables could not with
// the exact bidirectional search over a caller-owned workspace (the
// batch engine reuses one across a whole target list) under lim,
// adding the search and its expansions to c. On an early outcome the
// distance is the search's best-known upper bound (NoDist if none) and
// the method is MethodBudgetBound or MethodNone.
func (o *Oracle) fallbackDistanceWS(s, t uint32, c *Cost, ws *traverse.Workspace, lim traverse.Limits) (uint32, Method, traverse.Outcome) {
	var d uint32
	var out traverse.Outcome
	if o.g.Weighted() {
		d, out = ws.BiDijkstraDistLim(s, t, lim)
	} else {
		d, out = ws.BiBFSDistLim(s, t, lim)
	}
	c.Fallbacks++
	c.Expanded += ws.Expanded()
	switch {
	case out != traverse.OutcomeDone:
		return d, boundMethod(d), out
	case d == NoDist:
		return d, MethodUnreachable, out
	default:
		return d, MethodFallbackExact, out
	}
}

// boundMethod labels the result of an early-stopped search: a found
// crossing is a usable upper bound, no crossing means no answer.
func boundMethod(d uint32) Method {
	if d == NoDist {
		return MethodNone
	}
	return MethodBudgetBound
}

// landmarkEstimate returns the triangulation upper bound
// min(r(s)+d(l(s),t), r(t)+d(l(t),s)), or NoDist if unavailable,
// adding its landmark reads to c.
func (o *Oracle) landmarkEstimate(s, t uint32, c *Cost) uint32 {
	best := NoDist
	if ls := o.nearest[s]; ls != graph.NoNode {
		if li := o.lidx[ls]; o.hasLandmarkTable(li) {
			c.Lookups++
			if d := o.landmarkDist(li, t); d != NoDist && o.radius[s] != NoDist {
				if cand := satAdd(o.radius[s], d); cand < best {
					best = cand
				}
			}
		}
	}
	if lt := o.nearest[t]; lt != graph.NoNode {
		if li := o.lidx[lt]; o.hasLandmarkTable(li) {
			c.Lookups++
			if d := o.landmarkDist(li, s); d != NoDist && o.radius[t] != NoDist {
				if cand := satAdd(o.radius[t], d); cand < best {
					best = cand
				}
			}
		}
	}
	return best
}
