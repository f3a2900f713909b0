package core

import (
	"fmt"
	"sync/atomic"

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
	// MethodBudgetBound: a budgeted or canceled fallback search stopped
	// early; the distance is its best-known upper bound, not
	// necessarily exact. Only Query produces it (legacy calls never
	// limit the fallback).
	MethodBudgetBound
)

// methodCount is the number of Method values; BatchStats tallies per
// method in an array indexed by Method.
const methodCount = int(MethodBudgetBound) + 1

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

// QueryStats instruments a single query, mirroring Table 3's accounting.
type QueryStats struct {
	Method   Method
	Lookups  int    // stored-table look-ups performed (hash probes + landmark reads)
	Scanned  int    // boundary members scanned during intersection
	Expanded int    // nodes expanded by the fallback search (0 when none ran)
	Meet     uint32 // intersection witness w minimizing d(s,w)+d(w,t); NoNode otherwise
}

// Distance returns the distance from s to t and the method that resolved
// it. For unweighted graphs every non-estimate answer is exact; see the
// package comment for the weighted caveat. Node ids must be < NumNodes.
func (o *Oracle) Distance(s, t uint32) (uint32, Method, error) {
	var st QueryStats
	d, err := o.DistanceStats(s, t, &st)
	return d, st.Method, err
}

// satAdd sums two stored distances, saturating at NoDist (see
// traverse.SatAdd): a raw uint32 add can wrap past the sentinel on
// large weighted distances, and a wrapped candidate would beat the
// true minimum.
func satAdd(a, b uint32) uint32 { return traverse.SatAdd(a, b) }

// DistanceStats is Distance with per-query instrumentation written to st
// (st must be non-nil).
func (o *Oracle) DistanceStats(s, t uint32, st *QueryStats) (uint32, error) {
	d, resolved, err := o.tableDistance(s, t, st)
	if err != nil || resolved {
		return d, err
	}
	return o.fallbackDistance(s, t, st)
}

// tableDistance runs Algorithm 1 over the stored tables only. resolved
// reports whether the tables decided the query (including s == t and
// exact unreachability read off a landmark row); when it is false the
// caller owns the fallback. Splitting the fallback out lets Path and
// the batch engine resolve from tables first and run at most one slow
// search per pair — Path previously ran the bidirectional search twice,
// once for the distance and once more for the path.
func (o *Oracle) tableDistance(s, t uint32, st *QueryStats) (uint32, bool, error) {
	n := o.g.NumNodes()
	if int(s) >= n || int(t) >= n {
		return NoDist, false, errRange(n)
	}
	*st = QueryStats{Method: MethodNone, Meet: graph.NoNode}
	if s == t {
		st.Method = MethodSame
		return 0, true, nil
	}

	// Algorithm 1 line 3: the four direct cases.
	if o.isL[s] {
		if li := o.lidx[s]; o.hasLandmarkTable(li) {
			st.Lookups++
			st.Method = MethodLandmarkSource
			d := o.landmarkDist(li, t)
			if d == NoDist {
				st.Method = MethodUnreachable
			}
			return d, true, nil
		}
	}
	if o.isL[t] {
		if li := o.lidx[t]; o.hasLandmarkTable(li) {
			st.Lookups++
			st.Method = MethodLandmarkTarget
			d := o.landmarkDist(li, s)
			if d == NoDist {
				st.Method = MethodUnreachable
			}
			return d, true, nil
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
		return NoDist, false, errNotCovered(s)
	}
	if !okT && !o.isL[t] {
		return NoDist, false, errNotCovered(t)
	}
	if okS {
		st.Lookups++
		if d, ok := vs.Get(t); ok {
			st.Method = MethodVicinitySource
			return d, true, nil
		}
	}
	var vt u32map.Flat
	if okT {
		vt = o.vicFlat[t]
		st.Lookups++
		if d, ok := vt.Get(s); ok {
			st.Method = MethodVicinityTarget
			return d, true, nil
		}
	}

	// Algorithm 1 lines 5-9: scan ∂Γ(s), probing Γ(t). Lemma 1 makes
	// boundary-only scanning sufficient.
	if okS && okT {
		scanKeys, scanDist := o.boundary(s)
		best := NoDist
		meet := graph.NoNode
		for i, w := range scanKeys {
			if dw, ok := vt.Get(w); ok {
				if cand := satAdd(scanDist[i], dw); cand < best {
					best = cand
					meet = w
				}
			}
		}
		st.Lookups += len(scanKeys)
		st.Scanned += len(scanKeys)
		if best != NoDist {
			st.Method = MethodIntersection
			st.Meet = meet
			return best, true, nil
		}
	}

	return NoDist, false, nil
}

// fallbackSearches counts the bidirectional searches run by the slow
// path, across every oracle in the process. Diagnostic only: tests use
// the delta to prove one logical query runs at most one search.
var fallbackSearches atomic.Int64

// fallbackDistance resolves a query the stored tables could not.
func (o *Oracle) fallbackDistance(s, t uint32, st *QueryStats) (uint32, error) {
	if o.opts.Fallback == FallbackExact {
		ws := o.workspace()
		d, _, _ := o.fallbackDistanceWS(s, t, st, ws, o.opts.Fallback, traverse.Limits{})
		o.release(ws)
		return d, nil
	}
	d, _, _ := o.fallbackDistanceWS(s, t, st, nil, o.opts.Fallback, traverse.Limits{})
	return d, nil
}

// fallbackDistanceWS resolves an unresolved query under the given
// fallback mode over a caller-owned search workspace (required for
// FallbackExact, ignored otherwise), letting the batch engine reuse one
// workspace across a whole target list. searched reports whether a
// bidirectional search actually ran; out is its outcome under lim (the
// legacy calls pass no limits, so they always see OutcomeDone). On an
// early outcome the distance is the search's best-known upper bound
// (NoDist if none) and st.Method is MethodBudgetBound or MethodNone.
func (o *Oracle) fallbackDistanceWS(s, t uint32, st *QueryStats, ws *traverse.Workspace, fb Fallback, lim traverse.Limits) (uint32, bool, traverse.Outcome) {
	switch fb {
	case FallbackExact:
		fallbackSearches.Add(1)
		var d uint32
		var out traverse.Outcome
		if o.g.Weighted() {
			d, out = ws.BiDijkstraDistLim(s, t, lim)
		} else {
			d, out = ws.BiBFSDistLim(s, t, lim)
		}
		st.Expanded += ws.Expanded()
		switch {
		case out != traverse.OutcomeDone:
			st.Method = boundMethod(d)
		case d == NoDist:
			st.Method = MethodUnreachable
		default:
			st.Method = MethodFallbackExact
		}
		return d, true, out
	case FallbackEstimate:
		d := o.landmarkEstimate(s, t, st)
		if d != NoDist {
			st.Method = MethodFallbackEstimate
		}
		return d, false, traverse.OutcomeDone
	default:
		return NoDist, false, traverse.OutcomeDone // MethodNone
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
// min(r(s)+d(l(s),t), r(t)+d(l(t),s)), or NoDist if unavailable.
func (o *Oracle) landmarkEstimate(s, t uint32, st *QueryStats) uint32 {
	best := NoDist
	if ls := o.nearest[s]; ls != graph.NoNode {
		if li := o.lidx[ls]; o.hasLandmarkTable(li) {
			st.Lookups++
			if d := o.landmarkDist(li, t); d != NoDist && o.radius[s] != NoDist {
				if cand := satAdd(o.radius[s], d); cand < best {
					best = cand
				}
			}
		}
	}
	if lt := o.nearest[t]; lt != graph.NoNode {
		if li := o.lidx[lt]; o.hasLandmarkTable(li) {
			st.Lookups++
			if d := o.landmarkDist(li, s); d != NoDist && o.radius[t] != NoDist {
				if cand := satAdd(o.radius[t], d); cand < best {
					best = cand
				}
			}
		}
	}
	return best
}
