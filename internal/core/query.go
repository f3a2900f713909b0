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
	if n := o.g.NumNodes(); int(s) >= n {
		return NoDist, MethodNone, graph.NoNode, errRange(n)
	}
	d, m, route, err := o.directCases(s, t, c)
	if route != tgtScan {
		return d, m, graph.NoNode, err
	}

	// Algorithm 1 lines 5-9: intersect ∂Γ(s) with Γ(t). Lemma 1 makes
	// boundary-only scanning sufficient.
	d, meet := o.scanBoundary(s, t, c)
	if d != NoDist {
		return d, MethodIntersection, meet, nil
	}
	return NoDist, MethodNone, graph.NoNode, nil
}

// scanBoundary returns min over w ∈ ∂Γ(s) ∩ Γ(t) of d(s,w) + d(t,w) and
// its witness w, the smallest id among the minimizers (NoDist and
// graph.NoNode when the two share no member), by walking the sorted
// boundary against Γ(t)'s sorted runs (u32map.Meet).
//
// On an unweighted graph every boundary member lies at d(s,w) = r_s, so
// the answer is r_s plus the first level of Γ(t) that meets ∂Γ(s): the
// levels are intersected in ascending order and the first meeting stops
// the scan. Level 0 is t itself, which the direct cases have shown is
// not in Γ(s), and is not a stored run, so the scan starts at level 1.
// A weighted table's two runs are each walked in full.
func (o *Oracle) scanBoundary(s, t uint32, c *Cost) (best, meet uint32) {
	vt := o.vicFlat[t]
	scan, scanDists := o.boundary(s)
	var m u32map.Meet
	if vt.Leveled() {
		for k := 0; k < vt.Runs(); k++ {
			level, _ := vt.Run(k)
			c.Lookups++
			m.Runs(scan, level)
			i, j, ok := m.Next()
			c.Scanned += scanned(i, j, ok)
			if ok {
				return satAdd(o.radius[s], uint32(k)+1), m.Key()
			}
		}
		return NoDist, graph.NoNode
	}
	best, meet = NoDist, graph.NoNode
	for k := 0; k < vt.Runs(); k++ {
		run, dists := vt.Run(k)
		c.Lookups++
		m.Runs(scan, run)
		for {
			i, j, ok := m.Next()
			if !ok {
				c.Scanned += scanned(i, j, ok)
				break
			}
			w := m.Key()
			if cand := satAdd(scanDists[i], dists[j]); cand < best || cand == best && cand != NoDist && w < meet {
				best, meet = cand, w
			}
		}
	}
	return best, meet
}

// scanned is what a walk that stopped at positions i, j (Meet.Next)
// adds to Cost.Scanned: every key of both runs at or below where it
// stopped, the meeting pair included when it stopped at one. That is
// what a merge of the two runs steps over, whether the walk decoded
// those keys or skipped their blocks by their heads, so Scanned does
// not depend on the coding. The caller counts the look-up of the run it
// opened.
func scanned(i, j int, ok bool) int {
	if ok {
		return i + j + 2
	}
	return i + j
}

// Routes of a pair after Algorithm 1's direct cases (directCases).
const (
	tgtDone uint8 = iota // answered (or errored) by the direct cases
	tgtScan              // undecided: the boundary scan
	tgtPend              // undecided, no scan possible: straight to the fallback
)

// directCases runs Algorithm 1's direct cases for target t of source
// s, in one fixed order: the range check on t, s == t, s's landmark
// row then t's, coverage of s then of t, the Γ(s) probe then the Γ(t)
// probe. It is the only place a pair is decided from the stored tables
// without a scan: the single-target path (tableDistance) and the batch
// classification pass (tableMany) both call it, so the two cannot
// diverge. The caller's range check on s comes first.
//
// A decided pair returns its distance and method, or an error, with
// route tgtDone. An undecided pair returns NoDist, MethodNone and the
// route its remaining work takes: tgtScan for the boundary scan, or
// tgtPend straight to the fallback when no scan is possible (a
// landmark endpoint without tables). Look-ups are added to c.
//
// The work per call is a probe or two, so the call itself must stay
// cheap. Both views are probed in place, and only once the landmark
// rows have not decided the pair: a landmark hit touches neither view,
// coverage reads only a view's length, and t's view is probed only
// after the Γ(s) probe misses. The answer comes back as scalars: as a
// returned ItemResult it went through the stack, and a single-target
// query decided here took about a third longer.
func (o *Oracle) directCases(s, t uint32, c *Cost) (uint32, Method, uint8, error) {
	n := o.g.NumNodes()
	if int(t) >= n {
		return NoDist, MethodNone, tgtDone, errRange(n)
	}
	if s == t {
		return 0, MethodSame, tgtDone, nil
	}

	// Algorithm 1 line 3: the four direct cases.
	if li := o.lidx[s]; o.hasLandmarkTable(li) {
		d, m := o.landmarkRowCase(li, t, MethodLandmarkSource, c)
		return d, m, tgtDone, nil
	}
	if li := o.lidx[t]; o.hasLandmarkTable(li) {
		d, m := o.landmarkRowCase(li, s, MethodLandmarkTarget, c)
		return d, m, tgtDone, nil
	}
	okS := !o.vicFlat[s].Empty()
	okT := !o.vicFlat[t].Empty()
	if !okS && o.lidx[s] < 0 {
		return NoDist, MethodNone, tgtDone, errNotCovered(s)
	}
	if !okT && o.lidx[t] < 0 {
		return NoDist, MethodNone, tgtDone, errNotCovered(t)
	}
	if okS {
		c.Lookups++
		if d, ok := o.vicFlat[s].Get(t); ok {
			return d, MethodVicinitySource, tgtDone, nil
		}
	}
	if okT {
		c.Lookups++
		if d, ok := o.vicFlat[t].Get(s); ok {
			return d, MethodVicinityTarget, tgtDone, nil
		}
	}
	if okS && okT {
		return NoDist, MethodNone, tgtScan, nil
	}
	return NoDist, MethodNone, tgtPend, nil
}

// landmarkRowCase answers a pair off landmark li's row at v: the
// distance under method m, or exact unreachability.
func (o *Oracle) landmarkRowCase(li int32, v uint32, m Method, c *Cost) (uint32, Method) {
	c.Lookups++
	d := o.landmarkDist(li, v)
	if d == NoDist {
		return NoDist, MethodUnreachable
	}
	return d, m
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
