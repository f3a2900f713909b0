// Package core implements the paper's contribution: a point-to-point
// shortest-path oracle for social networks based on vicinity
// intersection (Agarwal, Caesar, Godfrey, Zhao — "Shortest Paths in Less
// Than a Millisecond", WOSN'12).
//
// # Offline phase
//
// A landmark set L is sampled with probability increasing in node degree
// (§2.2). For every node u, the ball B(u) is the set of nodes strictly
// closer to u than u's nearest landmark l(u), and the vicinity
// Γ(u) = B(u) ∪ N(B(u)) (Definition 1); for unweighted graphs this is
// exactly the closed ball of radius d(u, l(u)). The oracle stores, per
// node, a table mapping each vicinity member to its exact distance,
// with the boundary members ∂Γ(u) last: on unweighted graphs all of the
// last BFS level, on weighted graphs the members with a neighbor
// outside Γ(u). Unweighted tables keep their members in BFS level
// order, so a member's distance is implied by the level it sits in,
// and each sorted run is block-coded (u32map). Landmarks store a full
// distance table over all nodes, four bits per node when the distances
// fit.
// Nothing else is stored: a path's next hop is the first neighbor, in
// adjacency order, one step closer by the stored distances (§3.1).
//
// # Online phase (Algorithm 1)
//
// query(s,t) returns a stored distance when s ∈ L, t ∈ L, t ∈ Γ(s) or
// s ∈ Γ(t); otherwise it scans ∂Γ(s), probing Γ(t) for each member and
// minimizing d(s,w) + d(w,t). Theorem 1 guarantees the minimum is exact
// whenever the vicinities intersect; Lemma 1 justifies scanning only the
// boundary. A pair the tables leave undecided gets what its request's
// Policy selects: by default the exact bidirectional search of the
// paper's footnote 1, or the landmark estimate, or no answer.
//
// # Exactness
//
// For unweighted graphs every resolved answer is the exact shortest
// distance (Theorem 1, property-tested in this package). For weighted
// graphs the oracle stores exact in-vicinity distances but a resolved
// intersection answer is in general an upper bound: a shortest path may
// cross the gap between two vicinities through a heavy edge without any
// of its vertices lying in both vicinities. The paper evaluates
// unweighted social networks only and asserts the weighted extension in
// passing; this implementation documents the distinction honestly and
// reports measured exactness in its benchmarks.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"

	"vicinity/internal/graph"
)

// Sampling selects the landmark sampling strategy.
type Sampling int

const (
	// SamplingPaper is the paper's §2.2 formula: node u is sampled with
	// probability min(1, m/(α·n·√n) · sqrt((2n/m)·deg(u))), i.e.
	// proportional to the square root of its degree, calibrated so that
	// E[|L|] ≈ 2m/(α√n) and E[|Γ(u)|] ≈ α√n.
	SamplingPaper Sampling = iota
	// SamplingUniform samples every node with the same probability,
	// calibrated to the same expected |L| as SamplingPaper (ablation A2).
	SamplingUniform
	// SamplingDegree samples proportionally to degree, same expected |L|
	// (ablation A2).
	SamplingDegree
	// SamplingTop deterministically picks the round(E[|L|]) highest-degree
	// nodes (ablation A2).
	SamplingTop
)

// String returns the strategy name.
func (s Sampling) String() string {
	switch s {
	case SamplingPaper:
		return "paper-sqrt-degree"
	case SamplingUniform:
		return "uniform"
	case SamplingDegree:
		return "degree"
	case SamplingTop:
		return "top-degree"
	default:
		return fmt.Sprintf("Sampling(%d)", int(s))
	}
}

// Options configures Build. The zero value gives the paper's defaults:
// α = 4, √degree sampling, full coverage and landmark tables enabled.
// What a pair the tables miss gets is not a build option: each
// request's Policy chooses it. Vicinities are always stored as runs
// sorted by node id, and ∂Γ(s) is intersected with Γ(t) as Algorithm 1
// is written.
type Options struct {
	// Alpha controls vicinity size (E[|Γ|] ≈ Alpha·√n). The paper's
	// recommended operating point is 4 (§2.4). <= 0 selects 4.
	Alpha float64

	// Sampling is the landmark sampling strategy.
	Sampling Sampling

	// Seed makes landmark sampling deterministic.
	Seed uint64

	// Workers bounds build parallelism; <= 0 selects GOMAXPROCS.
	Workers int

	// Nodes restricts vicinity construction to the given nodes (the
	// paper's own evaluation builds vicinities for 1000 sampled nodes per
	// dataset). Treated as a set: Build sorts and deduplicates a copy,
	// so the built oracle does not depend on the given order. nil builds
	// every node. Queries between uncovered nodes return ErrNotCovered.
	Nodes []uint32

	// DisableLandmarkTables skips the per-landmark full distance tables.
	// Saves |L|·n entries; landmark-hit queries then resolve through
	// vicinities or fallback. Used by the Figure 2 harnesses. Built rows
	// take the width their data needs: four bits per node when every
	// distance fits in 14 (all social-network hop distances), four
	// bytes otherwise — the paper's §5 "reduce the memory requirements"
	// question, answered without an option.
	DisableLandmarkTables bool

	// Landmarks, when non-nil, bypasses sampling and uses exactly this
	// landmark set (deduplicated, any order). Advanced: used to rebuild
	// an oracle with a previous build's landmarks — e.g. to compare an
	// incrementally updated oracle against a from-scratch build, or to
	// pin landmarks across dataset refreshes. The set should roughly
	// match the paper's E[|L|] ≈ 2m/(α√n) for the usual size/latency
	// trade-off to hold.
	Landmarks []uint32
}

// withDefaults normalizes opts and validates it against g.
func (o Options) withDefaults(g *graph.Graph) (Options, error) {
	if o.Alpha <= 0 {
		o.Alpha = 4
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if g == nil {
		return o, errors.New("core: nil graph")
	}
	switch o.Sampling {
	case SamplingPaper, SamplingUniform, SamplingDegree, SamplingTop:
	default:
		return o, fmt.Errorf("core: unknown sampling strategy %d", int(o.Sampling))
	}
	n := g.NumNodes()
	for _, u := range o.Nodes {
		if int(u) >= n {
			return o, fmt.Errorf("core: scope node %d out of range [0,%d)", u, n)
		}
	}
	if o.Nodes != nil {
		// Normalize the scope to a sorted set (copy; never mutate the
		// caller's slice). A duplicate id would be computed twice and
		// installed twice, leaving a dead table in the arena; a canonical
		// order also makes the built oracle, whose arena follows the
		// scope order, independent of how the caller happened to order
		// the scope.
		nodes := append([]uint32(nil), o.Nodes...)
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		out := nodes[:0]
		for i, u := range nodes {
			if i == 0 || nodes[i-1] != u {
				out = append(out, u)
			}
		}
		o.Nodes = out
	}
	if o.Landmarks != nil && len(o.Landmarks) == 0 {
		return o, errors.New("core: explicit landmark set is empty")
	}
	for _, l := range o.Landmarks {
		if int(l) >= n {
			return o, fmt.Errorf("core: landmark %d out of range [0,%d)", l, n)
		}
	}
	if g.Weighted() {
		zero := false
		g.ForEachEdge(func(u, v, w uint32) {
			if w == 0 {
				zero = true
			}
		})
		if zero {
			return o, errors.New("core: zero-weight edges are not supported (strict ball definition requires positive weights)")
		}
	}
	return o, nil
}
