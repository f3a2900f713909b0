package core

import (
	"context"
	"math"
	"testing"

	"vicinity/internal/baseline"
	"vicinity/internal/graph"
	"vicinity/internal/u32map"
)

// These regression tests pin the saturating-add fix: summing two stored
// distances with a raw uint32 add wraps past NoDist once edge weights
// approach MaxUint32, and a wrapped candidate beats the true minimum.
// Before the fix the intersection graph below answered ~105M for a pair
// whose true distance is 4e9, and the estimate graph returned a "upper
// bound" far below the exact distance.

// overflowIntersectionGraph builds s—w—t through two ~2.2e9 edges (sum
// wraps to ~105M) plus a direct s—t edge of 4e9, with pinned landmarks
// l1, l2 placed so that the query resolves neither via vicinity
// membership nor landmark rows and the boundary scan meets at w.
//
//	s(0) —A— w(2) —B— t(1),  s —C— t,  s —A— l1(3),  t —B— l2(4)
func overflowIntersectionGraph() (*graph.Graph, Options) {
	const (
		A = 2_200_000_000
		B = 2_200_000_000
		C = 4_000_000_000
	)
	b := graph.NewBuilder(5)
	b.AddWeightedEdge(0, 2, A)
	b.AddWeightedEdge(2, 1, B)
	b.AddWeightedEdge(0, 1, C)
	b.AddWeightedEdge(0, 3, A)
	b.AddWeightedEdge(1, 4, B)
	return b.Build(), Options{Landmarks: []uint32{3, 4}}
}

func TestWeightedOverflowIntersection(t *testing.T) {
	g, opts := overflowIntersectionGraph()
	o := mustBuild(t, g, opts)

	// Sanity on the construction: the pair must reach the boundary
	// scan (not resolve via vicinities or landmark rows), so the
	// wrapped sum d(s,w)+d(w,t) is the candidate under test.
	if _, ok := o.VicinityContains(0, 1); ok {
		t.Fatal("construction broken: t ∈ Γ(s) resolves before the scan")
	}
	d, m, err := queryDist(o, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.NewDijkstra(g).Distance(0, 1)
	if want != 4_000_000_000 {
		t.Fatalf("baseline distance = %d, want the direct 4e9 edge", want)
	}
	if d != want {
		t.Fatalf("Distance(0,1) = %d via %v, want %d (raw adds wrap to %d)",
			d, m, want, uint32(105_032_704)) // (2.2e9+2.2e9) mod 2^32
	}
	if m != MethodFallbackExact {
		t.Fatalf("method %v, want fallback-exact (saturated scan must not resolve)", m)
	}
	// The path realizes the same distance through the direct edge.
	p, _, err := queryPath(o, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 || p[0] != 0 || p[1] != 1 {
		t.Fatalf("path %v, want the direct edge [0 1]", p)
	}
}

// TestWeightedOverflowUnrepresentable covers the regime where every
// s—t walk exceeds MaxUint32: saturation makes the oracle (and the
// exact fallback search) report the pair as unreachable, the only
// consistent reading of the sentinel — the old code reported the
// wrapped sum as a finite shortest distance.
func TestWeightedOverflowUnrepresentable(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddWeightedEdge(0, 2, 2_200_000_000) // s — l
	b.AddWeightedEdge(2, 1, 2_200_000_000) // l — t
	g := b.Build()
	o := mustBuild(t, g, Options{Landmarks: []uint32{2}})
	d, m, err := queryDist(o, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d != NoDist || m != MethodUnreachable {
		t.Fatalf("Distance(0,1) = %d via %v, want NoDist/unreachable (true distance 4.4e9 is unrepresentable)", d, m)
	}
}

// TestWeightedOverflowEstimate pins the landmark-triangulation sum
// r(s) + d(l(s),t): with r(s)=1e9 and d(l1,t)=3.5e9 the raw add wraps
// to ~205M, undercutting the exact distance 2.5e9 and violating the
// estimate's upper-bound contract.
func TestWeightedOverflowEstimate(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddWeightedEdge(3, 0, 1_000_000_000) // l1 — s
	b.AddWeightedEdge(0, 2, 1_300_000_000) // s — m
	b.AddWeightedEdge(2, 1, 1_200_000_000) // m — t
	b.AddWeightedEdge(1, 4, 1_000_000_000) // t — l2
	g := b.Build()
	o := mustBuild(t, g, Options{Landmarks: []uint32{3, 4}})

	exact := baseline.NewDijkstra(g).Distance(0, 1)
	if exact != 2_500_000_000 {
		t.Fatalf("baseline distance = %d, want 2.5e9", exact)
	}
	res, err := o.Query(context.Background(), Request{S: 0, T: 1, Policy: PolicyEstimate})
	if err != nil {
		t.Fatal(err)
	}
	d, m := res.Dist, res.Method
	// Both triangulation candidates saturate (1e9 + 3.5e9 > MaxUint32),
	// so no estimate is available; any finite answer below 2.5e9 would
	// be the wrapped sum.
	if d != NoDist || m != MethodNone {
		t.Fatalf("Distance(0,1) = %d via %v, want NoDist/none (wrapped estimate would be %d)",
			d, m, uint32(205_032_704)) // (1e9+3.5e9) mod 2^32
	}

	// The same pair under the default (exact) policy is fully
	// representable.
	if d, m, _ := queryDist(o, 0, 1); d != exact || m != MethodFallbackExact {
		t.Fatalf("exact fallback: %d via %v, want %d via fallback-exact", d, m, exact)
	}
}

// TestArenaCapacity pins the one capacity check build and update share:
// the word count must fit the uint32 offsets of the arena, and the
// widest coded table the 26-bit table-local data offsets of its block
// records.
func TestArenaCapacity(t *testing.T) {
	const limit = math.MaxUint32
	for _, tc := range []struct {
		words, widest uint64
		ok            bool
	}{
		{0, 0, true},
		{7_000_000, 20_000, true},
		{limit, u32map.MaxTableWords, true},
		{limit + 1, 1, false},
		{limit, u32map.MaxTableWords + 1, false},
	} {
		err := checkArenaCapacity(tc.words, tc.widest)
		if (err == nil) != tc.ok {
			t.Errorf("checkArenaCapacity(%d, %d) = %v, want ok=%v", tc.words, tc.widest, err, tc.ok)
		}
	}
}
