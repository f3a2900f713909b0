package core

import (
	"context"
	"testing"

	"vicinity/internal/gen"
)

// fallbackPairOracle builds a long path graph with landmarks pinned at
// the ends, so the pair (10, 90) has small disjoint vicinities whose
// boundaries miss: the query can only resolve through the fallback.
func fallbackPairOracle(t *testing.T, opts Options) *Oracle {
	t.Helper()
	g := gen.Path(100)
	opts.Landmarks = []uint32{0, 99}
	o := mustBuild(t, g, opts)
	_, m, _, err := o.tableDistance(10, 90, &Cost{})
	if err != nil {
		t.Fatal(err)
	}
	if m != MethodNone {
		t.Fatal("construction broken: (10,90) resolves from the tables")
	}
	return o
}

// TestPathFallbackRunsOneSearch pins the double-search fix: a path
// query used to run the bidirectional search once for the distance and
// a second time for the path. One logical query must cost exactly one
// search.
func TestPathFallbackRunsOneSearch(t *testing.T) {
	o := fallbackPairOracle(t, Options{})
	ctx := context.Background()

	res, err := o.Query(ctx, Request{S: 10, T: 90, WantPath: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Fallbacks != 1 {
		t.Fatalf("path query ran %d fallback searches, want exactly 1", res.Cost.Fallbacks)
	}
	if p := res.Path; res.Method != MethodFallbackExact || len(p) != 81 || p[0] != 10 || p[80] != 90 {
		t.Fatalf("path = %d nodes via %v, want the 80-hop chain via fallback-exact", len(p), res.Method)
	}

	res, err = o.Query(ctx, Request{S: 10, T: 90})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Fallbacks != 1 {
		t.Fatalf("distance query ran %d fallback searches, want exactly 1", res.Cost.Fallbacks)
	}
	if res.Dist != 80 || res.Method != MethodFallbackExact {
		t.Fatalf("distance = %d via %v, want 80 via fallback-exact", res.Dist, res.Method)
	}
}

// TestPathFallbackDisabledRunsNoSearch checks the other side of the
// restructure: under PolicyTableOnly the unresolved pair must not
// trigger any search at all, with or without a path.
func TestPathFallbackDisabledRunsNoSearch(t *testing.T) {
	o := fallbackPairOracle(t, Options{})
	ctx := context.Background()
	res, err := o.Query(ctx, Request{S: 10, T: 90, WantPath: true, Policy: PolicyTableOnly})
	if err != nil || res.Path != nil || res.Method != MethodNone {
		t.Fatalf("path = %v via %v (err %v), want nil/none", res.Path, res.Method, err)
	}
	if res.Cost.Fallbacks != 0 {
		t.Fatalf("path query ran %d fallback searches under PolicyTableOnly", res.Cost.Fallbacks)
	}
	res, err = o.Query(ctx, Request{S: 10, T: 90, Policy: PolicyTableOnly})
	if err != nil || res.Dist != NoDist || res.Method != MethodNone {
		t.Fatalf("distance = %d via %v (err %v), want NoDist/none", res.Dist, res.Method, err)
	}
	if res.Cost.Fallbacks != 0 {
		t.Fatalf("distance query ran %d fallback searches under PolicyTableOnly", res.Cost.Fallbacks)
	}
}

// TestPathEstimateFallbackRunsNoSearch: PolicyEstimate answers from
// landmark rows and stitches the estimate path from stored chains; no
// bidirectional search may run.
func TestPathEstimateFallbackRunsNoSearch(t *testing.T) {
	o := fallbackPairOracle(t, Options{})
	ctx := context.Background()
	res, err := o.Query(ctx, Request{S: 10, T: 90, Policy: PolicyEstimate})
	if err != nil {
		t.Fatal(err)
	}
	// est = min(r(10)+d(l(10),90), r(90)+d(l(90),10)) = min(10+90, 9+89) = 98.
	if res.Method != MethodFallbackEstimate || res.Dist != 98 {
		t.Fatalf("distance = %d via %v, want 98 via fallback-estimate", res.Dist, res.Method)
	}
	if res.Cost.Fallbacks != 0 {
		t.Fatalf("distance query ran %d fallback searches in estimate mode", res.Cost.Fallbacks)
	}
	res, err = o.Query(ctx, Request{S: 10, T: 90, WantPath: true, Policy: PolicyEstimate})
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Path; res.Method != MethodFallbackEstimate || len(p) == 0 || p[0] != 10 || p[len(p)-1] != 90 {
		t.Fatalf("estimate path = %v via %v", p, res.Method)
	}
	if res.Cost.Fallbacks != 0 {
		t.Fatalf("path query ran %d fallback searches in estimate mode", res.Cost.Fallbacks)
	}
}
