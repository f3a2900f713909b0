package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"vicinity/internal/gen"
	"vicinity/internal/graph"
	"vicinity/internal/xrand"
)

// batchOptionMatrix is the option grid the batch engine must agree with
// the single-query path on: disabled tables, every other landmark
// sampling, a large α (more vicinity hits) and a small one (more
// fallbacks); checkBatchAgainstSingles crosses every row with every
// request Policy. Row indexes name subtests, so rows keep their slots:
// opts1 and opts2 held the retired build-time fallback modes, opts4
// and opts5 the retired uint16 landmark rows.
func batchOptionMatrix() []Options {
	return []Options{
		{},
		{Alpha: 8},
		{Sampling: SamplingTop},
		{DisableLandmarkTables: true},
		{Alpha: 1.5, Sampling: SamplingUniform},
		{Sampling: SamplingDegree},
		{Alpha: 1.5},
	}
}

// batchTargets assembles a target list exercising every per-target
// case: s itself, random nodes, a landmark, and an out-of-range id.
func batchTargets(r *xrand.Rand, o *Oracle, s uint32, count int) []uint32 {
	n := uint32(o.Graph().NumNodes())
	ts := []uint32{s, n + 17} // same-node and out-of-range
	if ls := o.Landmarks(); len(ls) > 0 {
		ts = append(ts, ls[int(r.Uint32n(uint32(len(ls))))])
	}
	for len(ts) < count {
		ts = append(ts, r.Uint32n(n))
	}
	return ts
}

// errString renders an error for comparison (empty for nil).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// batchPolicies is every per-request fallback policy.
var batchPolicies = []Policy{PolicyDefault, PolicyFull, PolicyEstimate, PolicyTableOnly}

// checkBatchAgainstSingles asserts the items of a one-to-many Query
// agree answer-for-answer (distance, method, path and error text) with
// single-target Queries on the same pairs, with and without WantPath,
// under every policy. The single-target path (per-pair boundary scan)
// is the reference for the batch engine (inverted scan).
func checkBatchAgainstSingles(t *testing.T, o *Oracle, s uint32, ts []uint32) {
	t.Helper()
	ctx := context.Background()
	for _, pol := range batchPolicies {
		for _, wantPath := range []bool{false, true} {
			label := fmt.Sprintf("Query(%d, policy %v, path %v)", s, pol, wantPath)
			res, err := o.Query(ctx, Request{S: s, Ts: ts, Policy: pol, WantPath: wantPath})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(res.Items) != len(ts) {
				t.Fatalf("%s: %d items for %d targets", label, len(res.Items), len(ts))
			}
			for i, tgt := range ts {
				it := res.Items[i]
				single, serr := o.Query(ctx, Request{S: s, T: tgt, Policy: pol, WantPath: wantPath})
				if it.Dist != single.Dist || it.Method != single.Method || errString(it.Err) != errString(serr) ||
					!slices.Equal(it.Path, single.Path) {
					t.Fatalf("%s[%d]=%d: got (%d, %v, %v, %q), single query says (%d, %v, %v, %q)",
						label, i, tgt, it.Dist, it.Method, it.Path, errString(it.Err),
						single.Dist, single.Method, single.Path, errString(serr))
				}
			}
		}
	}
}

// TestBatchMatchesSingleMatrix sweeps the full option matrix on a
// power-law graph and requires bit-identical agreement between the
// batch engine and the single-query path, landmark sources included.
func TestBatchMatchesSingleMatrix(t *testing.T) {
	g := socialGraph(11, 500)
	for oi, opts := range batchOptionMatrix() {
		opts.Seed = 11
		t.Run(fmt.Sprintf("opts%d", oi), func(t *testing.T) {
			o := mustBuild(t, g, opts)
			r := xrand.New(uint64(100 + oi))
			n := uint32(g.NumNodes())
			for trial := 0; trial < 8; trial++ {
				s := r.Uint32n(n)
				if trial == 0 && len(o.Landmarks()) > 0 {
					s = o.Landmarks()[0] // landmark-source batch
				}
				checkBatchAgainstSingles(t, o, s, batchTargets(r, o, s, 40))
			}
			// Out-of-range source fails the whole batch, like every
			// single query would.
			for _, wantPath := range []bool{false, true} {
				req := Request{S: n + 3, Ts: []uint32{0}, WantPath: wantPath}
				if _, err := o.Query(context.Background(), req); !errors.Is(err, ErrNodeRange) {
					t.Fatalf("out-of-range source (path %v): got %v, want ErrNodeRange", wantPath, err)
				}
			}
		})
	}
}

// TestBatchMatchesSingleProfiles runs the agreement check on the five
// cross-validation generator profiles (power-law, grid, disconnected,
// dirty input, star).
func TestBatchMatchesSingleProfiles(t *testing.T) {
	for _, prof := range crossProfiles() {
		t.Run(prof.name, func(t *testing.T) {
			g := prof.build()
			o := mustBuild(t, g, Options{Seed: 17, Workers: 2})
			r := xrand.New(2025)
			n := uint32(g.NumNodes())
			for trial := 0; trial < 6; trial++ {
				s := r.Uint32n(n)
				checkBatchAgainstSingles(t, o, s, batchTargets(r, o, s, 30))
			}
		})
	}
}

// TestBatchMatchesSingleWeighted covers the weighted regime, where
// resolved answers are upper bounds: the batch must replicate the
// per-pair answers bit for bit, including near-overflow weights that
// exercise the saturating adds.
func TestBatchMatchesSingleWeighted(t *testing.T) {
	r := xrand.New(77)
	src := gen.HolmeKim(xrand.New(71), 400, 4, 0.5)
	b := graph.NewBuilder(src.NumNodes())
	src.ForEachEdge(func(u, v, _ uint32) {
		w := 1 + r.Uint32n(9)
		if r.Uint32n(50) == 0 {
			w = 2_000_000_000 + r.Uint32n(1_000_000_000) // overflow-regime weights
		}
		b.AddWeightedEdge(u, v, w)
	})
	g := b.Build()
	o := mustBuild(t, g, Options{Seed: 5})
	rr := xrand.New(901)
	n := uint32(g.NumNodes())
	for trial := 0; trial < 8; trial++ {
		s := rr.Uint32n(n)
		checkBatchAgainstSingles(t, o, s, batchTargets(rr, o, s, 25))
	}
}

// TestBatchScoped covers per-target ErrNotCovered: a scoped build where
// some endpoints are outside Options.Nodes.
func TestBatchScoped(t *testing.T) {
	g := socialGraph(3, 300)
	scope := make([]uint32, 0, 150)
	for u := uint32(0); u < 300; u += 2 {
		scope = append(scope, u)
	}
	o := mustBuild(t, g, Options{Seed: 3, Nodes: scope})
	r := xrand.New(44)
	for trial := 0; trial < 6; trial++ {
		s := r.Uint32n(300) // covered or not, batch must mirror singles
		checkBatchAgainstSingles(t, o, s, batchTargets(r, o, s, 30))
	}
}

// TestBatchFallbackSharesWorkspace asserts the batch runs exactly one
// bidirectional search per unresolved target — never the two the old
// path slow path paid — and reports them in Cost.Fallbacks.
func TestBatchFallbackSharesWorkspace(t *testing.T) {
	o := fallbackPairOracle(t, Options{})
	ts := []uint32{90, 91, 92, 11} // three fallbacks + one vicinity hit
	ctx := context.Background()

	res, err := o.Query(ctx, Request{S: 10, Ts: ts})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Fallbacks != 3 {
		t.Fatalf("distance batch ran %d searches, want 3", res.Cost.Fallbacks)
	}
	for i, want := range []uint32{80, 81, 82, 1} {
		if res.Items[i].Dist != want {
			t.Fatalf("item %d = %d, want %d", i, res.Items[i].Dist, want)
		}
		if resolved := i == 3; res.Items[i].Method.Resolved() != resolved {
			t.Fatalf("item %d method %v, want resolved=%v", i, res.Items[i].Method, resolved)
		}
	}

	pres, err := o.Query(ctx, Request{S: 10, Ts: ts, WantPath: true})
	if err != nil {
		t.Fatal(err)
	}
	if pres.Cost.Fallbacks != 3 {
		t.Fatalf("path batch ran %d searches, want 3", pres.Cost.Fallbacks)
	}
}

// TestBatchPathLookupsMatchDistance asserts a one-to-many request
// reports the same table work with and without WantPath: path assembly
// stays outside Cost, so Cost.Lookups and Cost.Scanned must agree under
// every policy. The disconnected profile's
// other-island targets are the sharp case — under the estimate policy
// they read landmark rows yet get no estimate.
func TestBatchPathLookupsMatchDistance(t *testing.T) {
	ctx := context.Background()
	check := func(t *testing.T, o *Oracle, s uint32, ts []uint32) {
		t.Helper()
		for _, pol := range batchPolicies {
			dres, derr := o.Query(ctx, Request{S: s, Ts: ts, Policy: pol})
			pres, perr := o.Query(ctx, Request{S: s, Ts: ts, Policy: pol, WantPath: true})
			if derr != nil || perr != nil {
				t.Fatalf("policy %v: errors %v / %v", pol, derr, perr)
			}
			if dres.Cost.Lookups != pres.Cost.Lookups || dres.Cost.Scanned != pres.Cost.Scanned {
				t.Fatalf("s=%d policy %v: distance cost %+v, path cost %+v", s, pol, dres.Cost, pres.Cost)
			}
		}
	}
	t.Run("disconnected", func(t *testing.T) {
		for _, prof := range crossProfiles() {
			if prof.name == "disconnected" {
				o := mustBuild(t, prof.build(), Options{Seed: 17})
				check(t, o, 0, []uint32{220, 221, 222, 223, 224, 225, 226, 227, 229, 230})
			}
		}
	})
	t.Run("matrix", func(t *testing.T) {
		g := socialGraph(11, 500)
		for oi, opts := range batchOptionMatrix() {
			opts.Seed = 11
			o := mustBuild(t, g, opts)
			r := xrand.New(uint64(700 + oi))
			s := r.Uint32n(500)
			check(t, o, s, batchTargets(r, o, s, 40))
		}
	})
}

// TestBatchRacesApplyUpdates races batch queries against a stream of
// copy-on-write update batches (meaningful under -race). Each batch
// pins one snapshot, so its answers must agree with single queries on
// that same snapshot even while newer epochs are installed.
func TestBatchRacesApplyUpdates(t *testing.T) {
	g := socialGraph(21, 400)
	var cur atomic.Pointer[Oracle]
	cur.Store(mustBuild(t, g, Options{Seed: 21}))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := xrand.New(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := cur.Load()
				n := uint32(snap.Graph().NumNodes())
				s := r.Uint32n(400) // original nodes exist in every epoch
				ts := make([]uint32, 0, 16)
				for len(ts) < 16 {
					ts = append(ts, r.Uint32n(n))
				}
				res, err := snap.Query(context.Background(), Request{S: s, Ts: ts})
				if err != nil {
					t.Errorf("batch Query: %v", err)
					return
				}
				for i, tgt := range ts {
					d, m, err := queryDist(snap, s, tgt)
					if err != nil || res.Items[i].Dist != d || res.Items[i].Method != m {
						t.Errorf("snapshot mismatch: batch (%d,%v) vs single (%d,%v,%v)",
							res.Items[i].Dist, res.Items[i].Method, d, m, err)
						return
					}
				}
			}
		}(uint64(w) + 31)
	}

	r := xrand.New(60)
	o := cur.Load()
	for i := 0; i < 8; i++ {
		// Mixed churn: insertions, deletions, node retirements, upserts.
		next, err := o.ApplyUpdates(randomChurnBatch(r, o.Graph()))
		if err != nil {
			t.Fatal(err)
		}
		cur.Store(next)
		o = next
	}
	close(stop)
	wg.Wait()
}
