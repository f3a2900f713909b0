package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"vicinity/internal/gen"
	"vicinity/internal/graph"
	"vicinity/internal/xrand"
)

// batchOptionMatrix is the option grid the batch engine must agree with
// the single-query path on: every fallback mode, disabled tables/path
// data, compact rows, and a small α (more fallbacks).
func batchOptionMatrix() []Options {
	return []Options{
		{},
		{Fallback: FallbackEstimate},
		{Fallback: FallbackNone},
		{DisableLandmarkTables: true},
		{DisablePathData: true},
		{CompactLandmarkTables: true},
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

// checkBatchAgainstSingles asserts DistanceMany and PathMany agree
// answer-for-answer (distance, method, path, and error text) with the
// per-pair calls on the same oracle.
func checkBatchAgainstSingles(t *testing.T, o *Oracle, s uint32, ts []uint32) {
	t.Helper()
	res, err := o.DistanceMany(s, ts)
	if err != nil {
		t.Fatalf("DistanceMany(%d): %v", s, err)
	}
	if len(res) != len(ts) {
		t.Fatalf("DistanceMany returned %d results for %d targets", len(res), len(ts))
	}
	for i, tgt := range ts {
		d, m, serr := o.Distance(s, tgt)
		if res[i].Dist != d || res[i].Method != m || errString(res[i].Err) != errString(serr) {
			t.Fatalf("DistanceMany(%d)[%d]=%d: got (%d, %v, %q), single query says (%d, %v, %q)",
				s, i, tgt, res[i].Dist, res[i].Method, errString(res[i].Err), d, m, errString(serr))
		}
	}
	paths, err := o.PathMany(s, ts)
	if err != nil {
		t.Fatalf("PathMany(%d): %v", s, err)
	}
	for i, tgt := range ts {
		p, m, serr := o.Path(s, tgt)
		if paths[i].Method != m || errString(paths[i].Err) != errString(serr) {
			t.Fatalf("PathMany(%d)[%d]=%d: method/err (%v, %q), single says (%v, %q)",
				s, i, tgt, paths[i].Method, errString(paths[i].Err), m, errString(serr))
		}
		if len(paths[i].Path) != len(p) {
			t.Fatalf("PathMany(%d)[%d]=%d: path %v, single says %v", s, i, tgt, paths[i].Path, p)
		}
		for j := range p {
			if paths[i].Path[j] != p[j] {
				t.Fatalf("PathMany(%d)[%d]=%d: path %v, single says %v", s, i, tgt, paths[i].Path, p)
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
			if _, err := o.DistanceMany(n+3, []uint32{0}); err == nil {
				t.Fatal("out-of-range source accepted")
			}
			if _, err := o.PathMany(n+3, []uint32{0}); err == nil {
				t.Fatal("out-of-range source accepted by PathMany")
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
// Path slow path paid — and reports them in BatchStats.
func TestBatchFallbackSharesWorkspace(t *testing.T) {
	o := fallbackPairOracle(t, Options{})
	ts := []uint32{90, 91, 92, 11} // three fallbacks + one vicinity hit

	before := fallbackSearches.Load()
	var bst BatchStats
	res, err := o.DistanceManyStats(10, ts, &bst)
	if err != nil {
		t.Fatal(err)
	}
	if got := fallbackSearches.Load() - before; got != 3 {
		t.Fatalf("DistanceMany ran %d searches, want 3", got)
	}
	if bst.Fallbacks != 3 || bst.Targets != 4 || bst.Resolved != 1 {
		t.Fatalf("stats = %+v", bst)
	}
	for i, want := range []uint32{80, 81, 82, 1} {
		if res[i].Dist != want {
			t.Fatalf("res[%d] = %d, want %d", i, res[i].Dist, want)
		}
	}

	before = fallbackSearches.Load()
	if _, err := o.PathMany(10, ts); err != nil {
		t.Fatal(err)
	}
	if got := fallbackSearches.Load() - before; got != 3 {
		t.Fatalf("PathMany ran %d searches, want 3", got)
	}
}

// TestBatchStatsAccounting sanity-checks the aggregate: per-method
// tallies plus errors must cover every target.
func TestBatchStatsAccounting(t *testing.T) {
	g := socialGraph(9, 400)
	o := mustBuild(t, g, Options{Seed: 9})
	r := xrand.New(12)
	var bst BatchStats
	s := r.Uint32n(400)
	ts := batchTargets(r, o, s, 60)
	if _, err := o.DistanceManyStats(s, ts, &bst); err != nil {
		t.Fatal(err)
	}
	sum := bst.Errors
	for _, c := range bst.Methods {
		sum += c
	}
	if sum != bst.Targets || bst.Targets != len(ts) {
		t.Fatalf("method tallies + errors = %d, want %d targets (%+v)", sum, bst.Targets, bst)
	}
	if bst.String() == "" {
		t.Fatal("empty stats string")
	}

	// PathManyStats on a distance-only oracle: every table-resolved
	// target re-resolves through the fallback (stored chains are
	// disabled), and the tallies must follow the final methods — the
	// histogram agrees with the returned methods and still covers every
	// target exactly once.
	od := mustBuild(t, g, Options{Seed: 9, DisablePathData: true})
	var pst BatchStats
	paths, err := od.PathManyStats(s, ts, &pst)
	if err != nil {
		t.Fatal(err)
	}
	var fromResults [methodCount]int
	errs := 0
	for _, pr := range paths {
		if pr.Err != nil {
			errs++
			continue
		}
		fromResults[pr.Method]++
	}
	if fromResults != pst.Methods || errs != pst.Errors {
		t.Fatalf("PathManyStats histogram %v (errors %d) disagrees with results %v (errors %d)",
			pst.Methods, pst.Errors, fromResults, errs)
	}
	sum = pst.Errors
	for _, c := range pst.Methods {
		sum += c
	}
	if sum != pst.Targets {
		t.Fatalf("path tallies + errors = %d, want %d targets (%+v)", sum, pst.Targets, pst)
	}
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
				res, err := snap.DistanceMany(s, ts)
				if err != nil {
					t.Errorf("DistanceMany: %v", err)
					return
				}
				for i, tgt := range ts {
					d, m, err := snap.Distance(s, tgt)
					if err != nil || res[i].Dist != d || res[i].Method != m {
						t.Errorf("snapshot mismatch: batch (%d,%v) vs single (%d,%v,%v)",
							res[i].Dist, res[i].Method, d, m, err)
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
