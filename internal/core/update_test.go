package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"vicinity/internal/graph"
	"vicinity/internal/traverse"
	"vicinity/internal/xrand"
)

// randomBatch draws a plausible growth batch against a graph of n
// nodes: a few random new edges (some duplicates and self-loops to
// exercise dedup) and occasionally new nodes wired into the graph.
func randomBatch(r *xrand.Rand, n int) Update {
	var u Update
	if r.Uint32n(4) == 0 {
		u.AddNodes = int(r.Uint32n(3))
	}
	total := uint32(n + u.AddNodes)
	edges := int(1 + r.Uint32n(6))
	for i := 0; i < edges; i++ {
		u.Edges = append(u.Edges, [2]uint32{r.Uint32n(total), r.Uint32n(total)})
	}
	// Wire each added node at least once so it usually joins a component.
	for a := uint32(n); a < total; a++ {
		u.Edges = append(u.Edges, [2]uint32{a, r.Uint32n(uint32(n))})
	}
	return u
}

// assertSameStructure checks that an updated oracle is structurally
// identical to `want` (a fresh build on the same graph with the same
// landmark set): radii, nearest landmarks, vicinity entries in order
// (so level starts and boundary tails too), boundary sizes, and
// landmark distance tables with their forms. Nothing else is stored, so with equal structure the two
// oracles derive the same paths.
func assertSameStructure(t *testing.T, got, want *Oracle) {
	t.Helper()
	n := len(want.radius)
	if len(got.radius) != n {
		t.Fatalf("node count: %d vs %d", len(got.radius), n)
	}
	if got.covered != want.covered {
		t.Fatalf("covered: %d vs %d", got.covered, want.covered)
	}
	if len(got.landmarks) != len(want.landmarks) {
		t.Fatalf("landmark count: %d vs %d", len(got.landmarks), len(want.landmarks))
	}
	for i := range want.landmarks {
		if got.landmarks[i] != want.landmarks[i] {
			t.Fatalf("landmark %d: %d vs %d", i, got.landmarks[i], want.landmarks[i])
		}
	}
	for u := uint32(0); int(u) < n; u++ {
		if got.radius[u] != want.radius[u] || got.nearest[u] != want.nearest[u] {
			t.Fatalf("node %d: radius/nearest %d/%d vs %d/%d",
				u, got.radius[u], got.nearest[u], want.radius[u], want.nearest[u])
		}
		gv, gok := got.vicinity(u)
		wv, wok := want.vicinity(u)
		if gok != wok || gv.Len() != wv.Len() {
			t.Fatalf("node %d: vicinity %v/%d vs %v/%d", u, gok, gv.Len(), wok, wv.Len())
		}
		if wok {
			gk, gd := tableEntries(gv)
			wk, wd := tableEntries(wv)
			if !slices.Equal(gk, wk) || !slices.Equal(gd, wd) {
				t.Fatalf("node %d: entries %v/%v, want %v/%v", u, gk, gd, wk, wd)
			}
		}
		gb, gbd := boundaryKeys(got, u)
		wb, wbd := boundaryKeys(want, u)
		if !slices.Equal(gb, wb) || !slices.Equal(gbd, wbd) {
			t.Fatalf("node %d: boundary %v/%v, want %v/%v", u, gb, gbd, wb, wbd)
		}
	}
	for li := range want.lpos {
		if (got.lpos[li] >= 0) != (want.lpos[li] >= 0) {
			t.Fatalf("landmark %d: table presence differs", li)
		}
		if want.lpos[li] < 0 {
			continue
		}
		gr, wr := &got.lrows[got.lpos[li]], &want.lrows[want.lpos[li]]
		if gr.rowForm != wr.rowForm || !slices.Equal(gr.xnode, wr.xnode) || !slices.Equal(gr.xdist, wr.xdist) {
			t.Fatalf("landmark %d: row form %+v with exceptions %v/%v, want %+v with %v/%v",
				li, gr.rowForm, gr.xnode, gr.xdist, wr.rowForm, wr.xnode, wr.xdist)
		}
		for v := uint32(0); int(v) < n; v++ {
			if g, w := got.landmarkDist(int32(li), v), want.landmarkDist(int32(li), v); g != w {
				t.Fatalf("landmark %d: d(·,%d) = %d, want %d", li, v, g, w)
			}
		}
	}
}

// freshTwin rebuilds from scratch on o's current graph with o's exact
// landmark set — the from-scratch reference an updated oracle must
// structurally match. The rebuild runs both sequentially and with 4
// workers and asserts the two are byte-identical on the wire, so every
// update test also re-verifies parallel-build determinism on the graphs
// the update path produces.
func freshTwin(t *testing.T, o *Oracle) *Oracle {
	t.Helper()
	opts := o.Options()
	opts.Landmarks = o.Landmarks()
	opts.Workers = 1
	seq := mustBuild(t, o.Graph(), opts)
	opts.Workers = 4
	par := mustBuild(t, o.Graph(), opts)
	if !bytes.Equal(oracleBytes(t, seq), oracleBytes(t, par)) {
		t.Fatal("parallel rebuild differs from sequential rebuild")
	}
	return par
}

// TestUpdateMatchesFreshBuild is the central dynamic-update property:
// after a sequence of random batches, the oracle is structurally
// identical to a from-scratch build on the mutated graph with the same
// landmarks, answers every sampled query the same (paths included), and
// agrees with BFS ground truth.
func TestUpdateMatchesFreshBuild(t *testing.T) {
	t.Run("hash", func(t *testing.T) {
		r := xrand.New(1000)
		g := socialGraph(11, 300)
		o := mustBuild(t, g, Options{Seed: 7})
		for step := 0; step < 8; step++ {
			next, err := o.ApplyUpdates(randomBatch(r, o.Graph().NumNodes()))
			if err != nil {
				t.Fatalf("step %d: ApplyUpdates: %v", step, err)
			}
			o = next
			fresh := freshTwin(t, o)
			assertSameStructure(t, o, fresh)
			assertOraclesAgree(t, o, fresh, o.Graph().NumNodes(), 200)
		}
		assertGroundTruth(t, o, 40)
	})
}

// assertGroundTruth compares oracle distances from sampled sources
// against full BFS on the oracle's current graph.
func assertGroundTruth(t *testing.T, o *Oracle, sources int) {
	t.Helper()
	g := o.Graph()
	n := g.NumNodes()
	r := xrand.New(99)
	for i := 0; i < sources; i++ {
		s := r.Uint32n(uint32(n))
		tr := traverse.BFS(g, s)
		for j := 0; j < 20; j++ {
			u := r.Uint32n(uint32(n))
			d, _, err := queryDist(o, s, u)
			if err != nil {
				t.Fatalf("Distance(%d,%d): %v", s, u, err)
			}
			if d != tr.Dist[u] {
				t.Fatalf("Distance(%d,%d) = %d, BFS says %d", s, u, d, tr.Dist[u])
			}
		}
	}
}

// TestUpdateOptionMatrix runs one update sequence under every option
// the repair path must honor; each result must serialize exactly like a
// fresh build and answer like one under the request policy its row
// names.
func TestUpdateOptionMatrix(t *testing.T) {
	cases := map[string]struct {
		opts Options
		pol  Policy
	}{
		"compact-landmarks": {Options{Seed: 3, Alpha: 1.5}, PolicyDefault}, // four-bit rows are the default; more of them here
		"no-landmark-tabs":  {Options{Seed: 3, DisableLandmarkTables: true}, PolicyDefault},
		"fallback-none":     {Options{Seed: 3}, PolicyTableOnly},
		"fallback-estimate": {Options{Seed: 3}, PolicyEstimate},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			r := xrand.New(555)
			g := socialGraph(21, 250)
			o := mustBuild(t, g, tc.opts)
			for step := 0; step < 4; step++ {
				batch := randomBatch(r, o.Graph().NumNodes())
				next, err := o.ApplyUpdates(batch)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				o = next
			}
			fresh := freshTwin(t, o)
			assertSameStructure(t, o, fresh)
			assertOraclesAgreeUnder(t, o, fresh, o.Graph().NumNodes(), 300, tc.pol)
			if !bytes.Equal(oracleBytes(t, o), oracleBytes(t, fresh)) {
				t.Fatal("updated oracle serializes differently from a fresh build")
			}
		})
	}
}

// TestUpdateComponentMerge exercises the landmark-free-component probe:
// a side component too small to hold a landmark floods its whole
// component as vicinity; connecting it to the main component must
// repair both sides.
func TestUpdateComponentMerge(t *testing.T) {
	main := socialGraph(31, 200)
	b := graph.NewBuilder(206)
	main.ForEachEdge(func(u, v, _ uint32) { b.AddEdge(u, v) })
	// Side path component 200-201-...-205, no landmark will land there
	// with explicit landmarks below.
	for u := uint32(200); u < 205; u++ {
		b.AddEdge(u, u+1)
	}
	g := b.Build()
	base := mustBuild(t, g, Options{Seed: 9})
	// Force all landmarks into the main component.
	var inMain []uint32
	for _, l := range base.Landmarks() {
		if l < 200 {
			inMain = append(inMain, l)
		}
	}
	o := mustBuild(t, g, Options{Seed: 9, Landmarks: inMain})
	for u := uint32(200); u <= 205; u++ {
		if o.Radius(u) != NoDist {
			t.Fatalf("node %d should be landmark-free (radius NoDist)", u)
		}
	}
	// Bridge the components.
	o2, err := o.ApplyUpdates(Update{Edges: [][2]uint32{{7, 203}}})
	if err != nil {
		t.Fatal(err)
	}
	fresh := freshTwin(t, o2)
	assertSameStructure(t, o2, fresh)
	assertGroundTruth(t, o2, 30)
	// The old snapshot still answers for the old graph.
	if d, _, _ := queryDist(o, 7, 203); d != NoDist {
		t.Fatalf("old snapshot sees the new edge: d=%d", d)
	}
	if d, _, _ := queryDist(o2, 7, 203); d != 1 {
		t.Fatalf("new snapshot misses the new edge: d=%d", d)
	}
}

// TestUpdateAddNodes grows the graph, including nodes that stay
// isolated for a while.
func TestUpdateAddNodes(t *testing.T) {
	g := socialGraph(17, 200)
	o := mustBuild(t, g, Options{Seed: 5})
	o2, err := o.ApplyUpdates(Update{AddNodes: 3}) // all isolated
	if err != nil {
		t.Fatal(err)
	}
	if o2.Graph().NumNodes() != 203 {
		t.Fatalf("n = %d, want 203", o2.Graph().NumNodes())
	}
	assertSameStructure(t, o2, freshTwin(t, o2))
	if d, _, err := queryDist(o2, 0, 202); err != nil || d != NoDist {
		t.Fatalf("isolated node: d=%d err=%v", d, err)
	}
	// Wire them in.
	o3, err := o2.ApplyUpdates(Update{Edges: [][2]uint32{{200, 0}, {201, 200}, {202, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	assertSameStructure(t, o3, freshTwin(t, o3))
	assertGroundTruth(t, o3, 30)
}

// TestUpdateStaleSnapshot: the chain only accepts updates against the
// newest snapshot.
func TestUpdateStaleSnapshot(t *testing.T) {
	g := socialGraph(23, 150)
	o := mustBuild(t, g, Options{Seed: 5})
	o2, err := o.ApplyUpdates(Update{Edges: [][2]uint32{{0, 140}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.ApplyUpdates(Update{Edges: [][2]uint32{{1, 141}}}); !errors.Is(err, ErrStaleSnapshot) {
		t.Fatalf("stale snapshot accepted: %v", err)
	}
	if _, err := o2.ApplyUpdates(Update{Edges: [][2]uint32{{1, 141}}}); err != nil {
		t.Fatalf("latest snapshot rejected: %v", err)
	}
}

// TestUpdateRejections covers weighted graphs and bad edges.
func TestUpdateRejections(t *testing.T) {
	b := graph.NewBuilder(10)
	b.AddWeightedEdge(0, 1, 3)
	b.AddWeightedEdge(1, 2, 1)
	wg := b.Build()
	wo := mustBuild(t, wg, Options{Seed: 1})
	if _, err := wo.ApplyUpdates(Update{Edges: [][2]uint32{{0, 2}}}); !errors.Is(err, ErrWeightedUpdate) {
		t.Fatalf("weighted update accepted: %v", err)
	}

	g := socialGraph(29, 100)
	o := mustBuild(t, g, Options{Seed: 1})
	if _, err := o.ApplyUpdates(Update{Edges: [][2]uint32{{0, 100}}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := o.ApplyUpdates(Update{AddNodes: -1}); err == nil {
		t.Fatal("negative AddNodes accepted")
	}
}

// TestUpdateNoop: batches that change nothing return the same snapshot.
func TestUpdateNoop(t *testing.T) {
	g := socialGraph(37, 100)
	o := mustBuild(t, g, Options{Seed: 1})
	var existing [2]uint32
	found := false
	g.ForEachEdge(func(u, v, _ uint32) {
		if !found {
			existing = [2]uint32{u, v}
			found = true
		}
	})
	o2, err := o.ApplyUpdates(Update{Edges: [][2]uint32{existing, {5, 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if o2 != o {
		t.Fatal("no-op update produced a new snapshot")
	}
}

// applyChain runs steps random growth batches as a copy-on-write chain
// and returns the newest snapshot, which still carries the holes its
// repairs left in the shared arena.
func applyChain(t *testing.T, o *Oracle, r *xrand.Rand, steps int) *Oracle {
	t.Helper()
	// A batch that compacts leaves no holes, so the chain runs on past
	// one that lands on the last step.
	for step := 0; step < steps || o.waste == 0; step++ {
		if step == steps+10 {
			t.Fatal("update chain left no arena holes to exercise")
		}
		next, err := o.ApplyUpdates(randomBatch(r, o.Graph().NumNodes()))
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		o = next
	}
	return o
}

// TestUpdatePersistRoundTrip: an updated oracle (with the arena holes
// copy-on-write updates leave) saves and loads with identical behavior,
// and the file carries no waste.
func TestUpdatePersistRoundTrip(t *testing.T) {
	g := socialGraph(41, 250)
	o := applyChain(t, mustBuild(t, g, Options{Seed: 13}), xrand.New(777), 5)
	if o.BuildTimings() != (BuildTimings{}) {
		t.Fatal("updated snapshot reports the original build's timings")
	}
	got := roundTrip(t, o)
	assertOraclesAgree(t, o, got, o.Graph().NumNodes(), 1500)
	assertSameStructure(t, got, o)
	if got.waste != 0 {
		t.Fatal("loaded oracle carries waste")
	}
}

// TestUpdateSerializesLikeFreshBuild: the compacted file of a repaired
// oracle is byte-identical to the file of a fresh (parallel or
// sequential) build on the same graph and landmarks — repair reproduces
// content, compaction reproduces layout, and paths derive from the
// distances alone.
func TestUpdateSerializesLikeFreshBuild(t *testing.T) {
	g := socialGraph(43, 250)
	o := applyChain(t, mustBuild(t, g, Options{Seed: 13}), xrand.New(778), 5)
	if !bytes.Equal(oracleBytes(t, o), oracleBytes(t, freshTwin(t, o))) {
		t.Fatal("repaired oracle serializes differently from a fresh build")
	}
}

// TestUpdateCompactionBound: repeated copy-on-write updates keep arena
// waste below half the storage (the auto-compaction invariant).
func TestUpdateCompactionBound(t *testing.T) {
	r := xrand.New(888)
	g := socialGraph(43, 300)
	o := mustBuild(t, g, Options{Seed: 17})
	for step := 0; step < 25; step++ {
		next, err := o.ApplyUpdates(randomBatch(r, o.Graph().NumNodes()))
		if err != nil {
			t.Fatal(err)
		}
		o = next
		waste := o.waste
		total := uint64(len(o.arena.Words) + len(o.arena.Dists))
		if 2*waste > total {
			t.Fatalf("step %d: waste %d above half of %d", step, waste, total)
		}
		assertLiveRanges(t, o)
	}
}

// TestUpdateScoped: scoped builds repair only in-scope vicinities and
// keep added nodes uncovered.
func TestUpdateScoped(t *testing.T) {
	g := socialGraph(47, 200)
	scope := make([]uint32, 0, 100)
	for u := uint32(0); u < 100; u++ {
		scope = append(scope, u)
	}
	o := mustBuild(t, g, Options{Seed: 19, Nodes: scope})
	o2, err := o.ApplyUpdates(Update{AddNodes: 1, Edges: [][2]uint32{{3, 150}, {200, 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if o2.Covers(200) {
		t.Fatal("added node covered despite scope")
	}
	opts := o2.Options()
	opts.Landmarks = o2.Landmarks()
	fresh := mustBuild(t, o2.Graph(), opts)
	for u := uint32(0); u < 100; u++ {
		if o2.VicinitySize(u) != fresh.VicinitySize(u) {
			t.Fatalf("node %d: vicinity %d vs %d", u, o2.VicinitySize(u), fresh.VicinitySize(u))
		}
	}
	assertGroundTruthScoped(t, o2, scope)
}

func assertGroundTruthScoped(t *testing.T, o *Oracle, scope []uint32) {
	t.Helper()
	g := o.Graph()
	r := xrand.New(5)
	for i := 0; i < 20; i++ {
		s := scope[r.Uint32n(uint32(len(scope)))]
		u := scope[r.Uint32n(uint32(len(scope)))]
		tr := traverse.BFS(g, s)
		d, _, err := queryDist(o, s, u)
		if err != nil {
			t.Fatalf("Distance(%d,%d): %v", s, u, err)
		}
		if d != tr.Dist[u] {
			t.Fatalf("Distance(%d,%d) = %d, BFS says %d", s, u, d, tr.Dist[u])
		}
	}
}

// TestUpdateConcurrentQueries races queries on the serving snapshot
// against a stream of copy-on-write updates (run under -race in CI).
// Readers pin a snapshot, query it, and check answers against the
// snapshot's own graph, which updates must never disturb.
func TestUpdateConcurrentQueries(t *testing.T) {
	g := socialGraph(53, 400)
	o := mustBuild(t, g, Options{Seed: 23})

	var cur struct {
		sync.RWMutex
		o *Oracle
	}
	cur.o = o

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 4; w++ {
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
				cur.RLock()
				snap := cur.o
				cur.RUnlock()
				n := uint32(snap.Graph().NumNodes())
				s, u := r.Uint32n(n), r.Uint32n(n)
				d, _, err := queryDist(snap, s, u)
				if err != nil {
					errc <- err
					return
				}
				// Spot-check against the snapshot's own graph.
				if d == 1 && !snap.Graph().HasEdge(s, u) {
					errc <- fmt.Errorf("d(%d,%d)=1 but no edge in snapshot graph", s, u)
					return
				}
				if p, _, err := queryPath(snap, s, u); err != nil {
					errc <- err
					return
				} else if d != NoDist && uint32(len(p)-1) != d {
					errc <- fmt.Errorf("path length %d for distance %d", len(p)-1, d)
					return
				}
			}
		}(uint64(w) + 100)
	}

	r := xrand.New(999)
	for step := 0; step < 15; step++ {
		// Mixed churn, so readers race deletions as well as growth.
		batch := randomChurnBatch(r, o.Graph())
		next, err := o.ApplyUpdates(batch)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		o = next
		cur.Lock()
		cur.o = o
		cur.Unlock()
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	assertGroundTruth(t, o, 20)
}
