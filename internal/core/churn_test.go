package core

import (
	"bytes"
	"errors"
	"sort"
	"testing"

	"vicinity/internal/baseline"
	"vicinity/internal/gen"
	"vicinity/internal/graph"
	"vicinity/internal/xrand"
)

// This file is the randomized mixed-churn harness: the proof that
// decremental repair (edge deletions, node retirements, weight changes)
// keeps every oracle shape bit-identical to a fresh build. Where
// update_test.go drives insert-only growth, every batch here mixes
// deletions, reweights, upserts and growth in one Update, across the
// option matrix.

// churnKey normalizes an undirected edge to one map key.
func churnKey(u, v uint32) uint64 {
	if v < u {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// randomChurnBatch draws a mixed batch against the current graph:
// deletions sampled from live adjacency, occasional whole-node
// retirements, weight changes on weighted graphs (weight-1 upserts on
// unweighted ones), and fresh edges and nodes. A seen-set keeps the
// batch free of the insert/delete and delete/reweight conflicts
// normalizeUpdate rejects, so every generated batch must be accepted.
func randomChurnBatch(r *xrand.Rand, g *graph.Graph) Update {
	var upd Update
	n := uint32(g.NumNodes())
	seen := make(map[uint64]bool) // edges claimed by a deletion or reweight
	for i := int(r.Uint32n(4)); i > 0; i-- {
		u := r.Uint32n(n)
		adj := g.Neighbors(u)
		if len(adj) == 0 {
			continue
		}
		v := adj[r.Uint32n(uint32(len(adj)))]
		if k := churnKey(u, v); !seen[k] {
			seen[k] = true
			upd.DelEdges = append(upd.DelEdges, [2]uint32{u, v})
		}
	}
	// Occasionally retire a node outright (all incident edges die).
	if r.Uint32n(8) == 0 {
		u := r.Uint32n(n)
		if deg := g.Degree(u); deg > 0 && deg <= 6 {
			for _, v := range g.Neighbors(u) {
				seen[churnKey(u, v)] = true
			}
			upd.DelNodes = append(upd.DelNodes, u)
		}
	}
	if g.Weighted() {
		for i := int(r.Uint32n(3)); i > 0; i-- {
			u := r.Uint32n(n)
			adj := g.Neighbors(u)
			if len(adj) == 0 {
				continue
			}
			v := adj[r.Uint32n(uint32(len(adj)))]
			if k := churnKey(u, v); !seen[k] {
				seen[k] = true
				upd.SetWeights = append(upd.SetWeights, WeightChange{U: u, V: v, W: 1 + r.Uint32n(9)})
			}
		}
	}
	if r.Uint32n(4) == 0 {
		upd.AddNodes = int(r.Uint32n(3))
	}
	if g.Weighted() {
		return upd // weighted graphs reject edge insertion
	}
	total := n + uint32(upd.AddNodes)
	for i := int(1 + r.Uint32n(5)); i > 0; i-- {
		u, v := r.Uint32n(total), r.Uint32n(total)
		if u != v && !seen[churnKey(u, v)] {
			upd.Edges = append(upd.Edges, [2]uint32{u, v})
		}
	}
	// Wire each added node at least once so it usually joins a component.
	for a := n; a < total; a++ {
		if v := r.Uint32n(n); !seen[churnKey(a, v)] {
			upd.Edges = append(upd.Edges, [2]uint32{a, v})
		}
	}
	// Sometimes express one insert as a weight-1 upsert (the SetWeights
	// degeneration on unweighted graphs).
	if r.Uint32n(3) == 0 {
		u, v := r.Uint32n(n), r.Uint32n(n)
		if u != v && !seen[churnKey(u, v)] {
			upd.SetWeights = append(upd.SetWeights, WeightChange{U: u, V: v, W: 1})
		}
	}
	return upd
}

// assertLiveRanges checks the arena accounting after an update: the
// live word and distance ranges of all vicinities are pairwise disjoint
// and inside the arena, and live plus counted waste equals the arena
// length over both — the shape a double-counted or a still-live
// superseded range would break.
func assertLiveRanges(t *testing.T, o *Oracle) {
	t.Helper()
	type span struct{ off, len uint32 }
	var words, dists []span
	for u := range o.vicFlat {
		if r := o.vicFlat[u].Range(); r.ELen > 0 {
			words = append(words, span{r.WOff, r.WLen})
			if !o.arena.Leveled {
				dists = append(dists, span{r.EOff, r.ELen})
			}
		}
	}
	var live uint64
	check := func(space string, spans []span, size int) {
		sort.Slice(spans, func(i, j int) bool { return spans[i].off < spans[j].off })
		var end uint64
		for _, sp := range spans {
			if uint64(sp.off) < end {
				t.Fatalf("%s range at %d overlaps the previous one ending at %d", space, sp.off, end)
			}
			end = uint64(sp.off) + uint64(sp.len)
			live += uint64(sp.len)
		}
		if end > uint64(size) {
			t.Fatalf("%s range ends at %d beyond the arena's %d", space, end, size)
		}
	}
	check("word", words, len(o.arena.Words))
	check("distance", dists, len(o.arena.Dists))
	if size := uint64(len(o.arena.Words) + len(o.arena.Dists)); live+o.waste != size {
		t.Fatalf("arena: live %d + waste %d != length %d", live, o.waste, size)
	}
}

// weightedSocialGraph is socialGraph with uniform random weights in
// [1,9] — the weighted churn fixture.
func weightedSocialGraph(seed uint64, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	r := xrand.New(seed + 1)
	gen.HolmeKim(xrand.New(seed), n, 4, 0.5).ForEachEdge(func(u, v, _ uint32) {
		b.AddWeightedEdge(u, v, 1+r.Uint32n(9))
	})
	return b.Build()
}

// assertGroundTruthWeighted cross-validates sampled queries against
// Dijkstra under the weighted contract: answers never undercut the
// true distance, and the methods defined to be exact match it
// (vicinity and intersection answers are upper bounds on weighted
// graphs — see TestCrossValidationWeighted).
func assertGroundTruthWeighted(t *testing.T, o *Oracle, trials int) {
	t.Helper()
	g := o.Graph()
	n := uint32(g.NumNodes())
	dij := baseline.NewDijkstra(g)
	r := xrand.New(98)
	for i := 0; i < trials; i++ {
		s, u := r.Uint32n(n), r.Uint32n(n)
		want := dij.Distance(s, u)
		got, m, err := queryDist(o, s, u)
		if err != nil {
			t.Fatalf("Distance(%d,%d): %v", s, u, err)
		}
		if got < want {
			t.Fatalf("(%d,%d): oracle %d undercuts Dijkstra %d (method %v)", s, u, got, want, m)
		}
		if (m == MethodFallbackExact || m == MethodUnreachable || m == MethodSame) && got != want {
			t.Fatalf("(%d,%d): %v gave %d, Dijkstra says %d", s, u, m, got, want)
		}
	}
}

// TestChurnMatrix is the central decremental property: across two
// option profiles (subtests name the hash vicinity layout), a seeded
// sequence of mixed insert/delete/reweight batches keeps the oracle
// structurally identical to a fresh build with the same landmarks and
// byte-identical on the wire. Queries agree element by element, paths
// included; the arena accounting holds after every batch, and final
// answers match BFS ground truth.
func TestChurnMatrix(t *testing.T) {
	profiles := []struct {
		name string
		opts Options
	}{
		{"default", Options{Seed: 7}},
		{"compact-landmarks", Options{Seed: 7, Alpha: 1.5}}, // one-byte rows are the default; more of them here
	}
	for _, prof := range profiles {
		opts := prof.opts
		t.Run(prof.name+"/hash", func(t *testing.T) {
			r := xrand.New(6000)
			g := socialGraph(61, 240)
			o := mustBuild(t, g, opts)
			for step := 0; step < 5; step++ {
				next, err := o.ApplyUpdates(randomChurnBatch(r, o.Graph()))
				if err != nil {
					t.Fatalf("step %d: ApplyUpdates: %v", step, err)
				}
				o = next
				fresh := freshTwin(t, o)
				assertSameStructure(t, o, fresh)
				assertOraclesAgree(t, o, fresh, o.Graph().NumNodes(), 150)
				if !bytes.Equal(oracleBytes(t, o), oracleBytes(t, fresh)) {
					t.Fatalf("step %d: repaired oracle serializes differently from a fresh build", step)
				}
				assertLiveRanges(t, o)
				assertRunsSorted(t, o)
			}
			assertGroundTruth(t, o, 25)
		})
	}
}

// TestChurnWeighted drives deletions and weight changes on a weighted
// graph: after every batch the oracle equals a fresh build in structure,
// answers and serialized bytes, and final answers cross-validate
// against Dijkstra.
func TestChurnWeighted(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		r := xrand.New(7001)
		g := weightedSocialGraph(67, 220)
		o := mustBuild(t, g, Options{Seed: 11})
		for step := 0; step < 5; step++ {
			next, err := o.ApplyUpdates(randomChurnBatch(r, o.Graph()))
			if err != nil {
				t.Fatalf("step %d: ApplyUpdates: %v", step, err)
			}
			o = next
			fresh := freshTwin(t, o)
			assertSameStructure(t, o, fresh)
			assertOraclesAgree(t, o, fresh, o.Graph().NumNodes(), 150)
			if !bytes.Equal(oracleBytes(t, o), oracleBytes(t, fresh)) {
				t.Fatalf("step %d: repaired weighted oracle serializes differently", step)
			}
			assertLiveRanges(t, o)
			assertRunsSorted(t, o)
		}
		assertGroundTruthWeighted(t, o, 300)
	})
}

// TestChurnDeleteLastEdge deletes a node's only edge: the node must
// become a landmark-free singleton (radius NoDist, unreachable), and
// the oracle must still equal a fresh build.
func TestChurnDeleteLastEdge(t *testing.T) {
	g := socialGraph(71, 150)
	// Append a pendant node 150 hanging off node 0 by one edge.
	b := graph.NewBuilder(151)
	g.ForEachEdge(func(u, v, _ uint32) { b.AddEdge(u, v) })
	b.AddEdge(150, 0)
	o := mustBuild(t, b.Build(), Options{Seed: 3})
	o2, err := o.ApplyUpdates(Update{DelEdges: [][2]uint32{{150, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if o2.Graph().Degree(150) != 0 {
		t.Fatalf("degree(150) = %d after deleting its last edge", o2.Graph().Degree(150))
	}
	if d, _, err := queryDist(o2, 0, 150); err != nil || d != NoDist {
		t.Fatalf("isolated node still reachable: d=%d err=%v", d, err)
	}
	assertSameStructure(t, o2, freshTwin(t, o2))
	assertGroundTruth(t, o2, 20)
}

// TestChurnDisconnectComponent is the decremental mirror of
// TestUpdateComponentMerge: deleting the only bridge to a landmark-free
// side component must flood that component's vicinities (radius NoDist)
// on the new snapshot, while the old snapshot keeps answering on the
// pre-delete graph until swapped.
func TestChurnDisconnectComponent(t *testing.T) {
	main := socialGraph(31, 200)
	b := graph.NewBuilder(206)
	main.ForEachEdge(func(u, v, _ uint32) { b.AddEdge(u, v) })
	for u := uint32(200); u < 205; u++ {
		b.AddEdge(u, u+1)
	}
	b.AddEdge(7, 203) // the bridge
	g := b.Build()
	base := mustBuild(t, g, Options{Seed: 9})
	var inMain []uint32
	for _, l := range base.Landmarks() {
		if l < 200 {
			inMain = append(inMain, l)
		}
	}
	o := mustBuild(t, g, Options{Seed: 9, Landmarks: inMain})
	o2, err := o.ApplyUpdates(Update{DelEdges: [][2]uint32{{7, 203}}})
	if err != nil {
		t.Fatal(err)
	}
	for u := uint32(200); u <= 205; u++ {
		if o2.Radius(u) != NoDist {
			t.Fatalf("node %d still has a landmark after disconnection (radius %d)", u, o2.Radius(u))
		}
	}
	fresh := freshTwin(t, o2)
	assertSameStructure(t, o2, fresh)
	assertGroundTruth(t, o2, 30)
	// Stale snapshot under deletion: the old oracle still sees the edge.
	if d, _, _ := queryDist(o, 7, 203); d != 1 {
		t.Fatalf("old snapshot lost the deleted edge: d=%d", d)
	}
	if d, _, _ := queryDist(o2, 7, 203); d == 1 {
		t.Fatal("new snapshot still answers through the deleted bridge")
	}
}

// TestChurnDeleteLandmarkParentEdge kills an edge on a landmark's
// shortest-path tree — the case where the landmark-row ripple repair
// must re-anchor every node that routed through the dead edge.
func TestChurnDeleteLandmarkParentEdge(t *testing.T) {
	g := socialGraph(73, 250)
	o := mustBuild(t, g, Options{Seed: 13})
	// Find a landmark with a stored table and a neighbor whose only way
	// one step closer is the landmark itself (so the deleted edge is
	// load-bearing for the whole subtree below it).
	var batch [][2]uint32
	for li, lm := range o.Landmarks() {
		if !o.hasLandmarkTable(int32(li)) {
			continue
		}
		if adj := g.Neighbors(lm); len(adj) > 0 {
			batch = [][2]uint32{{adj[0], lm}}
			break
		}
	}
	if batch == nil {
		t.Fatal("no landmark tree edge found")
	}
	o2, err := o.ApplyUpdates(Update{DelEdges: batch})
	if err != nil {
		t.Fatal(err)
	}
	fresh := freshTwin(t, o2)
	assertSameStructure(t, o2, fresh)
	assertOraclesAgree(t, o2, fresh, o2.Graph().NumNodes(), 300)
	assertGroundTruth(t, o2, 25)
}

// TestChurnDeleteReinsertByteIdentity: deleting a batch of edges and
// reinserting the same edges restores the exact pre-churn oracle —
// byte-for-byte on the wire, through two full repair passes in opposite
// directions.
func TestChurnDeleteReinsertByteIdentity(t *testing.T) {
	r := xrand.New(81)
	g := socialGraph(79, 250)
	o := mustBuild(t, g, Options{Seed: 17})
	before := oracleBytes(t, o)
	var batch [][2]uint32
	for u := uint32(0); int(u) < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v && r.Uint32n(10) == 0 {
				batch = append(batch, [2]uint32{u, v})
			}
		}
	}
	if len(batch) < 10 {
		t.Fatalf("sampled only %d edges to churn", len(batch))
	}
	o2, err := o.ApplyUpdates(Update{DelEdges: batch})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(oracleBytes(t, o2), before) {
		t.Fatal("deleting edges did not change the oracle")
	}
	o3, err := o2.ApplyUpdates(Update{Edges: batch})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oracleBytes(t, o3), before) {
		t.Fatal("delete-then-reinsert did not restore the original oracle bytes")
	}
}

// TestChurnScoped churns a scoped build: only in-scope vicinities are
// maintained, and they match a fresh scoped build after mixed batches.
func TestChurnScoped(t *testing.T) {
	r := xrand.New(91)
	g := socialGraph(47, 200)
	scope := make([]uint32, 0, 100)
	for u := uint32(0); u < 100; u++ {
		scope = append(scope, u)
	}
	o := mustBuild(t, g, Options{Seed: 19, Nodes: scope})
	for step := 0; step < 4; step++ {
		batch := randomChurnBatch(r, o.Graph())
		next, err := o.ApplyUpdates(batch)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		o = next
	}
	opts := o.Options()
	opts.Landmarks = o.Landmarks()
	fresh := mustBuild(t, o.Graph(), opts)
	for u := uint32(0); u < 100; u++ {
		if o.VicinitySize(u) != fresh.VicinitySize(u) {
			t.Fatalf("node %d: vicinity %d vs %d", u, o.VicinitySize(u), fresh.VicinitySize(u))
		}
	}
	assertGroundTruthScoped(t, o, scope)
}

// TestChurnRejections: every malformed churn batch is rejected with a
// typed error before any state changes, and the snapshot stays fully
// usable afterwards.
func TestChurnRejections(t *testing.T) {
	g := socialGraph(83, 100)
	o := mustBuild(t, g, Options{Seed: 23})
	gBefore := o.Graph()

	// An edge that exists, for the conflict cases.
	var eu, ev uint32
	g.ForEachEdge(func(u, v, _ uint32) {
		if eu == 0 && ev == 0 {
			eu, ev = u, v
		}
	})

	cases := []struct {
		name string
		upd  Update
		is   error // nil = any error
	}{
		{"delete-absent", Update{DelEdges: [][2]uint32{{0, 99}}}, ErrEdgeNotFound},
		{"delete-self-loop", Update{DelEdges: [][2]uint32{{5, 5}}}, ErrEdgeNotFound},
		{"delete-out-of-range", Update{DelEdges: [][2]uint32{{0, 100}}}, nil},
		{"delnode-out-of-range", Update{DelNodes: []uint32{100}}, nil},
		{"insert-and-delete", Update{Edges: [][2]uint32{{eu, ev}}, DelEdges: [][2]uint32{{eu, ev}}}, nil},
		{"upsert-and-delete", Update{SetWeights: []WeightChange{{U: eu, V: ev, W: 1}}, DelEdges: [][2]uint32{{eu, ev}}}, nil},
		{"reweight-unweighted", Update{SetWeights: []WeightChange{{U: eu, V: ev, W: 5}}}, ErrWeightedUpdate},
		{"zero-weight", Update{SetWeights: []WeightChange{{U: eu, V: ev, W: 0}}}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := o.ApplyUpdates(tc.upd); err == nil {
				t.Fatal("accepted")
			} else if tc.is != nil && !errors.Is(err, tc.is) {
				t.Fatalf("wrong error type: %v", err)
			}
		})
	}
	if o.Graph() != gBefore {
		t.Fatal("rejected batches mutated the graph")
	}
	// The snapshot is not poisoned: a valid batch still applies.
	o2, err := o.ApplyUpdates(Update{DelEdges: [][2]uint32{{eu, ev}}})
	if err != nil {
		t.Fatalf("valid batch after rejections: %v", err)
	}
	assertSameStructure(t, o2, freshTwin(t, o2))

	// Weighted-only rejections.
	wo := mustBuild(t, weightedSocialGraph(3, 60), Options{Seed: 1})
	if _, err := wo.ApplyUpdates(Update{SetWeights: []WeightChange{{U: 0, V: 59, W: 4}}}); !errors.Is(err, ErrEdgeNotFound) {
		t.Fatalf("reweight of absent edge: %v", err)
	}
	we := wo.Graph()
	var wu, wv uint32
	found := false
	we.ForEachEdge(func(u, v, _ uint32) {
		if !found {
			wu, wv, found = u, v, true
		}
	})
	if _, err := wo.ApplyUpdates(Update{
		SetWeights: []WeightChange{{U: wu, V: wv, W: 2}},
		DelEdges:   [][2]uint32{{wu, wv}},
	}); err == nil {
		t.Fatal("delete+reweight conflict accepted")
	}
	if _, err := wo.ApplyUpdates(Update{
		SetWeights: []WeightChange{{U: wu, V: wv, W: 2}, {U: wv, V: wu, W: 3}},
	}); err == nil {
		t.Fatal("conflicting duplicate reweights accepted")
	}
}
