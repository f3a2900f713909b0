package vicinity

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"vicinity/internal/traverse"
	"vicinity/internal/xrand"
)

func TestEndToEnd(t *testing.T) {
	g := GenerateSocial(2000, 5, 1)
	if !g.Connected() {
		t.Fatal("social graph disconnected")
	}
	o, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(2)
	for trial := 0; trial < 300; trial++ {
		s, u := r.Uint32n(2000), r.Uint32n(2000)
		d, m, err := o.Distance(s, u)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Exact() {
			t.Fatalf("inexact method %v with default options", m)
		}
		p, _, err := o.Path(s, u)
		if err != nil {
			t.Fatal(err)
		}
		if d == NoDist {
			continue
		}
		if uint32(len(p)-1) != d {
			t.Fatalf("path length %d != distance %d", len(p)-1, d)
		}
		for i := 0; i+1 < len(p); i++ {
			if !g.HasEdge(p[i], p[i+1]) {
				t.Fatalf("path uses missing edge")
			}
		}
	}
	st := o.Stats()
	if st.Landmarks == 0 || st.AvgVicinity <= 0 || st.SavingsVsAPSP <= 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.String() == "" || g.String() == "" {
		t.Fatal("empty strings")
	}
}

func TestBuilderAndAccessors(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddWeightedEdge(1, 2, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	if g.NumNodes() != 4 || g.NumEdges() != 3 {
		t.Fatalf("sizes: %v", g)
	}
	if g.Degree(1) != 2 || !g.HasEdge(0, 1) || g.HasEdge(0, 3) {
		t.Fatal("accessors wrong")
	}
	if len(g.Neighbors(1)) != 2 {
		t.Fatal("neighbors wrong")
	}
	if g.AvgDegree() != 1.5 {
		t.Fatalf("avg degree %v", g.AvgDegree())
	}
	o, err := Build(g, &Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := o.Distance(0, 3)
	if err != nil || d != 3 {
		t.Fatalf("d=%d err=%v", d, err)
	}
}

func TestOptionsPlumbing(t *testing.T) {
	g := GenerateSocial(600, 4, 3)
	o, err := Build(g, &Options{Alpha: 2, Seed: 7, WithoutLandmarkTables: true})
	if err != nil {
		t.Fatal(err)
	}
	if o.Stats().Alpha != 2 {
		t.Fatal("alpha ignored")
	}
	// Landmarks exist and are queryable metadata.
	ls := o.Landmarks()
	if len(ls) == 0 || !o.IsLandmark(ls[0]) {
		t.Fatal("landmark accessors wrong")
	}
	if o.VicinitySize(ls[0]) != 0 {
		t.Fatal("landmark has vicinity")
	}
	var nonL uint32
	for o.IsLandmark(nonL) {
		nonL++
	}
	if o.VicinitySize(nonL) <= 0 || o.Radius(nonL) == NoDist {
		t.Fatal("vicinity accessors wrong")
	}
	if o.Graph() != g {
		t.Fatal("graph accessor wrong")
	}
	if _, err := Build(nil, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestGraphFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := GenerateSocial(300, 4, 5)
	bin := filepath.Join(dir, "g.bin")
	txt := filepath.Join(dir, "g.txt")
	if err := g.SaveBinary(bin); err != nil {
		t.Fatal(err)
	}
	if err := g.SaveEdgeList(txt); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{bin, txt} {
		g2, err := LoadGraph(path)
		if err != nil {
			t.Fatal(err)
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: round trip changed sizes", path)
		}
	}
	if _, err := LoadGraph(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestOracleFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := GenerateSocial(800, 5, 9)
	o, err := Build(g, &Options{Seed: 9, Alpha: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "oracle.vco")
	if err := o.Save(path); err != nil {
		t.Fatal(err)
	}
	o2, err := LoadOracle(path)
	if err != nil {
		t.Fatal(err)
	}
	if o2.Graph().NumNodes() != g.NumNodes() || o2.Graph().NumEdges() != g.NumEdges() {
		t.Fatal("embedded graph changed size")
	}
	if o2.Stats() != o.Stats() {
		t.Fatalf("stats diverge:\n%v\n%v", o2.Stats(), o.Stats())
	}
	r := xrand.New(10)
	for trial := 0; trial < 500; trial++ {
		s, u := r.Uint32n(800), r.Uint32n(800)
		d1, m1, err1 := o.Distance(s, u)
		d2, m2, err2 := o2.Distance(s, u)
		if d1 != d2 || m1 != m2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("(%d,%d): %d/%v vs %d/%v", s, u, d1, m1, d2, m2)
		}
		p1, _, _ := o.Path(s, u)
		p2, _, _ := o2.Path(s, u)
		if len(p1) != len(p2) {
			t.Fatalf("(%d,%d): path lengths %d vs %d", s, u, len(p1), len(p2))
		}
	}
	if _, err := LoadOracle(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing oracle file loaded")
	}
	// A graph file is not an oracle file.
	gpath := filepath.Join(dir, "g.bin")
	if err := g.SaveBinary(gpath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadOracle(gpath); err == nil {
		t.Fatal("graph file accepted as oracle")
	}
}

func TestAgainstBFSGroundTruth(t *testing.T) {
	g := NewGraph(6, [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	o, err := Build(g, &Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ws := traverse.NewWorkspace(g.g) // white-box: ground truth on the internal graph
	for s := uint32(0); s < 6; s++ {
		for u := uint32(0); u < 6; u++ {
			d, _, err := o.Distance(s, u)
			if err != nil {
				t.Fatal(err)
			}
			if want := ws.BFSDist(s, u); d != want {
				t.Fatalf("d(%d,%d)=%d want %d", s, u, d, want)
			}
		}
	}
}

func ExampleBuild() {
	// A tiny friendship network: two triangles joined by a bridge.
	g := NewGraph(6, [][2]uint32{
		{0, 1}, {1, 2}, {2, 0}, // triangle A
		{3, 4}, {4, 5}, {5, 3}, // triangle B
		{2, 3}, // bridge
	})
	oracle, err := Build(g, &Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	d, _, _ := oracle.Distance(0, 5)
	path, _, _ := oracle.Path(0, 5)
	fmt.Println("distance:", d)
	fmt.Println("hops:", len(path)-1)
	// Output:
	// distance: 3
	// hops: 3
}

func ExampleOracle_Distance() {
	g := NewGraph(4, [][2]uint32{{0, 1}, {1, 2}, {2, 3}})
	oracle, _ := Build(g, &Options{Seed: 1})
	d, method, _ := oracle.Distance(0, 3)
	fmt.Println(d, method.Exact())
	// Output: 3 true
}

func BenchmarkEndToEndQuery(b *testing.B) {
	g := GenerateSocial(5000, 5, 1)
	o, err := Build(g, &Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(2)
	pairs := make([][2]uint32, 512)
	for i := range pairs {
		pairs[i] = [2]uint32{r.Uint32n(5000), r.Uint32n(5000)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&511]
		if _, _, err := o.Distance(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDynamicUpdates exercises the public update API: distances stay
// exact (vs BFS ground truth) through a sequence of edge insertions and
// node additions, and updates race cleanly with concurrent queries.
func TestDynamicUpdates(t *testing.T) {
	g := GenerateSocial(1500, 5, 3)
	o, err := Build(g, &Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := xrand.New(77)
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := uint32(o.Graph().NumNodes())
			if _, _, err := o.Distance(r.Uint32n(n), r.Uint32n(n)); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	r := xrand.New(9)
	for step := 0; step < 10; step++ {
		gg := o.Graph()
		n := uint32(gg.NumNodes())
		batch := Update{Edges: [][2]uint32{
			{r.Uint32n(n), r.Uint32n(n)},
			{r.Uint32n(n), r.Uint32n(n)},
		}}
		if step%3 == 0 {
			batch.AddNodes = 1
			batch.Edges = append(batch.Edges, [2]uint32{n, r.Uint32n(n)})
		}
		// Mixed churn: delete a live edge not named by this batch's
		// inserts, so the repair handles growth and shrinkage at once.
		for tries := 0; tries < 8; tries++ {
			u := r.Uint32n(n)
			adj := gg.Neighbors(u)
			if len(adj) == 0 {
				continue
			}
			v := adj[r.Uint32n(uint32(len(adj)))]
			conflict := false
			for _, e := range batch.Edges {
				if (e[0] == u && e[1] == v) || (e[0] == v && e[1] == u) {
					conflict = true
					break
				}
			}
			if !conflict {
				batch.DelEdges = append(batch.DelEdges, [2]uint32{u, v})
				break
			}
		}
		if err := o.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
	}
	// The single-edge churn helpers ride the same repair path.
	{
		gg := o.Graph()
		var du, dv uint32
		for u := uint32(0); ; u++ {
			if adj := gg.Neighbors(u); len(adj) > 0 {
				du, dv = u, adj[0]
				break
			}
		}
		if err := o.DeleteEdge(du, dv); err != nil {
			t.Fatal(err)
		}
		if err := o.DeleteEdge(du, dv); !errors.Is(err, ErrEdgeNotFound) {
			t.Fatalf("double delete: %v", err)
		}
		if err := o.SetWeight(du, dv, 1); err != nil { // upsert restores it
			t.Fatal(err)
		}
		if !o.Graph().HasEdge(du, dv) {
			t.Fatal("weight-1 upsert did not reinsert the edge")
		}
	}
	close(stop)
	<-done

	// Exactness on the mutated graph.
	gg := o.Graph()
	ws := traverse.NewWorkspace(gg.g)
	for i := 0; i < 400; i++ {
		n := uint32(gg.NumNodes())
		s, u := r.Uint32n(n), r.Uint32n(n)
		want := ws.BiBFSDist(s, u)
		got, _, err := o.Distance(s, u)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("d(%d,%d) = %d, want %d", s, u, got, want)
		}
	}

	// Updated oracles persist and reload.
	path := filepath.Join(t.TempDir(), "updated.vco")
	if err := o.Save(path); err != nil {
		t.Fatal(err)
	}
	o2, err := LoadOracle(path)
	if err != nil {
		t.Fatal(err)
	}
	if o2.Graph().NumNodes() != o.Graph().NumNodes() {
		t.Fatal("node count lost through save/load")
	}

	// Weighted oracles refuse updates.
	b := NewBuilder(4)
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(1, 2, 2)
	wo, err := Build(b.Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := wo.InsertEdge(0, 2); err == nil {
		t.Fatal("weighted update accepted")
	}
}

// queryMany answers s → ts with one default-policy one-to-many Query.
func queryMany(o *Oracle, s uint32, ts []uint32, wantPath bool) ([]ItemResult, error) {
	res, err := o.Query(context.Background(), Request{S: s, Ts: ts, WantPath: wantPath})
	return res.Items, err
}

// TestBatchQueries checks the public one-to-many Query agrees with the
// per-pair helpers and reports per-target errors in place.
func TestBatchQueries(t *testing.T) {
	g := GenerateSocial(1500, 5, 3)
	o, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(9)
	n := uint32(g.NumNodes())
	for trial := 0; trial < 5; trial++ {
		s := r.Uint32n(n)
		ts := []uint32{s, n + 5} // same-node and out-of-range targets
		for len(ts) < 40 {
			ts = append(ts, r.Uint32n(n))
		}
		res, err := queryMany(o, s, ts, false)
		if err != nil {
			t.Fatal(err)
		}
		paths, err := queryMany(o, s, ts, true)
		if err != nil {
			t.Fatal(err)
		}
		for i, tgt := range ts {
			d, m, serr := o.Distance(s, tgt)
			if (serr == nil) != (res[i].Err == nil) || res[i].Dist != d || res[i].Method != m {
				t.Fatalf("batch[%d]=(%d,%v,%v), single=(%d,%v,%v)",
					i, res[i].Dist, res[i].Method, res[i].Err, d, m, serr)
			}
			p, pm, perr := o.Path(s, tgt)
			if (perr == nil) != (paths[i].Err == nil) || paths[i].Method != pm || len(paths[i].Path) != len(p) {
				t.Fatalf("batch path[%d]=(%v,%v,%v), single=(%v,%v,%v)",
					i, paths[i].Path, paths[i].Method, paths[i].Err, p, pm, perr)
			}
		}
	}
	res, err := o.Query(context.Background(), Request{S: 0, Ts: []uint32{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 3 || res.Cost.Lookups == 0 {
		t.Fatalf("items = %+v, cost = %+v", res.Items, res.Cost)
	}
	if _, err := queryMany(o, n+1, []uint32{0}, false); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

// TestBatchDuringUpdates races batch queries against dynamic updates on
// the public oracle (meaningful under -race). Each batch pins one
// epoch, so no per-target error may surface mid-update, and since
// updates here are insert-only, distances observed after the storm can
// only have improved over the pre-update baseline.
func TestBatchDuringUpdates(t *testing.T) {
	g := GenerateSocial(600, 4, 11)
	o, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := uint32(600)
	baselineRes, err := queryMany(o, 5, seqTargets(n, 32), false)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	done := make(chan error, 4)
	for w := 0; w < 3; w++ {
		go func(seed uint64) {
			r := xrand.New(seed)
			for {
				select {
				case <-stop:
					done <- nil
					return
				default:
				}
				s := r.Uint32n(n)
				res, err := queryMany(o, s, seqTargets(n, 32), false)
				if err != nil {
					done <- err
					return
				}
				for _, br := range res {
					if br.Err != nil {
						done <- br.Err
						return
					}
				}
			}
		}(uint64(w) + 77)
	}
	for i := 0; i < 8; i++ {
		cur := uint32(o.Graph().NumNodes())
		if err := o.ApplyUpdates(Update{AddNodes: 1, Edges: [][2]uint32{{cur, uint32(i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	for w := 0; w < 3; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Insert-only updates can only shorten distances.
	after, err := queryMany(o, 5, seqTargets(n, 32), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range after {
		if after[i].Dist > baselineRes[i].Dist {
			t.Fatalf("distance grew under insertion: %d -> %d", baselineRes[i].Dist, after[i].Dist)
		}
	}
}

// seqTargets returns count spread-out node ids below n.
func seqTargets(n uint32, count int) []uint32 {
	ts := make([]uint32, count)
	for i := range ts {
		ts[i] = (uint32(i) * 37) % n
	}
	return ts
}

// TestQueryPublicSurface covers the public request-scoped API: the
// Distance helper agrees with a default Query, per-request policy and
// budget flow through, and the exported error taxonomy works under
// errors.Is.
func TestQueryPublicSurface(t *testing.T) {
	g := GenerateSocial(1500, 5, 3)
	o, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r := xrand.New(9)
	for trial := 0; trial < 150; trial++ {
		s, u := r.Uint32n(1500), r.Uint32n(1500)
		d, m, _ := o.Distance(s, u)
		res, err := o.Query(ctx, Request{S: s, T: u})
		if err != nil || res.Dist != d || res.Method != m {
			t.Fatalf("Query(%d,%d) = (%d, %v, %v), Distance says (%d, %v)",
				s, u, res.Dist, res.Method, err, d, m)
		}
	}

	// Policy and flags flow through.
	res, err := o.Query(ctx, Request{S: 1, T: 2, Policy: PolicyTableOnly, WantPath: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist != NoDist && len(res.Path) == 0 {
		t.Fatalf("WantPath returned no path for a resolved pair: %+v", res)
	}
	if _, err := ParsePolicy("full"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParsePolicy("warp-drive"); err == nil {
		t.Fatal("bad policy accepted")
	}

	// The exported taxonomy: every failure mode is errors.Is-able.
	if _, err := o.Query(ctx, Request{S: 99999, T: 0}); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("out of range: %v", err)
	}
	if _, _, err := o.Distance(99999, 0); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("Distance out of range: %v", err)
	}
	expired, cancel := context.WithTimeout(ctx, time.Nanosecond)
	defer cancel()
	<-expired.Done()
	// Find a fallback pair to exercise cancellation (resolved pairs
	// answer regardless of the dead context).
	found := false
	for trial := 0; trial < 5000 && !found; trial++ {
		s, u := r.Uint32n(1500), r.Uint32n(1500)
		if _, m, _ := o.Distance(s, u); m != MethodFallbackExact {
			continue
		}
		found = true
		if _, err := o.Query(expired, Request{S: s, T: u}); !errors.Is(err, ErrCanceled) {
			t.Fatalf("expired ctx on fallback pair: %v", err)
		}
		res, err := o.Query(ctx, Request{S: s, T: u, Budget: 1})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("budget 1 on fallback pair: %v", err)
		}
		if res.Method != MethodNone && res.Method != MethodBudgetBound {
			t.Fatalf("budget method %v", res.Method)
		}
	}
	if !found {
		t.Skip("no fallback pair in 5000 samples; α too generous for this seed")
	}

	// Scoped build: ErrNotCovered through wrapper and Query alike.
	scoped, err := Build(g, &Options{Seed: 3, Nodes: []uint32{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	uncovered := uint32(700)
	for scoped.IsLandmark(uncovered) {
		uncovered++
	}
	if _, _, err := scoped.Distance(0, uncovered); !errors.Is(err, ErrNotCovered) {
		t.Fatalf("scoped Distance: %v, want ErrNotCovered", err)
	}
	if _, err := scoped.Query(ctx, Request{S: 0, T: uncovered}); !errors.Is(err, ErrNotCovered) {
		t.Fatalf("scoped Query: %v, want ErrNotCovered", err)
	}

	// Stale snapshots surface through ApplyUpdates on the core chain;
	// the public Oracle serializes updates so callers never see it, but
	// the sentinel must still be exported for wire/HTTP clients.
	if ErrStaleSnapshot == nil || ErrUnreachable == nil {
		t.Fatal("taxonomy sentinels missing")
	}
}

// TestQueryDeadlinesDuringPublicUpdates races deadline- and
// budget-bounded queries against concurrent ApplyUpdates through the
// public epoch-swapping Oracle (run under -race): every answer must be
// coherent and every error typed.
func TestQueryDeadlinesDuringPublicUpdates(t *testing.T) {
	g := GenerateSocial(800, 4, 7)
	o, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := xrand.New(1)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			err := o.ApplyUpdates(Update{Edges: [][2]uint32{{r.Uint32n(800), r.Uint32n(800)}}})
			if err != nil {
				panic(err)
			}
		}
	}()
	var qg sync.WaitGroup
	for w := 0; w < 4; w++ {
		qg.Add(1)
		go func(seed uint64) {
			defer qg.Done()
			r := xrand.New(seed)
			for i := 0; i < 200; i++ {
				s, u := r.Uint32n(800), r.Uint32n(800)
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Microsecond)
				res, err := o.Query(ctx, Request{S: s, T: u, Budget: 64 * (i%3 + 1), WantPath: i%2 == 0})
				cancel()
				switch {
				case err == nil:
					if res.Method.Exact() && res.Dist != NoDist && res.Method != MethodSame && len(res.Path) > 0 {
						if uint32(len(res.Path)-1) != res.Dist {
							panic(fmt.Sprintf("path/dist mismatch: %d hops for %d", len(res.Path)-1, res.Dist))
						}
					}
				case errors.Is(err, ErrCanceled), errors.Is(err, ErrBudgetExceeded):
				default:
					panic(fmt.Sprintf("untyped error %v", err))
				}
			}
		}(uint64(100 + w))
	}
	qg.Wait()
	close(stop)
	wg.Wait()
}
