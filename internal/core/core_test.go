package core

import (
	"context"
	"errors"
	"testing"

	"vicinity/internal/gen"
	"vicinity/internal/graph"
	"vicinity/internal/traverse"
	"vicinity/internal/xrand"
)

func mustBuild(t *testing.T, g *graph.Graph, opts Options) *Oracle {
	t.Helper()
	o, err := Build(g, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return o
}

// queryDist answers (s, t) through a default-policy Query.
func queryDist(o *Oracle, s, t uint32) (uint32, Method, error) {
	res, err := o.Query(context.Background(), Request{S: s, T: t})
	return res.Dist, res.Method, err
}

// queryMeet is queryDist plus the table pass's intersection witness
// (graph.NoNode unless the boundary scan resolved the pair).
func queryMeet(o *Oracle, s, t uint32) (uint32, Method, uint32, error) {
	d, m, err := queryDist(o, s, t)
	_, _, meet, _ := o.tableDistance(s, t, &Cost{})
	return d, m, meet, err
}

// queryPath is queryDist with WantPath set.
func queryPath(o *Oracle, s, t uint32) ([]uint32, Method, error) {
	res, err := o.Query(context.Background(), Request{S: s, T: t, WantPath: true})
	return res.Path, res.Method, err
}

func socialGraph(seed uint64, n int) *graph.Graph {
	return gen.HolmeKim(xrand.New(seed), n, 4, 0.5)
}

func TestBuildDefaults(t *testing.T) {
	g := socialGraph(1, 500)
	o := mustBuild(t, g, Options{Seed: 1})
	if o.Options().Alpha != 4 {
		t.Fatalf("alpha default = %v", o.Options().Alpha)
	}
	if len(o.Landmarks()) == 0 {
		t.Fatal("no landmarks sampled")
	}
	st := o.Stats()
	if st.Covered != 500-len(o.Landmarks()) {
		t.Fatalf("covered = %d, want %d", st.Covered, 500-len(o.Landmarks()))
	}
	if st.AvgVicinity <= 0 {
		t.Fatalf("avg vicinity = %v", st.AvgVicinity)
	}
	if st.String() == "" || o.Memory().String() == "" {
		t.Fatal("empty stats strings")
	}
}

// TestExactOnFixtures checks every pair on small deterministic graphs
// against BFS ground truth.
func TestExactOnFixtures(t *testing.T) {
	fixtures := map[string]*graph.Graph{
		"path":   gen.Path(30),
		"cycle":  gen.Cycle(24),
		"star":   gen.Star(20),
		"grid":   gen.Grid(6, 7),
		"tree":   gen.Tree(40, 3),
		"social": socialGraph(7, 120),
	}
	for name, g := range fixtures {
		o := mustBuild(t, g, Options{Seed: 3})
		n := g.NumNodes()
		for s := uint32(0); int(s) < n; s++ {
			ref := traverse.BFS(g, s)
			for u := uint32(0); int(u) < n; u++ {
				d, m, err := queryDist(o, s, u)
				if err != nil {
					t.Fatalf("%s: Distance(%d,%d): %v", name, s, u, err)
				}
				if d != ref.Dist[u] {
					t.Fatalf("%s: Distance(%d,%d) = %d via %v, want %d",
						name, s, u, d, m, ref.Dist[u])
				}
			}
		}
	}
}

// TestTheorem1 verifies the paper's central claim directly: whenever
// Γ(s) ∩ Γ(t) is non-empty, min over the intersection of d(s,w)+d(w,t)
// equals d(s,t).
func TestTheorem1(t *testing.T) {
	g := socialGraph(11, 800)
	o := mustBuild(t, g, Options{Seed: 11, Alpha: 2})
	r := xrand.New(99)
	n := uint32(g.NumNodes())
	checked := 0
	for trial := 0; trial < 4000 && checked < 300; trial++ {
		s, u := r.Uint32n(n), r.Uint32n(n)
		if s == u || o.IsLandmark(s) || o.IsLandmark(u) {
			continue
		}
		// Compute the intersection minimum by brute force.
		best := NoDist
		o.ForEachVicinityMember(s, func(w, ds uint32) {
			if dt, ok := o.VicinityContains(u, w); ok {
				if cand := ds + dt; cand < best {
					best = cand
				}
			}
		})
		if best == NoDist {
			continue // vicinities disjoint: Theorem 1 says nothing
		}
		checked++
		want := traverse.BFS(g, s).Dist[u]
		if best != want {
			t.Fatalf("Theorem 1 violated: pair (%d,%d) intersection min %d, true %d", s, u, best, want)
		}
	}
	if checked < 50 {
		t.Fatalf("only %d intersecting pairs checked; graph/α badly tuned", checked)
	}
}

// TestLemma1 verifies that boundary-only scanning loses nothing: for
// pairs with s ∉ Γ(t) and t ∉ Γ(s), ∂Γ(s) ∩ Γ(t) = ∅ iff Γ(s) ∩ Γ(t) = ∅.
func TestLemma1(t *testing.T) {
	g := socialGraph(13, 600)
	o := mustBuild(t, g, Options{Seed: 13, Alpha: 2})
	r := xrand.New(7)
	n := uint32(g.NumNodes())
	tested := 0
	for trial := 0; trial < 5000 && tested < 400; trial++ {
		s, u := r.Uint32n(n), r.Uint32n(n)
		if s == u || o.IsLandmark(s) || o.IsLandmark(u) {
			continue
		}
		if _, in := o.VicinityContains(s, u); in {
			continue
		}
		if _, in := o.VicinityContains(u, s); in {
			continue
		}
		tested++
		fullIntersect := false
		o.ForEachVicinityMember(s, func(w, _ uint32) {
			if _, ok := o.VicinityContains(u, w); ok {
				fullIntersect = true
			}
		})
		boundIntersect := false
		bkeys, _ := boundaryKeys(o, s)
		for _, w := range bkeys {
			if _, ok := o.VicinityContains(u, w); ok {
				boundIntersect = true
				break
			}
		}
		if fullIntersect != boundIntersect {
			t.Fatalf("Lemma 1 violated for (%d,%d): full=%v boundary=%v", s, u, fullIntersect, boundIntersect)
		}
	}
	if tested < 100 {
		t.Fatalf("only %d pairs tested", tested)
	}
}

// TestVicinityInvariants checks Definition 1 per node: radius equals the
// distance to the nearest landmark, the vicinity is exactly the closed
// ball of that radius stored in level order, the boundary is all of the
// last level and ends u's entries, and derived path chains take the
// first neighbor, in CSR order, one step closer.
func TestVicinityInvariants(t *testing.T) {
	g := socialGraph(17, 400)
	o := mustBuild(t, g, Options{Seed: 17})
	L := o.Landmarks()
	for u := uint32(0); int(u) < g.NumNodes(); u++ {
		if o.IsLandmark(u) {
			continue
		}
		ref := traverse.BFS(g, u)
		wantR := NoDist
		for _, l := range L {
			if d := ref.Dist[l]; d < wantR {
				wantR = d
			}
		}
		if got := o.Radius(u); got != wantR {
			t.Fatalf("node %d: radius %d, want %d", u, got, wantR)
		}
		if nl := o.NearestLandmark(u); nl == graph.NoNode || ref.Dist[nl] != wantR {
			t.Fatalf("node %d: nearest landmark %d at %d, want radius %d", u, nl, ref.Dist[nl], wantR)
		}
		// Closed-ball equality and exact distances.
		count := 0
		for v := uint32(0); int(v) < g.NumNodes(); v++ {
			d, in := o.VicinityContains(u, v)
			wantIn := ref.Dist[v] <= wantR
			if in != wantIn {
				t.Fatalf("node %d: membership of %d = %v, want %v (d=%d r=%d)",
					u, v, in, wantIn, ref.Dist[v], wantR)
			}
			if in {
				count++
				if d != ref.Dist[v] {
					t.Fatalf("node %d: stored d(%d)=%d, true %d", u, v, d, ref.Dist[v])
				}
			}
		}
		if count != o.VicinitySize(u) {
			t.Fatalf("node %d: vicinity size %d, counted %d", u, o.VicinitySize(u), count)
		}
		// Boundary definition: all of level r, the tail of u's entries,
		// which are in level order.
		tbl, _ := o.vicinity(u)
		bKeys, bDists := boundaryKeys(o, u)
		if len(bKeys) != o.BoundarySize(u) {
			t.Fatalf("node %d: boundary view %d, size %d", u, len(bKeys), o.BoundarySize(u))
		}
		level := 0
		for v := uint32(0); int(v) < g.NumNodes(); v++ {
			if ref.Dist[v] == wantR {
				level++
			}
		}
		if len(bKeys) != level {
			t.Fatalf("node %d: boundary has %d members, level %d has %d", u, len(bKeys), wantR, level)
		}
		keys, dists := tableEntries(tbl)
		head := len(keys) - len(bKeys)
		for i, k := range keys {
			d := dists[i]
			if i > 0 && d < dists[i-1] {
				t.Fatalf("node %d: entry %d at distance %d after one at %d", u, i, d, dists[i-1])
			}
			if i >= head && (k != bKeys[i-head] || d != wantR || bDists != nil) {
				t.Fatalf("node %d: boundary[%d] = %d, entry %d/%d, radius %d",
					u, i-head, bKeys[i-head], k, d, wantR)
			}
		}
		// Derived chains: each hop is the first CSR neighbor inside Γ(u)
		// one step closer to u.
		for i, v := range keys {
			d := dists[i]
			chain, ok := o.vicinityChain(u, v)
			if !ok || len(chain) != int(d)+1 || chain[0] != v || chain[d] != u {
				t.Fatalf("node %d: chain from %d (d=%d) = %v, %v", u, v, d, chain, ok)
			}
			for j := 0; j < int(d); j++ {
				cur := chain[j]
				want := graph.NoNode
				for _, nb := range g.Neighbors(cur) {
					if nd, in := tbl.Get(nb); in && nd == d-uint32(j)-1 {
						want = nb
						break
					}
				}
				if chain[j+1] != want {
					t.Fatalf("node %d: hop %d→%d, want first closer neighbor %d", u, cur, chain[j+1], want)
				}
			}
		}
	}
}

// TestQueryMethods exercises each Algorithm 1 case.
func TestQueryMethods(t *testing.T) {
	g := socialGraph(19, 500)
	o := mustBuild(t, g, Options{Seed: 19})
	n := uint32(g.NumNodes())
	r := xrand.New(5)
	seen := map[Method]bool{}
	for trial := 0; trial < 20000; trial++ {
		s, u := r.Uint32n(n), r.Uint32n(n)
		_, m, err := queryDist(o, s, u)
		if err != nil {
			t.Fatal(err)
		}
		seen[m] = true
	}
	for _, want := range []Method{MethodSame, MethodLandmarkSource, MethodLandmarkTarget,
		MethodVicinitySource, MethodIntersection} {
		if !seen[want] {
			t.Errorf("method %v never observed", want)
		}
	}
	for m := range seen {
		if m == MethodNone {
			t.Error("MethodNone observed under the default (exact) policy")
		}
	}
}

// TestQueryStatsAccounting checks lookup instrumentation is plausible.
func TestQueryStatsAccounting(t *testing.T) {
	g := socialGraph(23, 400)
	o := mustBuild(t, g, Options{Seed: 23})
	r := xrand.New(6)
	n := uint32(g.NumNodes())
	for trial := 0; trial < 500; trial++ {
		s, u := r.Uint32n(n), r.Uint32n(n)
		res, err := o.Query(context.Background(), Request{S: s, T: u})
		if err != nil {
			t.Fatal(err)
		}
		c := res.Cost
		switch res.Method {
		case MethodSame:
			if c.Lookups != 0 {
				t.Fatalf("same-node query did %d lookups", c.Lookups)
			}
		case MethodLandmarkSource, MethodLandmarkTarget:
			if c.Lookups < 1 || c.Lookups > 2 {
				t.Fatalf("landmark query did %d lookups", c.Lookups)
			}
		case MethodIntersection:
			// Two direct-case lookups, then one per run the scan
			// opened; the meeting pair alone is two scanned entries.
			if c.Lookups < 3 || c.Scanned < 2 {
				t.Fatalf("intersection scanned=%d lookups=%d", c.Scanned, c.Lookups)
			}
			if _, _, meet, _ := o.tableDistance(s, u, &Cost{}); meet == graph.NoNode {
				t.Fatal("intersection without witness")
			}
		}
	}
}

// TestPathsAllMethods validates path output against the reported distance
// for every resolution method.
func TestPathsAllMethods(t *testing.T) {
	g := socialGraph(29, 500)
	o := mustBuild(t, g, Options{Seed: 29})
	r := xrand.New(8)
	n := uint32(g.NumNodes())
	perMethod := map[Method]int{}
	for trial := 0; trial < 3000; trial++ {
		s, u := r.Uint32n(n), r.Uint32n(n)
		d, _, err := queryDist(o, s, u)
		if err != nil {
			t.Fatal(err)
		}
		p, m, err := queryPath(o, s, u)
		if err != nil {
			t.Fatal(err)
		}
		perMethod[m]++
		if d == NoDist {
			if p != nil {
				t.Fatalf("path for unreachable pair: %v", p)
			}
			continue
		}
		if len(p) == 0 || p[0] != s || p[len(p)-1] != u {
			t.Fatalf("path endpoints: %v (s=%d t=%d m=%v)", p, s, u, m)
		}
		if uint32(len(p)-1) != d {
			t.Fatalf("path length %d != distance %d (m=%v)", len(p)-1, d, m)
		}
		for i := 0; i+1 < len(p); i++ {
			if !g.HasEdge(p[i], p[i+1]) {
				t.Fatalf("path uses missing edge %d-%d", p[i], p[i+1])
			}
		}
	}
	for _, want := range []Method{MethodVicinitySource, MethodIntersection, MethodLandmarkSource} {
		if perMethod[want] == 0 {
			t.Errorf("no paths via %v", want)
		}
	}
}

func TestScopedBuild(t *testing.T) {
	g := socialGraph(31, 600)
	r := xrand.New(9)
	scope := make([]uint32, 0, 50)
	seen := map[uint32]bool{}
	for len(scope) < 50 {
		u := r.Uint32n(600)
		if !seen[u] {
			seen[u] = true
			scope = append(scope, u)
		}
	}
	o := mustBuild(t, g, Options{Seed: 31, Nodes: scope})
	// In-scope pairs answer exactly.
	for i := 0; i < 20; i++ {
		s, u := scope[i], scope[(i*7+3)%len(scope)]
		d, _, err := queryDist(o, s, u)
		if err != nil {
			t.Fatalf("in-scope query: %v", err)
		}
		if want := traverse.BFS(g, s).Dist[u]; d != want {
			t.Fatalf("scoped Distance(%d,%d) = %d, want %d", s, u, d, want)
		}
	}
	// Out-of-scope queries fail with ErrNotCovered.
	var out uint32
	for u := uint32(0); int(u) < 600; u++ {
		if !seen[u] && !o.IsLandmark(u) {
			out = u
			break
		}
	}
	if _, _, err := queryDist(o, out, scope[0]); !errors.Is(err, ErrNotCovered) {
		t.Fatalf("out-of-scope error = %v", err)
	}
	if !o.Covers(scope[0]) || o.Covers(out) {
		t.Fatal("Covers() incorrect")
	}
	// Memory projection extrapolates to full coverage.
	ms := o.Memory()
	if ms.ProjectedEntries <= float64(ms.TotalEntries) {
		t.Fatalf("projection %v not above measured %v", ms.ProjectedEntries, ms.TotalEntries)
	}
}

// TestFallbackModes checks the three things a pair the tables miss can
// get, chosen per request on one default-built oracle: the exact
// search (PolicyDefault and PolicyFull alike), the landmark estimate,
// or no answer.
func TestFallbackModes(t *testing.T) {
	// A long path graph: distant nodes have disjoint vicinities.
	g := gen.Path(400)
	o := mustBuild(t, g, Options{Seed: 7, Alpha: 0.5})
	if _, m, _, err := o.tableDistance(0, 399, &Cost{}); err != nil || m != MethodNone {
		t.Fatalf("construction broken: (0, 399) decided by the tables (%v, %v)", m, err)
	}
	ctx := context.Background()
	for _, pol := range []Policy{PolicyDefault, PolicyFull} {
		res, err := o.Query(ctx, Request{S: 0, T: 399, Policy: pol})
		if err != nil || res.Dist != 399 || res.Method != MethodFallbackExact || res.Cost.Fallbacks != 1 {
			t.Fatalf("%v: d=%d m=%v searches=%d err=%v, want the exact search's 399",
				pol, res.Dist, res.Method, res.Cost.Fallbacks, err)
		}
	}

	res, err := o.Query(ctx, Request{S: 0, T: 399, Policy: PolicyTableOnly})
	if err != nil || res.Method != MethodNone || res.Dist != NoDist || res.Cost.Fallbacks != 0 {
		t.Fatalf("table-only: d=%d m=%v searches=%d err=%v, want no answer and no search",
			res.Dist, res.Method, res.Cost.Fallbacks, err)
	}

	res, err = o.Query(ctx, Request{S: 0, T: 399, Policy: PolicyEstimate})
	if err != nil || res.Method != MethodFallbackEstimate || res.Cost.Fallbacks != 0 {
		t.Fatalf("estimate: m=%v searches=%d err=%v, want the landmark estimate", res.Method, res.Cost.Fallbacks, err)
	}
	if res.Dist < 399 || res.Dist == NoDist {
		t.Fatalf("estimate %d below true distance 399", res.Dist)
	}

	// Without landmark tables there is nothing to estimate from: the
	// estimate policy leaves the pair unanswered rather than guessing.
	bare := mustBuild(t, g, Options{Seed: 7, Alpha: 0.5, DisableLandmarkTables: true})
	res, err = bare.Query(ctx, Request{S: 0, T: 399, Policy: PolicyEstimate})
	if err != nil || res.Method != MethodNone || res.Dist != NoDist || res.Cost.Fallbacks != 0 {
		t.Fatalf("estimate without tables: d=%d m=%v searches=%d err=%v, want no answer",
			res.Dist, res.Method, res.Cost.Fallbacks, err)
	}
}

func TestUnreachablePairs(t *testing.T) {
	// Two disjoint social components.
	b := graph.NewBuilder(200)
	g1 := socialGraph(37, 100)
	g1.ForEachEdge(func(u, v, w uint32) { b.AddEdge(u, v) })
	g2 := socialGraph(38, 100)
	g2.ForEachEdge(func(u, v, w uint32) { b.AddEdge(u+100, v+100) })
	g := b.Build()
	o := mustBuild(t, g, Options{Seed: 39})
	d, m, err := queryDist(o, 5, 150)
	if err != nil {
		t.Fatal(err)
	}
	if d != NoDist || m != MethodUnreachable {
		t.Fatalf("cross-component: d=%d m=%v", d, m)
	}
	p, m, err := queryPath(o, 5, 150)
	if err != nil || p != nil || m != MethodUnreachable {
		t.Fatalf("cross-component path: %v %v %v", p, m, err)
	}
}

func TestWeightedUpperBoundAndPaths(t *testing.T) {
	r := xrand.New(45)
	b := graph.NewBuilder(300)
	g0 := socialGraph(45, 300)
	g0.ForEachEdge(func(u, v, _ uint32) {
		b.AddWeightedEdge(u, v, r.Uint32n(4)+1)
	})
	g := b.Build()
	o := mustBuild(t, g, Options{Seed: 45})
	ws := traverse.NewWorkspace(g)
	ctx := context.Background()
	resolved, exactCount := 0, 0
	for trial := 0; trial < 1500; trial++ {
		s, u := r.Uint32n(300), r.Uint32n(300)
		res, err := o.Query(ctx, Request{S: s, T: u, Policy: PolicyTableOnly})
		if err != nil {
			t.Fatal(err)
		}
		d, m := res.Dist, res.Method
		if !m.Resolved() {
			continue
		}
		resolved++
		want := ws.DijkstraDist(s, u)
		if d < want {
			t.Fatalf("weighted oracle below true distance: (%d,%d) %d < %d", s, u, d, want)
		}
		if d == want {
			exactCount++
		}
		// Paths must be valid and match the reported distance.
		pres, err := o.Query(ctx, Request{S: s, T: u, Policy: PolicyTableOnly, WantPath: true})
		if err != nil {
			t.Fatal(err)
		}
		p, pm := pres.Path, pres.Method
		if pm.Resolved() {
			total := uint32(0)
			for i := 0; i+1 < len(p); i++ {
				w, ok := g.EdgeWeight(p[i], p[i+1])
				if !ok {
					t.Fatalf("weighted path uses missing edge: %v", p)
				}
				total += w
			}
			if total != d {
				t.Fatalf("weighted path weight %d != distance %d", total, d)
			}
		}
	}
	if resolved < 200 {
		t.Fatalf("only %d resolved weighted queries", resolved)
	}
	if float64(exactCount) < 0.95*float64(resolved) {
		t.Errorf("weighted exactness rate %.2f%% suspiciously low", 100*float64(exactCount)/float64(resolved))
	}
}

func TestZeroWeightRejected(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddWeightedEdge(0, 1, 0)
	b.AddWeightedEdge(1, 2, 2)
	if _, err := Build(b.Build(), Options{}); err == nil {
		t.Fatal("zero-weight edge accepted")
	}
}

func TestSamplingStrategies(t *testing.T) {
	g := socialGraph(47, 2000)
	expect := expectedLandmarks(g, 4)
	for _, s := range []Sampling{SamplingPaper, SamplingUniform, SamplingDegree, SamplingTop} {
		o := mustBuild(t, g, Options{Seed: 47, Sampling: s, DisableLandmarkTables: true})
		got := float64(len(o.Landmarks()))
		if got < 1 {
			t.Fatalf("%v: empty landmark set", s)
		}
		if got < expect/3 || got > expect*3 {
			t.Errorf("%v: |L|=%v far from calibrated %v", s, got, expect)
		}
		if s.String() == "" {
			t.Errorf("empty name for %v", int(s))
		}
	}
	// Determinism.
	a := mustBuild(t, g, Options{Seed: 5, DisableLandmarkTables: true})
	b := mustBuild(t, g, Options{Seed: 5, DisableLandmarkTables: true})
	la, lb := a.Landmarks(), b.Landmarks()
	if len(la) != len(lb) {
		t.Fatal("same seed, different |L|")
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatal("same seed, different landmarks")
		}
	}
}

func TestDisableLandmarkTables(t *testing.T) {
	g := socialGraph(53, 400)
	o := mustBuild(t, g, Options{Seed: 53, DisableLandmarkTables: true})
	l := o.Landmarks()[0]
	// Landmark queries must still answer (vicinity of the other node or
	// fallback) and be exact.
	other := uint32(0)
	for o.IsLandmark(other) {
		other++
	}
	d, _, err := queryDist(o, l, other)
	if err != nil {
		t.Fatal(err)
	}
	if want := traverse.BFS(g, l).Dist[other]; d != want {
		t.Fatalf("landmark query without tables: %d, want %d", d, want)
	}
	if o.Memory().LandmarkEntries != 0 {
		t.Fatal("landmark entries counted despite disable")
	}
}

func TestInvalidOptions(t *testing.T) {
	g := socialGraph(61, 100)
	cases := []Options{
		{Sampling: Sampling(99)},
		{Landmarks: []uint32{}},
		{Landmarks: []uint32{3, 100}},
		{Nodes: []uint32{1000}},
	}
	for i, opts := range cases {
		if _, err := Build(g, opts); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
	if _, err := Build(nil, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestQueryOutOfRange(t *testing.T) {
	g := socialGraph(67, 50)
	o := mustBuild(t, g, Options{Seed: 67})
	if _, _, err := queryDist(o, 0, 50); err == nil {
		t.Error("out-of-range query accepted")
	}
	if _, _, err := queryPath(o, 99, 0); err == nil {
		t.Error("out-of-range path accepted")
	}
}

func TestTinyGraphs(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		g := gen.Complete(n)
		o := mustBuild(t, g, Options{Seed: 1})
		for s := uint32(0); int(s) < n; s++ {
			for u := uint32(0); int(u) < n; u++ {
				d, _, err := queryDist(o, s, u)
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				want := uint32(1)
				if s == u {
					want = 0
				}
				if d != want {
					t.Fatalf("n=%d: d(%d,%d)=%d", n, s, u, d)
				}
			}
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	g := socialGraph(71, 400)
	o := mustBuild(t, g, Options{Seed: 71})
	refDist := traverse.BFS(g, 0)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(seed uint64) {
			r := xrand.New(seed)
			for i := 0; i < 500; i++ {
				u := r.Uint32n(400)
				d, _, err := queryDist(o, 0, u)
				if err != nil {
					done <- err
					return
				}
				if d != refDist.Dist[u] {
					done <- errors.New("concurrent query mismatch")
					return
				}
			}
			done <- nil
		}(uint64(w))
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestAlphaControlsVicinitySize(t *testing.T) {
	g := socialGraph(73, 2000)
	small := mustBuild(t, g, Options{Seed: 73, Alpha: 1, DisableLandmarkTables: true})
	large := mustBuild(t, g, Options{Seed: 73, Alpha: 8, DisableLandmarkTables: true})
	ss, ls := small.Stats(), large.Stats()
	if ss.AvgVicinity >= ls.AvgVicinity {
		t.Fatalf("α=1 vicinities (%.1f) not smaller than α=8 (%.1f)", ss.AvgVicinity, ls.AvgVicinity)
	}
	if small.Stats().Landmarks <= large.Stats().Landmarks {
		t.Fatalf("α=1 landmarks (%d) not more than α=8 (%d)", ss.Landmarks, ls.Landmarks)
	}
}

func BenchmarkBuild5k(b *testing.B) {
	g := socialGraph(1, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuery(b *testing.B) {
	g := socialGraph(2, 10000)
	o, err := Build(g, Options{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(3)
	pairs := make([][2]uint32, 1024)
	for i := range pairs {
		pairs[i] = [2]uint32{r.Uint32n(10000), r.Uint32n(10000)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&1023]
		if _, _, err := queryDist(o, p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}
