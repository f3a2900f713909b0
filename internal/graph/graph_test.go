package graph

import (
	"testing"
	"testing/quick"

	"vicinity/internal/xrand"
)

// triangle plus a pendant: 0-1, 1-2, 2-0, 2-3
func testGraph(t *testing.T) *Graph {
	t.Helper()
	g := FromEdges(4, [][2]uint32{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	if err := g.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return g
}

func TestBasicAccessors(t *testing.T) {
	g := testGraph(t)
	if g.NumNodes() != 4 || g.NumEdges() != 4 || g.NumDirectedEdges() != 8 {
		t.Fatalf("sizes: n=%d m=%d 2m=%d", g.NumNodes(), g.NumEdges(), g.NumDirectedEdges())
	}
	if g.Weighted() {
		t.Fatal("unweighted graph reports weighted")
	}
	if g.Degree(2) != 3 || g.Degree(3) != 1 {
		t.Fatalf("degrees: deg(2)=%d deg(3)=%d", g.Degree(2), g.Degree(3))
	}
	want := []uint32{0, 1, 3}
	got := g.Neighbors(2)
	if len(got) != len(want) {
		t.Fatalf("Neighbors(2) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors(2) = %v, want %v", got, want)
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 3) {
		t.Fatal("HasEdge incorrect")
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 1 {
		t.Fatalf("EdgeWeight(0,1) = %d,%v", w, ok)
	}
	if _, ok := g.EdgeWeight(0, 3); ok {
		t.Fatal("EdgeWeight on missing edge reported ok")
	}
	if d, u := g.MaxDegree(); d != 3 || u != 2 {
		t.Fatalf("MaxDegree = %d@%d", d, u)
	}
	if g.AvgDegree() != 2 {
		t.Fatalf("AvgDegree = %v", g.AvgDegree())
	}
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(0, 1) // duplicate, same direction
	b.AddEdge(1, 1) // self-loop: dropped
	b.AddEdge(1, 2)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("m = %d, want 2", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderWeightedMinWins(t *testing.T) {
	b := NewBuilder(2)
	b.AddWeightedEdge(0, 1, 7)
	b.AddWeightedEdge(1, 0, 3)
	b.AddWeightedEdge(0, 1, 5)
	g := b.Build()
	if !g.Weighted() {
		t.Fatal("graph not weighted")
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 3 {
		t.Fatalf("EdgeWeight = %d,%v, want 3", w, ok)
	}
	if w, ok := g.EdgeWeight(1, 0); !ok || w != 3 {
		t.Fatalf("reverse EdgeWeight = %d,%v, want 3", w, ok)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

func TestEmptyAndSingletonGraphs(t *testing.T) {
	for _, n := range []int{0, 1, 5} {
		g := FromEdges(n, nil)
		if g.NumNodes() != n || g.NumEdges() != 0 {
			t.Fatalf("n=%d: sizes wrong", n)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if g.MaxWeight() != 0 {
			t.Fatalf("edgeless MaxWeight = %d", g.MaxWeight())
		}
	}
	if d, u := FromEdges(0, nil).MaxDegree(); d != 0 || u != NoNode {
		t.Fatalf("empty MaxDegree = %d@%d", d, u)
	}
}

func TestForEachEdgeVisitsOnce(t *testing.T) {
	g := testGraph(t)
	seen := map[[2]uint32]int{}
	g.ForEachEdge(func(u, v, w uint32) {
		if u >= v {
			t.Fatalf("ForEachEdge gave u=%d >= v=%d", u, v)
		}
		if w != 1 {
			t.Fatalf("weight %d on unweighted graph", w)
		}
		seen[[2]uint32{u, v}]++
	})
	if len(seen) != 4 {
		t.Fatalf("visited %d edges, want 4", len(seen))
	}
	for e, c := range seen {
		if c != 1 {
			t.Fatalf("edge %v visited %d times", e, c)
		}
	}
}

func TestLargeAdjacencySorted(t *testing.T) {
	// Exercise the sort.Slice path (adjacency > 24 entries).
	const n = 64
	b := NewBuilder(n)
	r := xrand.New(3)
	perm := r.Perm(n - 1)
	for _, v := range perm {
		b.AddEdge(0, uint32(v+1))
	}
	g := b.Build()
	if g.Degree(0) != n-1 {
		t.Fatalf("deg(0) = %d", g.Degree(0))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestComponents(t *testing.T) {
	// Two triangles and an isolated node.
	g := FromEdges(7, [][2]uint32{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	labels, count := Components(g)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("triangle 1 split across components")
	}
	if labels[3] != labels[4] || labels[4] != labels[5] {
		t.Fatal("triangle 2 split across components")
	}
	if labels[0] == labels[3] || labels[0] == labels[6] || labels[3] == labels[6] {
		t.Fatal("distinct components share a label")
	}
	if Connected(g) {
		t.Fatal("disconnected graph reported connected")
	}
	if !Connected(testGraph(t)) {
		t.Fatal("connected graph reported disconnected")
	}
	if !Connected(FromEdges(0, nil)) || !Connected(FromEdges(1, nil)) {
		t.Fatal("trivial graphs must be connected")
	}
}

func TestLargestComponent(t *testing.T) {
	// Component A: path of 4; component B: triangle; isolated: 1 node.
	g := FromEdges(8, [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 4}})
	lcc, newToOld := LargestComponent(g)
	if lcc.NumNodes() != 4 || lcc.NumEdges() != 3 {
		t.Fatalf("lcc: n=%d m=%d", lcc.NumNodes(), lcc.NumEdges())
	}
	if err := lcc.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, old := range newToOld {
		if old > 3 {
			t.Fatalf("newToOld[%d] = %d not in the path component", i, old)
		}
	}
	// Already connected: same graph and identity map come back.
	g2 := testGraph(t)
	same, id := LargestComponent(g2)
	if same != g2 {
		t.Fatal("connected graph was copied")
	}
	for i, v := range id {
		if int(v) != i {
			t.Fatal("identity map wrong")
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := testGraph(t) // triangle 0-1-2 plus 2-3
	sub, newToOld := InducedSubgraph(g, []uint32{2, 0, 1})
	if sub.NumNodes() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("sub: n=%d m=%d", sub.NumNodes(), sub.NumEdges())
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	if newToOld[0] != 2 || newToOld[1] != 0 || newToOld[2] != 1 {
		t.Fatalf("newToOld = %v", newToOld)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate keep did not panic")
		}
	}()
	InducedSubgraph(g, []uint32{0, 0})
}

func TestComputeStats(t *testing.T) {
	g := testGraph(t)
	s := ComputeStats(g)
	if s.Nodes != 4 || s.UndirectedEdge != 4 || s.DirectedEdge != 8 {
		t.Fatalf("stats sizes: %+v", s)
	}
	if s.MinDegree != 1 || s.MaxDegree != 3 || s.AvgDegree != 2 {
		t.Fatalf("stats degrees: %+v", s)
	}
	if s.Components != 1 || s.LargestCompPct != 1 {
		t.Fatalf("stats components: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
	empty := ComputeStats(FromEdges(0, nil))
	if empty.Nodes != 0 || empty.Components != 0 {
		t.Fatalf("empty stats: %+v", empty)
	}
}

func TestQuickBuilderAlwaysValid(t *testing.T) {
	f := func(raw []uint32) bool {
		const n = 40
		b := NewBuilder(n)
		for i := 0; i+1 < len(raw); i += 2 {
			b.AddWeightedEdge(raw[i]%n, raw[i+1]%n, raw[i]%5+raw[i+1]%3)
		}
		g := b.Build()
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickHasEdgeMatchesMap(t *testing.T) {
	f := func(raw []uint32) bool {
		const n = 25
		b := NewBuilder(n)
		ref := map[[2]uint32]bool{}
		for i := 0; i+1 < len(raw); i += 2 {
			u, v := raw[i]%n, raw[i+1]%n
			if u == v {
				continue
			}
			b.AddEdge(u, v)
			ref[[2]uint32{u, v}] = true
			ref[[2]uint32{v, u}] = true
		}
		g := b.Build()
		for u := uint32(0); u < n; u++ {
			for v := uint32(0); v < n; v++ {
				if g.HasEdge(u, v) != ref[[2]uint32{u, v}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBuild100k(b *testing.B) {
	r := xrand.New(1)
	const n, m = 10000, 100000
	us := make([]uint32, m)
	vs := make([]uint32, m)
	for i := range us {
		us[i] = r.Uint32n(n)
		vs[i] = r.Uint32n(n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := NewBuilder(n)
		for j := range us {
			bld.AddEdge(us[j], vs[j])
		}
		_ = bld.Build()
	}
}

func BenchmarkNeighborScan(b *testing.B) {
	r := xrand.New(2)
	const n, m = 10000, 100000
	bld := NewBuilder(n)
	for i := 0; i < m; i++ {
		bld.AddEdge(r.Uint32n(n), r.Uint32n(n))
	}
	g := bld.Build()
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		for _, v := range g.Neighbors(uint32(i) % n) {
			sink += v
		}
	}
	_ = sink
}

// TestValidateRejects builds one corrupt CSR per check Validate makes
// and pins the error each gets: the first one a walk of the nodes in id
// order, and of each adjacency in order, meets.
func TestValidateRejects(t *testing.T) {
	csr := func(m int, offsets, targets, weights []uint32) *Graph {
		return &Graph{n: max(len(offsets)-1, 0), m: m, offsets: offsets, targets: targets, weights: weights}
	}
	for _, tc := range []struct {
		name string
		g    *Graph
		want string
	}{
		{"offsets length", &Graph{n: 3, m: 1, offsets: []uint32{0, 1, 2}, targets: []uint32{1, 0}},
			"graph: offsets length 3, want 4"},
		{"offset bounds", csr(1, []uint32{0, 1, 3}, []uint32{1, 0}, nil),
			"graph: offset bounds [0,3] inconsistent with 2 targets"},
		{"edge count", csr(2, []uint32{0, 1, 2}, []uint32{1, 0}, nil),
			"graph: 2 adjacency entries, want 2m=4"},
		{"weight count", csr(1, []uint32{0, 1, 2}, []uint32{1, 0}, []uint32{1}),
			"graph: 1 weights for 2 targets"},
		{"negative degree", csr(1, []uint32{0, 2, 1, 2}, []uint32{1, 2}, nil),
			"graph: node 1 has negative degree"},
		{"target out of range", csr(1, []uint32{0, 1, 2}, []uint32{2, 0}, nil),
			"graph: edge 0-2 out of range"},
		{"self-loop", csr(1, []uint32{0, 1, 2}, []uint32{0, 0}, nil),
			"graph: self-loop at 0"},
		{"unsorted adjacency", csr(3, []uint32{0, 3, 4, 5, 6}, []uint32{1, 3, 2, 0, 0, 0}, nil),
			"graph: adjacency of 0 not strictly sorted"},
		{"duplicate adjacency", csr(2, []uint32{0, 2, 4}, []uint32{1, 1, 0, 0}, nil),
			"graph: adjacency of 0 not strictly sorted"},
		// Two directed 3-cycles: every node has one arc out and one in, so
		// the totals balance, but no arc has its reverse.
		{"directed 3-cycles", csr(3, []uint32{0, 1, 2, 3, 4, 5, 6}, []uint32{1, 2, 0, 4, 5, 3}, nil),
			"graph: edge 0-1 not symmetric"},
		// Node 2 lists 0, which does not list 2, and node 3 lists 1,
		// which does not list 3, so the totals balance. The walk meets
		// node 2's arc first, at the larger end of its edge.
		{"reverse arc missing below", csr(4, []uint32{0, 1, 3, 6, 8}, []uint32{1, 0, 2, 0, 1, 3, 1, 2}, nil),
			"graph: edge 2-0 not symmetric"},
		{"asymmetric weight", csr(1, []uint32{0, 1, 2}, []uint32{1, 0}, []uint32{5, 6}),
			"graph: asymmetric weight on 0-1"},
	} {
		err := tc.g.Validate()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: Validate() = %v, want %q", tc.name, err, tc.want)
		}
	}
}
