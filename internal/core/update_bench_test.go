package core

import (
	"testing"

	"vicinity/internal/xrand"
)

// benchGraphNodes sizes the update benchmarks; the CHANGES.md
// acceptance numbers are recorded at 50k.
const benchGraphNodes = 50000

func benchOracle(b *testing.B) *Oracle {
	b.Helper()
	g := socialGraph(7, benchGraphNodes)
	o, err := Build(g, Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return o
}

// BenchmarkInsertEdgeCOW measures one random edge insertion through the
// copy-on-write snapshot path the server uses.
func BenchmarkInsertEdgeCOW(b *testing.B) {
	o := benchOracle(b)
	r := xrand.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := uint32(o.Graph().NumNodes())
		next, err := o.ApplyUpdates(Update{Edges: [][2]uint32{{r.Uint32n(n), r.Uint32n(n)}}})
		if err != nil {
			b.Fatal(err)
		}
		o = next
	}
}

// BenchmarkUpdateBatch100 measures a 100-edge batch (the amortized
// per-edge cost of batching).
func BenchmarkUpdateBatch100(b *testing.B) {
	o := benchOracle(b)
	r := xrand.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := uint32(o.Graph().NumNodes())
		edges := make([][2]uint32, 100)
		for j := range edges {
			edges[j] = [2]uint32{r.Uint32n(n), r.Uint32n(n)}
		}
		next, err := o.ApplyUpdates(Update{Edges: edges})
		if err != nil {
			b.Fatal(err)
		}
		o = next
	}
}

// BenchmarkRebuild is the baseline a single insertion competes with.
func BenchmarkRebuild(b *testing.B) {
	g := socialGraph(7, benchGraphNodes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, Options{Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// sampleLiveEdge returns one random existing edge of the oracle's
// current graph (for the deletion and reweight benchmarks).
func sampleLiveEdge(r *xrand.Rand, o *Oracle) [2]uint32 {
	g := o.Graph()
	n := uint32(g.NumNodes())
	for {
		u := r.Uint32n(n)
		adj := g.Neighbors(u)
		if len(adj) == 0 {
			continue
		}
		return [2]uint32{u, adj[r.Uint32n(uint32(len(adj)))]}
	}
}

// BenchmarkDeleteEdgeCOW measures one random edge deletion through the
// copy-on-write snapshot path the server uses — the decremental mirror
// of BenchmarkInsertEdgeCOW, compared against BenchmarkRebuild.
func BenchmarkDeleteEdgeCOW(b *testing.B) {
	o := benchOracle(b)
	r := xrand.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, err := o.ApplyUpdates(Update{DelEdges: [][2]uint32{sampleLiveEdge(r, o)}})
		if err != nil {
			b.Fatal(err)
		}
		o = next
	}
}

// BenchmarkChurnBatch100 measures a mixed batch of 50 deletions and 50
// insertions — the steady-state social-churn shape (unfollows arriving
// alongside new ties).
func BenchmarkChurnBatch100(b *testing.B) {
	o := benchOracle(b)
	r := xrand.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var upd Update
		seen := make(map[uint64]bool, 100)
		for len(upd.DelEdges) < 50 {
			e := sampleLiveEdge(r, o)
			if k := churnKey(e[0], e[1]); !seen[k] {
				seen[k] = true
				upd.DelEdges = append(upd.DelEdges, e)
			}
		}
		n := uint32(o.Graph().NumNodes())
		for len(upd.Edges) < 50 {
			u, v := r.Uint32n(n), r.Uint32n(n)
			if k := churnKey(u, v); u != v && !seen[k] {
				seen[k] = true
				upd.Edges = append(upd.Edges, [2]uint32{u, v})
			}
		}
		next, err := o.ApplyUpdates(upd)
		if err != nil {
			b.Fatal(err)
		}
		o = next
	}
}

// benchWeightedOracle builds the weighted 50k fixture for the reweight
// benchmarks.
func benchWeightedOracle(b *testing.B) *Oracle {
	b.Helper()
	g := weightedSocialGraph(7, benchGraphNodes)
	o, err := Build(g, Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return o
}

// BenchmarkSetWeightCOW measures one random weight change on a weighted
// oracle (landmark rows re-solved only when a tight or improving edge
// is touched).
func BenchmarkSetWeightCOW(b *testing.B) {
	o := benchWeightedOracle(b)
	r := xrand.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := sampleLiveEdge(r, o)
		upd := Update{SetWeights: []WeightChange{{U: e[0], V: e[1], W: 1 + r.Uint32n(9)}}}
		next, err := o.ApplyUpdates(upd)
		if err != nil {
			b.Fatal(err)
		}
		o = next
	}
}
