package core

import (
	"fmt"
	"slices"
	"testing"

	"vicinity/internal/gen"
	"vicinity/internal/graph"
	"vicinity/internal/traverse"
	"vicinity/internal/xrand"
)

// assertLandmarkRows checks every landmark row of o against a
// single-source reference traversal: BFS on unweighted graphs,
// Dijkstra on weighted ones. Nibble rows are read through
// landmarkDist, which maps their unreachable value back to NoDist. Only
// the landmarks for which inScope holds may have rows, and all of them
// must.
func assertLandmarkRows(t *testing.T, g *graph.Graph, o *Oracle, inScope func(uint32) bool) {
	t.Helper()
	for li, l := range o.Landmarks() {
		if has := o.hasLandmarkTable(int32(li)); has != inScope(l) {
			t.Fatalf("landmark %d: has row = %v, want %v", l, has, !has)
		}
		if !o.hasLandmarkTable(int32(li)) {
			continue
		}
		var ref []uint32
		if g.Weighted() {
			ref = traverse.Dijkstra(g, l).Dist
		} else {
			ref = traverse.BFS(g, l).Dist
		}
		for v, want := range ref {
			if got := o.landmarkDist(int32(li), uint32(v)); got != want {
				t.Fatalf("landmark %d (row %d of %d): d(%d) = %d, want %d",
					l, o.lpos[li], len(o.Landmarks()), v, got, want)
			}
		}
	}
}

// TestLandmarkRowsMatchBFS pins the landmark stage to the reference
// traversals. The pinned set sizes straddle the 64-source batches of
// the unweighted kernel: one source, one short of a word, exactly one
// word, one over, and a third partial batch. Workers 1 and 3 give the
// batches different schedules.
func TestLandmarkRowsMatchBFS(t *testing.T) {
	profiles := append(crossProfiles(), crossProfile{"weighted", func() *graph.Graph {
		r := xrand.New(33)
		b := graph.NewBuilder(250)
		gen.HolmeKim(xrand.New(17), 250, 3, 0.4).ForEachEdge(func(u, v, _ uint32) {
			b.AddWeightedEdge(u, v, 1+r.Uint32n(9))
		})
		return b.Build()
	}})
	all := func(uint32) bool { return true }
	for _, p := range profiles {
		g := p.build()
		perm := xrand.New(7).Perm(g.NumNodes())
		for _, k := range []int{1, 63, 64, 65, 130} {
			landmarks := make([]uint32, k)
			for i := range landmarks {
				landmarks[i] = uint32(perm[i])
			}
			for _, workers := range []int{1, 3} {
				// A row is wide exactly when one of its distances outgrows
				// four bits (the grid's, the ring's and the weighted
				// profile's rows). compact=true checks the rows as built;
				// compact=false widens the rest first, so the four-byte read
				// path sees the same rows.
				for _, compact := range []bool{false, true} {
					name := fmt.Sprintf("%s/L%d/w%d/compact=%v", p.name, k, workers, compact)
					t.Run(name, func(t *testing.T) {
						o := mustBuild(t, g, Options{Seed: 3, Workers: workers, Landmarks: landmarks})
						for li, p := range o.lpos {
							ref := traverse.BFS(g, o.landmarks[li]).Dist
							if g.Weighted() {
								ref = traverse.Dijkstra(g, o.landmarks[li]).Dist
							}
							wide := slices.ContainsFunc(ref, func(d uint32) bool { return d != NoDist && d > maxNibble })
							if (o.lrows[p].wide != nil) != wide {
								t.Fatalf("row %d is wide = %v, its distances want %v", p, o.lrows[p].wide != nil, wide)
							}
							if !compact && o.lrows[p].wide == nil {
								o.lrows[p].widen(g.NumNodes())
							}
						}
						assertLandmarkRows(t, g, o, all)
					})
				}
			}
		}
	}

	// A scoped build gives rows to the in-scope landmarks only, still in
	// landmark order and still split into batches.
	g := socialGraph(13, 400)
	perm := xrand.New(9).Perm(400)
	landmarks := make([]uint32, 130)
	for i := range landmarks {
		landmarks[i] = uint32(perm[i])
	}
	scope := make([]uint32, 0, 200)
	in := make([]bool, 400)
	for _, u := range perm[65:265] { // 65 of the landmarks and 135 other nodes
		scope = append(scope, uint32(u))
		in[u] = true
	}
	for _, workers := range []int{1, 3} {
		o := mustBuild(t, g, Options{Seed: 3, Workers: workers, Landmarks: landmarks, Nodes: scope})
		assertLandmarkRows(t, g, o, func(l uint32) bool { return in[l] })
	}
}

// BenchmarkLandmarkTables times the landmark stage alone on the
// LiveJournal profile at n = 20,000 (601 landmarks): every iteration
// rebuilds all landmark rows of one oracle. Workers follow -cpu.
func BenchmarkLandmarkTables(b *testing.B) {
	g := gen.ProfileLiveJournal.Generate(20000, 42)
	o, err := Build(g, Options{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		o.buildLandmarkTables(g.Weighted())
	}
	b.ReportMetric(float64(len(o.Landmarks())), "landmarks")
}
