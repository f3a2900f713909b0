package core

import (
	"strings"
	"testing"

	"vicinity/internal/gen"
	"vicinity/internal/graph"
	"vicinity/internal/traverse"
	"vicinity/internal/xrand"
)

// TestCompactLandmarkTablesAgree verifies that the uint16 landmark
// tables (§5 memory extension) answer identically to the full-width
// tables while using less memory.
func TestCompactLandmarkTablesAgree(t *testing.T) {
	g := socialGraph(81, 500)
	full := mustBuild(t, g, Options{Seed: 81})
	compact := mustBuild(t, g, Options{Seed: 81, CompactLandmarkTables: true})

	r := xrand.New(4)
	for trial := 0; trial < 2000; trial++ {
		s, u := r.Uint32n(500), r.Uint32n(500)
		df, mf, err := queryDist(full, s, u)
		if err != nil {
			t.Fatal(err)
		}
		dc, mc, err := queryDist(compact, s, u)
		if err != nil {
			t.Fatal(err)
		}
		if df != dc || mf != mc {
			t.Fatalf("compact tables diverge on (%d,%d): %d/%v vs %d/%v",
				s, u, df, mf, dc, mc)
		}
	}

	mf, mc := full.Memory(), compact.Memory()
	if mf.LandmarkEntries != mc.LandmarkEntries {
		t.Fatalf("entry counts differ: %d vs %d", mf.LandmarkEntries, mc.LandmarkEntries)
	}
	// Distance tables shrink from 4 to 2 bytes per entry.
	wantDiff := 2 * int64(g.NumNodes()) * int64(len(full.Landmarks()))
	if diff := mf.LandmarkBytes - mc.LandmarkBytes; diff != wantDiff {
		t.Fatalf("compact saving = %d bytes, want %d", diff, wantDiff)
	}
}

// TestCompactLandmarkTablesUnreachable checks the 0xFFFF sentinel round
// trip across components.
func TestCompactLandmarkTablesUnreachable(t *testing.T) {
	b := graph.NewBuilder(60)
	gen.Path(30).ForEachEdge(func(u, v, w uint32) { b.AddEdge(u, v) })
	gen.Path(30).ForEachEdge(func(u, v, w uint32) { b.AddEdge(u+30, v+30) })
	g := b.Build()
	o := mustBuild(t, g, Options{Seed: 5, Alpha: 16, CompactLandmarkTables: true})
	// Find a landmark, query across the component boundary.
	l := o.Landmarks()[0]
	var other uint32
	if l < 30 {
		other = 45
	} else {
		other = 15
	}
	d, m, err := queryDist(o, l, other)
	if err != nil {
		t.Fatal(err)
	}
	if d != NoDist || m != MethodUnreachable {
		t.Fatalf("cross-component from landmark: d=%d m=%v", d, m)
	}
}

// TestCompactLandmarkTablesOverflow checks the build-time overflow
// guard on graphs whose distances exceed uint16: a weighted graph, and
// an unweighted path whose hop distances run past 65,534.
func TestCompactLandmarkTablesOverflow(t *testing.T) {
	t.Run("weighted", func(t *testing.T) {
		b := graph.NewBuilder(4)
		b.AddWeightedEdge(0, 1, 40000)
		b.AddWeightedEdge(1, 2, 40000)
		b.AddWeightedEdge(2, 3, 40000)
		g := b.Build()
		if _, err := Build(g, Options{Seed: 1, CompactLandmarkTables: true}); err == nil {
			t.Fatal("overflowing compact build accepted")
		}
		// The same graph builds fine at full width.
		o, err := Build(g, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ws := traverse.NewWorkspace(g)
		d, _, err := queryDist(o, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		if want := ws.DijkstraDist(0, 3); d != want {
			t.Fatalf("full-width weighted distance %d, want %d", d, want)
		}
	})
	// The path has 70,000 BFS levels, so a landmark kernel whose levels
	// cost a sweep over all n nodes would take about 70,000² steps here.
	t.Run("unweighted-path", func(t *testing.T) {
		g := gen.Path(70000)
		opts := Options{Seed: 1, Landmarks: []uint32{0}, Nodes: []uint32{0}}
		compact := opts
		compact.CompactLandmarkTables = true
		_, err := Build(g, compact)
		if err == nil || !strings.Contains(err.Error(), "distance from landmark 0 exceeds 65534") {
			t.Fatalf("compact build of a 70,000-node path: err = %v, want the overflow error naming landmark 0", err)
		}
		o := mustBuild(t, g, opts)
		if d := o.landmarkDist(o.lidx[0], 69999); d != 69999 {
			t.Fatalf("full-width row of landmark 0 reads %d at node 69999, want 69999", d)
		}
	})
}

// TestCompactPathsStillWork ensures landmark-case paths work with
// compact tables (hops derive from the uint16 distance rows).
func TestCompactPathsStillWork(t *testing.T) {
	g := socialGraph(83, 400)
	o := mustBuild(t, g, Options{Seed: 83, CompactLandmarkTables: true})
	l := o.Landmarks()[0]
	r := xrand.New(6)
	for trial := 0; trial < 100; trial++ {
		u := r.Uint32n(400)
		d, _, err := queryDist(o, l, u)
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := queryPath(o, l, u)
		if err != nil {
			t.Fatal(err)
		}
		if d == NoDist {
			continue
		}
		if uint32(len(p)-1) != d {
			t.Fatalf("landmark path length %d != %d", len(p)-1, d)
		}
		for i := 0; i+1 < len(p); i++ {
			if !g.HasEdge(p[i], p[i+1]) {
				t.Fatal("invalid edge in landmark path")
			}
		}
	}
}
