package core

import (
	"bytes"
	"testing"

	"vicinity/internal/gen"
	"vicinity/internal/graph"
	"vicinity/internal/traverse"
	"vicinity/internal/xrand"
)

// TestCompactLandmarkTablesAgree: on a social graph every landmark row
// fits four bits per node, equals the BFS reference, and Memory counts
// it at that width.
func TestCompactLandmarkTablesAgree(t *testing.T) {
	g := socialGraph(81, 500)
	o := mustBuild(t, g, Options{Seed: 81})
	assertLandmarkRows(t, g, o, func(uint32) bool { return true })
	for p, row := range o.lrows {
		if row.wide != nil || len(row.nib) != (g.NumNodes()+1)/2 {
			t.Fatalf("row %d: wide = %v, %d nibble bytes; want four bits per node", p, row.wide != nil, len(row.nib))
		}
	}
	ms := o.Memory()
	entries := int64(g.NumNodes()) * int64(len(o.Landmarks()))
	if want := int64((g.NumNodes()+1)/2) * int64(len(o.Landmarks())); ms.LandmarkBytes != want || ms.LandmarkEntries != entries {
		t.Fatalf("landmark rows: %d bytes for %d entries, want %d bytes for %d", ms.LandmarkBytes, ms.LandmarkEntries, want, entries)
	}
	if ms.WideLandmarkRows != 0 || ms.NibbleLandmarkRows != len(o.Landmarks()) {
		t.Fatalf("%d wide and %d nibble rows on a social graph", ms.WideLandmarkRows, ms.NibbleLandmarkRows)
	}
}

// TestCompactLandmarkTablesUnreachable checks that the nibble rows'
// unreachable value (0xF) reads as NoDist across components and
// survives a save/load round trip.
func TestCompactLandmarkTablesUnreachable(t *testing.T) {
	// Two 14-node paths: every finite distance is at most 13, so the
	// rows are nibbles.
	b := graph.NewBuilder(28)
	gen.Path(14).ForEachEdge(func(u, v, w uint32) { b.AddEdge(u, v) })
	gen.Path(14).ForEachEdge(func(u, v, w uint32) { b.AddEdge(u+14, v+14) })
	g := b.Build()
	o := mustBuild(t, g, Options{Seed: 5, Alpha: 16})
	for _, oracle := range []*Oracle{o, roundTrip(t, o)} {
		// Find a landmark, query across the component boundary.
		l := oracle.Landmarks()[0]
		var other uint32
		if l < 14 {
			other = 21
		} else {
			other = 7
		}
		if row := oracle.lrows[oracle.lpos[0]]; row.wide != nil || row.nib[other/2]>>(other%2*4)&0xF != unreachable4 {
			t.Fatalf("landmark %d: row is wide = %v, want a nibble 0xF at node %d", l, row.wide != nil, other)
		}
		d, m, err := queryDist(oracle, l, other)
		if err != nil {
			t.Fatal(err)
		}
		if d != NoDist || m != MethodUnreachable {
			t.Fatalf("cross-component from landmark: d=%d m=%v", d, m)
		}
	}
}

// TestCompactLandmarkTablesOverflow: a row with a distance past 14 is
// stored wide and the build succeeds — on a weighted graph, whose row
// picks its width after its Dijkstra run, and on an unweighted path,
// whose row widens mid-pass when the bit-parallel BFS reaches level 15.
func TestCompactLandmarkTablesOverflow(t *testing.T) {
	t.Run("weighted", func(t *testing.T) {
		b := graph.NewBuilder(4)
		b.AddWeightedEdge(0, 1, 40000)
		b.AddWeightedEdge(1, 2, 40000)
		b.AddWeightedEdge(2, 3, 40000)
		g := b.Build()
		o := mustBuild(t, g, Options{Seed: 1})
		for p, row := range o.lrows {
			if row.wide == nil {
				t.Fatalf("row %d of a graph with 40,000-weight edges is a nibble row", p)
			}
		}
		ws := traverse.NewWorkspace(g)
		d, _, err := queryDist(o, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		if want := ws.DijkstraDist(0, 3); d != want {
			t.Fatalf("weighted distance %d, want %d", d, want)
		}
		assertLandmarkRows(t, g, o, func(uint32) bool { return true })
	})
	// The path has 70,000 BFS levels, so a landmark kernel whose levels
	// cost a sweep over all n nodes would take about 70,000² steps here.
	t.Run("unweighted-path", func(t *testing.T) {
		g := gen.Path(70000)
		o := mustBuild(t, g, Options{Seed: 1, Landmarks: []uint32{0}, Nodes: []uint32{0}})
		if o.lrows[0].wide == nil {
			t.Fatal("row of landmark 0 on a 70,000-node path is a nibble row")
		}
		for _, v := range []uint32{1, 14, 15, 16, 254, 255, 256, 69999} {
			if d := o.landmarkDist(o.lidx[0], v); d != v {
				t.Fatalf("row of landmark 0 reads %d at node %d, want %d", d, v, v)
			}
		}
		if ms := o.Memory(); ms.WideLandmarkRows != 1 || ms.LandmarkBytes != 4*70000 {
			t.Fatalf("memory: %d wide rows, %d bytes; want 1 and %d", ms.WideLandmarkRows, ms.LandmarkBytes, 4*70000)
		}
	})
}

// TestCompactPathsStillWork ensures landmark-case paths work on the
// nibble rows (hops derive from the four-bit distance rows).
func TestCompactPathsStillWork(t *testing.T) {
	g := socialGraph(83, 400)
	o := mustBuild(t, g, Options{Seed: 83})
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

// TestLandmarkRowWidthUnderChurn drives one landmark row across the
// width boundary with updates. On a 30-node path with landmark 0 the
// row starts wide (29 hops). Shortcut edges from node 0 bring every
// distance to at most 14, so the repair packs the row as nibbles;
// deleting them widens it again. After every batch the oracle saves
// exactly like a fresh build.
func TestLandmarkRowWidthUnderChurn(t *testing.T) {
	const n = 30
	o := mustBuild(t, gen.Path(n), Options{Seed: 1, Landmarks: []uint32{0}})
	shortcuts := [][2]uint32{{0, 10}, {0, 20}}
	steps := []struct {
		name string
		upd  Update
		wide bool
	}{
		{"build", Update{}, true},
		{"first shortcut", Update{Edges: shortcuts[:1]}, true},   // 20 hops to node 29
		{"second shortcut", Update{Edges: shortcuts[1:]}, false}, // 10 hops at most
		{"delete one", Update{DelEdges: shortcuts[1:]}, true},
		{"delete both", Update{DelEdges: shortcuts[:1]}, true},
		{"both at once", Update{Edges: shortcuts}, false},
		{"grow", Update{AddNodes: 3, Edges: [][2]uint32{{29, 30}}}, false}, // an odd row grows past its padding
	}
	for _, st := range steps {
		if st.name != "build" {
			next, err := o.ApplyUpdates(st.upd)
			if err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			o = next
		}
		if wide := o.lrows[0].wide != nil; wide != st.wide {
			t.Fatalf("%s: row is wide = %v, want %v", st.name, wide, st.wide)
		}
		fresh := freshTwin(t, o)
		assertSameStructure(t, o, fresh)
		if !bytes.Equal(oracleBytes(t, o), oracleBytes(t, fresh)) {
			t.Fatalf("%s: repaired oracle serializes differently from a fresh build", st.name)
		}
		assertLandmarkRows(t, o.Graph(), o, func(uint32) bool { return true })
	}
}
