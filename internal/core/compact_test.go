package core

import (
	"bytes"
	"slices"
	"testing"

	"vicinity/internal/gen"
	"vicinity/internal/graph"
	"vicinity/internal/traverse"
	"vicinity/internal/xrand"
)

// TestCompactLandmarkTablesAgree: on a social graph every landmark row
// is coded, equals the BFS reference, and Memory counts its codes and
// exceptions.
func TestCompactLandmarkTablesAgree(t *testing.T) {
	g := socialGraph(81, 500)
	o := mustBuild(t, g, Options{Seed: 81})
	assertLandmarkRows(t, g, o, func(uint32) bool { return true })
	var stored, exceptions int64
	for p, row := range o.lrows {
		if row.k == wideK || len(row.codes) != codeWords(g.NumNodes(), row.k) {
			t.Fatalf("row %d: %d code words at %d bits; want a coded row", p, len(row.codes), row.k)
		}
		stored += 4*int64(len(row.codes)) + exceptionBytes*int64(len(row.xnode))
		exceptions += int64(len(row.xnode))
	}
	ms := o.Memory()
	entries := int64(g.NumNodes()) * int64(len(o.Landmarks()))
	if ms.LandmarkBytes != stored || ms.LandmarkEntries != entries || ms.LandmarkExceptions != exceptions {
		t.Fatalf("landmark rows: %d bytes and %d exceptions for %d entries, want %d bytes and %d for %d",
			ms.LandmarkBytes, ms.LandmarkExceptions, ms.LandmarkEntries, stored, exceptions, entries)
	}
	if ms.WideLandmarkRows != 0 || ms.TwoBitLandmarkRows+ms.FourBitLandmarkRows != len(o.Landmarks()) {
		t.Fatalf("%d wide, %d two-bit and %d four-bit rows on a social graph",
			ms.WideLandmarkRows, ms.TwoBitLandmarkRows, ms.FourBitLandmarkRows)
	}
}

// TestCompactLandmarkTablesUnreachable checks that a coded row's
// escape code at a node its exception list does not hold reads as
// NoDist across components and survives a save/load round trip.
func TestCompactLandmarkTablesUnreachable(t *testing.T) {
	// Two 14-node paths: every finite distance is at most 13, so a row
	// codes them all at four bits from base 0, with no exception.
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
		if row := oracle.lrows[oracle.lpos[0]]; row.rowForm != nibbleForm || len(row.xnode) != 0 || row.code(other) != row.top() {
			t.Fatalf("landmark %d: row form %+v with %d exceptions, want four bits from 0 and the escape at node %d",
				l, row.rowForm, len(row.xnode), other)
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

// TestCompactLandmarkTablesOverflow: a row whose distances spread over
// more values than a coded row's window and exceptions pay for is
// stored wide and the build succeeds — on a weighted graph, whose row
// picks its form after its Dijkstra run, and on an unweighted path,
// whose staged row widens mid-pass when the bit-parallel BFS reaches
// level 15 and stays wide.
func TestCompactLandmarkTablesOverflow(t *testing.T) {
	t.Run("weighted", func(t *testing.T) {
		b := graph.NewBuilder(4)
		b.AddWeightedEdge(0, 1, 40000)
		b.AddWeightedEdge(1, 2, 40000)
		b.AddWeightedEdge(2, 3, 40000)
		g := b.Build()
		o := mustBuild(t, g, Options{Seed: 1})
		for p, row := range o.lrows {
			if row.k != wideK {
				t.Fatalf("row %d of a graph with 40,000-weight edges is coded", p)
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
		if o.lrows[0].k != wideK {
			t.Fatal("row of landmark 0 on a 70,000-node path is coded")
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

// TestCompactPathsStillWork ensures landmark-case paths work on coded
// rows (hops derive from the distances the codes and exceptions hold).
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

// assertRowsAfterChurn checks o after an update batch: every row equals
// the BFS reference and takes the form bruteForm picks for it, and o
// saves byte for byte like a fresh build on its graph.
func assertRowsAfterChurn(t *testing.T, step string, o *Oracle) {
	t.Helper()
	for li, p := range o.lpos {
		if p < 0 {
			continue
		}
		if want := bruteForm(traverse.BFS(o.Graph(), o.landmarks[li]).Dist); o.lrows[p].rowForm != want {
			t.Fatalf("%s: row %d has form %+v, its distances want %+v", step, p, o.lrows[p].rowForm, want)
		}
	}
	assertLandmarkRows(t, o.Graph(), o, func(uint32) bool { return true })
	fresh := freshTwin(t, o)
	assertSameStructure(t, o, fresh)
	if !bytes.Equal(oracleBytes(t, o), oracleBytes(t, fresh)) {
		t.Fatalf("%s: repaired oracle serializes differently from a fresh build", step)
	}
}

// TestLandmarkRowWidthUnderChurn drives one landmark row across the
// boundary between the wide and the coded form with updates. On a
// 30-node path with landmark 0 the row starts wide (29 hops: a
// four-bit row would leave 15 exceptions). A shortcut from node 0 to
// node 10 leaves 6 distances past 14, a second one to node 20 none, and
// deleting them widens the row again. After every batch the oracle
// saves exactly like a fresh build.
func TestLandmarkRowWidthUnderChurn(t *testing.T) {
	const n = 30
	o := mustBuild(t, gen.Path(n), Options{Seed: 1, Landmarks: []uint32{0}})
	shortcuts := [][2]uint32{{0, 10}, {0, 20}}
	wide, four := rowForm{k: wideK}, rowForm{k: 4}
	steps := []struct {
		name       string
		upd        Update
		form       rowForm
		exceptions int
	}{
		{"build", Update{}, wide, 0},
		{"first shortcut", Update{Edges: shortcuts[:1]}, four, 6},  // 20 hops to node 29
		{"second shortcut", Update{Edges: shortcuts[1:]}, four, 0}, // 10 hops at most
		{"delete one", Update{DelEdges: shortcuts[1:]}, four, 6},
		{"delete both", Update{DelEdges: shortcuts[:1]}, wide, 0},
		{"both at once", Update{Edges: shortcuts}, four, 0},
		{"grow", Update{AddNodes: 3, Edges: [][2]uint32{{29, 30}}}, four, 0}, // past the padding codes
	}
	for _, st := range steps {
		if st.name != "build" {
			next, err := o.ApplyUpdates(st.upd)
			if err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			o = next
		}
		if row := o.lrows[0]; row.rowForm != st.form || len(row.xnode) != st.exceptions {
			t.Fatalf("%s: row form %+v with %d exceptions, want %+v with %d", st.name, row.rowForm, len(row.xnode), st.form, st.exceptions)
		}
		assertRowsAfterChurn(t, st.name, o)
	}
}

// TestLandmarkRowFormsUnderChurn drives one coded row through every
// change of form an update can make short of the wide one (see
// TestLandmarkRowWidthUnderChurn): its best base moves, its k goes from
// 2 to 4 and back by repair, and an update that only adds unreachable
// nodes flips it from 4 to 2 bits, since n enters the chooser. The
// graph is a broom: landmark 0, hubs 1–8 on it, leaves 9–63 on the
// hubs, so the row starts two-bit from base 0 with no exception.
func TestLandmarkRowFormsUnderChurn(t *testing.T) {
	b := graph.NewBuilder(64)
	for h := uint32(1); h <= 8; h++ {
		b.AddEdge(0, h)
	}
	hub := func(leaf uint32) uint32 { return 1 + leaf%8 }
	for leaf := uint32(9); leaf < 64; leaf++ {
		b.AddEdge(hub(leaf), leaf)
	}
	o := mustBuild(t, b.Build(), Options{Seed: 1, Landmarks: []uint32{0}})
	// hang moves leaves from their hubs to the given parents.
	hang := func(pairs ...[2]uint32) Update {
		var u Update
		for _, p := range pairs {
			leaf, parent := p[0], p[1]
			u.DelEdges = append(u.DelEdges, [2]uint32{hub(leaf), leaf})
			u.Edges = append(u.Edges, [2]uint32{parent, leaf})
		}
		return u
	}
	unhang := func(pairs ...[2]uint32) Update {
		u := hang(pairs...)
		u.Edges, u.DelEdges = u.DelEdges, u.Edges
		return u
	}
	deep := [][2]uint32{{13, 9}, {14, 10}, {15, 9}} // under 9 and 10: distance 4
	steps := []struct {
		name       string
		upd        Update
		form       rowForm
		exceptions int
	}{
		{"build", Update{}, rowForm{2, 0}, 0},                                    // distances 0, 1 and 2
		{"base up", hang([2]uint32{9, 11}, [2]uint32{10, 12}), rowForm{2, 1}, 1}, // two at 3: the landmark is the exception
		{"two to four bits", hang(deep...), rowForm{4, 0}, 0},                    // three at 4: four exceptions cost more than the wider codes
		{"four to two bits", unhang(deep...), rowForm{2, 1}, 1},
		{"two to four bits again", hang(deep...), rowForm{4, 0}, 0},
		{"growth alone", Update{AddNodes: 64}, rowForm{2, 1}, 4}, // 128 nodes: the two forms tie, and the smaller k wins
		{"base down", unhang(append(deep, [2]uint32{9, 11}, [2]uint32{10, 12})...), rowForm{2, 0}, 0},
	}
	for _, st := range steps {
		if st.name != "build" {
			next, err := o.ApplyUpdates(st.upd)
			if err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			o = next
		}
		if row := o.lrows[0]; row.rowForm != st.form || len(row.xnode) != st.exceptions {
			t.Fatalf("%s: row form %+v with %d exceptions, want %+v with %d", st.name, row.rowForm, len(row.xnode), st.form, st.exceptions)
		}
		assertRowsAfterChurn(t, st.name, o)
	}
}

// TestUnchangedRowsStayShared: a landmark row whose distances an update
// leaves as they were stays shared with the previous snapshot, also
// when the update deleted an edge that was tight in it and the repair
// ran, as long as every node kept another supporter. The batches are
// the benchmark's churn: insert a random non-edge, delete the previous
// insert.
func TestUnchangedRowsStayShared(t *testing.T) {
	o := mustBuild(t, socialGraph(5, 600), Options{Seed: 5})
	n := o.Graph().NumNodes()
	r := xrand.New(9)
	var prev [][2]uint32
	repairedUnchanged := 0
	for batch := range 12 {
		var e [2]uint32
		for {
			u, v := r.Uint32n(uint32(n)), r.Uint32n(uint32(n))
			if u != v && !o.Graph().HasEdge(u, v) {
				e = [2]uint32{u, v}
				break
			}
		}
		next, err := o.ApplyUpdates(Update{Edges: [][2]uint32{e}, DelEdges: prev})
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		oldD, newD := make([]uint32, n), make([]uint32, n)
		for p := range o.lrows {
			old, cur := &o.lrows[p], &next.lrows[p]
			old.expand(oldD)
			cur.expand(newD)
			if !slices.Equal(oldD, newD) {
				continue
			}
			if &old.codes[0] != &cur.codes[0] {
				t.Fatalf("batch %d: row %d kept its distances but was copied", batch, p)
			}
			for _, d := range prev {
				if du, dv := oldD[d[0]], oldD[d[1]]; du != NoDist && (du == dv+1 || dv == du+1) {
					repairedUnchanged++
					break
				}
			}
		}
		o, prev = next, [][2]uint32{e}
	}
	if repairedUnchanged == 0 {
		t.Fatal("no row was repaired without a change: the batches miss the case")
	}
	assertRowsAfterChurn(t, "last batch", o)
}
