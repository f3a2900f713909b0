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

// bruteForm returns the cheapest form for a row of dists by trying
// every k and every base up to one past the largest finite distance,
// with ties to the smaller k, then the smaller base, and wide last: the
// reference the chooser must match. A coded form costs its 32-bit code
// words plus 8 bytes per finite distance outside its window, a wide one
// 4 bytes per node.
func bruteForm(dists []uint32) rowForm {
	n := len(dists)
	var hist []int
	finite := 0
	for _, d := range dists {
		if d == NoDist {
			continue
		}
		for int(d) >= len(hist) {
			hist = append(hist, 0)
		}
		hist[d]++
		finite++
	}
	forms := []rowForm{}
	costs := []int{}
	for _, k := range []uint8{2, 4} {
		w := 1<<k - 1
		for base := 0; base <= len(hist); base++ {
			held := 0
			for d := base; d < base+w && d < len(hist); d++ {
				held += hist[d]
			}
			forms = append(forms, rowForm{k, uint32(base)})
			costs = append(costs, 4*((n*int(k)+31)/32)+8*(finite-held))
		}
	}
	forms = append(forms, rowForm{k: wideK})
	costs = append(costs, 4*n)
	best := 0
	for i, c := range costs {
		if c < costs[best] {
			best = i
		}
	}
	return forms[best]
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
				// Every row takes the cheapest form for its distances
				// (bruteForm). compact=true checks the rows as built;
				// compact=false widens the coded ones first, so the
				// four-byte read path sees the same rows.
				for _, compact := range []bool{false, true} {
					name := fmt.Sprintf("%s/L%d/w%d/compact=%v", p.name, k, workers, compact)
					t.Run(name, func(t *testing.T) {
						o := mustBuild(t, g, Options{Seed: 3, Workers: workers, Landmarks: landmarks})
						for li, p := range o.lpos {
							ref := traverse.BFS(g, o.landmarks[li]).Dist
							if g.Weighted() {
								ref = traverse.Dijkstra(g, o.landmarks[li]).Dist
							}
							if want := bruteForm(ref); o.lrows[p].rowForm != want {
								t.Fatalf("row %d has form %+v, its distances want %+v", p, o.lrows[p].rowForm, want)
							}
							if !compact && o.lrows[p].k != wideK {
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

// TestLandmarkRowForms property-tests the row forms on the graphs whose
// rows take them: social rows (two-bit), paths and grids (wide), two
// components (escapes for unreachable) and weighted graphs with maximum
// weights 2, 8 and 100. Every row must read its reference distance at
// every node and unreachable past its end, padding codes included, and
// take the form bruteForm picks. An update that adds nodes, and links
// two of them in or lightens an edge, must leave the same true, the new
// nodes included.
func TestLandmarkRowForms(t *testing.T) {
	weighted := func(seed uint64, n int, maxW uint32) func() *graph.Graph {
		return func() *graph.Graph {
			r := xrand.New(seed + 1)
			b := graph.NewBuilder(n)
			gen.HolmeKim(xrand.New(seed), n, 3, 0.4).ForEachEdge(func(u, v, _ uint32) {
				b.AddWeightedEdge(u, v, 1+r.Uint32n(maxW))
			})
			return b.Build()
		}
	}
	profiles := []crossProfile{
		{"social", func() *graph.Graph { return socialGraph(61, 700) }},
		{"path", func() *graph.Graph { return gen.Path(301) }},
		{"grid", func() *graph.Graph { return gen.Grid(17, 23) }},
		{"two-component", func() *graph.Graph {
			b := graph.NewBuilder(503)
			socialGraph(62, 300).ForEachEdge(func(u, v, _ uint32) { b.AddEdge(u, v) })
			socialGraph(63, 200).ForEachEdge(func(u, v, _ uint32) { b.AddEdge(300+u, 300+v) })
			return b.Build()
		}},
		{"weighted-2", weighted(64, 400, 2)},
		{"weighted-8", weighted(65, 400, 8)},
		{"weighted-100", weighted(66, 400, 100)},
	}
	check := func(t *testing.T, o *Oracle) {
		t.Helper()
		g := o.Graph()
		n := g.NumNodes()
		for li, p := range o.lpos {
			if p < 0 {
				continue
			}
			row := &o.lrows[p]
			ref := traverse.BFS(g, o.landmarks[li]).Dist
			if g.Weighted() {
				ref = traverse.Dijkstra(g, o.landmarks[li]).Dist
			}
			if want := bruteForm(ref); row.rowForm != want {
				t.Fatalf("row %d has form %+v, its distances want %+v", p, row.rowForm, want)
			}
			for v, want := range ref {
				if got := row.at(uint32(v)); got != want {
					t.Fatalf("row %d (form %+v): d(%d) = %d, want %d", p, row.rowForm, v, got, want)
				}
			}
			read := row.reader()
			for v := n; v < row.span()+3; v++ {
				if d := read(uint32(v)); d != NoDist {
					t.Fatalf("row %d (form %+v) reads %d at node %d past its %d nodes", p, row.rowForm, d, v, n)
				}
			}
			if err := row.check(n); err != nil {
				t.Fatalf("row %d: %v", p, err)
			}
		}
	}
	for _, p := range profiles {
		t.Run(p.name, func(t *testing.T) {
			g := p.build()
			o := mustBuild(t, g, Options{Seed: 7, Alpha: 2})
			check(t, o)
			n := uint32(g.NumNodes())
			upd := Update{AddNodes: 3, Edges: [][2]uint32{{n, 0}, {n + 2, n / 2}}}
			if g.Weighted() {
				// Weighted graphs take no new edges: the added nodes stay
				// unreachable, and one edge gets lighter.
				upd = Update{AddNodes: 3, SetWeights: []WeightChange{{U: 0, V: g.Neighbors(0)[0], W: 1}}}
			}
			next, err := o.ApplyUpdates(upd)
			if err != nil {
				t.Fatal(err)
			}
			check(t, next)
		})
	}
}

// TestRowCodec round-trips random rows through every coded form and
// the wide one: the codes and exceptions encode writes read back
// through at and expand, padding codes escape, the loader's check
// accepts the row, the table-driven pack of a staged row writes the
// same words and exceptions as encode, codeCounts counts like a
// loop, and chooseForm agrees with bruteForm.
func TestRowCodec(t *testing.T) {
	r := xrand.New(17)
	for trial := range 300 {
		n := 1 + int(r.Uint32n(90))
		spread := []uint32{3, 15, 40, 1 << 12}[trial%4] // the last past levelsOf's dense range
		dist := make([]uint32, n)
		for v := range dist {
			switch r.Uint32n(8) {
			case 0:
				dist[v] = NoDist
			default:
				dist[v] = 2 + r.Uint32n(spread)
			}
		}
		want := bruteForm(dist)
		if got := chooseForm(n, levelsOf(dist)); got != want {
			t.Fatalf("trial %d: chooseForm = %+v, bruteForm = %+v for %v", trial, got, want, dist)
		}
		if got := packRow(slices.Clone(dist)); got.rowForm != want {
			t.Fatalf("trial %d: packRow chose %+v", trial, got.rowForm)
		}
		forms := []rowForm{{k: wideK}}
		for _, k := range []uint8{2, 4} {
			for base := uint32(0); base < 6; base++ {
				forms = append(forms, rowForm{k, base})
			}
		}
		for _, f := range forms {
			var row lrow
			if f.k == wideK {
				row = newRow(f, slices.Clone(dist), nil, nil)
			} else {
				row = encode(dist, f, f.exceptions(levelsOf(dist)))
				if len(row.xnode) != cap(row.xnode) {
					t.Fatalf("trial %d, form %+v: %d exceptions in room for %d", trial, f, len(row.xnode), cap(row.xnode))
				}
			}
			if err := row.check(n); err != nil {
				t.Fatalf("trial %d, form %+v: %v", trial, f, err)
			}
			got := make([]uint32, n+5)
			row.expand(got)
			for v := range got {
				want := NoDist
				if v < n {
					want = dist[v]
				}
				if got[v] != want || v < row.span() && row.at(uint32(v)) != want {
					t.Fatalf("trial %d, form %+v: node %d reads %d/%d, want %d", trial, f, v, got[v], row.at(uint32(v)), want)
				}
			}
			if f.k == wideK {
				continue
			}
			var naive [16]uint32
			for v := range row.span() {
				naive[row.code(uint32(v))]++
			}
			if cnt := codeCounts(row.codes, f.k); cnt != naive {
				t.Fatalf("trial %d, form %+v: codeCounts %v, want %v", trial, f, cnt, naive)
			}
		}
		// A staged row holds distances up to maxNibble.
		staged := newRow(nibbleForm, grow([]uint32(nil), codeWords(n, nibbleForm.k), ^uint32(0)), nil, nil)
		capped := slices.Clone(dist)
		for v, d := range capped {
			if d != NoDist {
				capped[v] = d % (maxNibble + 1)
				staged.setCode(uint32(v), capped[v])
			}
		}
		for _, f := range forms[1:] {
			x := f.exceptions(levelsOf(capped))
			want, got := encode(capped, f, x), packNibbles(staged.codes, n, f, x)
			if !slices.Equal(got.codes, want.codes) || !slices.Equal(got.xnode, want.xnode) || !slices.Equal(got.xdist, want.xdist) {
				t.Fatalf("trial %d, form %+v: packNibbles %x/%v/%v, encode %x/%v/%v",
					trial, f, got.codes, got.xnode, got.xdist, want.codes, want.xnode, want.xdist)
			}
		}
	}
}
