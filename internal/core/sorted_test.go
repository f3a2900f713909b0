package core

import (
	"context"
	"slices"
	"testing"

	"vicinity/internal/graph"
	"vicinity/internal/u32map"
)

// tableEntries decodes a table in stored order, the owner first on
// unweighted graphs, with each entry's distance.
func tableEntries(f u32map.Flat) (keys, dists []uint32) {
	if f.Len() == 0 {
		return nil, nil
	}
	if f.Leveled() {
		keys, dists = []uint32{f.Owner()}, []uint32{0}
	}
	for k := 0; k < f.Runs(); k++ {
		run, rd := f.Run(k)
		keys = append(keys, decodeRun(run)...)
		for i := 0; i < run.Len(); i++ {
			if rd != nil {
				dists = append(dists, rd[i])
			} else {
				dists = append(dists, uint32(k)+1)
			}
		}
	}
	return keys, dists
}

// decodeRun decodes every key of a run, in order.
func decodeRun(r u32map.Run) []uint32 {
	var buf [u32map.BlockLen]uint32
	var keys []uint32
	for b := 0; b < r.Blocks(); b++ {
		keys = append(keys, r.Block(b, &buf)...)
	}
	return keys
}

// runKeys decodes stored run k of a table.
func runKeys(f u32map.Flat, k int) []uint32 {
	run, _ := f.Run(k)
	return decodeRun(run)
}

// boundaryKeys decodes ∂Γ(u), with its distances on weighted graphs.
func boundaryKeys(o *Oracle, u uint32) (keys, dists []uint32) {
	run, dists := o.boundary(u)
	return decodeRun(run), dists
}

// recodeTable replaces u's table with keys, its entries in stored order
// under the same run lengths, each run sorted first, coded at the end
// of the arena (the old table becomes waste).
func recodeTable(o *Oracle, u uint32, keys []uint32) {
	f := o.vicFlat[u]
	var starts, dists []uint32
	at := 0
	if f.Leveled() {
		at = 1
	}
	for k := 0; k < f.Runs(); k++ {
		run, rd := f.Run(k)
		if k > 0 {
			starts = append(starts, uint32(at))
		}
		slices.Sort(keys[at : at+run.Len()])
		dists = append(dists, rd...)
		at += run.Len()
	}
	o.waste += uint64(f.Bytes() / 4)
	o.vicFlat[u] = o.arena.Add(u32map.AppendTable(nil, f.Leveled(), keys, starts), dists, uint32(len(keys)))
}

// assertRunsSorted checks the layout every lookup, scan and hop relies
// on, without going through the loader's own check: every run of every
// vicinity is non-empty and strictly increases by node id, and the
// boundary is the last run — all of the top level on unweighted graphs,
// the tail on weighted ones — or empty. On unweighted graphs the owner
// is level 0.
func assertRunsSorted(t *testing.T, o *Oracle) {
	t.Helper()
	for u, f := range o.vicFlat {
		if f.Len() == 0 {
			continue
		}
		total := 0
		if f.Leveled() {
			total = 1 // the owner
		}
		for k := 0; k < f.Runs(); k++ {
			keys := runKeys(f, k)
			if len(keys) == 0 {
				t.Fatalf("node %d: run %d of %d is empty", u, k, f.Runs())
			}
			for i := 1; i < len(keys); i++ {
				if keys[i-1] >= keys[i] {
					t.Fatalf("node %d: run %d not strictly increasing at %d: %d then %d", u, k, i, keys[i-1], keys[i])
				}
			}
			total += len(keys)
		}
		if total != f.Len() {
			t.Fatalf("node %d: runs hold %d entries, the table %d", u, total, f.Len())
		}
		if f.Leveled() && f.Owner() != uint32(u) {
			t.Fatalf("node %d: level 0 is %d, want the owner", u, f.Owner())
		}
		if b := o.BoundarySize(uint32(u)); b != 0 && b != len(runKeys(f, f.Runs()-1)) {
			t.Fatalf("node %d: boundary of %d is not its last run of %d", u, b, len(runKeys(f, f.Runs()-1)))
		}
	}
}

// edgeShapes is a small unweighted graph holding the table shapes the
// run layout has edge cases for, with landmark 0: a star whose leaves
// have radius 1 (their boundary is all of level 1, the hub), a leaf
// with a level 2, a landmark-free path (flood vicinities with no
// boundary) and an isolated node (a one-entry table).
func edgeShapes() *graph.Graph {
	b := graph.NewBuilder(11)
	for leaf := uint32(1); leaf <= 5; leaf++ {
		b.AddEdge(0, leaf)
	}
	b.AddEdge(5, 9)
	b.AddEdge(6, 7)
	b.AddEdge(7, 8)
	return b.Build() // node 10 stays isolated
}

// TestVicinityRunsSorted: every run of every vicinity strictly
// increases after a build and after a load, on the cross-validation
// profiles, a weighted graph and graphs holding the edge shapes:
// one-entry tables, flood vicinities without a boundary, radius-1
// tables whose boundary is all of level 1, and weighted tables whose
// tail is all of them. TestChurnMatrix checks it after every update.
func TestVicinityRunsSorted(t *testing.T) {
	type shapes struct{ single, flood, radius1, allTail bool }
	check := func(t *testing.T, o *Oracle) shapes {
		t.Helper()
		assertRunsSorted(t, o)
		loaded := roundTrip(t, o)
		assertRunsSorted(t, loaded)
		assertOraclesAgree(t, o, loaded, o.Graph().NumNodes(), 200)
		var s shapes
		for u, f := range o.vicFlat {
			b := o.BoundarySize(uint32(u))
			switch {
			case f.Len() == 1:
				s.single = true
			case f.Len() > 1 && b == 0:
				s.flood = true
			}
			if f.Leveled() && f.Runs() == 1 && b == f.Len()-1 {
				s.radius1 = true
			}
			if !f.Leveled() && f.Len() > 1 && b == f.Len() {
				s.allTail = true
			}
		}
		return s
	}
	for _, prof := range crossProfiles() {
		t.Run(prof.name, func(t *testing.T) {
			check(t, mustBuild(t, prof.build(), Options{Seed: 5}))
		})
	}
	t.Run("weighted", func(t *testing.T) {
		check(t, mustBuild(t, weightedSocialGraph(69, 300), Options{Seed: 5}))
	})
	t.Run("edge shapes", func(t *testing.T) {
		s := check(t, mustBuild(t, edgeShapes(), Options{Landmarks: []uint32{0}}))
		if !s.single || !s.flood || !s.radius1 {
			t.Fatalf("graph lacks a shape: %+v", s)
		}
	})
	t.Run("weighted all tail", func(t *testing.T) {
		// Γ(0) is {0, 1}, both next to node 2 through heavy edges: the
		// whole table is the boundary.
		b := graph.NewBuilder(3)
		b.AddWeightedEdge(0, 1, 1)
		b.AddWeightedEdge(0, 2, 10)
		b.AddWeightedEdge(1, 2, 10)
		s := check(t, mustBuild(t, b.Build(), Options{Landmarks: []uint32{1}}))
		if !s.allTail {
			t.Fatal("no weighted table is all tail")
		}
	})
}

// TestIntersectionTieSmallestID pins the witness rule on a pair whose
// two boundary members tie: s = 0 and t = 1 meet through both 2 and 3
// at distance 2, and the single query and the batch engine both join
// their half-paths at 2, the smallest id, on unweighted and weighted
// graphs alike.
func TestIntersectionTieSmallestID(t *testing.T) {
	ctx := context.Background()
	for _, weighted := range []bool{false, true} {
		b := graph.NewBuilder(6)
		for _, e := range [][2]uint32{{0, 4}, {1, 5}, {0, 2}, {0, 3}, {1, 2}, {1, 3}} {
			if weighted {
				b.AddWeightedEdge(e[0], e[1], 3)
			} else {
				b.AddEdge(e[0], e[1])
			}
		}
		o := mustBuild(t, b.Build(), Options{Landmarks: []uint32{4, 5}})
		single, err := o.Query(ctx, Request{S: 0, T: 1, WantPath: true})
		if err != nil || single.Method != MethodIntersection || !slices.Equal(single.Path, []uint32{0, 2, 1}) {
			t.Fatalf("weighted=%v: single query (%v, %v, %v), want an intersection through 2", weighted, single.Method, single.Path, err)
		}
		batch, err := o.Query(ctx, Request{S: 0, Ts: []uint32{1}, WantPath: true})
		if it := batch.Items[0]; err != nil || it.Method != MethodIntersection || !slices.Equal(it.Path, single.Path) {
			t.Fatalf("weighted=%v: batch item (%v, %v, %v), want the single query's path %v", weighted, it.Method, it.Path, err, single.Path)
		}
	}
}
