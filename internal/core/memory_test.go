package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"vicinity/internal/gen"
	"vicinity/internal/xrand"
)

// storedBytes sums the arrays o holds, independently of Memory: the
// arena's coded tables and distances, plus every landmark row's code
// words and exception nodes and distances.
func storedBytes(o *Oracle) (vicinity, landmark int64) {
	a := o.arena
	vicinity = 4 * int64(len(a.Words)+len(a.Dists))
	for _, row := range o.lrows {
		landmark += 4 * int64(len(row.codes)+len(row.xnode)+len(row.xdist))
	}
	return vicinity, landmark
}

// TestMemoryCountsStoredArrays pins Memory to what the oracle holds, so
// a reported byte count (perfbench's oracle_mb, /v1/stats total_bytes)
// covers every stored array — the run and block records of the coded
// tables and the slack bits of their data words included.
func TestMemoryCountsStoredArrays(t *testing.T) {
	g := socialGraph(51, 400)
	unweighted := mustBuild(t, g, Options{Seed: 51})

	scope := make([]uint32, 0, 80)
	for u := uint32(0); u < 400; u += 5 {
		scope = append(scope, u)
	}

	// Churn until a batch compacts the arena: the live tables are then
	// the whole arena again.
	r := xrand.New(52)
	churned := mustBuild(t, g, Options{Seed: 52})
	sawWaste := false
	for step := 0; ; step++ {
		if step == 60 {
			t.Fatal("60 churn batches never compacted the arena")
		}
		next, err := churned.ApplyUpdates(randomChurnBatch(r, churned.Graph()))
		if err != nil {
			t.Fatal(err)
		}
		churned = next
		if churned.waste > 0 {
			sawWaste = true
		} else if sawWaste {
			break
		}
	}

	cases := map[string]*Oracle{
		"unweighted": unweighted,
		"weighted":   mustBuild(t, weightedSocialGraph(53, 300), Options{Seed: 53}),
		"scoped":     mustBuild(t, g, Options{Seed: 54, Nodes: scope}),
		"churned":    churned,
		"loaded":     roundTrip(t, unweighted),
	}
	for name, o := range cases {
		t.Run(name, func(t *testing.T) {
			vic, lm := storedBytes(o)
			ms := o.Memory()
			if ms.VicinityBytes != vic || ms.LandmarkBytes != lm || ms.TotalBytes != vic+lm {
				t.Fatalf("Memory counts %d vicinity + %d landmark = %d bytes; the arrays hold %d + %d = %d",
					ms.VicinityBytes, ms.LandmarkBytes, ms.TotalBytes, vic, lm, vic+lm)
			}
			if o.Graph().Weighted() == (o.arena.Dists == nil) || o.Graph().Weighted() == o.arena.Leveled {
				t.Fatalf("weighted graph = %v, but the arena has %d distances (leveled = %v)",
					o.Graph().Weighted(), len(o.arena.Dists), o.arena.Leveled)
			}
			if len(o.lrows) > 0 && ms.WideLandmarkRows != 0 && !o.Graph().Weighted() {
				t.Fatalf("%d wide rows on a social graph", ms.WideLandmarkRows)
			}
			forms := map[uint8]int{}
			exceptions := 0
			for _, row := range o.lrows {
				forms[row.k]++
				exceptions += len(row.xnode)
			}
			want := fmt.Sprintf("%.1f MB: vicinities %.1f MB, landmark rows %.1f MB (%d at 2 bits, %d at 4, %d at 32; %d exceptions)",
				float64(vic+lm)/1e6, float64(vic)/1e6, float64(lm)/1e6, forms[2], forms[4], forms[32], exceptions)
			if got := ms.ByteSplit(); got != want {
				t.Fatalf("ByteSplit = %q, want %q", got, want)
			}
		})
	}
}

// TestBuildStagesOnlyWhatItKeeps bounds what a build allocates by what
// the oracle it returns stores: each vicinity is staged once, in a
// buffer of its own size, and the arena is sized once before it takes
// them. The levels of a path graph hold two keys each, the coding's
// worst case. Not parallel: TotalAlloc counts every goroutine's
// allocations. Skipped under the race detector, whose instrumented
// build allocates the temporary of every append(s, make(...)...) — the
// arena's growth and each table's records — which the compiler
// otherwise elides.
func TestBuildStagesOnlyWhatItKeeps(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("the race detector's instrumentation changes what a build allocates")
	}
	g := gen.Path(5000)
	for _, w := range []int{1, 2, 8} {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		o := mustBuild(t, g, Options{Workers: w})
		runtime.ReadMemStats(&after)
		alloc, kept := after.TotalAlloc-before.TotalAlloc, uint64(o.Memory().TotalBytes)
		if alloc > 3*kept {
			t.Errorf("%d workers: the build allocated %d bytes, %.1f× the %d its oracle stores; at most 3× may be staged",
				w, alloc, float64(alloc)/float64(kept), kept)
		}
	}
}
