package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vicinity/internal/graph"
	"vicinity/internal/traverse"
	"vicinity/internal/u32map"
)

// Build runs the offline phase (§2.2): sample the landmark set, construct
// every in-scope vicinity with its boundary, and compute the per-landmark
// full distance tables.
//
// A build is an update of an empty oracle in which every in-scope
// non-landmark node is affected, and its vicinity stages are the ones
// ApplyUpdates runs:
//
//   - Plan: sample landmarks (deterministic in opts.Seed), set up the
//     per-node state (growNodes) and list the nodes to build, the
//     scope's non-landmarks in scope order.
//   - Vicinities: workers pull nodes from a shared counter and run each
//     node's truncated BFS/Dijkstra with per-worker scratch, which also
//     sorts the vicinity's runs by id and codes them (boundary members
//     last); each result is copied out of the scratch
//     (computeVicinities).
//   - Install: the results are appended to the empty arena in scope
//     order, which is sized once from their totals (writeVicinities).
//
// The result is bit-identical for every worker count: a node's vicinity
// content depends only on the graph and landmark set, and the arena
// layout only on the scope order, not on which worker computed a node.
// The determinism test matrix in determinism_test.go enforces this
// byte-for-byte on the serialized form. Landmark tables follow: on
// unweighted graphs one bit-parallel BFS pass fills the rows of 64
// landmarks, on weighted graphs each landmark runs its own Dijkstra, and
// the workers share the passes (see buildLandmarkTables).
func Build(g *graph.Graph, opts Options) (*Oracle, error) {
	opts, err := opts.withDefaults(g)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	o := &Oracle{
		g:         g,
		opts:      opts,
		landmarks: sampleLandmarks(g, opts),
		arena:     &u32map.Arena{Leveled: !g.Weighted()},
		chain:     &updateChain{},
		fbPool:    newWorkspacePool(g),
		kpPool:    newKPathsPool(g),
	}
	n := g.NumNodes()
	o.growNodes(n)
	for i, l := range o.landmarks {
		o.isL[l] = true
		o.lidx[l] = int32(i)
	}
	nodes := slices.Clone(opts.Nodes)
	if nodes == nil {
		nodes = make([]uint32, n)
		for i := range nodes {
			nodes[i] = uint32(i)
		}
	}
	// Landmarks answer from their full table and get no vicinity.
	nodes = slices.DeleteFunc(nodes, func(u uint32) bool { return o.isL[u] })
	o.timings.Plan = time.Since(start)

	start = time.Now()
	results := o.computeVicinities(g, nodes)
	o.timings.Vicinities = time.Since(start)

	start = time.Now()
	if err := o.writeVicinities(nodes, results); err != nil {
		return nil, err
	}
	o.timings.Merge = time.Since(start)

	start = time.Now()
	o.buildLandmarkTables(g.Weighted())
	o.timings.Landmarks = time.Since(start)
	return o, nil
}

// BuildTimings is the per-stage wall-clock breakdown of one Build call,
// reported by Oracle.BuildTimings for build-time diagnostics (loaded
// oracles report zeros). It is not persisted.
type BuildTimings struct {
	Plan       time.Duration // landmark sampling and per-node setup
	Vicinities time.Duration // the per-node truncated searches, across the workers
	// Merge times the install of the vicinities in the arena, in scope
	// order. It keeps the name of the shard merge the install replaced,
	// which perfbench reports as core.build_merge_s.
	Merge     time.Duration
	Landmarks time.Duration // full distance rows of the landmarks
}

// Total returns the summed stage durations.
func (b BuildTimings) Total() time.Duration {
	return b.Plan + b.Vicinities + b.Merge + b.Landmarks
}

// String formats the breakdown for logs.
func (b BuildTimings) String() string {
	return fmt.Sprintf("plan %v, vicinities %v, install %v, landmark tables %v",
		b.Plan.Round(time.Millisecond), b.Vicinities.Round(time.Millisecond),
		b.Merge.Round(time.Millisecond), b.Landmarks.Round(time.Millisecond))
}

// BuildTimings returns the stage breakdown of the Build call that
// produced this oracle (zeros for loaded or updated snapshots).
func (o *Oracle) BuildTimings() BuildTimings { return o.timings }

// growNodes extends every per-node array to newN, in fresh storage:
// older snapshots share isL and lidx. New nodes start as non-landmarks
// with no vicinity state. Build grows an empty oracle to its graph.
func (o *Oracle) growNodes(newN int) {
	if newN == len(o.radius) {
		return
	}
	o.isL = grow(o.isL, newN, false)
	o.lidx = grow(o.lidx, newN, -1)
	o.radius = grow(o.radius, newN, NoDist)
	o.nearest = grow(o.nearest, newN, graph.NoNode)
	o.vicFlat = grow(o.vicFlat, newN, u32map.Flat{})
	o.boundLen = grow(o.boundLen, newN, 0)
}

// grow returns a copy of s extended to n elements, the new ones set to
// fill.
func grow[E any](s []E, n int, fill E) []E {
	out := make([]E, n)
	for i := copy(out, s); i < n; i++ {
		out[i] = fill
	}
	return out
}

// computeVicinities runs the truncated BFS/Dijkstra of §2.2 on g for
// every node of nodes, across the configured workers, and copies each
// result out of its worker's scratch. Build computes every in-scope
// vicinity here, ApplyUpdates every affected one.
func (o *Oracle) computeVicinities(g *graph.Graph, nodes []uint32) []vicResult {
	results := make([]vicResult, len(nodes))
	weighted := g.Weighted()
	n := g.NumNodes()
	parallelFor(o.opts.Workers, len(nodes), func(int) any {
		return newBuildWS(n)
	}, func(state any, i int) {
		ws := state.(*buildWS)
		if weighted {
			results[i] = vicinityDijkstra(g, o.isL, ws, nodes[i]).detach()
		} else {
			results[i] = vicinityBFS(g, o.isL, ws, nodes[i]).detach()
		}
	})
	return results
}

// writeVicinities installs the computed vicinities (boundary members
// last, runs sorted and coded) in the order of nodes, appending them to
// the arena after growing it once to hold them all. A build installs
// into an empty arena, so its layout follows the scope order. An update
// appends past the ranges older snapshots may still read, and the
// tables it supersedes only count as waste.
func (o *Oracle) writeVicinities(nodes []uint32, results []vicResult) error {
	a := o.arena
	words, dists, widest := uint64(len(a.Words)), uint64(len(a.Dists)), uint64(0)
	for i := range results {
		words += uint64(len(results[i].code))
		dists += uint64(len(results[i].dists))
		widest = max(widest, uint64(len(results[i].code)))
	}
	if err := checkArenaCapacity(words, dists, widest); err != nil {
		return err
	}
	a.Words = slices.Grow(a.Words, int(words)-len(a.Words))
	a.Dists = slices.Grow(a.Dists, int(dists)-len(a.Dists))
	for i, x := range nodes {
		res := &results[i]
		if old := o.vicFlat[x]; old.Len() > 0 {
			o.waste += uint64(old.Bytes() / 4)
		} else {
			o.covered++
		}
		o.radius[x] = res.radius
		o.nearest[x] = res.nearest
		o.boundLen[x] = res.boundLen
		o.vicFlat[x] = a.Add(res.code, res.dists, res.entries)
	}
	return nil
}

// checkArenaCapacity rejects an arena of the given word and distance
// counts, whose widest table takes widest words, when any of them
// overflows the offsets that hold it: the uint32 word and distance
// offsets every Flat view and file range uses, and the table-local
// block data offsets of a coded table (u32map.MaxTableWords). The
// install calls it before writing, so neither a build nor an update can
// wrap an offset.
func checkArenaCapacity(words, dists, widest uint64) error {
	if words > math.MaxUint32 || dists > math.MaxUint32 {
		return fmt.Errorf("core: %d vicinity words and %d distances overflow the 2^32-1 arena capacity",
			words, dists)
	}
	if widest > u32map.MaxTableWords {
		return fmt.Errorf("core: a vicinity coded in %d words overflows the %d-word table capacity",
			widest, u32map.MaxTableWords)
	}
	return nil
}

// buildLandmarkTables runs the final stage: a full distance row for
// every wanted landmark (all of them, or the in-scope ones of a scoped
// build), in landmark order (see Oracle.lpos), each in the form of
// fewest bytes (see lrow). Unweighted graphs fill the rows 64 landmarks
// per bit-parallel BFS pass (msbfs), one batch per task; weighted graphs
// run one Dijkstra per landmark. Rows and their forms depend only on the
// graph, so neither the batching nor the worker count reaches the
// output.
func (o *Oracle) buildLandmarkTables(weighted bool) {
	o.lpos = make([]int32, len(o.landmarks))
	for i := range o.lpos {
		o.lpos[i] = -1
	}
	if o.opts.DisableLandmarkTables {
		return
	}
	want := make([]bool, len(o.landmarks))
	if o.opts.Nodes == nil {
		for i := range want {
			want[i] = true
		}
	} else {
		for _, u := range o.opts.Nodes {
			if o.isL[u] {
				want[o.lidx[u]] = true
			}
		}
	}
	var srcs []uint32 // the wanted landmarks; row j belongs to srcs[j]
	for i, w := range want {
		if w {
			o.lpos[i] = int32(len(srcs))
			srcs = append(srcs, o.landmarks[i])
		}
	}

	n := o.g.NumNodes()
	o.lrows = make([]lrow, len(srcs))
	if weighted {
		parallelFor(o.opts.Workers, len(srcs), func(int) any { return nil }, func(_ any, j int) {
			o.lrows[j] = packRow(traverse.Dijkstra(o.g, srcs[j]).Dist)
		})
		return
	}
	// Unweighted rows are staged in nibbleForm, in buffers each worker
	// reuses from batch to batch, and the pass counts each row's nodes
	// per distance, the chooser's input. MS-BFS levels only ascend, so a
	// row that reaches level maxNibble+1 widens once, mid-pass, and stays
	// wide. Once the pass ends, each row takes its chosen form: a staged
	// row is packed by table (or copied, should four bits from 0 win),
	// and a row that stays wide keeps the array it widened into.
	const batch = 64 // sources per pass: the bits of one uint64
	type stage struct {
		m    *msbfs
		nibs [batch][]uint32
		cnt  [maxNibble + 1][batch]uint32 // cnt[d][j]: row j's nodes at distance d
	}
	parallelFor(o.opts.Workers, (len(srcs)+batch-1)/batch, func(int) any {
		return &stage{m: newMSBFS(n)}
	}, func(state any, b int) {
		st := state.(*stage)
		rows := o.lrows[b*batch : min(b*batch+batch, len(srcs))]
		for j := range rows {
			if st.nibs[j] == nil {
				st.nibs[j] = make([]uint32, codeWords(n, nibbleForm.k))
			}
			for i := range st.nibs[j] {
				st.nibs[j][i] = ^uint32(0) // every code the escape
			}
			rows[j] = newRow(nibbleForm, st.nibs[j], nil, nil)
		}
		st.cnt = [maxNibble + 1][batch]uint32{}
		st.m.run(o.g, srcs[b*batch:b*batch+len(rows)], func(v uint32, set uint64, d uint32) {
			if d > maxNibble {
				for ; set != 0; set &= set - 1 {
					row := &rows[bits.TrailingZeros64(set)]
					if row.k != wideK {
						row.widen(n)
					}
					row.codes[v] = d
				}
				return
			}
			// No row has widened yet, and v's staged code is still the
			// escape, 0xF: clearing the bits d lacks writes d.
			i, clr, cnt := v>>3, (0xF^d)<<(v&7*4), &st.cnt[d]
			for ; set != 0; set &= set - 1 {
				j := bits.TrailingZeros64(set)
				rows[j].codes[i] &^= clr
				cnt[j]++
			}
		})
		for j := range rows {
			if rows[j].k == wideK {
				rows[j] = rows[j].rechosen(n)
				continue
			}
			var levels []level
			for d := range st.cnt {
				if c := st.cnt[d][j]; c > 0 {
					levels = append(levels, level{uint32(d), c})
				}
			}
			if rows[j] = rows[j].rechoose(n, levels); rows[j].rowForm == nibbleForm {
				rows[j].codes = slices.Clone(rows[j].codes) // the stage keeps its buffer
			}
		}
	})
}

// parallelFor runs fn(state, i) for i in [0,n) across workers goroutines.
// Each worker gets its own state from newState(w), where w is the worker
// index in [0, workers) — callers that keep per-worker output (the
// batch engine's cost tallies) index it by w. Work is handed out by an
// atomic counter so uneven item costs balance automatically.
func parallelFor(workers, n int, newState func(w int) any, fn func(state any, i int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		state := newState(0)
		for i := 0; i < n; i++ {
			fn(state, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			state := newState(w)
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				fn(state, int(i))
			}
		}(w)
	}
	wg.Wait()
}
