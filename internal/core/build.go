package core

import (
	"fmt"
	"math"
	"math/bits"
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
// The pipeline has three stages — plan, execute, merge — sharded across
// opts.Workers goroutines:
//
//   - Plan: sample landmarks (deterministic in opts.Seed) and fix the
//     scope, the ordered node list whose vicinities are built.
//   - Execute: workers pull scope indexes from a shared counter and run
//     each node's truncated BFS/Dijkstra with per-worker scratch, which
//     also sorts the vicinity's runs by id and codes them (boundary
//     members last), appending the coded table and, when weighted, its
//     distances to a worker-private u32map.Shard and recording
//     shard-local ranges per node.
//   - Merge: prefix sums over the scope order assign every node its
//     final range in the shared flat arenas; workers then copy the
//     shards into place (disjoint destination ranges).
//
// The result is bit-identical for every worker count: a node's vicinity
// content depends only on the graph and landmark set, and the merged
// layout depends only on the scope order — which shard staged a node,
// and in what order, cancels out in the rebase. The determinism test
// matrix in determinism_test.go enforces this byte-for-byte on the
// serialized form. Landmark tables follow: on unweighted graphs one
// bit-parallel BFS pass fills the rows of 64 landmarks, on weighted
// graphs each landmark runs its own Dijkstra, and the workers share the
// passes (see buildLandmarkTables).
func Build(g *graph.Graph, opts Options) (*Oracle, error) {
	opts, err := opts.withDefaults(g)
	if err != nil {
		return nil, err
	}
	// Plan: landmark set, per-node landmark index, scope.
	start := time.Now()
	n := g.NumNodes()
	o := &Oracle{
		g:         g,
		opts:      opts,
		landmarks: sampleLandmarks(g, opts),
		isL:       make([]bool, n),
		lidx:      make([]int32, n),
		radius:    make([]uint32, n),
		nearest:   make([]uint32, n),
	}
	o.fbPool = newWorkspacePool(g)
	o.kpPool = newKPathsPool(g)
	o.chain = &updateChain{}
	for i := range o.lidx {
		o.lidx[i] = -1
		o.radius[i] = NoDist
		o.nearest[i] = graph.NoNode
	}
	for i, l := range o.landmarks {
		o.isL[l] = true
		o.lidx[l] = int32(i)
	}
	scope := opts.Nodes
	if scope == nil {
		scope = make([]uint32, n)
		for i := range scope {
			scope[i] = uint32(i)
		}
	}
	o.timings.Plan = time.Since(start)

	// Execute: vicinities into per-worker shards.
	start = time.Now()
	metas, shards := o.executeVicinities(scope)
	o.timings.Vicinities = time.Since(start)

	// Merge: stitch the shards into the flat arena layout.
	start = time.Now()
	if err := o.mergeVicinities(scope, metas, shards); err != nil {
		return nil, err
	}
	o.timings.Merge = time.Since(start)

	// Landmark tables (parallel over batches of in-scope landmarks).
	start = time.Now()
	o.buildLandmarkTables(g.Weighted())
	o.timings.Landmarks = time.Since(start)
	return o, nil
}

// BuildTimings is the per-stage wall-clock breakdown of one Build call,
// reported by Oracle.BuildTimings for build-time diagnostics (loaded
// oracles report zeros). It is not persisted.
type BuildTimings struct {
	Plan       time.Duration // landmark sampling + scope setup
	Vicinities time.Duration // sharded per-node truncated searches
	Merge      time.Duration // prefix sums + shard stitch into flat arenas
	Landmarks  time.Duration // full distance rows of the landmarks
}

// Total returns the summed stage durations.
func (b BuildTimings) Total() time.Duration {
	return b.Plan + b.Vicinities + b.Merge + b.Landmarks
}

// String formats the breakdown for logs.
func (b BuildTimings) String() string {
	return fmt.Sprintf("plan %v, vicinities %v, merge %v, landmark tables %v",
		b.Plan.Round(time.Millisecond), b.Vicinities.Round(time.Millisecond),
		b.Merge.Round(time.Millisecond), b.Landmarks.Round(time.Millisecond))
}

// BuildTimings returns the stage breakdown of the Build call that
// produced this oracle (zeros for loaded or updated snapshots).
func (o *Oracle) BuildTimings() BuildTimings { return o.timings }

// vicMeta locates one scope node's phase-1 output inside its worker's
// shard: the shard-local word and distance offsets, the table's word
// and entry counts, and the boundary length. Radius and nearest land in
// their final per-node arrays directly during execution.
type vicMeta struct {
	shard    int32
	wordOff  uint32
	wordLen  uint32
	entOff   uint32
	entLen   uint32
	boundLen uint32
}

// executeVicinities runs the truncated searches for every scope node
// across the configured workers. Scheduling is dynamic (an atomic
// counter hands out scope indexes, so uneven vicinity sizes balance),
// which means shard assignment varies run to run — the merge erases
// that: only per-node content and the scope order reach the output.
func (o *Oracle) executeVicinities(scope []uint32) ([]vicMeta, []*u32map.Shard) {
	g := o.g
	n := g.NumNodes()
	weighted := g.Weighted()
	workers := o.opts.Workers
	if workers > len(scope) {
		workers = len(scope)
	}
	if workers < 1 {
		workers = 1
	}
	metas := make([]vicMeta, len(scope))
	shards := make([]*u32map.Shard, workers)
	// Capacity hint from the paper's sizing model: E[|Γ(u)|] ≈ α·√n
	// entries per node, spread evenly over the workers, coded at about a
	// third of a word each. A hint only — shards still grow for graphs
	// that deviate (flood vicinities) — but it removes most
	// growth-reallocation on the expected path.
	hint := int(float64(len(scope)) * o.opts.Alpha * math.Sqrt(float64(n)) / float64(workers))
	const maxHint = 1 << 24 // keep the up-front bet bounded (64 MB/array)
	if hint > maxHint {
		hint = maxHint
	}
	for w := range shards {
		shards[w] = &u32map.Shard{Words: make([]uint32, 0, hint/3)}
		if weighted {
			shards[w].Dists = make([]uint32, 0, hint)
		}
	}

	type vicWorker struct {
		w  int
		ws *buildWS
	}
	parallelFor(workers, len(scope), func(w int) any {
		return &vicWorker{w: w, ws: newBuildWS(n)}
	}, func(state any, i int) {
		vw := state.(*vicWorker)
		u := scope[i]
		if o.isL[u] {
			return // landmarks answer from their full table
		}
		var res vicResult
		if weighted {
			res = vicinityDijkstra(g, o.isL, vw.ws, u)
		} else {
			res = vicinityBFS(g, o.isL, vw.ws, u)
		}
		o.radius[u] = res.radius
		o.nearest[u] = res.nearest
		m := &metas[i]
		m.shard = int32(vw.w)
		m.wordLen, m.entLen = uint32(len(res.code)), res.entries
		m.wordOff, m.entOff = shards[vw.w].Append(res.code, res.dists)
		m.boundLen = res.boundLen
	})
	return metas, shards
}

// mergeVicinities assembles the sharded phase-1 results into the
// oracle's arena storage: prefix sums in scope order size the arena and
// fix every node's final range, then a parallel pass copies each node's
// shard range into place. The layout depends only on the scope order
// and per-node sizes, never on shard assignment.
func (o *Oracle) mergeVicinities(scope []uint32, metas []vicMeta, shards []*u32map.Shard) error {
	n := o.g.NumNodes()
	weighted := o.g.Weighted()

	var totalWords, totalDists, widest uint64
	for i := range metas {
		m := &metas[i]
		if m.entLen > 0 {
			o.covered++
		}
		totalWords += uint64(m.wordLen)
		widest = max(widest, uint64(m.wordLen))
		if weighted {
			totalDists += uint64(m.entLen)
		}
	}
	if err := checkArenaCapacity(totalWords, totalDists, widest); err != nil {
		return err
	}

	o.boundLen = make([]uint32, n)
	o.arena = &u32map.Arena{
		Words:   make([]uint32, totalWords),
		Leveled: !weighted,
	}
	if weighted {
		o.arena.Dists = make([]uint32, totalDists)
	}
	o.vicFlat = make([]u32map.Flat, n)

	// Final arena ranges by prefix sum over the scope order.
	at := make([]u32map.Range, len(metas))
	var word, ent uint32
	for i := range metas {
		m := &metas[i]
		at[i] = u32map.Range{WOff: word, WLen: m.wordLen, ELen: m.entLen}
		word += m.wordLen
		if weighted {
			at[i].EOff = ent
			ent += m.entLen
		}
		o.boundLen[scope[i]] = m.boundLen
	}

	// Parallel copy into disjoint destination ranges.
	parallelFor(o.opts.Workers, len(metas), func(int) any { return nil }, func(_ any, i int) {
		m, r := &metas[i], at[i]
		if m.entLen == 0 {
			return
		}
		o.arena.CopyFromShard(r, shards[m.shard], m.wordOff, m.entOff)
		o.vicFlat[scope[i]] = o.arena.View(r)
	})
	return nil
}

// checkArenaCapacity rejects an arena of the given word and distance
// counts, whose widest table takes widest words, when any of them
// overflows the offsets that hold it: the uint32 word and distance
// offsets every Flat view and file range uses, and the table-local
// block data offsets of a coded table (u32map.MaxTableWords). Build and
// update both call it before writing, so neither can wrap an offset.
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
// build), in landmark order (see Oracle.lpos), each at the width its
// distances need (see lrow). Unweighted graphs fill the rows 64
// landmarks per bit-parallel BFS pass (msbfs), one batch per task;
// weighted graphs run one Dijkstra per landmark. Rows and their widths
// depend only on the graph, so neither the batching nor the worker
// count reaches the output.
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
	// Unweighted rows start as nibbles. MS-BFS levels only ascend, so a
	// row that reaches level maxNibble+1 widens once, mid-pass, and stays
	// wide.
	const batch = 64 // sources per pass: the bits of one uint64
	parallelFor(o.opts.Workers, (len(srcs)+batch-1)/batch, func(int) any {
		return newMSBFS(n)
	}, func(state any, b int) {
		lo, hi := b*batch, min(b*batch+batch, len(srcs))
		for j := lo; j < hi; j++ {
			o.lrows[j] = newNibbleRow(n)
		}
		state.(*msbfs).run(o.g, srcs[lo:hi], func(v uint32, set uint64, d uint32) {
			for ; set != 0; set &= set - 1 {
				row := &o.lrows[lo+bits.TrailingZeros64(set)]
				if row.wide == nil && d > maxNibble {
					row.widen(n)
				}
				if row.wide != nil {
					row.wide[v] = d
				} else {
					row.set(v, d)
				}
			}
		})
	})
}

// parallelFor runs fn(state, i) for i in [0,n) across workers goroutines.
// Each worker gets its own state from newState(w), where w is the worker
// index in [0, workers) — callers that keep per-worker output (shards)
// index it by w. Work is handed out by an atomic counter so uneven item
// costs balance automatically.
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
