package core

import (
	"vicinity/internal/graph"
	"vicinity/internal/syncx"
	"vicinity/internal/u32map"
)

// This file implements the one-to-many batch engine. The paper's
// motivating workload is not a single pair but ranking: "social search"
// orders a candidate set by distance from one source (§1), i.e. one
// query source s against many targets. Answering the targets one by one
// re-runs the boundary scan per target; a one-to-many Query marks s's
// boundary once and services every residual boundary-scan target with
// a single inverted pass:
//
//   - s's boundary ∂Γ(s) is scanned once into a stamped mark array
//     (node → d(s,w));
//   - each unresolved target's vicinity Γ(t) is then walked run by
//     run, block by block — decoded into a buffer on the stack, sorted
//     by id — checking each member against the marks. The witness set Γ(t) ∩ ∂Γ(s) is
//     exactly the set the per-pair intersection meets, so the minimum
//     is the same, and ties on the minimum go to the smallest id, as
//     they do there. On an unweighted graph the walk climbs Γ(t)'s
//     levels and stops at the first one holding a marked member, just
//     as the per-pair scan stops at the first level it meets. Batch
//     answers are therefore bit-identical to single-target Queries,
//     methods and witnesses included.
//
// Every target first goes through Algorithm 1's direct cases in
// directCases, the same function a single-target query calls, so the
// two paths decide those cases identically by construction; only the
// boundary scan has a batch shape. Targets the tables cannot resolve
// share one pooled fallback workspace per worker instead of borrowing
// one per target.
//
// Large batches additionally fan out across worker goroutines
// (Request.Parallel): the classification pass, the per-target vicinity
// walks of the inverted pass and the fallback searches are all
// embarrassingly parallel once the ∂Γ(s) mark array is built, so the
// marks are written once (sequentially) and every worker reads them
// immutably. Workers write answers to fixed target indexes and tally
// into private Cost shards that merge by summation, and the residual
// route lists are built in target order after each pass — so for any
// worker count the batch output (distances, methods,
// witnesses, tie-breaks, per-item errors, cost) is bit-identical to
// the sequential pass. The per-target work is shared code between the
// sequential and parallel variants, never duplicated, so the two
// cannot drift.
//
// All reads are against one oracle snapshot, so a batch is internally
// consistent even while ApplyUpdates installs new snapshots
// concurrently.

// batchWS is the reusable scratch state of one batch: the stamped mark
// array over node ids for ∂Γ(s) plus the residual-target index lists.
// Arrays grow to the largest graph seen and are shared process-wide
// through batchPool, so the pool needs no per-snapshot lifecycle.
type batchWS struct {
	stamp []uint32
	epoch uint32
	dist  []uint32 // d(s,w) for marked boundary members w

	scan []uint32 // target indexes for the inverted pass
	cls  []uint8  // per-target route codes of the classification pass
}

var batchPool = syncx.NewPool(func() *batchWS { return new(batchWS) })

// ensure readies the workspace for a graph of n nodes and a fresh batch.
func (w *batchWS) ensure(n int) {
	if len(w.stamp) < n {
		w.stamp = make([]uint32, n)
		w.dist = make([]uint32, n)
		w.epoch = 0
	}
	w.epoch++
	if w.epoch == 0 { // stamp wrap: forget stale marks the slow way
		clear(w.stamp)
		w.epoch = 1
	}
	w.scan = w.scan[:0]
}

// scanTarget walks Γ(t) against the marked ∂Γ(s) (one target of the
// inverted pass), with scanBoundary's answer: the minimum, and the
// smallest id among its witnesses. Each run walked costs one look-up
// and its entries walked count as scanned. The marks are read-only
// here, so any number of workers may scan disjoint targets
// concurrently.
func (o *Oracle) scanTarget(t uint32, bws *batchWS, c *Cost) (best, meet uint32) {
	best, meet = NoDist, graph.NoNode
	vt := o.vicFlat[t]
	var buf [u32map.BlockLen]uint32
	if vt.Leveled() {
		// Level 0 is t itself, not in Γ(s) (see scanBoundary).
		for k := 0; k < vt.Runs(); k++ {
			level, _ := vt.Run(k)
			c.Lookups++
			for b := 0; b < level.Blocks(); b++ {
				for i, w := range level.Block(b, &buf) {
					if bws.stamp[w] == bws.epoch {
						c.Scanned += b*u32map.BlockLen + i + 1
						return satAdd(bws.dist[w], uint32(k)+1), w
					}
				}
			}
			c.Scanned += level.Len()
		}
		return best, meet
	}
	for k := 0; k < vt.Runs(); k++ {
		run, dists := vt.Run(k)
		c.Lookups++
		c.Scanned += run.Len()
		for b := 0; b < run.Blocks(); b++ {
			for i, w := range run.Block(b, &buf) {
				if bws.stamp[w] != bws.epoch {
					continue
				}
				if cand := satAdd(bws.dist[w], dists[b*u32map.BlockLen+i]); cand < best || cand == best && cand != NoDist && w < meet {
					best, meet = cand, w
				}
			}
		}
	}
	return best, meet
}

// tableMany resolves every target against the stored tables, adding
// the work to c and fanning out across workers goroutines when
// workers > 1 (see the file comment for why the output is identical
// for any worker count). Targets the tables cannot decide are returned
// in pend (their item holds NoDist and MethodNone) for the caller's fallback
// handling; when needMeet is set the intersection witness per target
// is returned in meets.
func (o *Oracle) tableMany(s uint32, ts []uint32, c *Cost, needMeet bool, workers int) (items []ItemResult, meets, pend []uint32, err error) {
	n := o.g.NumNodes()
	if int(s) >= n {
		return nil, nil, nil, errRange(n)
	}
	items = make([]ItemResult, len(ts))
	if needMeet {
		meets = make([]uint32, len(ts))
		for i := range meets {
			meets[i] = graph.NoNode
		}
	}

	bws := batchPool.Get()
	defer batchPool.Put(bws)
	bws.ensure(n)

	// Classification pass: Algorithm 1's direct cases per target,
	// through the same function as a single-target query. Every item is
	// written here. Each target's route is recorded in cls and the
	// route lists are built in target order afterwards, so list order —
	// and everything downstream — is the same for any worker count.
	if cap(bws.cls) < len(ts) {
		bws.cls = make([]uint8, len(ts))
	}
	cls := bws.cls[:len(ts)]
	o.fanOut(workers, len(ts), c, func(w *worker, i int) {
		d, m, route, err := o.directCases(s, ts[i], &w.cost)
		items[i], cls[i] = ItemResult{Dist: d, Method: m, Err: err}, route
	})
	for i, route := range cls {
		switch route {
		case tgtScan:
			bws.scan = append(bws.scan, uint32(i))
		case tgtPend:
			pend = append(pend, uint32(i))
		}
	}

	// Inverted boundary pass: mark ∂Γ(s) once (sequentially — workers
	// then read the marks immutably), walk each residual target's
	// vicinity against the marks.
	if len(bws.scan) > 0 {
		scan, dists := o.boundary(s)
		var buf [u32map.BlockLen]uint32
		for b := 0; b < scan.Blocks(); b++ {
			for i, w := range scan.Block(b, &buf) {
				bws.stamp[w] = bws.epoch
				if dists != nil {
					bws.dist[w] = dists[b*u32map.BlockLen+i]
				} else {
					bws.dist[w] = o.radius[s]
				}
			}
		}
		o.fanOut(workers, len(bws.scan), c, func(w *worker, k int) {
			ii := bws.scan[k]
			if best, meet := o.scanTarget(ts[ii], bws, &w.cost); best != NoDist {
				items[ii] = ItemResult{Dist: best, Method: MethodIntersection}
				if needMeet {
					meets[ii] = meet
				}
			}
		})
		// The misses join pend in scan order (a missed scan target is
		// the only way a tgtScan entry stays MethodNone).
		for _, ii := range bws.scan {
			if items[ii].Method == MethodNone {
				pend = append(pend, ii)
			}
		}
	}
	return items, meets, pend, nil
}

// fanOut runs fn for every index in [0, n) on up to workers
// goroutines, each with a private worker that is done into c
// afterwards. Answers land at fixed indexes and costs are plain sums,
// so the output is the sequential pass's for any worker count.
func (o *Oracle) fanOut(workers, n int, c *Cost, fn func(w *worker, i int)) {
	shards := make([]worker, max(workers, 1))
	parallelFor(workers, n, func(w int) any { return &shards[w] },
		func(state any, i int) { fn(state.(*worker), i) })
	for i := range shards {
		shards[i].done(o, c)
	}
}
