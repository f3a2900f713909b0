package core

import (
	"context"
	"fmt"

	"vicinity/internal/graph"
	"vicinity/internal/syncx"
	"vicinity/internal/u32map"
)

// This file implements the one-to-many batch engine. The paper's
// motivating workload is not a single pair but ranking: "social search"
// orders a candidate set by distance from one source (§1), i.e. one
// query source s against many targets. Answering the targets one by one
// re-reads s's vicinity view, landmark row and boundary slice per call
// and re-runs the boundary scan per target; DistanceMany loads s's
// state once and services every residual boundary-scan target with a
// single inverted pass:
//
//   - s's boundary ∂Γ(s) is scanned once into a stamped mark array
//     (node → d(s,w) plus w's scan position);
//   - each unresolved target's vicinity Γ(t) is then walked
//     sequentially — contiguous arena entries, no hashing — checking
//     each member against the marks. The witness set Γ(t) ∩ ∂Γ(s) is
//     exactly the set the per-pair scan probes, so the minimum is the
//     same; ties on the minimum are broken toward the smallest scan
//     position, which is precisely the witness the per-pair scan's
//     strict-< loop keeps. Batch answers are therefore bit-identical
//     to the single-query path, methods and witnesses included.
//
// Targets the tables cannot resolve share one pooled fallback
// workspace instead of borrowing one per call.
//
// Large batches additionally fan out across worker goroutines
// (Request.Parallel): the classification pass, the per-target vicinity
// walks of the inverted pass and the fallback searches are all
// embarrassingly parallel once the ∂Γ(s) mark array is built, so the
// marks are written once (sequentially) and every worker reads them
// immutably. Workers write answers to fixed target indexes and tally
// into private BatchStats shards that merge by summation, and the
// residual route lists are rebuilt in target order after the parallel
// pass — so for any worker count the batch output (distances, methods,
// witnesses, tie-breaks, per-item errors, stats) is bit-identical to
// the sequential pass. The per-target work is shared code between the
// sequential and parallel variants, never duplicated, so the two
// cannot drift.
//
// All reads are against one oracle snapshot, so a batch is internally
// consistent even while ApplyUpdates installs new snapshots
// concurrently.

// BatchResult is one target's answer in a DistanceMany batch. Err is
// non-nil for per-target failures (target out of range, endpoint
// outside the build scope) and mirrors the error the single-query path
// returns for the same pair.
type BatchResult struct {
	Dist   uint32
	Method Method
	Err    error
}

// BatchPathResult is one target's answer in a PathMany batch. A nil
// path is interpreted exactly as in Path: MethodNone means unresolved,
// MethodUnreachable means no path exists.
type BatchPathResult struct {
	Path   []uint32
	Method Method
	Err    error
}

// BatchStats aggregates the work one batch performed, the one-to-many
// analogue of QueryStats.
type BatchStats struct {
	Targets   int // targets requested
	Errors    int // targets answered with a per-target error
	Resolved  int // targets answered from the stored tables
	Fallbacks int // bidirectional searches run
	Lookups   int // stored-table look-ups (probes + landmark reads + members checked)
	Scanned   int // vicinity/boundary members examined by the scan passes
	Boundary  int // |∂Γ(s)| marked for the inverted pass (0 when unused)

	// Methods counts targets per resolution method, indexed by Method.
	Methods [methodCount]int
}

// note tallies one resolved target.
func (b *BatchStats) note(m Method) {
	b.Methods[m]++
	if m.Resolved() {
		b.Resolved++
	}
}

// unnote reverts a note when a target's final method changes (a
// table-resolved path whose stored chain fails re-resolves through the
// fallback).
func (b *BatchStats) unnote(m Method) {
	b.Methods[m]--
	if m.Resolved() {
		b.Resolved--
	}
}

// add folds a worker shard into the aggregate. Every field is a plain
// sum (a shard may even hold transient negative tallies from unnote),
// so any merge order produces the totals the sequential pass reports.
func (b *BatchStats) add(x *BatchStats) {
	b.Targets += x.Targets
	b.Errors += x.Errors
	b.Resolved += x.Resolved
	b.Fallbacks += x.Fallbacks
	b.Lookups += x.Lookups
	b.Scanned += x.Scanned
	b.Boundary += x.Boundary
	for i := range b.Methods {
		b.Methods[i] += x.Methods[i]
	}
}

// String renders the aggregate in one line.
func (b BatchStats) String() string {
	return fmt.Sprintf(
		"targets=%d resolved=%d fallbacks=%d errors=%d lookups=%d scanned=%d boundary=%d",
		b.Targets, b.Resolved, b.Fallbacks, b.Errors, b.Lookups, b.Scanned, b.Boundary)
}

// batchWS is the reusable scratch state of one batch: the stamped mark
// array over node ids for ∂Γ(s) plus the residual-target index lists.
// Arrays grow to the largest graph seen and are shared process-wide
// through batchPool, so the pool needs no per-snapshot lifecycle.
type batchWS struct {
	stamp []uint32
	epoch uint32
	dist  []uint32 // d(s,w) for marked boundary members w
	pos   []uint32 // w's position in the ∂Γ(s) scan order (tie-break)

	scan []uint32 // target indexes for the inverted pass
	cls  []uint8  // per-target route codes (parallel classification only)
}

var batchPool = syncx.NewPool(func() *batchWS { return new(batchWS) })

// ensure readies the workspace for a graph of n nodes and a fresh batch.
func (w *batchWS) ensure(n int) {
	if len(w.stamp) < n {
		w.stamp = make([]uint32, n)
		w.dist = make([]uint32, n)
		w.pos = make([]uint32, n)
		w.epoch = 0
	}
	w.epoch++
	if w.epoch == 0 { // stamp wrap: forget stale marks the slow way
		clear(w.stamp)
		w.epoch = 1
	}
	w.scan = w.scan[:0]
}

// DistanceMany answers the one-to-many query (s → each of ts). Every
// result — distance, method, and any per-target error — is identical
// to what Distance(s, ts[i]) returns; the error return is non-nil only
// when s itself is out of range (then every single query would fail).
func (o *Oracle) DistanceMany(s uint32, ts []uint32) ([]BatchResult, error) {
	var bst BatchStats
	return o.DistanceManyStats(s, ts, &bst)
}

// DistanceManyStats is DistanceMany with batch instrumentation written
// to bst (must be non-nil; tallies are added, so one BatchStats can
// aggregate several batches). It delegates to the request-scoped
// engine with a zero-override request, so v1 and v2 batches share one
// implementation.
func (o *Oracle) DistanceManyStats(s uint32, ts []uint32, bst *BatchStats) ([]BatchResult, error) {
	if ts == nil {
		ts = []uint32{}
	}
	qres, err := o.queryMany(context.Background(), Request{S: s, Ts: ts}, bst)
	if err != nil {
		return nil, err
	}
	res := make([]BatchResult, len(qres.Items))
	for i, it := range qres.Items {
		res[i] = BatchResult{Dist: it.Dist, Method: it.Method, Err: it.Err}
	}
	return res, nil
}

// PathMany answers one-to-many path queries. Each target's path,
// method and error are identical to Path(s, ts[i]); unresolved targets
// cost one bidirectional search each (never two), sharing one pooled
// workspace across the batch.
func (o *Oracle) PathMany(s uint32, ts []uint32) ([]BatchPathResult, error) {
	var bst BatchStats
	return o.PathManyStats(s, ts, &bst)
}

// PathManyStats is PathMany with batch instrumentation; like
// DistanceManyStats it delegates to the request-scoped engine.
func (o *Oracle) PathManyStats(s uint32, ts []uint32, bst *BatchStats) ([]BatchPathResult, error) {
	if ts == nil {
		ts = []uint32{}
	}
	qres, err := o.queryMany(context.Background(), Request{S: s, Ts: ts, WantPath: true}, bst)
	if err != nil {
		return nil, err
	}
	out := make([]BatchPathResult, len(qres.Items))
	for i, it := range qres.Items {
		out[i] = BatchPathResult{Path: it.Path, Method: it.Method, Err: it.Err}
	}
	return out, nil
}

// Target route codes produced by the classification pass.
const (
	tgtDone uint8 = iota // answered (or errored) by the direct cases
	tgtScan              // residual: inverted boundary pass
	tgtPend              // residual: straight to the fallback
)

// landmarkOne answers one target off landmark s's dense row
// (Algorithm 1's first case, batch shape).
func (o *Oracle) landmarkOne(s uint32, li int32, t uint32, n int, bst *BatchStats, r *BatchResult) {
	if int(t) >= n {
		*r = BatchResult{Dist: NoDist, Err: errRange(n)}
		bst.Errors++
		return
	}
	if s == t {
		*r = BatchResult{Method: MethodSame}
		bst.note(MethodSame)
		return
	}
	bst.Lookups++
	d := o.landmarkDist(li, t)
	if d == NoDist {
		*r = BatchResult{Dist: NoDist, Method: MethodUnreachable}
		bst.note(MethodUnreachable)
		return
	}
	*r = BatchResult{Dist: d, Method: MethodLandmarkSource}
	bst.note(MethodLandmarkSource)
}

// classifyTarget runs the direct cases of Algorithm 1 for one target —
// range check, s == t, t's landmark row, the two vicinity probes, in
// the exact order the single-query path applies them — writing any
// decided answer into *r and returning the target's route. Both the
// sequential and the parallel classification passes go through it, so
// their semantics cannot diverge.
func (o *Oracle) classifyTarget(s, t uint32, n int, okS bool, vs u32map.Flat, bst *BatchStats, r *BatchResult) uint8 {
	if int(t) >= n {
		*r = BatchResult{Dist: NoDist, Err: errRange(n)}
		bst.Errors++
		return tgtDone
	}
	if s == t {
		*r = BatchResult{Method: MethodSame}
		bst.note(MethodSame)
		return tgtDone
	}
	if o.isL[t] {
		if li := o.lidx[t]; o.hasLandmarkTable(li) {
			bst.Lookups++
			d := o.landmarkDist(li, s)
			if d == NoDist {
				*r = BatchResult{Dist: NoDist, Method: MethodUnreachable}
				bst.note(MethodUnreachable)
			} else {
				*r = BatchResult{Dist: d, Method: MethodLandmarkTarget}
				bst.note(MethodLandmarkTarget)
			}
			return tgtDone
		}
	}
	if !okS && !o.isL[s] {
		*r = BatchResult{Dist: NoDist, Err: errNotCovered(s)}
		bst.Errors++
		return tgtDone
	}
	vt, okT := o.vicinity(t)
	if !okT && !o.isL[t] {
		*r = BatchResult{Dist: NoDist, Err: errNotCovered(t)}
		bst.Errors++
		return tgtDone
	}
	if okS {
		bst.Lookups++
		if d, ok := vs.Get(t); ok {
			*r = BatchResult{Dist: d, Method: MethodVicinitySource}
			bst.note(MethodVicinitySource)
			return tgtDone
		}
	}
	if okT {
		bst.Lookups++
		if d, ok := vt.Get(s); ok {
			*r = BatchResult{Dist: d, Method: MethodVicinityTarget}
			bst.note(MethodVicinityTarget)
			return tgtDone
		}
	}
	if okS && okT {
		return tgtScan
	}
	// No scan possible (a landmark endpoint without tables): the
	// single-query path goes straight to the fallback.
	return tgtPend
}

// scanTarget walks Γ(t) against the marked ∂Γ(s) (one target of the
// inverted pass). The marks are read-only here, so any number of
// workers may scan disjoint targets concurrently. Ties on the minimum
// break toward the smallest scan position — the witness the per-pair
// scan's strict-< loop keeps.
func (o *Oracle) scanTarget(t uint32, bws *batchWS, bst *BatchStats) (best, meet uint32) {
	best, meet = NoDist, graph.NoNode
	var bestPos uint32
	eOff, eLen, _, _ := o.vicFlat[t].Ranges()
	keys := o.arena.Keys[eOff : eOff+eLen]
	dists := o.arena.Dists[eOff : eOff+eLen]
	for k, w := range keys {
		if bws.stamp[w] != bws.epoch {
			continue
		}
		cand := satAdd(bws.dist[w], dists[k])
		if cand < best || (cand == best && cand != NoDist && bws.pos[w] < bestPos) {
			best, meet, bestPos = cand, w, bws.pos[w]
		}
	}
	bst.Lookups += len(keys)
	bst.Scanned += len(keys)
	return best, meet
}

// tableMany resolves every target against the stored tables, fanning
// out across workers goroutines when workers > 1 (see the file
// comment for why the output is identical for any worker count).
// Targets the tables cannot decide are returned in pend (their res
// entry holds MethodNone) for the caller's fallback handling; when
// needMeet is set the intersection witness per target is returned in
// meets.
func (o *Oracle) tableMany(s uint32, ts []uint32, bst *BatchStats, needMeet bool, workers int) (res []BatchResult, meets, pend []uint32, err error) {
	n := o.g.NumNodes()
	if int(s) >= n {
		return nil, nil, nil, errRange(n)
	}
	bst.Targets += len(ts)
	res = make([]BatchResult, len(ts))
	if needMeet {
		meets = make([]uint32, len(ts))
		for i := range meets {
			meets[i] = graph.NoNode
		}
	}
	if workers > len(ts) {
		workers = len(ts)
	}

	// s ∈ L with a built table: every target answers off s's dense row,
	// no vicinity state needed.
	if o.isL[s] {
		if li := o.lidx[s]; o.hasLandmarkTable(li) {
			if workers > 1 {
				shards := make([]BatchStats, workers)
				parallelFor(workers, len(ts), func(w int) any { return &shards[w] },
					func(state any, i int) {
						o.landmarkOne(s, li, ts[i], n, state.(*BatchStats), &res[i])
					})
				for w := range shards {
					bst.add(&shards[w])
				}
			} else {
				for i, t := range ts {
					o.landmarkOne(s, li, t, n, bst, &res[i])
				}
			}
			return res, meets, nil, nil
		}
	}

	// s's vicinity view, loaded once for the batch.
	vs, okS := o.vicinity(s)
	bws := batchPool.Get()
	defer batchPool.Put(bws)
	bws.ensure(n)

	// Classification pass: the direct cases per target. The parallel
	// variant records each target's route in cls and rebuilds the route
	// lists in target order afterwards, so list order — and everything
	// downstream — matches the sequential pass exactly.
	if workers > 1 {
		if cap(bws.cls) < len(ts) {
			bws.cls = make([]uint8, len(ts))
		}
		cls := bws.cls[:len(ts)]
		shards := make([]BatchStats, workers)
		parallelFor(workers, len(ts), func(w int) any { return &shards[w] },
			func(state any, i int) {
				cls[i] = o.classifyTarget(s, ts[i], n, okS, vs, state.(*BatchStats), &res[i])
			})
		for w := range shards {
			bst.add(&shards[w])
		}
		for i, c := range cls {
			switch c {
			case tgtScan:
				bws.scan = append(bws.scan, uint32(i))
			case tgtPend:
				pend = append(pend, uint32(i))
			}
		}
	} else {
		for i, t := range ts {
			switch o.classifyTarget(s, t, n, okS, vs, bst, &res[i]) {
			case tgtScan:
				bws.scan = append(bws.scan, uint32(i))
			case tgtPend:
				pend = append(pend, uint32(i))
			}
		}
	}

	// Inverted boundary pass: mark ∂Γ(s) once (sequentially — workers
	// then read the marks immutably), walk each residual target's
	// vicinity against the marks.
	if len(bws.scan) > 0 {
		sKeys, sDist := o.boundary(s)
		for j, w := range sKeys {
			bws.stamp[w] = bws.epoch
			bws.dist[w] = sDist[j]
			bws.pos[w] = uint32(j)
		}
		bst.Boundary += len(sKeys)
		scanOne := func(ii uint32, wst *BatchStats) bool {
			best, meet := o.scanTarget(ts[ii], bws, wst)
			if best == NoDist {
				return false
			}
			res[ii] = BatchResult{Dist: best, Method: MethodIntersection}
			wst.note(MethodIntersection)
			if needMeet {
				meets[ii] = meet
			}
			return true
		}
		if sw := min(workers, len(bws.scan)); sw > 1 {
			shards := make([]BatchStats, sw)
			parallelFor(sw, len(bws.scan), func(w int) any { return &shards[w] },
				func(state any, k int) {
					scanOne(bws.scan[k], state.(*BatchStats))
				})
			for w := range shards {
				bst.add(&shards[w])
			}
			// Rebuild the miss list in scan order (a missed scan target
			// is the only way a tgtScan entry stays MethodNone).
			for _, ii := range bws.scan {
				if res[ii].Method == MethodNone {
					pend = append(pend, ii)
				}
			}
		} else {
			for _, ii := range bws.scan {
				if !scanOne(ii, bst) {
					pend = append(pend, ii)
				}
			}
		}
	}
	return res, meets, pend, nil
}
