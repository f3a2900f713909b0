package core

import (
	"context"
	"fmt"

	"vicinity/internal/graph"
	"vicinity/internal/kpaths"
	"vicinity/internal/syncx"
	"vicinity/internal/traverse"
)

// This file threads the k-shortest-paths engine (internal/kpaths)
// through the request API. The layering is deliberate: the engine
// knows nothing about oracles — it takes a root path and derives
// loopless alternatives by spur searches — while this file supplies
// the root through the exact same single-target code path a K=0 query
// runs. That shared leg is what makes K=1 bit-identical (dist, path,
// method, error) to the existing Path/Query answer: it IS that answer,
// with Result.Paths mirroring it.

// MaxK caps Request.K. Every serving layer (wire, HTTP, CLI) enforces
// the same cap, so a request accepted anywhere can be answered
// everywhere; enumeration cost grows with K·|path|·search, and 64
// ranked alternatives is already far past any ranking UI.
const MaxK = 64

// PathAlt is one ranked alternative path in Result.Paths.
type PathAlt = kpaths.PathAlt

// errK rejects an out-of-range Request.K. Malformed requests are
// caller bugs, not data-dependent outcomes, so like other validation
// failures this is a plain error outside the typed taxonomy.
func errK(k int) error {
	return fmt.Errorf("core: K %d out of range [0, %d]", k, MaxK)
}

// newKPathsPool returns an engine pool sized for g; like the fallback
// workspace pool it is replaced wholesale when updates swap the graph.
func newKPathsPool(g *graph.Graph) *syncx.Pool[kpaths.Engine] {
	return syncx.NewPool(func() *kpaths.Engine { return kpaths.NewEngine(g) })
}

// queryKPaths answers a Request with K > 0: the root leg runs as a
// plain single-target path query (identical code, identical answer),
// then the engine enumerates up to K-1 deviations under whatever node
// budget the root leg left behind. Result.Paths is sorted, loopless
// and deduplicated; Dist/Method/Path always describe the root leg.
//
// Partial results keep the typed-error taxonomy: a budget or deadline
// exhausted mid-enumeration returns the paths found so far alongside
// ErrBudgetExceeded/ErrCanceled, exactly like a cut-off single search
// returns its best-known bound.
func (o *Oracle) queryKPaths(ctx context.Context, req Request) (Result, error) {
	if req.K < 0 || req.K > MaxK {
		return Result{Dist: NoDist, Epoch: o.gen}, errK(req.K)
	}
	if req.Ts != nil {
		return Result{Dist: NoDist, Epoch: o.gen}, fmt.Errorf("core: K requires a single target")
	}
	k := req.K
	inner := req
	inner.K = 0
	inner.WantPath = true
	res, err := o.Query(ctx, inner)
	if len(res.Path) == 0 || res.Dist == NoDist {
		// No witness to deviate from: unreachable, a table-only miss,
		// or a search cut down before finding any path. Paths stays
		// empty and the answer mirrors the single-path query exactly.
		return res, err
	}
	res.Paths = []PathAlt{{Dist: res.Dist, Path: res.Path}}
	if k == 1 || err != nil || len(res.Path) == 1 {
		// Nothing to enumerate (k=1, s==t) or the root leg already
		// spent the request's budget/deadline: the root is the partial
		// answer, carrying the root leg's own typed error if any.
		return res, err
	}
	if res.Method == MethodFallbackEstimate {
		// Estimate witnesses are landmark-chain concatenations, not
		// shortest paths (and not always simple), so deviations from
		// them rank nothing. The estimate policy degrades a K request
		// to its single witness, mirroring how it degrades a path query.
		return res, nil
	}

	lim := traverse.Limits{Done: ctxDone(ctx)}
	if req.Budget > 0 {
		rem := req.Budget - res.Cost.Expanded
		if rem <= 0 {
			return res, errBudget(req.Budget)
		}
		lim.NodeBudget = rem
	}
	eng := o.kpPool.Get()
	alts, st, out := eng.Enumerate(PathAlt{Dist: res.Dist, Path: res.Path}, k, lim)
	o.kpPool.Put(eng)
	res.Paths = alts
	res.Cost.Expanded += int(st.Expanded)
	res.Cost.Fallbacks += int(st.Searches)
	switch out {
	case traverse.OutcomeBudget:
		return res, errBudget(req.Budget)
	case traverse.OutcomeStopped:
		return res, errCanceled(ctxErr(ctx))
	default:
		return res, nil
	}
}
