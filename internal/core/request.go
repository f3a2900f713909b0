package core

import (
	"context"
	"fmt"
	"sync"

	"vicinity/internal/graph"
	"vicinity/internal/traverse"
)

// This file implements the request-scoped query API (v2). The paper's
// premise is interactive serving — answers "within tens of
// microseconds" behind a user-facing product — and production serving
// needs a notion of a request, not just a pair of node ids: deadlines
// that are honored inside the slow path, per-query fallback policy (a
// client ranking 100 candidates can afford the landmark estimate of the
// sequel paper, an exact-path client cannot), node budgets bounding the
// searches of the pairs that miss the tables (38% of uniform pairs on
// the LiveJournal-profile benchmark graph), and machine-readable errors
// at every layer.
//
// Query(ctx, Request) is the one entry point all of that flows through:
// single targets, one-to-many rankings and ranked alternatives alike,
// with Cost as the one work counter. The public vicinity package's
// Distance and Path are one-line helpers over it.

// Policy selects what a pair the stored tables cannot decide gets. It
// is the oracle's only fallback selector and is chosen per request.
// The numbering is part of the wire protocol and must not change.
type Policy uint8

const (
	// PolicyDefault, the zero value, is the exact search: the same
	// behavior as PolicyFull.
	PolicyDefault Policy = iota
	// PolicyFull answers unresolved queries with the exact
	// bidirectional search (bounded by Request.Budget and ctx). It
	// equals PolicyDefault; the two values stay distinct because
	// clients send either.
	PolicyFull
	// PolicyEstimate answers unresolved queries with the landmark
	// triangulation upper bound (no search; microseconds).
	PolicyEstimate
	// PolicyTableOnly answers from the stored tables only; unresolved
	// queries report MethodNone.
	PolicyTableOnly
)

// String returns the policy name (the same spelling ParsePolicy
// accepts).
func (p Policy) String() string {
	switch p {
	case PolicyDefault:
		return "default"
	case PolicyFull:
		return "full"
	case PolicyEstimate:
		return "estimate"
	case PolicyTableOnly:
		return "table"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses a policy name as accepted by CLI flags and the
// HTTP API: "default" (or empty), "full", "estimate", "table".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "default":
		return PolicyDefault, nil
	case "full":
		return PolicyFull, nil
	case "estimate":
		return PolicyEstimate, nil
	case "table", "table-only":
		return PolicyTableOnly, nil
	default:
		return PolicyDefault, fmt.Errorf("core: unknown policy %q (want default|full|estimate|table)", s)
	}
}

// Request describes one request-scoped query: a source, one target (T)
// or many (Ts), and per-request settings. The zero value of every
// setting is the default behavior: the exact search for pairs the
// tables miss, no budget, no path, sequential.
type Request struct {
	// S is the source node.
	S uint32
	// T is the single target; ignored when Ts is non-nil.
	T uint32
	// Ts, when non-nil, makes this a one-to-many request (the batch
	// engine's ranking shape); answers land in Result.Items in target
	// order.
	Ts []uint32

	// Policy selects what pairs the tables cannot decide get: the
	// exact search (PolicyDefault, PolicyFull), the landmark estimate
	// (PolicyEstimate) or no answer (PolicyTableOnly).
	Policy Policy
	// Budget caps the node expansions of each fallback search run for
	// this request (0 = unlimited). An exhausted search still reports
	// its best-known upper bound — see ErrBudgetExceeded.
	Budget int
	// WantPath asks for the path(s); with it set, Method reports how
	// the path was resolved.
	WantPath bool
	// WantStats asks the serving layers to report Result.Cost back to
	// the client; the in-process engine fills Cost regardless.
	WantStats bool
	// Parallel caps the worker goroutines a one-to-many request may fan
	// out across (0 or 1 = sequential). Parallelism never changes
	// answers: every distance, method, path witness, per-item error and
	// Cost tally is bit-identical to the sequential pass for any worker
	// count. Batches smaller than BatchParallelMinTargets stay
	// sequential regardless, so small requests keep the allocation-lean
	// fast path. Single-target requests ignore it.
	Parallel int

	// K, when positive, asks for up to K ranked loopless alternative
	// paths (single-target only; implies WantPath; capped by MaxK).
	// Result.Paths carries them sorted by (dist, length, path), and
	// Result.Dist/Method/Path keep describing the first (root) path —
	// a K=1 request is bit-identical to a WantPath request plus a
	// one-entry Paths. 0 asks for no alternatives.
	K int
}

// BatchParallelMinTargets is the smallest one-to-many request the
// engine will fan out across workers. Below it the sequential pass wins
// outright — goroutine startup and stat-shard merging cost more than
// the table passes themselves — and, just as importantly, small batches
// keep the sequential path's allocation profile.
const BatchParallelMinTargets = 64

// batchWorkers resolves the effective worker count for a one-to-many
// request: the request's Parallel knob gated by the size threshold and
// clamped to the target count.
func batchWorkers(parallel, targets int) int {
	if parallel <= 1 || targets < BatchParallelMinTargets {
		return 1
	}
	if parallel > targets {
		parallel = targets
	}
	return parallel
}

// cancelLatch latches the first observed cancellation so every
// subsequent target of a batch shares one error value — exactly the
// sequential pass's semantics — while remaining safe for concurrent
// workers. A single-target Query passes a nil latch, which polls the
// context without latching: a mutex-guarded latch would escape to the
// heap and cost the table-resolved path its zero allocations.
type cancelLatch struct {
	mu  sync.Mutex
	err error
}

// check polls ctx (latching its error on first observation) and
// returns the latched cancellation, if any.
func (c *cancelLatch) check(ctx context.Context) error {
	if c == nil {
		if cerr := ctxErr(ctx); cerr != nil {
			return errCanceled(cerr)
		}
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		if cerr := ctxErr(ctx); cerr != nil {
			c.err = errCanceled(cerr)
		}
	}
	return c.err
}

// force latches a cancellation observed through a search outcome even
// when the context has not (yet) reported one, and returns it.
func (c *cancelLatch) force() error {
	if c == nil {
		return errCanceled(nil)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = errCanceled(nil)
	}
	return c.err
}

// get returns the latched cancellation without polling the context.
func (c *cancelLatch) get() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Cost aggregates the work one Query performed, mirroring Table 3's
// accounting. It is the engine's one work counter: every pass adds to
// it where the work happens, and the serving layers export it per
// query.
//
// Vicinities are coded sorted runs, not hash tables, so a look-up is
// one of three things: a point search of one vicinity (a bisection of
// block heads per run that could hold the key), one landmark-row read,
// or one run opened by a scan. Scanned counts the entries a scan
// stepped over, on both sides: a boundary intersection adds the entries
// of ∂Γ(s) and of the run at or below where it stopped, the meeting
// pair included; the batch engine's inverted pass adds the members of
// Γ(t) it walked. A block that an intersection skips by its head,
// without decoding it, counts all its entries: Scanned is what a merge
// of the plain runs would step over, whatever the coding skipped.
type Cost struct {
	Lookups   int // point searches + landmark reads + runs opened by scans
	Scanned   int // entries stepped over by scans, on both sides
	Expanded  int // nodes expanded by fallback searches
	Fallbacks int // bidirectional searches run
}

// add folds a worker's shard into c.
func (c *Cost) add(x Cost) {
	c.Lookups += x.Lookups
	c.Scanned += x.Scanned
	c.Expanded += x.Expanded
	c.Fallbacks += x.Fallbacks
}

// ItemResult is one target's answer in a one-to-many Result. Err is
// non-nil for per-target failures (wrapping the error taxonomy:
// ErrNodeRange, ErrNotCovered, ErrBudgetExceeded, ErrCanceled) and
// leaves the other targets unaffected.
type ItemResult struct {
	Dist   uint32
	Method Method
	Path   []uint32
	Err    error
}

// Result carries the answer(s) of one Query. Single-target requests
// fill Dist/Method/Path; one-to-many requests fill Items. Epoch
// identifies the oracle snapshot that answered (0 = as built or loaded,
// incremented by every applied update batch), letting callers correlate
// answers with concurrent dynamic updates.
type Result struct {
	Dist   uint32
	Method Method
	Path   []uint32

	Items []ItemResult

	// Paths holds the ranked alternatives of a Request.K query, sorted
	// by (dist, length, lexicographic path), loopless, deduplicated.
	// Paths[0] realizes Dist via Path whenever the root search ran to
	// completion; fewer than K entries means the graph has no more
	// loopless paths (or a budget/deadline cut enumeration short, in
	// which case the call also returns the matching typed error).
	Paths []PathAlt

	Epoch uint64
	Cost  Cost
}

// Epoch returns this snapshot's position in its update lineage: 0 as
// built or loaded, +1 per applied update batch. Queries answered by
// this snapshot report it in Result.Epoch.
func (o *Oracle) Epoch() uint64 { return o.gen }

// ctxDone returns the context's cancellation channel (nil contexts and
// context.Background cost nothing: a nil channel is never ready).
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// ctxErr returns the context's error, tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Query answers one request-scoped query: Algorithm 1's table cases,
// then the request's fallback for the pairs the tables cannot decide.
// It is the only way the oracle answers; Result.Cost reports the work.
//
// Cancellation and deadlines are honored inside the fallback search
// loop (polled every few dozen node expansions), not just between
// queries; table-resolved answers are so cheap (microseconds, zero
// allocations) that they always complete and never fail with
// ErrCanceled. When the budget runs out or the context fires
// mid-search, the Result still carries the best-known upper bound on
// the distance (Method MethodBudgetBound) together with an error
// wrapping ErrBudgetExceeded or ErrCanceled; for one-to-many requests
// budget errors are per-item (other targets are unaffected) while
// cancellation also returns a top-level error alongside the partial
// Items.
//
// All answers of one call read a single oracle snapshot, identified by
// Result.Epoch.
func (o *Oracle) Query(ctx context.Context, req Request) (Result, error) {
	if req.K != 0 {
		return o.queryKPaths(ctx, req)
	}
	if req.Ts != nil {
		return o.queryMany(ctx, req)
	}
	res := Result{Dist: NoDist, Epoch: o.gen}
	d, m, meet, err := o.tableDistance(req.S, req.T, &res.Cost)
	if err != nil {
		return res, err
	}
	it := ItemResult{Dist: d, Method: m}
	var w worker
	o.finish(ctx, &req, req.T, meet, nil, &w, &it)
	w.done(o, &res.Cost)
	res.Dist, res.Method, res.Path = it.Dist, it.Method, it.Path
	return res, it.Err
}

// worker is one goroutine's private state while finishing targets: a
// Cost shard and a lazily borrowed search workspace.
type worker struct {
	cost Cost
	ws   *traverse.Workspace
}

// borrow returns the worker's search workspace, taking one from the
// oracle's pool on first use.
func (w *worker) borrow(o *Oracle) *traverse.Workspace {
	if w.ws == nil {
		w.ws = o.workspace()
	}
	return w.ws
}

// done adds the worker's cost to c and returns its workspace.
func (w *worker) done(o *Oracle, c *Cost) {
	c.add(w.cost)
	if w.ws != nil {
		o.release(w.ws)
	}
}

// finish completes target t of req after the table pass, in place in
// it: a pair the tables could not decide goes to the request's
// fallback, and a table-resolved path request derives its path from
// the stored distances (meet is the intersection witness). The
// single-target Query and both batch variants run every target that
// needs more than the table pass through it, so their answers cannot
// diverge. Work lands in w.cost; searches
// run on w's workspace and stop at the request's budget, its context,
// or the batch's latch cl once any target has seen a cancellation.
func (o *Oracle) finish(ctx context.Context, req *Request, t, meet uint32, cl *cancelLatch, w *worker, it *ItemResult) {
	switch {
	case it.Err != nil:
		// A per-target error from the table pass.
	case it.Method == MethodNone:
		switch req.Policy {
		case PolicyTableOnly:
		case PolicyEstimate:
			if d := o.landmarkEstimate(req.S, t, &w.cost); d != NoDist {
				it.Dist, it.Method = d, MethodFallbackEstimate
				if req.WantPath {
					if p, ok := o.estimatePath(req.S, t); ok {
						it.Path = p
					}
				}
			}
		default:
			o.search(ctx, req, t, cl, w, it)
		}
	case req.WantPath && it.Dist != NoDist:
		if p, ok := o.assembleTablePath(req.S, t, it.Method, meet); ok {
			it.Path = p
			return
		}
		// A chain the stored distances cannot complete (a table a walk
		// cannot descend, e.g. a corrupted file that still passed the
		// loader). Under PolicyTableOnly, report no path (MethodNone)
		// but keep the table-resolved distance. Otherwise one limited
		// exact search re-resolves the path, even under PolicyEstimate;
		// if it is cut off without beating the table-resolved distance,
		// the exact answer stays — a budget must degrade the path, never
		// the distance.
		if req.Policy == PolicyTableOnly {
			it.Method = MethodNone
			return
		}
		d, m := it.Dist, it.Method
		o.search(ctx, req, t, cl, w, it)
		if it.Err != nil && it.Dist >= d {
			it.Dist, it.Method, it.Path = d, m, nil
		}
	}
}

// search runs the limited exact fallback for (req.S, t) into it — with
// the path when WantPath is set — mapping early outcomes to the error
// taxonomy. On an early outcome the distance is the search's
// best-known upper bound and the path (if any) realizes it.
func (o *Oracle) search(ctx context.Context, req *Request, t uint32, cl *cancelLatch, w *worker, it *ItemResult) {
	if cerr := cl.check(ctx); cerr != nil {
		it.Method, it.Path, it.Err = MethodNone, nil, cerr
		return
	}
	lim := traverse.Limits{NodeBudget: req.Budget, Done: ctxDone(ctx)}
	var out traverse.Outcome
	if req.WantPath {
		var d uint32
		it.Path, d, it.Method, out = o.fallbackPathWS(req.S, t, &w.cost, w.borrow(o), lim)
		if it.Method != MethodNone {
			it.Dist = d
		}
	} else {
		it.Dist, it.Method, out = o.fallbackDistanceWS(req.S, t, &w.cost, w.borrow(o), lim)
	}
	switch out {
	case traverse.OutcomeBudget:
		it.Err = errBudget(req.Budget)
	case traverse.OutcomeStopped:
		if it.Err = cl.check(ctx); it.Err == nil {
			it.Err = cl.force()
		}
	}
}

// queryMany is the one-to-many engine: one table pass (tableMany), then
// finish for every target that still needs work — the pairs the tables
// could not decide, plus every table-resolved target when paths are
// wanted — with one pooled search workspace per worker and every pass
// adding its work to Result.Cost. The returned error is non-nil only
// when s itself is out of range or the request was canceled;
// per-target failures live in Items[i].Err. Every item equals the
// answer of the single-target Query for the same pair
// (property-tested).
//
// Request.Parallel fans the table passes (inside tableMany) and the
// finishing pass across workers. Each target's answer lands at its
// fixed index and worker Cost shards merge by summation, so the batch
// output is bit-identical for any worker count.
func (o *Oracle) queryMany(ctx context.Context, req Request) (Result, error) {
	res := Result{Dist: NoDist, Epoch: o.gen}
	workers := batchWorkers(req.Parallel, len(req.Ts))
	items, meets, pend, err := o.tableMany(req.S, req.Ts, &res.Cost, req.WantPath, workers)
	if err != nil {
		return res, err
	}
	// The latch, once set, short-circuits every remaining fallback
	// search; table-resolved targets are already answered and stay.
	var cl cancelLatch
	if req.WantPath {
		o.fanOut(workers, len(req.Ts), &res.Cost, func(w *worker, i int) {
			o.finish(ctx, &req, req.Ts[i], meets[i], &cl, w, &items[i])
		})
	} else {
		o.fanOut(workers, len(pend), &res.Cost, func(w *worker, k int) {
			i := pend[k]
			o.finish(ctx, &req, req.Ts[i], graph.NoNode, &cl, w, &items[i])
		})
	}
	res.Items = items
	return res, cl.get()
}
