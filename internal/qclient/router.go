package qclient

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vicinity/internal/core"
	"vicinity/internal/wire"
)

// Shard is one scope-partitioned serving group: the node-id range
// [Lo, Hi) its backends' oracles were built to cover, and the
// addresses (writer and/or replicas) serving that scope.
//
// Co-residency rule: a shard can only answer queries whose source is
// inside its build scope too, so shard scopes must replicate the
// query-source population (every shard's oracle covers all sources,
// partitioning only the target space). The Router enforces nothing it
// cannot see — it routes each target to the shard covering it and
// trusts the deployment to have built shards accordingly; a violation
// surfaces as the oracle's own not-covered error.
type Shard struct {
	Lo, Hi uint32
	Addrs  []string
}

// RouterOptions tunes a Router. The zero value gets sensible defaults.
type RouterOptions struct {
	// PoolSize is the connection-pool size per backend (0 = 2).
	PoolSize int
	// Client tunes the per-backend clients (dial/request timeouts).
	Client Options
	// HedgeDelay enables hedged reads: when the first replica has not
	// answered within this delay, the same query is launched on a second
	// replica and the first response wins (the loser is canceled). 0
	// disables hedging. Pick it near the backend's p95+ latency so
	// hedges fire only on outliers; the wasted-work ceiling is one
	// duplicate per slow request.
	HedgeDelay time.Duration
	// DownCooldown is how long a backend that failed a request is
	// skipped in rotation before being retried (0 = 1s).
	DownCooldown time.Duration
	// StaleWait is the pause between read-your-epoch retries while
	// every backend is still behind QuerySpec.MinEpoch (0 = 5ms);
	// StaleRetries caps them (0 = 40). Replication lag is poll-interval
	// shaped, so a short patient loop beats failing fast.
	StaleWait    time.Duration
	StaleRetries int
	// Nodes is the scope-partitioned shard map for scatter-gather:
	// many-target queries are split by which shard covers each target,
	// fanned out, and merged back in request order. Empty = unsharded.
	Nodes []Shard
}

func (o RouterOptions) withDefaults() RouterOptions {
	if o.PoolSize < 1 {
		o.PoolSize = 2
	}
	if o.DownCooldown <= 0 {
		o.DownCooldown = time.Second
	}
	if o.StaleWait <= 0 {
		o.StaleWait = 5 * time.Millisecond
	}
	if o.StaleRetries <= 0 {
		o.StaleRetries = 40
	}
	return o
}

// RouterMetrics is a point-in-time snapshot of routing counters.
type RouterMetrics struct {
	Hedges       int64 // hedge requests launched after HedgeDelay
	HedgeWins    int64 // queries whose hedge answered first
	Failovers    int64 // retries on another backend after a failure
	StaleRetries int64 // read-your-epoch waits for replication to catch up
}

// ErrNoBackends is returned when routing finds no backend to try.
var ErrNoBackends = errors.New("qclient: no backend available")

// backend is one addressed server with its routing state: a lazy
// connection pool, the highest epoch observed from it, and a cooldown
// stamp set when it fails.
type backend struct {
	addr      string
	pool      *Pool
	epoch     atomic.Uint64
	downUntil atomic.Int64 // unix nanos; skipped in rotation until then
}

// noteEpoch ratchets the backend's observed epoch (epochs only grow;
// a stale probe racing a fresh response must not move it backwards).
func (b *backend) noteEpoch(e uint64) {
	for {
		cur := b.epoch.Load()
		if e <= cur || b.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// shardGroup is a Shard resolved to live backends.
type shardGroup struct {
	lo, hi   uint32
	backends []*backend
}

// Router routes queries over a cluster of replicas: round-robin with
// per-backend health and epoch tracking, transparent failover, hedged
// reads (RouterOptions.HedgeDelay), read-your-epoch placement
// (QuerySpec.MinEpoch — stale answers are retried on other replicas,
// then waited out while replication catches up), and scatter-gather
// over scope-partitioned shards (RouterOptions.Nodes). Methods are
// safe for concurrent use. All backends serve the same deterministic
// oracle state, so routing never changes an answer — only who computes
// it and when it is considered fresh enough.
type Router struct {
	opts     RouterOptions
	backends []*backend // unsharded (full-coverage) group
	shards   []shardGroup
	rr       atomic.Uint64

	hedges       atomic.Int64
	hedgeWins    atomic.Int64
	failovers    atomic.Int64
	staleRetries atomic.Int64
}

// NewRouter creates a router over the full-coverage backends in addrs
// plus any shard groups in opts.Nodes. Construction never dials: dead
// backends cost requests, not startup (see NewPool).
func NewRouter(addrs []string, opts RouterOptions) (*Router, error) {
	opts = opts.withDefaults()
	r := &Router{opts: opts}
	mk := func(addr string) *backend {
		p, _ := NewPool(addr, opts.PoolSize, opts.Client) // lazy: error is always nil
		return &backend{addr: addr, pool: p}
	}
	for _, a := range addrs {
		r.backends = append(r.backends, mk(a))
	}
	for _, sh := range opts.Nodes {
		if sh.Hi <= sh.Lo {
			return nil, fmt.Errorf("qclient: shard scope [%d, %d) is empty", sh.Lo, sh.Hi)
		}
		if len(sh.Addrs) == 0 {
			return nil, fmt.Errorf("qclient: shard [%d, %d) has no backends", sh.Lo, sh.Hi)
		}
		g := shardGroup{lo: sh.Lo, hi: sh.Hi}
		for _, a := range sh.Addrs {
			g.backends = append(g.backends, mk(a))
		}
		r.shards = append(r.shards, g)
	}
	if len(r.backends) == 0 && len(r.shards) == 0 {
		return nil, errors.New("qclient: router needs at least one backend address or shard")
	}
	return r, nil
}

// Metrics returns a snapshot of the routing counters.
func (r *Router) Metrics() RouterMetrics {
	return RouterMetrics{
		Hedges:       r.hedges.Load(),
		HedgeWins:    r.hedgeWins.Load(),
		Failovers:    r.failovers.Load(),
		StaleRetries: r.staleRetries.Load(),
	}
}

// Close closes every backend pool.
func (r *Router) Close() {
	for _, b := range r.backends {
		b.pool.Close()
	}
	for _, g := range r.shards {
		for _, b := range g.backends {
			b.pool.Close()
		}
	}
}

// RefreshEpochs probes every backend's replication status and updates
// its tracked epoch, returning the highest epoch seen. Callers that
// just wrote through the writer can instead pass the write's epoch as
// QuerySpec.MinEpoch directly; the probe is for routers that only read.
func (r *Router) RefreshEpochs(ctx context.Context) uint64 {
	var max atomic.Uint64
	var wg sync.WaitGroup
	probe := func(b *backend) {
		defer wg.Done()
		st, err := b.pool.ReplStatus(ctx)
		if err != nil {
			return
		}
		b.noteEpoch(st.Epoch)
		for {
			cur := max.Load()
			if st.Epoch <= cur || max.CompareAndSwap(cur, st.Epoch) {
				return
			}
		}
	}
	for _, b := range r.backends {
		wg.Add(1)
		go probe(b)
	}
	for _, g := range r.shards {
		for _, b := range g.backends {
			wg.Add(1)
			go probe(b)
		}
	}
	wg.Wait()
	return max.Load()
}

// isTransport reports whether an error indicts the backend (dead
// connection, timeout) rather than the request. Typed server replies
// mean the backend is healthy; so do stale reads and the caller's own
// cancellation.
func isTransport(err error) bool {
	var e *wire.ErrorResponse
	if errors.As(err, &e) {
		return false
	}
	return !errors.Is(err, ErrStaleRead) && !errors.Is(err, core.ErrCanceled)
}

// markDown puts a backend in cooldown after a transport failure.
func (r *Router) markDown(b *backend) {
	b.downUntil.Store(time.Now().Add(r.opts.DownCooldown).UnixNano())
}

// queryOn runs one query on one backend, updating its routing state.
func (r *Router) queryOn(ctx context.Context, b *backend, spec QuerySpec) (*QueryResult, error) {
	res, err := b.pool.Query(ctx, spec)
	if err != nil {
		if isTransport(err) {
			r.markDown(b)
		}
		return nil, err
	}
	b.downUntil.Store(0)
	b.noteEpoch(res.Epoch)
	return res, nil
}

// pickFrom chooses the next backend from group, round-robin, skipping
// already-tried ones. Preference order: up and at minEpoch, then up,
// then anything — a cluster that looks entirely down still gets one
// attempt rather than a guaranteed failure.
func (r *Router) pickFrom(group []*backend, minEpoch uint64, tried map[*backend]bool) *backend {
	start := int(r.rr.Add(1))
	now := time.Now().UnixNano()
	var anyUp, any *backend
	for i := 0; i < len(group); i++ {
		b := group[(start+i)%len(group)]
		if tried[b] {
			continue
		}
		if up := b.downUntil.Load() <= now; up {
			if minEpoch == 0 || b.epoch.Load() >= minEpoch {
				return b
			}
			if anyUp == nil {
				anyUp = b
			}
		}
		if any == nil {
			any = b
		}
	}
	if anyUp != nil {
		return anyUp
	}
	return any
}

// runGroup answers one query from a backend group: primary pick, a
// hedge launched after HedgeDelay if the primary is still silent, and
// failover to untried backends on retryable errors. First success
// wins; the cancelation of the loser rides the shared context.
func (r *Router) runGroup(ctx context.Context, group []*backend, spec QuerySpec) (*QueryResult, error) {
	tried := make(map[*backend]bool, 2)
	primary := r.pickFrom(group, spec.MinEpoch, tried)
	if primary == nil {
		return nil, ErrNoBackends
	}
	tried[primary] = true
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		out *QueryResult
		err error
		b   *backend
	}
	ch := make(chan result, len(group))
	run := func(b *backend) {
		go func() {
			out, err := r.queryOn(hctx, b, spec)
			ch <- result{out, err, b}
		}()
	}
	run(primary)
	outstanding := 1
	var hedgeB *backend
	var timerC <-chan time.Time
	if r.opts.HedgeDelay > 0 && len(group) > 1 {
		t := time.NewTimer(r.opts.HedgeDelay)
		defer t.Stop()
		timerC = t.C
	}
	var firstErr error
	for {
		select {
		case res := <-ch:
			outstanding--
			if res.err == nil {
				if res.b == hedgeB {
					r.hedgeWins.Add(1)
				}
				return res.out, nil
			}
			if firstErr == nil {
				firstErr = res.err
			}
			// Retryable failures move on to an untried backend; typed
			// query errors are deterministic (every backend would answer
			// identically), so they fail fast.
			retryable := errors.Is(res.err, ErrStaleRead) || isTransport(res.err)
			if retryable && ctx.Err() == nil {
				if nb := r.pickFrom(group, spec.MinEpoch, tried); nb != nil {
					tried[nb] = true
					r.failovers.Add(1)
					outstanding++
					run(nb)
					continue
				}
			}
			if outstanding == 0 {
				return nil, firstErr
			}
		case <-timerC:
			timerC = nil
			if nb := r.pickFrom(group, spec.MinEpoch, tried); nb != nil {
				tried[nb] = true
				hedgeB = nb
				r.hedges.Add(1)
				outstanding++
				run(nb)
			}
		}
	}
}

// groupQuery wraps runGroup with the read-your-epoch wait: when every
// backend in the group is still behind MinEpoch, it sleeps StaleWait
// and retries (up to StaleRetries times) — replication lag is
// poll-shaped, so patience beats failure.
func (r *Router) groupQuery(ctx context.Context, group []*backend, spec QuerySpec) (*QueryResult, error) {
	for attempt := 0; ; attempt++ {
		res, err := r.runGroup(ctx, group, spec)
		if err == nil || !errors.Is(err, ErrStaleRead) || attempt >= r.opts.StaleRetries {
			return res, err
		}
		r.staleRetries.Add(1)
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("qclient: %w: %w", core.ErrCanceled, ctx.Err())
		case <-time.After(r.opts.StaleWait):
		}
	}
}

// shardFor returns the shard group covering node t, or nil.
func (r *Router) shardFor(t uint32) *shardGroup {
	for i := range r.shards {
		if g := &r.shards[i]; t >= g.lo && t < g.hi {
			return g
		}
	}
	return nil
}

// Query answers one query through the cluster. Sharded routers
// scatter many-target queries across shard groups by target scope and
// merge the per-shard results back in request order; single-target
// queries go to the shard covering the target. Unsharded routers use
// the full-coverage group. Hedging, failover and the MinEpoch wait
// apply per group.
//
// Ranked-alternatives requests (QuerySpec.K > 0) are single-target
// reads: they route to the shard covering T like any other single, and
// because the ranked answer is a deterministic function of the pinned
// snapshot, hedged and failed-over attempts return byte-identical
// rankings.
func (r *Router) Query(ctx context.Context, spec QuerySpec) (*QueryResult, error) {
	if spec.K != 0 && spec.Ts != nil {
		return nil, errors.New("qclient: k-paths requests are single-target (Ts must be nil)")
	}
	if len(r.shards) > 0 {
		if spec.Ts != nil {
			return r.scatterGather(ctx, spec)
		}
		g := r.shardFor(spec.T)
		if g == nil {
			return nil, fmt.Errorf("qclient: %w: no shard covers node %d", core.ErrNotCovered, spec.T)
		}
		return r.groupQuery(ctx, g.backends, spec)
	}
	return r.groupQuery(ctx, r.backends, spec)
}

// scatterGather fans a many-target query across the shard groups and
// merges per-shard answers back into request order. A target no shard
// covers fails as its own item (not the call); a shard whose group
// cannot answer at all fails the call, because a silently partial
// ranking is worse than an error.
func (r *Router) scatterGather(ctx context.Context, spec QuerySpec) (*QueryResult, error) {
	type part struct {
		g   *shardGroup
		idx []int // original positions of this shard's targets
		ts  []uint32
	}
	parts := make(map[*shardGroup]*part)
	order := make([]*part, 0, len(r.shards))
	out := &QueryResult{Items: make([]QueryItem, len(spec.Ts))}
	for i, t := range spec.Ts {
		g := r.shardFor(t)
		if g == nil {
			out.Items[i] = QueryItem{
				Dist: NoDist,
				Err:  fmt.Errorf("qclient: %w: no shard covers node %d", core.ErrNotCovered, t),
			}
			continue
		}
		p := parts[g]
		if p == nil {
			p = &part{g: g}
			parts[g] = p
			order = append(order, p)
		}
		p.idx = append(p.idx, i)
		p.ts = append(p.ts, t)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		minEpoch = ^uint64(0)
	)
	for _, p := range order {
		wg.Add(1)
		go func(p *part) {
			defer wg.Done()
			sub := spec
			sub.Ts = p.ts
			res, err := r.groupQuery(ctx, p.g.backends, sub)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("qclient: shard [%d, %d): %w", p.g.lo, p.g.hi, err)
				}
				return
			}
			for j, i := range p.idx {
				out.Items[i] = res.Items[j]
			}
			if res.Epoch < minEpoch {
				minEpoch = res.Epoch
			}
			out.Cost.Lookups += res.Cost.Lookups
			out.Cost.Scanned += res.Cost.Scanned
			out.Cost.Expanded += res.Cost.Expanded
			out.Cost.Fallbacks += res.Cost.Fallbacks
		}(p)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if len(order) > 0 {
		// The weakest freshness guarantee across the shards consulted.
		out.Epoch = minEpoch
	}
	return out, nil
}
