package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vicinity/internal/baseline"
	"vicinity/internal/gen"
	"vicinity/internal/graph"
	"vicinity/internal/xrand"
)

// TestPolicyAndMethodNames pins the policy and method spellings, which
// are wire contracts: the HTTP load client sends Policy.String() and
// the server parses it with ParsePolicy, HTTP responses and spquery
// -json emit Method.String(), and load reports match on
// "fallback-estimate".
func TestPolicyAndMethodNames(t *testing.T) {
	for _, p := range batchPolicies {
		if got, err := ParsePolicy(p.String()); err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = (%v, %v), want %v", p.String(), got, err, p)
		}
	}
	for in, want := range map[string]Policy{"": PolicyDefault, "table-only": PolicyTableOnly} {
		if got, err := ParsePolicy(in); err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = (%v, %v), want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("fastest"); err == nil {
		t.Fatal("ParsePolicy accepted an unknown name")
	}
	if got := Policy(9).String(); got != "Policy(9)" {
		t.Fatalf("Policy(9).String() = %q", got)
	}

	seen := make(map[string]Method)
	for m := MethodNone; m <= MethodBudgetBound; m++ {
		name := m.String()
		if strings.HasPrefix(name, "Method(") {
			t.Fatalf("method %d has no name: %q", int(m), name)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("methods %d and %d share the name %q", int(prev), int(m), name)
		}
		seen[name] = m
	}
	if got := MethodFallbackEstimate.String(); got != "fallback-estimate" {
		t.Fatalf("MethodFallbackEstimate.String() = %q", got)
	}
	out := MethodBudgetBound + 1
	if got, want := out.String(), fmt.Sprintf("Method(%d)", int(out)); got != want {
		t.Fatalf("out-of-range method renders %q, want %q", got, want)
	}
}

// hardPairOracle builds an oracle over a long 2×k grid whose
// corner-to-corner queries always miss the tables (diameter far beyond
// any vicinity radius), giving a deterministic slow-path pair.
func hardPairOracle(t *testing.T, opts Options) (*Oracle, uint32, uint32) {
	t.Helper()
	g := gen.Grid(2, 600)
	opts.Seed = 9
	o := mustBuild(t, g, opts)
	s, u := uint32(0), uint32(g.NumNodes()-1)
	if _, m, err := queryDist(o, s, u); err != nil || m.Resolved() {
		t.Fatalf("corner pair unexpectedly resolved (method %v, err %v); the grid is too small", m, err)
	}
	return o, s, u
}

// TestQueryBudgetBoundContract sweeps budgets over a deterministic
// fallback pair and asserts the budget contract: an exhausted search
// returns errors.Is(err, ErrBudgetExceeded) and — whenever it reports a
// distance at all — an upper bound est >= the true distance with
// MethodBudgetBound; a large enough budget converges to the exact
// answer with no error.
func TestQueryBudgetBoundContract(t *testing.T) {
	o, s, u := hardPairOracle(t, Options{})
	bfs := baseline.NewBFS(o.Graph())
	want := bfs.Distance(s, u)
	ctx := context.Background()

	sawBudget, sawBound := false, false
	for budget := 1; ; budget *= 2 {
		res, err := o.Query(ctx, Request{S: s, T: u, Budget: budget})
		if err == nil {
			if res.Dist != want || res.Method != MethodFallbackExact {
				t.Fatalf("budget %d: got (%d, %v), want exact (%d, %v)",
					budget, res.Dist, res.Method, want, MethodFallbackExact)
			}
			if res.Cost.Expanded > budget {
				t.Fatalf("budget %d: expanded %d nodes past the budget", budget, res.Cost.Expanded)
			}
			break // converged
		}
		sawBudget = true
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("budget %d: got %v, want ErrBudgetExceeded", budget, err)
		}
		if res.Cost.Expanded > budget {
			t.Fatalf("budget %d: expanded %d nodes past the budget", budget, res.Cost.Expanded)
		}
		switch res.Method {
		case MethodNone:
			if res.Dist != NoDist {
				t.Fatalf("budget %d: MethodNone with distance %d", budget, res.Dist)
			}
		case MethodBudgetBound:
			sawBound = true
			if res.Dist < want {
				t.Fatalf("budget %d: bound %d undercuts true distance %d", budget, res.Dist, want)
			}
			// A path request under the same budget must realize its bound.
			pres, perr := o.Query(ctx, Request{S: s, T: u, Budget: budget, WantPath: true})
			if !errors.Is(perr, ErrBudgetExceeded) {
				t.Fatalf("budget %d path: got %v, want ErrBudgetExceeded", budget, perr)
			}
			if pres.Method == MethodBudgetBound {
				if len(pres.Path) == 0 {
					t.Fatalf("budget %d: bound without a witness path", budget)
				}
				if hops := uint32(len(pres.Path) - 1); hops != pres.Dist || hops < want {
					t.Fatalf("budget %d: path of %d hops for bound %d (true %d)", budget, hops, pres.Dist, want)
				}
			}
		default:
			t.Fatalf("budget %d: unexpected method %v", budget, res.Method)
		}
		if budget > o.Graph().NumNodes()*4 {
			t.Fatalf("search never converged within budget %d", budget)
		}
	}
	if !sawBudget {
		t.Fatal("sweep never exhausted a budget")
	}

	// The level-synchronized BFS terminates almost immediately after its
	// first crossing, so the power-of-two sweep can step over the
	// budgets that yield a bound. Walk down from the exact search's own
	// expansion count: every budget in [first-crossing, E) must report
	// MethodBudgetBound with a valid upper bound.
	full, err := o.Query(ctx, Request{S: s, T: u})
	if err != nil {
		t.Fatal(err)
	}
	for budget := full.Cost.Expanded - 1; budget >= 1; budget-- {
		res, err := o.Query(ctx, Request{S: s, T: u, Budget: budget})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("budget %d below the full cost %d: got %v, want ErrBudgetExceeded",
				budget, full.Cost.Expanded, err)
		}
		if res.Method == MethodNone {
			break // before the first crossing: no bound exists from here down
		}
		sawBound = true
		if res.Method != MethodBudgetBound || res.Dist < want {
			t.Fatalf("budget %d: got (%d, %v), want a bound >= %d", budget, res.Dist, res.Method, want)
		}
	}
	if !sawBound {
		t.Fatal("no budget ever yielded a MethodBudgetBound answer")
	}
}

// TestQueryBudgetBoundWeighted is the budget contract on a weighted
// grid (bidirectional Dijkstra): every reported bound must be >= the
// true Dijkstra distance.
func TestQueryBudgetBoundWeighted(t *testing.T) {
	r := xrand.New(33)
	src := gen.Grid(2, 400)
	b := graph.NewBuilder(src.NumNodes())
	src.ForEachEdge(func(u, v, _ uint32) { b.AddWeightedEdge(u, v, 1+r.Uint32n(9)) })
	g := b.Build()
	o := mustBuild(t, g, Options{Seed: 9})
	s, u := uint32(0), uint32(g.NumNodes()-1)
	want := baseline.NewDijkstra(g).Distance(s, u)
	ctx := context.Background()
	for budget := 1; budget <= g.NumNodes()*4; budget *= 2 {
		res, err := o.Query(ctx, Request{S: s, T: u, Budget: budget, Policy: PolicyFull})
		if err == nil {
			if res.Dist != want {
				t.Fatalf("budget %d: exact answer %d, Dijkstra says %d", budget, res.Dist, want)
			}
			return
		}
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("budget %d: got %v, want ErrBudgetExceeded", budget, err)
		}
		if res.Method == MethodBudgetBound && res.Dist < want {
			t.Fatalf("budget %d: bound %d undercuts Dijkstra %d", budget, res.Dist, want)
		}
	}
	t.Fatal("weighted search never converged")
}

// TestQueryPolicyOverrides checks that each request's policy alone
// decides what a pair the tables miss gets: the zero policy is the
// exact search, the same answer and work as PolicyFull, and the other
// two downgrade it per query.
func TestQueryPolicyOverrides(t *testing.T) {
	ctx := context.Background()

	o, s, u := hardPairOracle(t, Options{})
	want := baseline.NewBFS(o.Graph()).Distance(s, u)
	def, derr := o.Query(ctx, Request{S: s, T: u})
	res, err := o.Query(ctx, Request{S: s, T: u, Policy: PolicyFull})
	if err != nil || res.Dist != want || res.Method != MethodFallbackExact {
		t.Fatalf("PolicyFull: got (%d, %v, %v), want (%d, %v, nil)", res.Dist, res.Method, err, want, MethodFallbackExact)
	}
	if derr != nil || def.Dist != res.Dist || def.Method != res.Method || def.Cost != res.Cost {
		t.Fatalf("PolicyDefault: got (%d, %v, %+v, %v), want PolicyFull's (%d, %v, %+v)",
			def.Dist, def.Method, def.Cost, derr, res.Dist, res.Method, res.Cost)
	}

	// Downgraded per query: table-only reports MethodNone, estimate
	// reports an upper bound without searching.
	res, err = o.Query(ctx, Request{S: s, T: u, Policy: PolicyTableOnly})
	if err != nil || res.Dist != NoDist || res.Method != MethodNone {
		t.Fatalf("PolicyTableOnly: got (%d, %v, %v), want unresolved", res.Dist, res.Method, err)
	}
	if res.Cost.Fallbacks != 0 || res.Cost.Expanded != 0 {
		t.Fatalf("PolicyTableOnly ran a search: %+v", res.Cost)
	}
	res, err = o.Query(ctx, Request{S: s, T: u, Policy: PolicyEstimate})
	if err != nil {
		t.Fatalf("PolicyEstimate: %v", err)
	}
	if res.Method == MethodFallbackEstimate {
		if res.Dist < want {
			t.Fatalf("PolicyEstimate: estimate %d undercuts exact %d", res.Dist, want)
		}
		if res.Cost.Expanded != 0 {
			t.Fatalf("PolicyEstimate expanded %d nodes", res.Cost.Expanded)
		}
	} else if res.Method != MethodNone {
		t.Fatalf("PolicyEstimate: unexpected method %v", res.Method)
	}
}

// TestQueryCancellation covers the deadline/cancel contract: an
// already-expired context fails the slow path with ErrCanceled (and
// the context's own sentinel), a context canceled mid-search stops the
// search loop, and table-resolved queries always answer.
func TestQueryCancellation(t *testing.T) {
	o, s, u := hardPairOracle(t, Options{})

	expired, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-expired.Done()
	res, err := o.Query(expired, Request{S: s, T: u})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired ctx: got %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
	if res.Method != MethodNone || res.Dist != NoDist {
		t.Fatalf("expired ctx: got (%d, %v)", res.Dist, res.Method)
	}

	// Table-resolved queries ignore the dead context entirely.
	res, err = o.Query(expired, Request{S: s, T: s + 1})
	if err != nil || !res.Method.Resolved() {
		t.Fatalf("table-resolved under dead ctx: (%v, %v)", res.Method, err)
	}

	// Cancel mid-search, deterministically: midCancelCtx passes the
	// upfront Err() check once, then reads as canceled, so the search
	// must be stopped by the Done poll *inside* the loop — and promptly
	// (within one poll interval), not after running to completion.
	full, err := o.Query(context.Background(), Request{S: s, T: u})
	if err != nil {
		t.Fatal(err)
	}
	mid := &midCancelCtx{}
	res, err = o.Query(mid, Request{S: s, T: u})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-search cancel: got %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if res.Cost.Expanded >= full.Cost.Expanded {
		t.Fatalf("canceled search expanded %d nodes, the full search only needs %d",
			res.Cost.Expanded, full.Cost.Expanded)
	}
	if res.Cost.Expanded > 2*64 {
		t.Fatalf("cancellation took %d expansions to observe; the poll interval is 64", res.Cost.Expanded)
	}
}

// midCancelCtx simulates a context canceled between a query's upfront
// check and its search loop: Done is closed from the start, but Err
// reads nil exactly once. This pins the in-loop Done poll without
// racing a timer against a microsecond search.
type midCancelCtx struct{ calls atomic.Int32 }

func (c *midCancelCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *midCancelCtx) Done() <-chan struct{}       { return closedChan }
func (c *midCancelCtx) Value(any) any               { return nil }
func (c *midCancelCtx) Err() error {
	if c.calls.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}

var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// TestQueryManyBudgetAndCancel covers the one-to-many contracts:
// budgets are per target and reported per item; cancellation yields a
// top-level error plus per-item errors for the targets it cut off,
// while table-resolved targets keep their answers.
func TestQueryManyBudgetAndCancel(t *testing.T) {
	o, s, far := hardPairOracle(t, Options{})
	near := s + 1 // same grid row: vicinity hit
	ctx := context.Background()

	res, err := o.Query(ctx, Request{S: s, Ts: []uint32{near, far}, Budget: 1})
	if err != nil {
		t.Fatalf("budgeted batch: top-level error %v", err)
	}
	if it := res.Items[0]; it.Err != nil || !it.Method.Resolved() {
		t.Fatalf("near target suffered from the budget: %+v", it)
	}
	if it := res.Items[1]; !errors.Is(it.Err, ErrBudgetExceeded) {
		t.Fatalf("far target: got %v, want ErrBudgetExceeded", it.Err)
	}

	expired, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-expired.Done()
	res, err = o.Query(expired, Request{S: s, Ts: []uint32{near, far}})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled batch: top-level %v, want ErrCanceled", err)
	}
	if it := res.Items[0]; it.Err != nil || !it.Method.Resolved() {
		t.Fatalf("canceled batch dropped the table-resolved target: %+v", it)
	}
	if it := res.Items[1]; !errors.Is(it.Err, ErrCanceled) {
		t.Fatalf("canceled batch far target: got %v, want ErrCanceled", it.Err)
	}

	// WantPath variant: same contracts through the path assembly loop.
	res, err = o.Query(expired, Request{S: s, Ts: []uint32{near, far}, WantPath: true})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled path batch: top-level %v", err)
	}
	if it := res.Items[0]; it.Err != nil || len(it.Path) == 0 {
		t.Fatalf("canceled path batch dropped the table-resolved path: %+v", it)
	}
	if it := res.Items[1]; !errors.Is(it.Err, ErrCanceled) {
		t.Fatalf("canceled path batch far target: got %v", it.Err)
	}
}

// TestQueryDeadlineDuringUpdates races deadline-bounded queries against
// ApplyUpdates snapshots (run under -race): every outcome must be a
// coherent answer from one epoch — exact, a valid bound with a typed
// error, or ErrCanceled — never a torn read or a wrong exact claim.
func TestQueryDeadlineDuringUpdates(t *testing.T) {
	g := gen.Grid(2, 400)
	o := mustBuild(t, g, Options{Seed: 9})
	n := uint32(g.NumNodes())
	bfs := baseline.NewBFS(g) // lower bounds stay valid as edges are only added

	stop := make(chan struct{})
	var wg sync.WaitGroup
	cur := o
	var curMu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			curMu.Lock()
			next, err := cur.ApplyUpdates(Update{Edges: [][2]uint32{{uint32(i % 50), uint32(400 + i%50)}}})
			if err == nil {
				cur = next
			}
			curMu.Unlock()
			if err != nil && !errors.Is(err, ErrStaleSnapshot) {
				t.Errorf("update: %v", err)
				return
			}
		}
	}()
	r := xrand.New(808)
	for trial := 0; trial < 300; trial++ {
		s, u := r.Uint32n(n), r.Uint32n(n)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Microsecond)
		curMu.Lock()
		snap := cur
		curMu.Unlock()
		res, err := snap.Query(ctx, Request{S: s, T: u, WantPath: trial%2 == 0})
		cancel()
		lower := bfs.Distance(s, u) // distances only shrink as edges arrive
		switch {
		case err == nil:
			if res.Method.Exact() && res.Dist != NoDist && res.Dist > lower {
				// Edges are only inserted, so the true distance at any
				// epoch is <= the original graph's distance.
				t.Fatalf("(%d,%d): exact %d above original-graph distance %d", s, u, res.Dist, lower)
			}
		case errors.Is(err, ErrCanceled), errors.Is(err, ErrBudgetExceeded):
			// fine: typed, and any bound is a real path length
		default:
			t.Fatalf("(%d,%d): unexpected error %v", s, u, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestQueryEpoch pins the epoch plumbing: 0 as built, +1 per applied
// update, and every Result reports the snapshot it read.
func TestQueryEpoch(t *testing.T) {
	g := socialGraph(7, 200)
	o := mustBuild(t, g, Options{Seed: 7})
	if o.Epoch() != 0 {
		t.Fatalf("fresh build epoch %d", o.Epoch())
	}
	res, err := o.Query(context.Background(), Request{S: 0, T: 1})
	if err != nil || res.Epoch != 0 {
		t.Fatalf("query epoch %d (%v)", res.Epoch, err)
	}
	next, err := o.ApplyUpdates(Update{AddNodes: 1, Edges: [][2]uint32{{0, 200}}})
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch() != 1 {
		t.Fatalf("updated snapshot epoch %d, want 1", next.Epoch())
	}
	res, err = next.Query(context.Background(), Request{S: 0, Ts: []uint32{200}})
	if err != nil || res.Epoch != 1 {
		t.Fatalf("updated query epoch %d (%v)", res.Epoch, err)
	}
}

// TestQueryBudgetKeepsResolvedDistance pins the chain-incomplete
// contract: a table-resolved pair whose path the stored distances
// cannot complete is re-searched, and keeps its exact distance when the
// budgeted search is cut off — a budget may degrade the path, never a
// distance the tables already resolved. Such tables are made in memory
// by moving the pair's hop candidates one level away from the owner.
func TestQueryBudgetKeepsResolvedDistance(t *testing.T) {
	g := gen.Grid(2, 600)
	o := mustBuild(t, g, Options{Seed: 9})
	ctx := context.Background()

	// A pair resolved from Γ(0) at distance >= 2 (budget 1 cannot cross)
	// whose hop candidates — the members one level closer and adjacent to
	// it — can each trade places with a member of its own level that is
	// not adjacent. After the trade no neighbor of tgt sits one step
	// closer to 0, so the walk from tgt has no first hop; d(0,tgt) itself
	// is untouched.
	tbl, _ := o.vicinity(0)
	var tgt, want uint32
	var swaps [][2]int
	for u := uint32(1); int(u) < g.NumNodes() && swaps == nil; u++ {
		d, m, err := queryDist(o, 0, u)
		if err != nil || m != MethodVicinitySource || d < 2 {
			continue
		}
		var cands, others []int
		keys, dists := tableEntries(tbl)
		for i, k := range keys {
			dk := dists[i]
			switch {
			case dk == d-1 && g.HasEdge(k, u):
				cands = append(cands, i)
			case dk == d && k != u && !g.HasEdge(k, u):
				others = append(others, i)
			}
		}
		if len(cands) > 0 && len(others) >= len(cands) {
			tgt, want = u, d
			for j, i := range cands {
				swaps = append(swaps, [2]int{i, others[j]})
			}
		}
	}
	if swaps == nil {
		t.Fatal("no pair at distance >= 2 resolved from the corner's vicinity")
	}
	keys, _ := tableEntries(tbl)
	for _, sw := range swaps {
		keys[sw[0]], keys[sw[1]] = keys[sw[1]], keys[sw[0]]
	}
	recodeTable(o, 0, keys)
	if d, _ := o.VicinityContains(0, tgt); d != want {
		t.Fatalf("trade moved tgt: d = %d, want %d", d, want)
	}
	if p, ok := o.vicinityChain(0, tgt); ok {
		t.Fatalf("walk still completes: %v", p)
	}

	res, err := o.Query(ctx, Request{S: 0, T: tgt, WantPath: true, Budget: 1})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err %v, want ErrBudgetExceeded", err)
	}
	if res.Dist != want || !res.Method.Resolved() || res.Path != nil {
		t.Fatalf("got (%d, %v, path %v), want exact (%d, resolved, no path)",
			res.Dist, res.Method, res.Path, want)
	}

	// Same through the batch loop.
	bres, err := o.Query(ctx, Request{S: 0, Ts: []uint32{tgt}, WantPath: true, Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	it := bres.Items[0]
	if !errors.Is(it.Err, ErrBudgetExceeded) || it.Dist != want || !it.Method.Resolved() || it.Path != nil {
		t.Fatalf("batch item %+v, want exact dist %d with ErrBudgetExceeded and no path", it, want)
	}

	// With enough budget the path comes back and the distance agrees.
	res, err = o.Query(ctx, Request{S: 0, T: tgt, WantPath: true})
	if err != nil || res.Dist != want || uint32(len(res.Path)-1) != want {
		t.Fatalf("unbounded re-search: (%d, %v, %v)", res.Dist, res.Path, err)
	}
}
