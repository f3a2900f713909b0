package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"vicinity/internal/gen"
	"vicinity/internal/xrand"
)

// TestQueryResolvedZeroAlloc is the hot-path allocation gate: a
// table-resolved Query (62% of uniform pairs on the 50,000-node
// benchmark graph) must not allocate, Cost
// accounting included. testing.AllocsPerRun enforces it as a test, not
// just a benchmark eyeball.
func TestQueryResolvedZeroAlloc(t *testing.T) {
	g := socialGraph(21, 2000)
	o := mustBuild(t, g, Options{Seed: 21})
	ctx := context.Background()

	// Collect table-resolved pairs across the cheap methods and the
	// boundary-scan path.
	r := xrand.New(4)
	var pairs [][2]uint32
	for len(pairs) < 64 {
		s, u := r.Uint32n(2000), r.Uint32n(2000)
		if _, m, _ := queryDist(o, s, u); m.Resolved() {
			pairs = append(pairs, [2]uint32{s, u})
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		p := pairs[i%len(pairs)]
		i++
		res, err := o.Query(ctx, Request{S: p[0], T: p[1]})
		if err != nil || !res.Method.Resolved() {
			t.Fatalf("pair %v stopped resolving: %v %v", p, res.Method, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("table-resolved Query allocates %.1f per op, want 0", allocs)
	}

	// The same gate under a real deadline context: carrying ctx must
	// not cost allocations on the resolved path either.
	dctx, cancel := context.WithTimeout(ctx, 1e9)
	defer cancel()
	allocs = testing.AllocsPerRun(500, func() {
		p := pairs[i%len(pairs)]
		i++
		if _, err := o.Query(dctx, Request{S: p[0], T: p[1]}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("table-resolved Query with deadline ctx allocates %.1f per op, want 0", allocs)
	}
}

// TestQueryResolvedZeroAllocConcurrent is the same gate under
// concurrency. testing.AllocsPerRun is single-goroutine, so it cannot
// see allocations that only appear when several goroutines hit the
// query path at once (e.g. a pool that constructs a fresh object on
// every contended Get). Instead: pre-spawn the workers gated on a
// channel — goroutine stacks and the sync machinery are paid before the
// measurement — then compare runtime.MemStats.Mallocs across the whole
// concurrent run. The bound is a small fraction of an allocation per
// query, with slack for incidental runtime allocations.
func TestQueryResolvedZeroAllocConcurrent(t *testing.T) {
	g := socialGraph(21, 2000)
	o := mustBuild(t, g, Options{Seed: 21})
	ctx := context.Background()

	r := xrand.New(4)
	var pairs [][2]uint32
	for len(pairs) < 64 {
		s, u := r.Uint32n(2000), r.Uint32n(2000)
		if _, m, _ := queryDist(o, s, u); m.Resolved() {
			pairs = append(pairs, [2]uint32{s, u})
		}
	}

	const (
		workers = 8
		perG    = 2000
	)
	run := func() uint64 {
		start := make(chan struct{})
		var wg sync.WaitGroup
		var failed atomic.Bool
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(off int) {
				defer wg.Done()
				<-start
				for i := 0; i < perG; i++ {
					p := pairs[(off+i)%len(pairs)]
					res, err := o.Query(ctx, Request{S: p[0], T: p[1]})
					if err != nil || !res.Method.Resolved() {
						failed.Store(true)
						return
					}
				}
			}(w * 7)
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		close(start)
		wg.Wait()
		runtime.ReadMemStats(&m1)
		if failed.Load() {
			t.Fatal("a concurrent table-resolved query failed to resolve")
		}
		return m1.Mallocs - m0.Mallocs
	}

	run() // warm: populate pool rings, settle any one-time lazy state
	mallocs := run()
	const ops = workers * perG
	if mallocs > ops/100 {
		t.Fatalf("concurrent table-resolved Query: %d mallocs over %d queries (>1%% of an alloc/op), want ~0",
			mallocs, ops)
	}
}

// benchHardOracle builds the 2×5000 grid: corner queries expand ~10k
// nodes in the bidirectional fallback, the shape of the unbounded tail
// the budget exists to cut.
func benchHardOracle(b *testing.B) (*Oracle, uint32, uint32) {
	b.Helper()
	g := gen.Grid(2, 5000)
	o, err := Build(g, Options{Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	return o, 0, uint32(g.NumNodes() - 1)
}

// BenchmarkQueryResolved is the v2 image of the hot-path query
// benchmark: mixed table-resolved pairs through Query.
func BenchmarkQueryResolved(b *testing.B) {
	g := socialGraph(21, 2000)
	o, err := Build(g, Options{Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	r := xrand.New(4)
	var pairs [][2]uint32
	for len(pairs) < 256 {
		s, u := r.Uint32n(2000), r.Uint32n(2000)
		if _, m, _ := queryDist(o, s, u); m.Resolved() {
			pairs = append(pairs, [2]uint32{s, u})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&255]
		if _, err := o.Query(ctx, Request{S: p[0], T: p[1]}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFallbackUnbounded measures the unbounded bidirectional
// fallback on the hard pair — the latency tail a deadline-bound serving
// stack cannot tolerate.
func BenchmarkFallbackUnbounded(b *testing.B) {
	o, s, u := benchHardOracle(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := o.Query(ctx, Request{S: s, T: u})
		if err != nil || res.Method != MethodFallbackExact {
			b.Fatalf("(%v, %v)", res.Method, err)
		}
	}
}

// BenchmarkFallbackBudgeted is the same query under a 256-node budget:
// bounded work, an upper bound (or typed miss) instead of an unbounded
// search. The ratio to BenchmarkFallbackUnbounded is the acceptance
// number for the budget mechanism.
func BenchmarkFallbackBudgeted(b *testing.B) {
	o, s, u := benchHardOracle(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := o.Query(ctx, Request{S: s, T: u, Budget: 256})
		if !errors.Is(err, ErrBudgetExceeded) {
			b.Fatalf("budget did not bind: %v", err)
		}
	}
}

// BenchmarkFallbackCanceled measures an already-expired deadline: the
// slow path must refuse in nanoseconds, not run the search.
func BenchmarkFallbackCanceled(b *testing.B) {
	o, s, u := benchHardOracle(b)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := o.Query(ctx, Request{S: s, T: u})
		if !errors.Is(err, ErrCanceled) {
			b.Fatalf("expired ctx answered: %v", err)
		}
	}
}

// TestQueryManyAllocs is the one-to-many allocation gate: a sequential,
// table-resolved, distance-only one-to-many Query allocates a fixed
// number of times per request, whatever its target count, and no more
// than maxAllocs. The batch passes run in closures; state of s copied
// into a local and shared with them by address (s's vicinity view, for
// one) would escape and cost every request one more.
func TestQueryManyAllocs(t *testing.T) {
	const maxAllocs = 17
	g := socialGraph(21, 2000)
	o := mustBuild(t, g, Options{Seed: 21})
	ctx := context.Background()

	// A covered non-landmark source, 100 targets the tables resolve
	// (at least one by the boundary scan, so the inverted pass runs)
	// and a one-target request that needs the scan as well.
	var s uint32
	for o.IsLandmark(s) {
		s++
	}
	r := xrand.New(5)
	var ts []uint32
	scanT := uint32(NoDist)
	for len(ts) < 100 || scanT == NoDist {
		u := r.Uint32n(2000)
		_, m, err := queryDist(o, s, u)
		if err != nil || !m.Resolved() {
			continue
		}
		if m == MethodIntersection && scanT == NoDist {
			scanT = u
		}
		if len(ts) < 100 {
			ts = append(ts, u)
		}
	}
	allocs := func(ts []uint32) float64 {
		return testing.AllocsPerRun(200, func() {
			res, err := o.Query(ctx, Request{S: s, Ts: ts})
			if err != nil || res.Cost.Fallbacks != 0 {
				t.Fatalf("%d-target query ran %d searches (err %v)", len(ts), res.Cost.Fallbacks, err)
			}
		})
	}
	one, many := allocs([]uint32{scanT}), allocs(ts)
	if one != many || many > maxAllocs {
		t.Fatalf("one-to-many Query allocates %.1f per op for 1 target and %.1f for 100, want the same and at most %d",
			one, many, maxAllocs)
	}
}
