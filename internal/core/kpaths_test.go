package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"vicinity/internal/baseline"
	"vicinity/internal/gen"
	"vicinity/internal/graph"
	"vicinity/internal/xrand"
)

// checkRankedPaths asserts the Result.Paths invariants on graph g:
// canonical order, looplessness, real edges summing to the claimed
// dist, and no duplicates.
func checkRankedPaths(t *testing.T, g *graph.Graph, s, tt uint32, ps []PathAlt) {
	t.Helper()
	for i, p := range ps {
		if len(p.Path) == 0 || p.Path[0] != s || p.Path[len(p.Path)-1] != tt {
			t.Fatalf("path %d: endpoints wrong: %v", i, p.Path)
		}
		on := map[uint32]bool{}
		var dist uint32
		for j, v := range p.Path {
			if on[v] {
				t.Fatalf("path %d revisits node %d: %v", i, v, p.Path)
			}
			on[v] = true
			if j > 0 {
				w, ok := g.EdgeWeight(p.Path[j-1], v)
				if !ok {
					t.Fatalf("path %d uses non-edge %d-%d", i, p.Path[j-1], v)
				}
				dist += w
			}
		}
		if dist != p.Dist {
			t.Fatalf("path %d claims dist %d, edges sum to %d", i, p.Dist, dist)
		}
		if i > 0 {
			a, b := ps[i-1], p
			switch {
			case a.Dist > b.Dist:
				t.Fatalf("paths %d,%d unsorted by dist: %d > %d", i-1, i, a.Dist, b.Dist)
			case a.Dist == b.Dist && len(a.Path) > len(b.Path):
				t.Fatalf("paths %d,%d unsorted by length", i-1, i)
			case a.Dist == b.Dist && len(a.Path) == len(b.Path):
				for x := range a.Path {
					if a.Path[x] != b.Path[x] {
						if a.Path[x] > b.Path[x] {
							t.Fatalf("paths %d,%d unsorted lexicographically", i-1, i)
						}
						break
					}
					if x == len(a.Path)-1 {
						t.Fatalf("paths %d,%d duplicated: %v", i-1, i, a.Path)
					}
				}
			}
		}
	}
}

// TestKPathsCrossValidation sweeps sampled pairs on every generator
// profile and requires the K-query dist multiset to agree
// exactly with the independent textbook-Yen baseline (the profiles are
// unweighted, so the oracle's root path is exact and Yen's guarantee
// applies). Ties may permute paths between implementations — "prefix-
// free" agreement — but the sorted distances are an invariant of the
// graph, checked positionally.
func TestKPathsCrossValidation(t *testing.T) {
	for _, prof := range crossProfiles() {
		t.Run(prof.name, func(t *testing.T) {
			g := prof.build()
			n := uint32(g.NumNodes())
			o := mustBuild(t, g, Options{Seed: 17})
			r := xrand.New(10_000)
			ctx := context.Background()
			for trial := 0; trial < 12; trial++ {
				s, u := r.Uint32n(n), r.Uint32n(n)
				k := []int{1, 2, 4, 6}[trial%4]
				want := baseline.KShortestYen(g, s, u, k)
				res, err := o.Query(ctx, Request{S: s, T: u, K: k, Policy: PolicyFull})
				if err != nil {
					t.Fatalf("Query(%d,%d,k=%d): %v", s, u, k, err)
				}
				checkRankedPaths(t, g, s, u, res.Paths)
				if len(res.Paths) != len(want) {
					t.Fatalf("(%d,%d,k=%d): %d paths, baseline %d",
						s, u, k, len(res.Paths), len(want))
				}
				for i := range want {
					if res.Paths[i].Dist != want[i].Dist {
						t.Fatalf("(%d,%d,k=%d): dist[%d]=%d, baseline %d",
							s, u, k, i, res.Paths[i].Dist, want[i].Dist)
					}
				}
			}
		})
	}
}

// TestKPathsK1BitIdentical property-tests the reduction the wire/CLI
// layers rely on: a K=1 request answers bit-identically (dist, path,
// method, error) to a K=0 WantPath Query, with Paths mirroring the
// single answer — across profiles, policies and budgets. The
// "estimate" client sends PolicyEstimate where the "default" client
// leaves the policy unset.
func TestKPathsK1BitIdentical(t *testing.T) {
	for _, prof := range crossProfiles() {
		t.Run(prof.name, func(t *testing.T) {
			g := prof.build()
			n := uint32(g.NumNodes())
			o := mustBuild(t, g, Options{Seed: 17})
			clients := map[string]Policy{
				"default":  PolicyDefault,
				"estimate": PolicyEstimate,
			}
			r := xrand.New(777)
			ctx := context.Background()
			for trial := 0; trial < 150; trial++ {
				s, u := r.Uint32n(n), r.Uint32n(n)
				req := Request{S: s, T: u, WantPath: true}
				switch trial % 4 {
				case 1:
					req.Policy = PolicyEstimate
				case 2:
					req.Policy = PolicyTableOnly
				case 3:
					req.Policy = PolicyFull
					req.Budget = 1 + trial%30
				}
				for name, unset := range clients {
					req := req
					if req.Policy == PolicyDefault {
						req.Policy = unset
					}
					base, berr := o.Query(ctx, req)
					k1req := req
					k1req.K = 1
					got, gerr := o.Query(ctx, k1req)
					if got.Dist != base.Dist || got.Method != base.Method {
						t.Fatalf("%s (%d,%d): K=1 dist/method %d/%v, want %d/%v",
							name, s, u, got.Dist, got.Method, base.Dist, base.Method)
					}
					if !sameU32(got.Path, base.Path) {
						t.Fatalf("%s (%d,%d): K=1 path %v, want %v", name, s, u, got.Path, base.Path)
					}
					if (berr == nil) != (gerr == nil) || (berr != nil && berr.Error() != gerr.Error()) {
						t.Fatalf("%s (%d,%d): K=1 err %v, want %v", name, s, u, gerr, berr)
					}
					if len(base.Path) > 0 && base.Dist != NoDist {
						if len(got.Paths) != 1 || got.Paths[0].Dist != base.Dist || !sameU32(got.Paths[0].Path, base.Path) {
							t.Fatalf("%s (%d,%d): Paths does not mirror the single answer: %+v",
								name, s, u, got.Paths)
						}
					} else if len(got.Paths) != 0 {
						t.Fatalf("%s (%d,%d): pathless answer grew Paths: %+v", name, s, u, got.Paths)
					}
				}
			}
		})
	}
}

func sameU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestKPathsValidation pins the request validation: K out of range and
// K with a many-target request are caller errors.
func TestKPathsValidation(t *testing.T) {
	g := gen.Grid(3, 3)
	o := mustBuild(t, g, Options{Seed: 1})
	ctx := context.Background()
	if _, err := o.Query(ctx, Request{S: 0, T: 8, K: MaxK + 1}); err == nil {
		t.Fatal("K > MaxK accepted")
	}
	if _, err := o.Query(ctx, Request{S: 0, T: 8, K: -1}); err == nil {
		t.Fatal("negative K accepted")
	}
	if _, err := o.Query(ctx, Request{S: 0, Ts: []uint32{1, 2}, K: 2}); err == nil {
		t.Fatal("K with Ts accepted")
	}
	if _, err := o.Query(ctx, Request{S: 99, T: 0, K: 2}); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("out-of-range source: %v", err)
	}
}

// TestKPathsBudgetPartial pins the partial-result taxonomy: a budget
// (or deadline) exhausted mid-enumeration returns the paths found so
// far alongside ErrBudgetExceeded (ErrCanceled), never silently fewer
// paths and never a torn answer.
func TestKPathsBudgetPartial(t *testing.T) {
	g := gen.Grid(6, 40)
	o := mustBuild(t, g, Options{Seed: 3})
	ctx := context.Background()
	s, u := uint32(0), uint32(g.NumNodes()-1)

	full, err := o.Query(ctx, Request{S: s, T: u, K: 6, Policy: PolicyFull})
	if err != nil || len(full.Paths) != 6 {
		t.Fatalf("unlimited: %d paths, %v", len(full.Paths), err)
	}

	// Size the budget so the root leg completes but enumeration cannot:
	// root-leg cost plus a sliver. The root answer must then stay fully
	// intact while the alternatives arrive as a typed partial.
	rootCost, err := o.Query(ctx, Request{S: s, T: u, K: 1, Policy: PolicyFull})
	if err != nil {
		t.Fatalf("root leg: %v", err)
	}
	budget := rootCost.Cost.Expanded + 30
	res, err := o.Query(ctx, Request{S: s, T: u, K: 6, Policy: PolicyFull, Budget: budget})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("budget %d: err %v", budget, err)
	}
	if len(res.Paths) < 1 || len(res.Paths) >= 6 {
		t.Fatalf("budget %d: %d paths", budget, len(res.Paths))
	}
	checkRankedPaths(t, g, s, u, res.Paths)
	if res.Dist != full.Dist || !sameU32(res.Path, full.Path) {
		t.Fatal("budget run degraded the root answer")
	}

	expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	res, err = o.Query(expired, Request{S: s, T: u, K: 6, Policy: PolicyFull})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("expired: err %v", err)
	}
	// The table-resolved root survives cancellation (tables never
	// fail); enumeration is what got cut down.
	if len(res.Paths) >= 6 {
		t.Fatalf("expired: %d paths", len(res.Paths))
	}
}

// TestKPathsUnreachableAndSelf covers the degenerate shapes: no Paths
// for unreachable pairs, a single trivial path for s==t, and the
// table-only policy miss mirroring MethodNone.
func TestKPathsUnreachableAndSelf(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	// nodes 3..5 isolated
	g := b.Build()
	o := mustBuild(t, g, Options{Seed: 2})
	ctx := context.Background()

	res, err := o.Query(ctx, Request{S: 0, T: 4, K: 3})
	if err != nil || len(res.Paths) != 0 || res.Dist != NoDist {
		t.Fatalf("unreachable: %+v, %v", res, err)
	}
	res, err = o.Query(ctx, Request{S: 2, T: 2, K: 5})
	if err != nil || len(res.Paths) != 1 || res.Paths[0].Dist != 0 || !sameU32(res.Paths[0].Path, []uint32{2}) {
		t.Fatalf("s==t: %+v, %v", res.Paths, err)
	}
	// More loopless paths requested than exist: 0-1-2 is the only one.
	res, err = o.Query(ctx, Request{S: 0, T: 2, K: 4})
	if err != nil || len(res.Paths) != 1 {
		t.Fatalf("exhausted graph: %d paths, %v", len(res.Paths), err)
	}
}

// TestKPathsDuringUpdates races K queries against ApplyUpdates under
// -race: every answer must agree exactly with the independent baseline
// run on the same immutable snapshot — updates must never tear an
// enumeration or leak a newer graph's edges into an older answer.
func TestKPathsDuringUpdates(t *testing.T) {
	g := gen.HolmeKim(xrand.New(11), 140, 3, 0.4)
	o := mustBuild(t, g, Options{Seed: 11})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	cur := o
	var curMu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := xrand.New(99)
		for {
			select {
			case <-stop:
				return
			default:
			}
			u, v := r.Uint32n(140), r.Uint32n(140)
			curMu.Lock()
			next, err := cur.ApplyUpdates(Update{Edges: [][2]uint32{{u, v}}})
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

	r := xrand.New(5150)
	ctx := context.Background()
	for trial := 0; trial < 40; trial++ {
		s, u := r.Uint32n(140), r.Uint32n(140)
		k := 2 + trial%3
		curMu.Lock()
		snap := cur
		curMu.Unlock()
		res, err := snap.Query(ctx, Request{S: s, T: u, K: k, Policy: PolicyFull})
		if err != nil {
			t.Fatalf("(%d,%d,k=%d): %v", s, u, k, err)
		}
		sg := snap.Graph()
		checkRankedPaths(t, sg, s, u, res.Paths)
		want := baseline.KShortestYen(sg, s, u, k)
		if len(res.Paths) != len(want) {
			t.Fatalf("(%d,%d,k=%d): %d paths, snapshot baseline %d", s, u, k, len(res.Paths), len(want))
		}
		for i := range want {
			if res.Paths[i].Dist != want[i].Dist {
				t.Fatalf("(%d,%d,k=%d): dist[%d]=%d, snapshot baseline %d",
					s, u, k, i, res.Paths[i].Dist, want[i].Dist)
			}
		}
	}
	close(stop)
	wg.Wait()
}
