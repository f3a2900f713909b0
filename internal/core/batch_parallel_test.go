package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"vicinity/internal/xrand"
)

// parallelWorkerCounts is the worker grid every parallel-batch property
// is checked across (1 exercises the explicit-knob sequential path).
var parallelWorkerCounts = []int{1, 2, 3, 8}

// requireSameResult asserts two queryMany outputs are bit-identical:
// per-item distance, method, path, error text, plus Epoch and Cost.
func requireSameResult(t *testing.T, label string, want, got Result) {
	t.Helper()
	if len(want.Items) != len(got.Items) {
		t.Fatalf("%s: %d items, want %d", label, len(got.Items), len(want.Items))
	}
	for i := range want.Items {
		w, g := want.Items[i], got.Items[i]
		if w.Dist != g.Dist || w.Method != g.Method || errString(w.Err) != errString(g.Err) {
			t.Fatalf("%s: item %d = (%d, %v, %q), want (%d, %v, %q)",
				label, i, g.Dist, g.Method, errString(g.Err), w.Dist, w.Method, errString(w.Err))
		}
		if len(w.Path) != len(g.Path) {
			t.Fatalf("%s: item %d path %v, want %v", label, i, g.Path, w.Path)
		}
		for j := range w.Path {
			if w.Path[j] != g.Path[j] {
				t.Fatalf("%s: item %d path %v, want %v", label, i, g.Path, w.Path)
			}
		}
	}
	if want.Epoch != got.Epoch {
		t.Fatalf("%s: epoch %d, want %d", label, got.Epoch, want.Epoch)
	}
	if want.Cost != got.Cost {
		t.Fatalf("%s: cost %+v, want %+v", label, got.Cost, want.Cost)
	}
}

// TestParallelBatchBitIdentical sweeps the full option matrix and
// requires the parallel batch engine to reproduce the sequential pass
// bit for bit — distances, methods, path witnesses, per-item errors
// and Cost — for every tested worker count, on both the distance and path variants, with and
// without a node budget, from both a random and a landmark source.
func TestParallelBatchBitIdentical(t *testing.T) {
	g := socialGraph(13, 600)
	for oi, opts := range batchOptionMatrix() {
		opts.Seed = 13
		t.Run(fmt.Sprintf("opts%d", oi), func(t *testing.T) {
			o := mustBuild(t, g, opts)
			r := xrand.New(uint64(500 + oi))
			n := uint32(g.NumNodes())
			sources := []uint32{r.Uint32n(n)}
			if ls := o.Landmarks(); len(ls) > 0 {
				sources = append(sources, ls[0])
			}
			for _, s := range sources {
				// Well above BatchParallelMinTargets so the fan-out
				// actually engages.
				ts := batchTargets(r, o, s, 3*BatchParallelMinTargets)
				for _, wantPath := range []bool{false, true} {
					for _, budget := range []int{0, 40} {
						base := Request{S: s, Ts: ts, WantPath: wantPath, Budget: budget}
						seqRes, seqErr := o.queryMany(context.Background(), base)
						if seqErr != nil {
							t.Fatalf("sequential queryMany: %v", seqErr)
						}
						for _, w := range parallelWorkerCounts {
							label := fmt.Sprintf("s=%d path=%v budget=%d workers=%d", s, wantPath, budget, w)
							req := base
							req.Parallel = w
							res, err := o.queryMany(context.Background(), req)
							if errString(err) != errString(seqErr) {
								t.Fatalf("%s: err %q, want %q", label, errString(err), errString(seqErr))
							}
							requireSameResult(t, label, seqRes, res)
						}
					}
				}
			}
		})
	}
}

// TestParallelBatchCanceledContext checks the one cancellation shape
// that is deterministic — a context canceled before the call — across
// worker counts: table-resolved targets keep their answers, every
// fallback target reports the same ErrCanceled, and the top-level
// error matches the sequential pass.
func TestParallelBatchCanceledContext(t *testing.T) {
	g := socialGraph(29, 600)
	// Small α leaves plenty of pairs to the fallback.
	o := mustBuild(t, g, Options{Seed: 29, Alpha: 1.5})
	r := xrand.New(88)
	s := r.Uint32n(600)
	ts := batchTargets(r, o, s, 3*BatchParallelMinTargets)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, wantPath := range []bool{false, true} {
		base := Request{S: s, Ts: ts, WantPath: wantPath}
		seqRes, seqErr := o.queryMany(ctx, base)
		for _, w := range parallelWorkerCounts {
			label := fmt.Sprintf("canceled path=%v workers=%d", wantPath, w)
			req := base
			req.Parallel = w
			res, err := o.queryMany(ctx, req)
			if errString(err) != errString(seqErr) {
				t.Fatalf("%s: err %q, want %q", label, errString(err), errString(seqErr))
			}
			requireSameResult(t, label, seqRes, res)
		}
	}
}

// TestParallelBatchRacesApplyUpdates races parallel batches (worker
// fan-out engaged) against a stream of copy-on-write update batches
// (meaningful under -race). Each batch pins one snapshot, so its
// answers must agree with single queries on that snapshot even while
// newer epochs are installed.
func TestParallelBatchRacesApplyUpdates(t *testing.T) {
	g := socialGraph(37, 400)
	var cur atomic.Pointer[Oracle]
	cur.Store(mustBuild(t, g, Options{Seed: 37}))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := xrand.New(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := cur.Load()
				n := uint32(snap.Graph().NumNodes())
				s := r.Uint32n(400) // original nodes exist in every epoch
				ts := make([]uint32, 0, 2*BatchParallelMinTargets)
				for len(ts) < cap(ts) {
					ts = append(ts, r.Uint32n(n))
				}
				res, err := snap.Query(context.Background(), Request{S: s, Ts: ts, Parallel: 4})
				if err != nil {
					t.Errorf("parallel Query: %v", err)
					return
				}
				for i, tgt := range ts {
					d, m, err := queryDist(snap, s, tgt)
					if err != nil || res.Items[i].Dist != d || res.Items[i].Method != m {
						t.Errorf("snapshot mismatch: batch (%d,%v) vs single (%d,%v,%v)",
							res.Items[i].Dist, res.Items[i].Method, d, m, err)
						return
					}
				}
			}
		}(uint64(w) + 53)
	}

	r := xrand.New(61)
	o := cur.Load()
	for i := 0; i < 6; i++ {
		// Mixed churn: insertions, deletions, node retirements, upserts.
		next, err := o.ApplyUpdates(randomChurnBatch(r, o.Graph()))
		if err != nil {
			t.Fatal(err)
		}
		cur.Store(next)
		o = next
	}
	close(stop)
	wg.Wait()
}
