package core

import (
	"context"
	"testing"

	"vicinity/internal/approx"
	"vicinity/internal/baseline"
	"vicinity/internal/gen"
	"vicinity/internal/graph"
	"vicinity/internal/xrand"
)

// crossProfile is one generator family in the cross-validation sweep.
// Each stresses a different structural regime the oracle must stay
// exact on: heavy-tailed degrees (the paper's operating domain), large
// diameter (grid), multiple components (unreachable pairs), dirty
// input (self-loops and duplicate edges the builder must normalize),
// and a single hub component (star).
type crossProfile struct {
	name  string
	build func() *graph.Graph
}

func crossProfiles() []crossProfile {
	return []crossProfile{
		{"power-law", func() *graph.Graph {
			return gen.HolmeKim(xrand.New(71), 600, 4, 0.5)
		}},
		{"grid", func() *graph.Graph {
			return gen.Grid(20, 25)
		}},
		{"disconnected", func() *graph.Graph {
			// Two Holme–Kim islands plus a handful of isolated nodes.
			a := gen.HolmeKim(xrand.New(5), 220, 3, 0.4)
			bg := gen.HolmeKim(xrand.New(6), 180, 3, 0.4)
			b := graph.NewBuilder(220 + 180 + 10)
			a.ForEachEdge(func(u, v, w uint32) { b.AddWeightedEdge(u, v, w) })
			bg.ForEachEdge(func(u, v, w uint32) { b.AddWeightedEdge(u+220, v+220, w) })
			return b.Build()
		}},
		{"self-loop-multi-edge", func() *graph.Graph {
			// A ring with chords, fed through the builder with self-loops
			// and duplicate edges that must be dropped/merged.
			b := graph.NewBuilder(300)
			for i := uint32(0); i < 300; i++ {
				b.AddEdge(i, (i+1)%300)
				b.AddEdge((i+1)%300, i) // duplicate, reversed
				b.AddEdge(i, i)         // self-loop
				if i%7 == 0 {
					b.AddEdge(i, (i+150)%300)
					b.AddEdge(i, (i+150)%300) // duplicate
				}
			}
			return b.Build()
		}},
		{"star", func() *graph.Graph {
			return gen.Star(400)
		}},
	}
}

// TestCrossValidationExact sweeps sampled pairs on every profile and
// requires exact agreement between the oracle and the BFS and ALT
// baselines. Distances returned by the oracle for
// unweighted graphs are exact for every resolved method (Theorem 1);
// with the exact fallback that means every query.
func TestCrossValidationExact(t *testing.T) {
	for _, prof := range crossProfiles() {
		t.Run(prof.name, func(t *testing.T) {
			g := prof.build()
			n := uint32(g.NumNodes())
			bfs := baseline.NewBFS(g)
			alt := baseline.NewALT(g, 4)
			o := mustBuild(t, g, Options{Seed: 17})
			r := xrand.New(2024)
			for trial := 0; trial < 400; trial++ {
				s, u := r.Uint32n(n), r.Uint32n(n)
				want := bfs.Distance(s, u)
				if got := alt.Distance(s, u); got != want {
					t.Fatalf("ALT(%d,%d) = %d, BFS says %d", s, u, got, want)
				}
				got, m, err := queryDist(o, s, u)
				if err != nil {
					t.Fatalf("Distance(%d,%d): %v", s, u, err)
				}
				if got != want {
					t.Fatalf("Distance(%d,%d) = %d via %v, BFS says %d", s, u, got, m, want)
				}
			}
		})
	}
}

// TestCrossValidationEstimate checks the error contract of the inexact
// answer paths on every profile: the oracle's PolicyEstimate and the
// §4 approx.Landmark baseline both return upper bounds, the oracle's
// bound additionally obeys est ≤ d + 2·min(r(s), r(t)) (triangulation
// through the nearer endpoint's landmark), and approx.Landmark's lower
// bound never exceeds the true distance.
func TestCrossValidationEstimate(t *testing.T) {
	for _, prof := range crossProfiles() {
		t.Run(prof.name, func(t *testing.T) {
			g := prof.build()
			n := uint32(g.NumNodes())
			bfs := baseline.NewBFS(g)
			lm := approx.NewLandmark(g, 4)
			o := mustBuild(t, g, Options{Seed: 23, Workers: 2})
			r := xrand.New(4096)
			for trial := 0; trial < 300; trial++ {
				s, u := r.Uint32n(n), r.Uint32n(n)
				want := bfs.Distance(s, u)

				res, err := o.Query(context.Background(), Request{S: s, T: u, Policy: PolicyEstimate})
				est, m := res.Dist, res.Method
				if err != nil {
					t.Fatalf("Distance(%d,%d): %v", s, u, err)
				}
				if m == MethodFallbackEstimate {
					if want == NoDist {
						// The estimator triangulates through a landmark; a
						// finite bound would imply a real path.
						if est != NoDist {
							t.Fatalf("(%d,%d): estimate %d for unreachable pair", s, u, est)
						}
					} else {
						if est < want {
							t.Fatalf("(%d,%d): estimate %d below exact %d", s, u, est, want)
						}
						rs, ru := o.Radius(s), o.Radius(u)
						slack := rs
						if ru < slack {
							slack = ru
						}
						if slack != NoDist && est > want+2*slack {
							t.Fatalf("(%d,%d): estimate %d above bound %d+2·%d", s, u, est, want, slack)
						}
					}
				} else if m.Resolved() && est != want {
					t.Fatalf("(%d,%d): resolved method %v gave %d, BFS says %d", s, u, m, est, want)
				}

				if want != NoDist {
					if le := lm.Estimate(s, u); le < want {
						t.Fatalf("approx.Landmark(%d,%d) = %d below exact %d", s, u, le, want)
					}
					if lb := lm.LowerBound(s, u); lb != NoDist && lb > want {
						t.Fatalf("approx lower bound (%d,%d) = %d above exact %d", s, u, lb, want)
					}
				}
			}
		})
	}
}

// TestCrossValidationWeighted covers the weighted regime on the grid
// and power-law profiles: the oracle's resolved answers are upper
// bounds that must never undercut Dijkstra, and fallback-exact answers
// must match it exactly.
func TestCrossValidationWeighted(t *testing.T) {
	build := func(src *graph.Graph, seed uint64) *graph.Graph {
		r := xrand.New(seed)
		b := graph.NewBuilder(src.NumNodes())
		src.ForEachEdge(func(u, v, _ uint32) {
			b.AddWeightedEdge(u, v, 1+r.Uint32n(9))
		})
		return b.Build()
	}
	for _, prof := range []struct {
		name string
		g    *graph.Graph
	}{
		{"power-law", build(gen.HolmeKim(xrand.New(71), 400, 4, 0.5), 8)},
		{"grid", build(gen.Grid(15, 20), 9)},
	} {
		t.Run(prof.name, func(t *testing.T) {
			g := prof.g
			n := uint32(g.NumNodes())
			dij := baseline.NewDijkstra(g)
			o := mustBuild(t, g, Options{Seed: 29, Workers: 2})
			r := xrand.New(512)
			for trial := 0; trial < 200; trial++ {
				s, u := r.Uint32n(n), r.Uint32n(n)
				want := dij.Distance(s, u)
				got, m, err := queryDist(o, s, u)
				if err != nil {
					t.Fatalf("Distance(%d,%d): %v", s, u, err)
				}
				if got < want {
					t.Fatalf("(%d,%d): oracle %d undercuts Dijkstra %d (method %v)", s, u, got, want, m)
				}
				if (m == MethodFallbackExact || m == MethodUnreachable || m == MethodSame) && got != want {
					t.Fatalf("(%d,%d): %v gave %d, Dijkstra says %d", s, u, m, got, want)
				}
			}
		})
	}
}
