package core

import (
	"math"
	"sort"

	"vicinity/internal/graph"
	"vicinity/internal/xrand"
)

// paperProb returns the paper's §2.2 sampling probability for a node of
// degree deg in a graph with n nodes and m undirected edges:
//
//	p_s(u) = min(1, m/(α·n·√n) · sqrt((2n/m)·deg(u)))
//	       = min(1, sqrt(2·m·deg(u)) / (α·n))
//
// For a regular graph this gives E[|L|] = 2m/(α√n); the paper quotes
// "roughly m/(α√n)" (its constants differ by ≤2 between statements).
func paperProb(n, m int, alpha float64, deg int) float64 {
	if n == 0 || m == 0 || deg == 0 {
		return 0
	}
	p := math.Sqrt(2*float64(m)*float64(deg)) / (alpha * float64(n))
	if p > 1 {
		return 1
	}
	return p
}

// expectedLandmarks returns Σ_u paperProb(u), the expected landmark count
// under the paper's strategy; other strategies are calibrated to it.
func expectedLandmarks(g *graph.Graph, alpha float64) float64 {
	n, m := g.NumNodes(), g.NumEdges()
	sum := 0.0
	for u := 0; u < n; u++ {
		sum += paperProb(n, m, alpha, g.Degree(uint32(u)))
	}
	return sum
}

// sampleLandmarks draws the landmark set according to opts. The result is
// sorted by node id, deterministic in opts.Seed, and never empty for a
// non-empty graph: if sampling selects no node, the maximum-degree node
// is used (Definition 1 requires every node to have a nearest landmark).
func sampleLandmarks(g *graph.Graph, opts Options) []uint32 {
	n, m := g.NumNodes(), g.NumEdges()
	if n == 0 {
		return nil
	}
	if opts.Landmarks != nil {
		// Explicit set: sort, dedupe, use as-is (validated by withDefaults).
		ls := append([]uint32(nil), opts.Landmarks...)
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		out := ls[:0]
		for i, l := range ls {
			if i == 0 || ls[i-1] != l {
				out = append(out, l)
			}
		}
		return out
	}
	r := xrand.New(opts.Seed ^ 0x9b1c5a7d3e2f4861)
	expect := expectedLandmarks(g, opts.Alpha)
	var landmarks []uint32
	switch opts.Sampling {
	case SamplingPaper:
		for u := 0; u < n; u++ {
			if r.Bernoulli(paperProb(n, m, opts.Alpha, g.Degree(uint32(u)))) {
				landmarks = append(landmarks, uint32(u))
			}
		}
	case SamplingUniform:
		p := expect / float64(n)
		for u := 0; u < n; u++ {
			if r.Bernoulli(p) {
				landmarks = append(landmarks, uint32(u))
			}
		}
	case SamplingDegree:
		if m > 0 {
			for u := 0; u < n; u++ {
				p := expect * float64(g.Degree(uint32(u))) / float64(2*m)
				if r.Bernoulli(p) {
					landmarks = append(landmarks, uint32(u))
				}
			}
		}
	case SamplingTop:
		k := int(math.Round(expect))
		if k < 1 {
			k = 1
		}
		if k > n {
			k = n
		}
		landmarks = topDegree(g, k)
	}
	if len(landmarks) == 0 {
		if _, u := g.MaxDegree(); u != graph.NoNode {
			landmarks = append(landmarks, u)
		}
	}
	sort.Slice(landmarks, func(i, j int) bool { return landmarks[i] < landmarks[j] })
	return landmarks
}

// topDegree returns the k highest-degree nodes (ties broken by id).
func topDegree(g *graph.Graph, k int) []uint32 {
	n := g.NumNodes()
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		di, dj := g.Degree(ids[i]), g.Degree(ids[j])
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})
	return append([]uint32(nil), ids[:k]...)
}
