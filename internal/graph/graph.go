// Package graph provides the compact undirected-graph substrate used by
// every algorithm in this repository.
//
// Graphs are stored in compressed sparse row (CSR) form: node ids are
// dense uint32 values in [0, N), the adjacency of each node is a sorted
// slice view into one shared array, and optional uint32 edge weights sit
// in a parallel array. This is the standard in-memory layout for graph
// query engines: it gives cache-friendly sequential neighbor scans (the
// inner loop of every BFS in the paper) and ~8 bytes per directed edge.
//
// Following the paper (§2.2), graphs are undirected and simple: builders
// drop self-loops and merge parallel edges (keeping the minimum weight).
// Unweighted graphs have implicit weight 1 on every edge.
package graph

import (
	"fmt"
	"sort"
)

// NoNode is the sentinel for "no node" in parent arrays.
const NoNode = ^uint32(0)

// Graph is an immutable undirected graph in CSR form.
// Use a Builder or the gen package to construct one.
//
// Immutability is load-bearing for concurrency: no method writes any
// field after construction (growth goes through InsertEdges, which
// returns a fresh Graph), so any number of goroutines may traverse one
// Graph concurrently with no synchronization — the parallel offline
// build and the query/update epoch model both rely on this.
type Graph struct {
	offsets []uint32 // len n+1; adjacency of u is targets[offsets[u]:offsets[u+1]]
	targets []uint32 // concatenated sorted adjacency lists; len 2m
	weights []uint32 // nil for unweighted graphs; parallel to targets
	n       int
	m       int // number of undirected edges
}

// NumNodes returns the number of nodes n.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of undirected edges m.
func (g *Graph) NumEdges() int { return g.m }

// NumDirectedEdges returns the number of directed adjacency entries (2m).
func (g *Graph) NumDirectedEdges() int { return len(g.targets) }

// Weighted reports whether the graph carries explicit edge weights.
func (g *Graph) Weighted() bool { return g.weights != nil }

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u uint32) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// Neighbors returns the sorted adjacency list of u as a shared slice view.
// Callers must not modify the returned slice.
func (g *Graph) Neighbors(u uint32) []uint32 {
	return g.targets[g.offsets[u]:g.offsets[u+1]]
}

// NeighborWeights returns the weights parallel to Neighbors(u).
// It returns nil for unweighted graphs (implicit weight 1).
func (g *Graph) NeighborWeights(u uint32) []uint32 {
	if g.weights == nil {
		return nil
	}
	return g.weights[g.offsets[u]:g.offsets[u+1]]
}

// HasEdge reports whether the undirected edge {u,v} exists.
func (g *Graph) HasEdge(u, v uint32) bool {
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// EdgeWeight returns the weight of edge {u,v} and whether it exists.
// Unweighted graphs report weight 1 for existing edges.
func (g *Graph) EdgeWeight(u, v uint32) (uint32, bool) {
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	if i >= len(adj) || adj[i] != v {
		return 0, false
	}
	if g.weights == nil {
		return 1, true
	}
	return g.weights[g.offsets[u]+uint32(i)], true
}

// MaxDegree returns the maximum degree and one node attaining it.
// For the empty graph it returns (0, NoNode).
func (g *Graph) MaxDegree() (deg int, node uint32) {
	node = NoNode
	for u := 0; u < g.n; u++ {
		if d := g.Degree(uint32(u)); d > deg || node == NoNode {
			deg, node = d, uint32(u)
		}
	}
	if g.n == 0 {
		return 0, NoNode
	}
	return deg, node
}

// AvgDegree returns the average degree 2m/n (0 for the empty graph).
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(2*g.m) / float64(g.n)
}

// MaxWeight returns the maximum edge weight (1 for unweighted graphs with
// at least one edge, 0 for edgeless graphs).
func (g *Graph) MaxWeight() uint32 {
	if g.m == 0 {
		return 0
	}
	if g.weights == nil {
		return 1
	}
	var max uint32
	for _, w := range g.weights {
		if w > max {
			max = w
		}
	}
	return max
}

// ForEachEdge calls fn(u, v, w) once per undirected edge with u < v.
func (g *Graph) ForEachEdge(fn func(u, v, w uint32)) {
	for u := uint32(0); int(u) < g.n; u++ {
		adj := g.Neighbors(u)
		ws := g.NeighborWeights(u)
		for i, v := range adj {
			if u < v {
				w := uint32(1)
				if ws != nil {
					w = ws[i]
				}
				fn(u, v, w)
			}
		}
	}
}

// Validate checks the structural invariants of the CSR representation:
// sorted adjacency, no self-loops, no duplicates, symmetric edges, and
// consistent counters. It returns nil if the graph is well-formed.
// It is O(n + m) and intended for tests and after deserialization.
func (g *Graph) Validate() error {
	if len(g.offsets) != g.n+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.offsets), g.n+1)
	}
	if g.offsets[0] != 0 || int(g.offsets[g.n]) != len(g.targets) {
		return fmt.Errorf("graph: offset bounds [%d,%d] inconsistent with %d targets",
			g.offsets[0], g.offsets[g.n], len(g.targets))
	}
	if len(g.targets) != 2*g.m {
		return fmt.Errorf("graph: %d adjacency entries, want 2m=%d", len(g.targets), 2*g.m)
	}
	if g.weights != nil && len(g.weights) != len(g.targets) {
		return fmt.Errorf("graph: %d weights for %d targets", len(g.weights), len(g.targets))
	}
	// Validate every offset before any Neighbors call slices with it: a
	// corrupt middle offset above the final bound would otherwise panic
	// instead of returning an error.
	for u := uint32(0); int(u) < g.n; u++ {
		if g.offsets[u] > g.offsets[u+1] {
			return fmt.Errorf("graph: node %d has negative degree", u)
		}
	}
	// Symmetry with two cursors per node into its sorted adjacency: down[v]
	// at the next entry below v and up[v] at the next entry above v that
	// no arc has claimed yet. Nodes are walked in id order, so the arcs
	// into v from smaller nodes arrive in the order of v's entries below
	// it, and those from larger nodes in the order of its entries above
	// it; each arc u→v must find u at the cursor it claims. An entry
	// below v that no arc claimed belongs to an arc from v whose reverse
	// is missing, which the walk reports at v, so the cursor steps over
	// it. Every arc is thus checked where the walk meets it, and the
	// first error is the one the walk meets first.
	down := make([]uint32, g.n)
	up := make([]uint32, g.n)
	copy(down, g.offsets[:g.n])
	for u := uint32(0); int(u) < g.n; u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		up[u] = lo
		for i := lo; i < hi; i++ {
			v := g.targets[i]
			if int(v) >= g.n {
				return fmt.Errorf("graph: edge %d-%d out of range", u, v)
			}
			if v == u {
				return fmt.Errorf("graph: self-loop at %d", u)
			}
			if i > lo && g.targets[i-1] >= v {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted", u)
			}
			var j uint32 // u's entry in v's adjacency
			if v > u {
				j = down[v]
				for end := g.offsets[v+1]; j < end && g.targets[j] < u; j++ {
				}
				down[v] = j + 1
			} else {
				up[u] = i + 1
				j = up[v]
				up[v] = j + 1
			}
			if j >= g.offsets[v+1] || g.targets[j] != u {
				return fmt.Errorf("graph: edge %d-%d not symmetric", u, v)
			}
			if g.weights != nil && g.weights[j] != g.weights[i] {
				return fmt.Errorf("graph: asymmetric weight on %d-%d", u, v)
			}
		}
	}
	return nil
}
