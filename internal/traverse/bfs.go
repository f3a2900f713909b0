package traverse

import (
	"vicinity/internal/graph"
	"vicinity/internal/queue"
)

// Tree is a complete single-source shortest path tree: Dist[v] is the
// distance from the root (NoDist if unreachable) and Parent[v] the
// predecessor of v on a shortest root→v path (graph.NoNode for the root
// and unreachable nodes).
type Tree struct {
	Root   uint32
	Dist   []uint32
	Parent []uint32
}

// BFS computes the full unweighted shortest path tree from src.
// It allocates its result; use Workspace searches for repeated queries.
func BFS(g *graph.Graph, src uint32) *Tree {
	n := g.NumNodes()
	t := &Tree{
		Root:   src,
		Dist:   make([]uint32, n),
		Parent: make([]uint32, n),
	}
	for i := range t.Dist {
		t.Dist[i] = NoDist
		t.Parent[i] = graph.NoNode
	}
	q := queue.NewU32(1024)
	t.Dist[src] = 0
	q.Push(src)
	for !q.Empty() {
		u := q.Pop()
		du := t.Dist[u]
		for _, v := range g.Neighbors(u) {
			if t.Dist[v] == NoDist {
				t.Dist[v] = du + 1
				t.Parent[v] = u
				q.Push(v)
			}
		}
	}
	return t
}

// PathTo reconstructs the root→v path from the tree, or nil if v is
// unreachable.
func (t *Tree) PathTo(v uint32) []uint32 {
	if t.Dist[v] == NoDist {
		return nil
	}
	var rev []uint32
	for cur := v; cur != graph.NoNode; cur = t.Parent[cur] {
		rev = append(rev, cur)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// BFSDist runs a unidirectional BFS from s, stopping as soon as t is
// reached; it returns the hop distance, or NoDist if t is unreachable.
// This is the paper's "optimized breadth-first" baseline (Table 3).
func (ws *Workspace) BFSDist(s, t uint32) uint32 {
	if s == t {
		return 0
	}
	ws.reset()
	g := ws.g
	nm, q := ws.fwd, ws.qf
	nm.Set(s, 0, graph.NoNode)
	q.Push(s)
	for !q.Empty() {
		u := q.Pop()
		du := nm.dist[u]
		for _, v := range g.Neighbors(u) {
			if !nm.Has(v) {
				if v == t {
					return du + 1
				}
				nm.Set(v, du+1, u)
				q.Push(v)
			}
		}
	}
	return NoDist
}

// BFSPath runs a unidirectional BFS from s toward t and returns the
// shortest path (inclusive of endpoints), or nil if unreachable.
func (ws *Workspace) BFSPath(s, t uint32) []uint32 {
	if s == t {
		return []uint32{s}
	}
	ws.reset()
	g := ws.g
	nm, q := ws.fwd, ws.qf
	nm.Set(s, 0, graph.NoNode)
	q.Push(s)
	found := false
	for !q.Empty() && !found {
		u := q.Pop()
		du := nm.dist[u]
		for _, v := range g.Neighbors(u) {
			if !nm.Has(v) {
				nm.Set(v, du+1, u)
				if v == t {
					found = true
					break
				}
				q.Push(v)
			}
		}
	}
	if !found {
		return nil
	}
	return ws.assembleForward(nm, s, t)
}

// assembleForward walks parent pointers from t back to s in nm and
// returns the s→t path. The result slice is owned by the caller.
func (ws *Workspace) assembleForward(nm *NodeMap, s, t uint32) []uint32 {
	rev := ws.scratch[:0]
	for cur := t; ; {
		rev = append(rev, cur)
		if cur == s {
			break
		}
		cur = nm.Parent(cur)
		if cur == graph.NoNode {
			ws.scratch = rev
			return nil // broken chain: caller bug
		}
	}
	ws.scratch = rev
	out := make([]uint32, len(rev))
	for i, v := range rev {
		out[len(rev)-1-i] = v
	}
	return out
}
