package main

import (
	"math/rand/v2"

	"vicinity/internal/core"
	"vicinity/internal/gen"
	"vicinity/internal/graph"
)

// The graph is fixed so that every run, on every commit, measures the
// same input: the LiveJournal profile at 50,000 nodes with generator
// and oracle build seed 42 (m = 449,955), the graph that
// `spserver -gen livejournal -n 50000` serves. The workload seed draws
// only the request streams.
const (
	graphProfile = "LiveJournal"
	graphNodes   = 50000
	graphSeed    = 42
)

// Stream salts keep the draws of each stream and phase independent of
// one another while all of them follow from the one workload seed.
const (
	saltLookup = 1 + iota
	saltRank
	saltRankPerm
	saltKPaths
	saltChurn
	saltProbe
	saltLadder = 1 << 16 // + step index
)

func genGraph() *graph.Graph {
	p, err := gen.ProfileByName(graphProfile)
	if err != nil {
		panic(err) // the profile name is a constant of this file
	}
	return p.Generate(graphNodes, graphSeed)
}

func newRand(seed, salt uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, salt)) }

// single is one single-target query.
type single struct {
	s, t     uint32
	wantPath bool
}

// lookupStream draws count uniform (s, t) pairs over all n nodes,
// alternating distance-only and path requests.
func lookupStream(seed, salt uint64, n, count int) []single {
	r := newRand(seed, salt)
	out := make([]single, count)
	for i := range out {
		out[i] = single{s: uint32(r.IntN(n)), t: uint32(r.IntN(n)), wantPath: i%2 == 1}
	}
	return out
}

// ranking is one one-to-many request: a source and its candidates.
type ranking struct {
	s  uint32
	ts []uint32
}

// rankStream draws count rankings of targets uniform targets each.
// Sources are Zipf-popular over a permutation of the node ids drawn
// with the graph seed: which sources are popular is a property of the
// fixed graph, as a site's popular users would be, and it keeps the
// generator's oldest hubs (low ids) from being the popular ones. The
// workload seed draws the sequence of sources and the targets.
func rankStream(seed, salt uint64, n, count, targets int) []ranking {
	perm := newRand(graphSeed, saltRankPerm).Perm(n)
	r := newRand(seed, salt)
	z := rand.NewZipf(r, 1.1, 1, uint64(n-1))
	out := make([]ranking, count)
	for i := range out {
		ts := make([]uint32, targets)
		for j := range ts {
			ts[j] = uint32(r.IntN(n))
		}
		out[i] = ranking{s: uint32(perm[z.Uint64()]), ts: ts}
	}
	return out
}

// kpathsPairs returns count K-shortest-paths requests that cycle
// through a fixed pool of kpathsPool pairs, drawn with the graph seed,
// in an order the workload seed shuffles. One K = 4 request costs ten
// times more on some pairs than on others, so a median over a dozen
// fresh pairs per run would measure the draw more than the engine.
func kpathsPairs(seed, salt uint64, n, count int) []single {
	pool := lookupStream(graphSeed, saltKPaths, n, kpathsPool)
	order := newRand(seed, salt).Perm(kpathsPool)
	out := make([]single, count)
	for i := range out {
		p := pool[order[i%kpathsPool]]
		out[i] = single{s: p.s, t: p.t, wantPath: true}
	}
	return out
}

const kpathsPool = 16

// churnStream draws count single-edge update batches against g: each
// inserts one random edge that is not in the graph, and every batch but
// the first also deletes the oldest edge an earlier batch inserted.
func churnStream(seed uint64, g *graph.Graph, count int) []core.Update {
	r := newRand(seed, saltChurn)
	n := g.NumNodes()
	inserted := map[[2]uint32]bool{}
	var fifo [][2]uint32
	out := make([]core.Update, count)
	for i := range out {
		var e [2]uint32
		for {
			u, v := uint32(r.IntN(n)), uint32(r.IntN(n))
			if u > v {
				u, v = v, u
			}
			e = [2]uint32{u, v}
			if u != v && !g.HasEdge(u, v) && !inserted[e] {
				break
			}
		}
		up := core.Update{Edges: [][2]uint32{e}}
		if len(fifo) > 0 {
			d := fifo[0]
			fifo = fifo[1:]
			delete(inserted, d)
			up.DelEdges = [][2]uint32{d}
		}
		inserted[e] = true
		fifo = append(fifo, e)
		out[i] = up
	}
	return out
}

// applyUpdate returns g after one update batch, built by the graph
// package's own insert and delete, independent of the oracle's repair.
func applyUpdate(g *graph.Graph, u core.Update) (*graph.Graph, error) {
	g, err := graph.InsertEdges(g, u.AddNodes, u.Edges)
	if err != nil {
		return nil, err
	}
	if len(u.DelEdges) == 0 {
		return g, nil
	}
	return graph.DeleteEdges(g, u.DelEdges)
}
