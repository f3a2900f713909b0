package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"vicinity/internal/baseline"
	"vicinity/internal/core"
	"vicinity/internal/graph"
)

const noDist = ^uint32(0)

// Every bfsSample-th single and every bibfsSample-th ranking is also
// checked against the second reference, chosen deterministically by
// request index.
const (
	bfsSample   = 512
	bibfsSample = 16
)

// verifier checks answers against reference searches on the graph at
// the epoch each answer reports. Singles and K-paths roots are checked
// against bidirectional BFS (internal/baseline), a sample of them also
// against this file's own unidirectional BFS, because the baseline
// shares its bidirectional kernel with the oracle's fallback. Ranking
// items are checked one by one against a full BFS from the source, a
// sample of them also against bidirectional BFS.
type verifier struct {
	graphs []*graph.Graph // graphs[e] is the graph at epoch e
	bib    []*baseline.BiBFS

	mu      sync.Mutex
	checked int
	bad     int
	first   []string
}

// newVerifier rebuilds the graph at every epoch up to maxEpoch by
// applying the run's update batches, in order, to the base graph.
func newVerifier(g *graph.Graph, updates []core.Update, maxEpoch int) (*verifier, error) {
	v := &verifier{graphs: []*graph.Graph{g}, bib: []*baseline.BiBFS{baseline.NewBiBFS(g)}}
	for e := 1; e <= maxEpoch; e++ {
		next, err := applyUpdate(v.graphs[e-1], updates[e-1])
		if err != nil {
			return nil, fmt.Errorf("rebuild graph at epoch %d: %w", e, err)
		}
		v.graphs = append(v.graphs, next)
		v.bib = append(v.bib, baseline.NewBiBFS(next))
	}
	return v, nil
}

func (v *verifier) fail(format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.bad++
	if len(v.first) < 5 {
		v.first = append(v.first, fmt.Sprintf(format, args...))
	}
}

func (v *verifier) count() {
	v.mu.Lock()
	v.checked++
	v.mu.Unlock()
}

func (v *verifier) epochOK(e uint64) bool {
	if e >= uint64(len(v.graphs)) {
		v.fail("answer reports epoch %d, past the last acknowledged update", e)
		return false
	}
	return true
}

// checkDist compares one distance with the truth: exact methods must
// match it, bounds (estimates, budget bounds) may not undercut it.
func checkDist(truth, dist uint32, m core.Method) error {
	if m.Exact() {
		if dist != truth {
			return fmt.Errorf("method %v: distance %d, true distance %d", m, dist, truth)
		}
		return nil
	}
	if dist < truth {
		return fmt.Errorf("method %v: bound %d below true distance %d", m, dist, truth)
	}
	return nil
}

// checkWalk requires path to be an s→t edge walk of exactly dist edges.
func checkWalk(g *graph.Graph, s, t uint32, path []uint32, dist uint32) error {
	if len(path) == 0 || path[0] != s || path[len(path)-1] != t {
		return fmt.Errorf("path %v does not run %d→%d", path, s, t)
	}
	if uint32(len(path)-1) != dist {
		return fmt.Errorf("path of %d edges reported as length %d", len(path)-1, dist)
	}
	for i := 1; i < len(path); i++ {
		if !g.HasEdge(path[i-1], path[i]) {
			return fmt.Errorf("path step %d→%d is not an edge", path[i-1], path[i])
		}
	}
	return nil
}

// single checks one single-target answer.
func (v *verifier) single(e uint64, idx int, q single, dist uint32, m core.Method, path []uint32) {
	if !v.epochOK(e) {
		return
	}
	g := v.graphs[e]
	truth := v.bib[e].Distance(q.s, q.t)
	if err := checkDist(truth, dist, m); err != nil {
		v.fail("single %d (%d→%d, epoch %d): %v", idx, q.s, q.t, e, err)
		return
	}
	if q.wantPath && dist != noDist {
		if err := checkWalk(g, q.s, q.t, path, dist); err != nil {
			v.fail("single %d (%d→%d, epoch %d): %v", idx, q.s, q.t, e, err)
			return
		}
	}
	if idx%bfsSample == 0 {
		if d := bfsDist(g, q.s, q.t); d != truth {
			v.fail("single %d (%d→%d, epoch %d): BFS %d, bidirectional BFS %d", idx, q.s, q.t, e, d, truth)
		}
	}
	v.count()
}

// kpaths checks one ranked-alternatives answer: every entry a loopless
// s→t walk of its reported length, strictly sorted by (length, path),
// at most K entries, and the first at the true distance.
func (v *verifier) kpaths(e uint64, idx int, q single, paths []core.PathAlt) {
	if !v.epochOK(e) {
		return
	}
	g := v.graphs[e]
	truth := v.bib[e].Distance(q.s, q.t)
	switch {
	case len(paths) == 0 || len(paths) > kpathsK:
		v.fail("kpaths %d (%d→%d): %d paths for K=%d", idx, q.s, q.t, len(paths), kpathsK)
		return
	case paths[0].Dist != truth:
		v.fail("kpaths %d (%d→%d): first path length %d, true distance %d", idx, q.s, q.t, paths[0].Dist, truth)
		return
	}
	for i, p := range paths {
		if err := checkWalk(g, q.s, q.t, p.Path, p.Dist); err != nil {
			v.fail("kpaths %d (%d→%d) entry %d: %v", idx, q.s, q.t, i, err)
			return
		}
		seen := make(map[uint32]bool, len(p.Path))
		for _, u := range p.Path {
			if seen[u] {
				v.fail("kpaths %d (%d→%d) entry %d revisits node %d", idx, q.s, q.t, i, u)
				return
			}
			seen[u] = true
		}
		if i > 0 {
			prev := paths[i-1]
			if prev.Dist > p.Dist || (prev.Dist == p.Dist && slices.Compare(prev.Path, p.Path) >= 0) {
				v.fail("kpaths %d (%d→%d): entries %d and %d out of order", idx, q.s, q.t, i-1, i)
				return
			}
		}
	}
	v.count()
}

// rankAnswer is one ranking's answer as the checks need it.
type rankAnswer struct {
	epoch uint64
	idx   int
	r     ranking
	dists []uint32
	meths []core.Method
}

// rankings checks every item of every ranking against a full BFS from
// its source, one BFS per distinct (epoch, source), spread over the
// CPUs.
func (v *verifier) rankings(answers []rankAnswer) {
	type key struct {
		e uint64
		s uint32
	}
	groups := map[key][]int{}
	var keys []key
	for i, a := range answers {
		if !v.epochOK(a.epoch) {
			continue
		}
		k := key{a.epoch, a.r.s}
		if groups[k] == nil {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], i)
	}
	parallel(len(keys), func(lo, hi int) {
		var dist, queue []uint32
		for _, k := range keys[lo:hi] {
			g := v.graphs[k.e]
			dist, queue = bfsAll(g, k.s, dist, queue)
			for _, i := range groups[k] {
				a := answers[i]
				if len(a.dists) != len(a.r.ts) {
					v.fail("ranking %d: %d items for %d targets", a.idx, len(a.dists), len(a.r.ts))
					continue
				}
				ok := true
				for j, t := range a.r.ts {
					if err := checkDist(dist[t], a.dists[j], a.meths[j]); err != nil {
						v.fail("ranking %d (source %d, epoch %d) item %d (target %d): %v", a.idx, a.r.s, k.e, j, t, err)
						ok = false
						break
					}
					if a.idx%bibfsSample == 0 && j < 4 {
						if d := v.bib[k.e].Distance(a.r.s, t); d != dist[t] {
							v.fail("ranking %d item %d: bidirectional BFS %d, BFS %d", a.idx, j, d, dist[t])
							ok = false
							break
						}
					}
				}
				if ok {
					v.count()
				}
			}
		}
	})
}

// bfsAll fills dist with hop distances from s (noDist if unreached).
// It is the benchmark's own search, sharing no code with the oracle.
func bfsAll(g *graph.Graph, s uint32, dist, queue []uint32) ([]uint32, []uint32) {
	n := g.NumNodes()
	if cap(dist) < n {
		dist = make([]uint32, n)
	}
	dist = dist[:n]
	for i := range dist {
		dist[i] = noDist
	}
	dist[s] = 0
	queue = append(queue[:0], s)
	for h := 0; h < len(queue); h++ {
		u := queue[h]
		for _, w := range g.Neighbors(u) {
			if dist[w] == noDist {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist, queue
}

func bfsDist(g *graph.Graph, s, t uint32) uint32 {
	dist, _ := bfsAll(g, s, nil, nil)
	return dist[t]
}

// parallel splits [0, n) into one contiguous range per CPU and runs fn
// on each, returning when all have finished.
func parallel(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}

// calls checks the answers of every successful read among calls.
func (v *verifier) calls(w *workload, calls []*call) {
	var ranks []rankAnswer
	var rest []*call
	for _, c := range calls {
		if c.failed() || c.kind == opUpdate {
			continue
		}
		if c.kind == opRank {
			a := rankAnswer{epoch: c.res.Epoch, idx: c.i, r: w.ranks[c.i]}
			for _, it := range c.res.Items {
				a.dists = append(a.dists, it.Dist)
				a.meths = append(a.meths, core.Method(it.Method))
			}
			ranks = append(ranks, a)
			continue
		}
		rest = append(rest, c)
	}
	parallel(len(rest), func(lo, hi int) {
		for _, c := range rest[lo:hi] {
			if c.kind == opKPaths {
				v.kpaths(c.res.Epoch, c.i, w.kpaths[c.i], c.res.Paths)
				continue
			}
			it := c.res.Items[0]
			v.single(c.res.Epoch, c.i, w.singles[c.i], it.Dist, core.Method(it.Method), it.Path)
		}
	})
	v.rankings(ranks)
}
