package main

import (
	"fmt"
	"time"

	"vicinity/internal/core"
	"vicinity/internal/graph"
	"vicinity/internal/qclient"
)

// Workload rates and limits. A workload's primary requests are the
// ones its latency metrics describe: singles on lookup and churn,
// rankings on rank.
const (
	lookupRate = 4000 // singles/s on lookup and churn
	rankRate   = 200  // rankings/s on rank
	rankSize   = 100  // targets per ranking
	kpathsK    = 4
	updateRate = 0.5 // update batches/s beside churn's reads

	lookupLimit = time.Millisecond     // the paper's threshold
	rankLimit   = 5 * time.Millisecond // a 100-target ranking

	warmup = time.Second

	// A traced run measures K-paths requests over loopback with a
	// closed-loop probe of the whole pool before its window; on the
	// workloads whose stream posts no updates it measures the write
	// path with probeUpdates closed-loop batches at the end, after a
	// quiet pause.
	probeUpdates = 5
	probePause   = time.Second
)

// workload holds one run's generated inputs. Each phase appends the
// requests it draws, so a call's index names its request for the run.
type workload struct {
	name    string
	seed    uint64
	g       *graph.Graph
	singles []single
	ranks   []ranking
	kpaths  []single
	updates []core.Update
}

var workloadNames = []string{"lookup", "rank", "churn"}

func newWorkload(name string, seed uint64, g *graph.Graph, maxUpdates int) (*workload, error) {
	switch name {
	case "lookup", "rank", "churn":
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	// The update batches are drawn with the graph seed: the cost of a
	// repair varies severalfold with the edge, so a median over the few
	// batches of one run would measure the draw more than the write
	// path. Every run applies the same batches in the same order.
	w := &workload{name: name, seed: seed, g: g, updates: churnStream(graphSeed, g, maxUpdates)}
	return w, nil
}

func (w *workload) primary() opKind {
	if w.name == "rank" {
		return opRank
	}
	return opLookup
}

func (w *workload) primaryRate() float64 {
	if w.name == "rank" {
		return rankRate
	}
	return lookupRate
}

func (w *workload) limit() time.Duration {
	if w.name == "rank" {
		return rankLimit
	}
	return lookupLimit
}

// phase draws the primary requests of one phase of dur at rate, with
// churn's update stream beside them when updates is set, and returns
// its schedule.
func (w *workload) phase(salt uint64, dur time.Duration, rate float64, updates bool) []call {
	n := w.g.NumNodes()
	count := int(dur.Seconds() * rate)
	var streams []stream
	switch w.name {
	case "lookup", "churn":
		first := len(w.singles)
		w.singles = append(w.singles, lookupStream(w.seed, saltLookup+salt, n, count)...)
		streams = append(streams, stream{kind: opLookup, rate: rate, first: first})
		if updates && w.name == "churn" {
			streams = append(streams, stream{kind: opUpdate, rate: updateRate})
		}
	case "rank":
		first := len(w.ranks)
		w.ranks = append(w.ranks, rankStream(w.seed, saltRank+salt, n, count, rankSize)...)
		streams = append(streams, stream{kind: opRank, rate: rate, first: first})
	}
	return schedule(dur, streams...)
}

// kpathsProbe draws the closed-loop K-paths probe: every pair of the
// pool once, in a seeded order, each due when the previous one has
// finished.
func (w *workload) kpathsProbe() []call {
	first := len(w.kpaths)
	w.kpaths = append(w.kpaths, kpathsPairs(w.seed, saltProbe, w.g.NumNodes(), kpathsPool)...)
	calls := make([]call, kpathsPool)
	for k := range calls {
		calls[k] = call{kind: opKPaths, i: first + k}
	}
	return calls
}

// updateProbe draws the closed-loop update probe of the workloads
// whose streams post no updates.
func (w *workload) updateProbe() []call {
	calls := make([]call, probeUpdates)
	for k := range calls {
		calls[k] = call{kind: opUpdate}
	}
	return calls
}

// spec is the client request of call kind k, index i.
func (w *workload) spec(k opKind, i int) qclient.QuerySpec {
	switch k {
	case opRank:
		r := w.ranks[i]
		return qclient.QuerySpec{S: r.s, Ts: r.ts}
	case opKPaths:
		p := w.kpaths[i]
		return qclient.QuerySpec{S: p.s, T: p.t, K: kpathsK}
	default:
		q := w.singles[i]
		return qclient.QuerySpec{S: q.s, T: q.t, WantPath: q.wantPath}
	}
}
