// Accuracy contrasts the exact vicinity oracle with the approximate
// oracles from the paper's related-work section (§4), and demonstrates
// why Definition 1 is the right vicinity definition by reproducing the
// Figure 1(b) strawman: fixed-SIZE vicinities (k closest nodes,
// arbitrary tie-breaking) return non-shortest paths.
//
//	go run ./examples/accuracy
package main

import (
	"context"
	"fmt"
	"log"

	"vicinity/internal/approx"
	"vicinity/internal/baseline"
	"vicinity/internal/core"
	"vicinity/internal/gen"
	"vicinity/internal/graph"
	"vicinity/internal/queue"
	"vicinity/internal/traverse"
	"vicinity/internal/tz"
	"vicinity/internal/xrand"
)

func main() {
	g := gen.ProfileDBLP.Generate(4000, 3)
	fmt.Printf("graph: n=%d m=%d\n\n", g.NumNodes(), g.NumEdges())

	part1ExactVsApproximate(g)
	part2Figure1bStrawman(g)
}

// part1ExactVsApproximate compares answer quality across oracles.
func part1ExactVsApproximate(g *graph.Graph) {
	fmt.Println("== exact vicinity oracle vs approximate oracles (§4) ==")
	oracle, err := core.Build(g, core.Options{Alpha: 4, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	lm := approx.NewLandmark(g, 16)
	sk := approx.NewSketch(g, 2, 3)
	tzo := tz.New(g, 3)
	truth := baseline.NewBiBFS(g)

	r := xrand.New(9)
	const trials = 2000
	type tally struct {
		exact, answered int
		absErr          float64
	}
	tallies := map[string]*tally{}
	record := func(name string, got, want uint32) {
		tl := tallies[name]
		if tl == nil {
			tl = &tally{}
			tallies[name] = tl
		}
		if got == core.NoDist || want == core.NoDist {
			return
		}
		tl.answered++
		if got == want {
			tl.exact++
		}
		tl.absErr += float64(got) - float64(want)
	}
	for i := 0; i < trials; i++ {
		s := r.Uint32n(uint32(g.NumNodes()))
		t := r.Uint32n(uint32(g.NumNodes()))
		want := truth.Distance(s, t)
		res, err := oracle.Query(context.Background(), core.Request{S: s, T: t})
		if err != nil {
			log.Fatal(err)
		}
		record("vicinity-oracle", res.Dist, want)
		record("landmark-triangulation", lm.Estimate(s, t), want)
		record("das-sarma-sketch", sk.Estimate(s, t), want)
		record("thorup-zwick-k2", tzo.Distance(s, t), want)
	}
	for _, name := range []string{"vicinity-oracle", "landmark-triangulation", "das-sarma-sketch", "thorup-zwick-k2"} {
		tl := tallies[name]
		fmt.Printf("  %-24s exact %6.2f%%   avg abs error %.3f hops\n",
			name, 100*float64(tl.exact)/float64(tl.answered), tl.absErr/float64(tl.answered))
	}
	fmt.Println()
}

// part2Figure1bStrawman shows that "k closest nodes" vicinities break
// correctness while Definition 1 vicinities do not.
func part2Figure1bStrawman(g *graph.Graph) {
	fmt.Println("== Figure 1(b): fixed-size vicinities are incorrect ==")
	const k = 64 // strawman vicinity size: k closest, ties broken arbitrarily
	n := g.NumNodes()
	straw := make([]map[uint32]uint32, n)
	q := queue.NewU32(64)
	nm := traverse.NewNodeMap(n)
	for u := 0; u < n; u++ {
		straw[u] = strawmanVicinity(g, nm, q, uint32(u), k)
	}

	oracle, err := core.Build(g, core.Options{Alpha: 4, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	ws := traverse.NewWorkspace(g)
	r := xrand.New(11)
	wrong, resolvedStraw, checked := 0, 0, 0
	wrongDef1, resolvedDef1 := 0, 0
	for i := 0; i < 3000; i++ {
		s := r.Uint32n(uint32(n))
		t := r.Uint32n(uint32(n))
		if s == t {
			continue
		}
		want := ws.BFSDist(s, t)
		if want == traverse.NoDist {
			continue
		}
		checked++
		// Strawman intersection: min over common members.
		best := traverse.NoDist
		for w, ds := range straw[s] {
			if dt, ok := straw[t][w]; ok && ds+dt < best {
				best = ds + dt
			}
		}
		if best != traverse.NoDist {
			resolvedStraw++
			if best != want {
				wrong++
			}
		}
		// Definition 1 oracle, from its tables alone.
		res, err := oracle.Query(context.Background(), core.Request{S: s, T: t, Policy: core.PolicyTableOnly})
		if err != nil {
			log.Fatal(err)
		}
		if res.Method.Resolved() {
			resolvedDef1++
			if res.Dist != want {
				wrongDef1++
			}
		}
	}
	fmt.Printf("  checked pairs:                  %d\n", checked)
	fmt.Printf("  strawman (k=%d closest):        %d resolved, %d WRONG answers\n", k, resolvedStraw, wrong)
	fmt.Printf("  Definition 1 (this paper):      %d resolved, %d wrong answers\n", resolvedDef1, wrongDef1)
	if wrong > 0 && wrongDef1 == 0 {
		fmt.Println("  → ties at the vicinity edge break the strawman; Definition 1's")
		fmt.Println("    no-tie-breaking ball (plus its neighbors) is what makes Theorem 1 true.")
	}
}

// strawmanVicinity returns the k closest nodes to u (BFS encounter
// order breaks ties arbitrarily), mimicking the broken definition from
// Figure 1(b).
func strawmanVicinity(g *graph.Graph, nm *traverse.NodeMap, q *queue.U32, u uint32, k int) map[uint32]uint32 {
	nm.Reset()
	q.Reset()
	out := make(map[uint32]uint32, k)
	nm.Set(u, 0, graph.NoNode)
	out[u] = 0
	q.Push(u)
	for !q.Empty() && len(out) < k {
		x := q.Pop()
		dx := nm.Dist(x)
		for _, v := range g.Neighbors(x) {
			if nm.Has(v) {
				continue
			}
			nm.Set(v, dx+1, x)
			if len(out) < k {
				out[v] = dx + 1 // cut off mid-level: arbitrary tie-breaking
				q.Push(v)
			}
		}
	}
	return out
}
