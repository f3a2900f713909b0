// Ranking demonstrates the paper's motivating "social search" workload:
// order a candidate set by social distance from one user. One
// one-to-many Query loads the user's vicinity, landmark row and
// boundary once, services all candidates with a single inverted
// boundary pass, and returns per-candidate distances ready to sort —
// the amortization per-pair queries pay for over and over.
//
//	go run ./examples/ranking [-n 20000] [-candidates 150]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"vicinity"
	"vicinity/internal/xrand"
)

func main() {
	n := flag.Int("n", 20000, "number of nodes")
	candidates := flag.Int("candidates", 150, "candidate-set size to rank")
	flag.Parse()

	fmt.Printf("generating social graph with n=%d ...\n", *n)
	g := vicinity.GenerateSocial(*n, 8, 1)
	start := time.Now()
	oracle, err := vicinity.Build(g, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("oracle built in %v: %s\n\n", time.Since(start).Round(time.Millisecond), oracle.Stats())

	// A user and a candidate set (e.g. search results to re-rank by
	// social proximity).
	r := xrand.New(7)
	user := r.Uint32n(uint32(*n))
	cands := make([]uint32, *candidates)
	for i := range cands {
		cands[i] = r.Uint32n(uint32(*n))
	}

	ctx := context.Background()
	ranking := vicinity.Request{S: user, Ts: cands}
	res, err := oracle.Query(ctx, ranking)
	if err != nil {
		log.Fatal(err)
	}
	items := res.Items

	// Rank: nearest first, unreachable last, stable on ties.
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return items[order[a]].Dist < items[order[b]].Dist
	})

	fmt.Printf("top 10 of %d candidates by social distance from user %d:\n", len(cands), user)
	for rank := 0; rank < 10 && rank < len(order); rank++ {
		i := order[rank]
		if items[i].Err != nil {
			fmt.Printf("  %2d. node %-6d (error: %v)\n", rank+1, cands[i], items[i].Err)
			continue
		}
		dist := fmt.Sprint(items[i].Dist)
		if items[i].Dist == vicinity.NoDist {
			dist = "unreachable"
		}
		fmt.Printf("  %2d. node %-6d distance %-3s via %v\n", rank+1, cands[i], dist, items[i].Method)
	}

	// The amortization story: the same ranking as one Query versus one
	// Query per candidate, both warmed, best of five runs.
	batchTime, singleTime := time.Duration(1<<62), time.Duration(1<<62)
	for rep := 0; rep < 5; rep++ {
		start = time.Now()
		if _, err := oracle.Query(ctx, ranking); err != nil {
			log.Fatal(err)
		}
		if d := time.Since(start); d < batchTime {
			batchTime = d
		}
		start = time.Now()
		for _, c := range cands {
			if _, err := oracle.Query(ctx, vicinity.Request{S: user, T: c}); err != nil {
				log.Fatal(err)
			}
		}
		if d := time.Since(start); d < singleTime {
			singleTime = d
		}
	}

	c := res.Cost
	fmt.Printf("\nbatch: %v for %d candidates (%.2f µs each) — lookups=%d scanned=%d fallbacks=%d\n",
		batchTime, len(cands), float64(batchTime.Microseconds())/float64(len(cands)),
		c.Lookups, c.Scanned, c.Fallbacks)
	fmt.Printf("per-pair queries: %v — the batch is %.1f× faster\n",
		singleTime, float64(singleTime)/float64(batchTime))
}
