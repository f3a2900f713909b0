// Socialnetwork reproduces the paper's headline scenario end to end: a
// LiveJournal-like graph, a full oracle build, and latency percentiles
// for the oracle versus bidirectional BFS on the same query workload.
//
//	go run ./examples/socialnetwork [-n 12000] [-queries 3000]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"vicinity/internal/baseline"
	"vicinity/internal/core"
	"vicinity/internal/gen"
	"vicinity/internal/stats"
	"vicinity/internal/xrand"
)

func main() {
	n := flag.Int("n", 12000, "number of nodes")
	queries := flag.Int("queries", 3000, "number of random queries")
	flag.Parse()

	fmt.Printf("generating LiveJournal-profile graph with n=%d ...\n", *n)
	g := gen.ProfileLiveJournal.Generate(*n, 1)
	fmt.Printf("graph: n=%d m=%d avg-deg=%.1f\n", g.NumNodes(), g.NumEdges(), g.AvgDegree())

	start := time.Now()
	oracle, err := core.Build(g, core.Options{Alpha: 4, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("oracle built in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Println("  ", oracle.Stats())
	fmt.Println("  ", oracle.Memory())

	r := xrand.New(2)
	pairs := make([][2]uint32, *queries)
	for i := range pairs {
		pairs[i] = [2]uint32{r.Uint32n(uint32(*n)), r.Uint32n(uint32(*n))}
	}

	// Oracle latency distribution, split into table-resolved queries
	// (the paper's 365µs average is over these) and fallback queries.
	ctx := context.Background()
	var latResolved, latFallback []time.Duration
	for _, p := range pairs {
		q := time.Now()
		res, err := oracle.Query(ctx, core.Request{S: p[0], T: p[1]})
		if err != nil {
			log.Fatal(err)
		}
		el := time.Since(q)
		if res.Method.Resolved() {
			latResolved = append(latResolved, el)
		} else {
			latFallback = append(latFallback, el)
		}
	}
	report("oracle (resolved)", latResolved)
	if len(latFallback) > 0 {
		report("oracle (fallback)", latFallback)
	}
	fmt.Printf("  resolved from tables: %.2f%% (paper: >99.9%% at n=4.8M; the\n"+
		"  fraction grows with n — see the S1 scaling experiment)\n",
		100*float64(len(latResolved))/float64(len(pairs)))

	// Bidirectional BFS on the same workload (subsampled: it is slow).
	bibfs := baseline.NewBiBFS(g)
	sub := pairs
	if len(sub) > 500 {
		sub = sub[:500]
	}
	lat2 := make([]time.Duration, len(sub))
	for i, p := range sub {
		q := time.Now()
		bibfs.Distance(p[0], p[1])
		lat2[i] = time.Since(q)
	}
	report("bidirectional BFS", lat2)

	mean := stats.Summarize(stats.DurationsToMicros(latResolved)).Mean
	mean2 := stats.Summarize(stats.DurationsToMicros(lat2)).Mean
	if mean > 0 {
		fmt.Printf("\nspeedup on resolved queries: %.1f× (paper reports 431× at n=4.8M;\n"+
			"the gap grows with n — BiBFS cost scales with the graph, table probes do not)\n", mean2/mean)
	}
}

func report(name string, lat []time.Duration) {
	s := stats.Summarize(stats.DurationsToMicros(lat))
	fmt.Printf("%-18s mean=%-10s p50=%-10s p90=%-10s p99=%-10s max=%s\n",
		name,
		stats.FormatMicros(s.Mean), stats.FormatMicros(s.P50),
		stats.FormatMicros(s.P90), stats.FormatMicros(s.P99),
		stats.FormatMicros(s.Max))
}
