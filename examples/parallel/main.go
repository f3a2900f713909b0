// Parallel measures how the oracle scales with concurrency on both
// sides of the offline/online split — the parallelization question the
// paper raises in §5.
//
// Build: the offline phase computes the vicinities across workers and
// installs them in scope order, then fills the landmark rows across
// workers; the example times 1/2/4/8 workers and verifies that every
// worker count produces a byte-identical serialized oracle.
//
// Query: the oracle is immutable after build, so queries scale across
// cores with no locking (fallback workspaces come from a pool).
//
//	go run ./examples/parallel [-n 10000]
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vicinity/internal/core"
	"vicinity/internal/gen"
	"vicinity/internal/xrand"
)

func main() {
	n := flag.Int("n", 10000, "number of nodes")
	dur := flag.Duration("d", 2*time.Second, "measurement duration per point")
	flag.Parse()

	g := gen.ProfileFlickr.Generate(*n, 5)
	fmt.Printf("cores: %d\n\nbuild scaling (n=%d):\n", runtime.GOMAXPROCS(0), *n)
	var oracle *core.Oracle
	var golden []byte
	var baseBuild time.Duration
	for _, workers := range []int{1, 2, 4, 8} {
		start := time.Now()
		o, err := core.Build(g, core.Options{Alpha: 4, Seed: 5, Workers: workers})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		var buf bytes.Buffer
		if err := core.WriteOracle(&buf, o); err != nil {
			log.Fatal(err)
		}
		if workers == 1 {
			baseBuild, golden, oracle = elapsed, buf.Bytes(), o
		} else if !bytes.Equal(buf.Bytes(), golden) {
			log.Fatalf("workers=%d produced a different oracle file", workers)
		}
		fmt.Printf("workers=%-3d  build %8v  speedup %.2f×  (%s)\n",
			workers, elapsed.Round(time.Millisecond),
			float64(baseBuild)/float64(elapsed), o.BuildTimings())
	}
	fmt.Println("all worker counts produced byte-identical oracles")
	fmt.Println("\noracle:", oracle.Stats())
	fmt.Println()

	var base float64
	for _, workers := range []int{1, 2, 4, 8} {
		if workers > 2*runtime.GOMAXPROCS(0) {
			break
		}
		qps := measure(oracle, uint32(*n), workers, *dur)
		if workers == 1 {
			base = qps
		}
		fmt.Printf("goroutines=%-3d  %12.0f queries/s   speedup %.2f×\n",
			workers, qps, qps/base)
	}
}

// measure runs random queries from `workers` goroutines for d and
// returns aggregate queries/second.
func measure(oracle *core.Oracle, n uint32, workers int, d time.Duration) float64 {
	var stop atomic.Bool
	var total atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := xrand.New(seed)
			ctx := context.Background()
			count := int64(0)
			for !stop.Load() {
				for i := 0; i < 256; i++ {
					s, t := r.Uint32n(n), r.Uint32n(n)
					if _, err := oracle.Query(ctx, core.Request{S: s, T: t}); err != nil {
						log.Fatal(err)
					}
				}
				count += 256
			}
			total.Add(count)
		}(uint64(w + 1))
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	return float64(total.Load()) / d.Seconds()
}
