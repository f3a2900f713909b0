// Command spbench regenerates the paper's tables and figures on
// synthetic dataset stand-ins (see DESIGN.md for the substitution
// rationale and CHANGES.md for recorded results).
//
// Usage:
//
//	spbench                 # everything, default scale
//	spbench -exp table3     # one experiment
//	spbench -quick          # smoke-test scale
//	spbench -samples 500 -nodes 20000 -exp fig2a
//
// Experiments: table2, fig2a, fig2b, fig2c, table3, memory, ablation,
// sampling, accuracy, weighted, scaling, all.
//
// Oracle persistence (cold-start workflow):
//
//	spbench -save lj.vco -dataset livejournal -nodes 100000
//	spbench -load lj.vco
//
// -parallel N runs the offline build's vicinity searches and landmark
// passes on N workers (default GOMAXPROCS); the built oracle — and any
// file written from it — is bit-identical for every worker count, so
// -parallel only changes how fast the build runs. -save reports the
// per-stage build breakdown.
//
// -save builds the named dataset's oracle and writes it to a file;
// -load restores it and reports load time against a fresh rebuild,
// plus a query-latency sample. Both skip the experiment suite.
//
// One-to-many batch benchmark (the social-search ranking workload):
//
//	spbench -batch -dataset livejournal -nodes 50000
//	spbench -batch -targets 100 -batches 200 -batch-parallel 4
//
// -batch measures one-to-many Query rankings against the same pairs
// answered one by one, reporting p50/p95/p99 batch latency,
// queries/sec, and the amortization factor, for both a ranking-shaped
// candidate mix (table-resolved targets) and a uniform-random mix.
// Batches run back to back; -batch-parallel fans each batch across
// workers (answers stay bit-identical).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"vicinity/internal/core"
	"vicinity/internal/expt"
	"vicinity/internal/gen"
	"vicinity/internal/xrand"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spbench:", err)
		os.Exit(1)
	}
}

// saveOracle builds the named dataset's oracle at cfg scale and
// persists it, reporting build, save and file-size numbers.
func saveOracle(path, dataset string, cfg expt.Config) error {
	prof, err := gen.ProfileByName(dataset)
	if err != nil {
		return err
	}
	g := prof.Generate(cfg.Nodes, cfg.Seed)
	fmt.Printf("dataset %s: n=%d m=%d\n", prof.Name, g.NumNodes(), g.NumEdges())
	start := time.Now()
	o, err := core.Build(g, core.Options{Alpha: cfg.Alpha, Seed: cfg.Seed, Workers: cfg.Workers})
	if err != nil {
		return err
	}
	buildTime := time.Since(start)
	fmt.Printf("built in %v (%s): %s\n",
		buildTime.Round(time.Millisecond), o.BuildTimings(), o.Stats())
	start = time.Now()
	if err := core.SaveOracleFile(path, o); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("saved %s in %v (%.1f MB)\n",
		path, time.Since(start).Round(time.Millisecond), float64(info.Size())/(1<<20))
	return nil
}

// loadOracle restores a saved oracle, compares cold-start time with a
// fresh rebuild, and samples query latency.
func loadOracle(path string, cfg expt.Config) error {
	start := time.Now()
	o, err := core.LoadOracleFile(path)
	if err != nil {
		return err
	}
	loadTime := time.Since(start)
	g := o.Graph()
	fmt.Printf("loaded %s in %v: %s\n", path, loadTime.Round(time.Millisecond), o.Stats())

	start = time.Now()
	if _, err := core.Build(g, o.Options()); err != nil {
		return err
	}
	buildTime := time.Since(start)
	speedup := float64(buildTime) / float64(loadTime)
	fmt.Printf("fresh rebuild takes %v (load is %.0f× faster)\n",
		buildTime.Round(time.Millisecond), speedup)

	n := uint32(g.NumNodes())
	r := xrand.New(cfg.Seed)
	const queries = 200000
	start = time.Now()
	var resolved int
	for i := 0; i < queries; i++ {
		res, err := o.Query(context.Background(), core.Request{S: r.Uint32n(n), T: r.Uint32n(n)})
		if err != nil {
			return err
		}
		if res.Method.Resolved() {
			resolved++
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("%d random queries in %v (%.0f ns/query, %.1f%% resolved from tables)\n",
		queries, elapsed.Round(time.Millisecond),
		float64(elapsed.Nanoseconds())/queries, 100*float64(resolved)/queries)
	return nil
}

// percentile returns the p-th percentile of sorted latencies.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// queryOverrides carries the per-request v2 knobs (-timeout, -budget,
// -policy, -batch-parallel) into the batch benchmark.
type queryOverrides struct {
	timeout  time.Duration
	budget   int
	policy   core.Policy
	parallel int
}

// batchBench builds the dataset oracle and measures one-to-many
// rankings (one Query per batch, under the overrides) against the same
// pairs answered one by one, reporting the summed Cost and how many
// targets hit the budget or the deadline.
func batchBench(dataset string, cfg expt.Config, targets, batches int, qo queryOverrides) error {
	prof, err := gen.ProfileByName(dataset)
	if err != nil {
		return err
	}
	g := prof.Generate(cfg.Nodes, cfg.Seed)
	fmt.Printf("dataset %s: n=%d m=%d\n", prof.Name, g.NumNodes(), g.NumEdges())
	start := time.Now()
	o, err := core.Build(g, core.Options{Alpha: cfg.Alpha, Seed: cfg.Seed, Workers: cfg.Workers})
	if err != nil {
		return err
	}
	fmt.Printf("built in %v: %s\n\n", time.Since(start).Round(time.Millisecond), o.Stats())

	n := uint32(g.NumNodes())
	for _, mix := range []struct {
		name         string
		resolvedOnly bool
	}{
		{"ranking (table-resolved candidates)", true},
		{"uniform random targets", false},
	} {
		r := xrand.New(cfg.Seed + 1)
		ss := make([]uint32, batches)
		tss := make([][]uint32, batches)
		for i := range ss {
			ss[i] = r.Uint32n(n)
			ts := make([]uint32, 0, targets)
			for len(ts) < targets {
				t := r.Uint32n(n)
				if mix.resolvedOnly {
					res, err := o.Query(context.Background(), core.Request{S: ss[i], T: t})
					if err != nil || !res.Method.Resolved() {
						continue
					}
				}
				ts = append(ts, t)
			}
			tss[i] = ts
		}

		var cost core.Cost
		var budgetHits, deadlineHits int
		lats := make([]time.Duration, batches)
		batchStart := time.Now()
		for i := range ss {
			qStart := time.Now()
			ctx := context.Background()
			var cancel context.CancelFunc = func() {}
			if qo.timeout > 0 {
				ctx, cancel = context.WithTimeout(ctx, qo.timeout)
			}
			res, err := o.Query(ctx, core.Request{
				S: ss[i], Ts: tss[i], Policy: qo.policy, Budget: qo.budget,
				Parallel: qo.parallel,
			})
			cancel()
			if err != nil && res.Items == nil {
				return err
			}
			for _, it := range res.Items {
				switch {
				case errors.Is(it.Err, core.ErrBudgetExceeded):
					budgetHits++
				case errors.Is(it.Err, core.ErrCanceled):
					deadlineHits++
				case it.Err != nil:
					return it.Err
				}
			}
			cost.Lookups += res.Cost.Lookups
			cost.Scanned += res.Cost.Scanned
			cost.Expanded += res.Cost.Expanded
			cost.Fallbacks += res.Cost.Fallbacks
			lats[i] = time.Since(qStart)
		}
		batchElapsed := time.Since(batchStart)

		singleStart := time.Now()
		for i := range ss {
			for _, t := range tss[i] {
				if _, err := o.Query(context.Background(), core.Request{S: ss[i], T: t}); err != nil {
					return err
				}
			}
		}
		singleElapsed := time.Since(singleStart)

		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		queries := int64(batches) * int64(targets)
		fmt.Printf("%s: %d batches × %d targets\n", mix.name, batches, targets)
		fmt.Printf("  batch latency p50=%v p95=%v p99=%v\n",
			percentile(lats, 0.50), percentile(lats, 0.95), percentile(lats, 0.99))
		fmt.Printf("  batch: %v total, %.0f queries/sec (%.2f µs/query)\n",
			batchElapsed.Round(time.Millisecond),
			float64(queries)/batchElapsed.Seconds(),
			float64(batchElapsed.Microseconds())/float64(queries))
		fmt.Printf("  singles: %v total, %.0f queries/sec — batch is %.1f× faster\n",
			singleElapsed.Round(time.Millisecond),
			float64(queries)/singleElapsed.Seconds(),
			float64(singleElapsed)/float64(batchElapsed))
		fmt.Printf("  work: lookups=%d scanned=%d expanded=%d fallbacks=%d\n",
			cost.Lookups, cost.Scanned, cost.Expanded, cost.Fallbacks)
		fmt.Printf("  overrides (policy=%v budget=%d timeout=%v): %d budget-exceeded, %d deadline-canceled\n\n",
			qo.policy, qo.budget, qo.timeout, budgetHits, deadlineHits)
	}
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("spbench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment id (table2|fig2a|fig2b|fig2c|table3|memory|ablation|sampling|accuracy|weighted|scaling|all)")
		quick    = fs.Bool("quick", false, "reduced scale for smoke testing")
		samples  = fs.Int("samples", 0, "sampled nodes per dataset (0 = default)")
		reps     = fs.Int("reps", 0, "repetitions (0 = default)")
		nodes    = fs.Int("nodes", 0, "synthetic nodes per dataset (0 = profile default)")
		seed     = fs.Uint64("seed", 42, "random seed")
		alpha    = fs.Float64("alpha", 4, "operating-point α")
		parallel = fs.Int("parallel", 0, "build parallelism (0 = GOMAXPROCS); output is bit-identical for every value")
		save     = fs.String("save", "", "build one dataset's oracle and save it to this file")
		load     = fs.String("load", "", "load a saved oracle and benchmark it")
		dataset  = fs.String("dataset", "LiveJournal", "dataset profile for -save/-batch")
		batch    = fs.Bool("batch", false, "benchmark one-to-many Query rankings against per-pair queries")
		targets  = fs.Int("targets", 100, "targets per batch for -batch")
		batches  = fs.Int("batches", 200, "batches to issue for -batch")
		timeout  = fs.Duration("timeout", 0, "per-batch deadline for -batch, honored inside fallback searches (0 = none)")
		budget   = fs.Int("budget", 0, "fallback search node budget per target for -batch (0 = unlimited)")
		policy   = fs.String("policy", "default", "fallback policy for -batch: default|full|estimate|table (default and full are the exact search)")
		batchPar = fs.Int("batch-parallel", 0, "worker fan-out per batch request for -batch (0/1 = sequential; answers are bit-identical)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := expt.DefaultConfig()
	if *quick {
		cfg = cfg.Quick()
	}
	cfg.Seed = *seed
	cfg.Alpha = *alpha
	cfg.Workers = *parallel
	if *samples > 0 {
		cfg.Samples = *samples
	}
	if *reps > 0 {
		cfg.Reps = *reps
	}
	if *nodes > 0 {
		cfg.Nodes = *nodes
	}

	if *save != "" && *load != "" {
		return fmt.Errorf("-save and -load are mutually exclusive")
	}
	if *save != "" {
		return saveOracle(*save, *dataset, cfg)
	}
	if *load != "" {
		return loadOracle(*load, cfg)
	}
	if *batch {
		if *targets < 1 || *batches < 1 {
			return fmt.Errorf("-targets and -batches must be positive")
		}
		pol, err := core.ParsePolicy(*policy)
		if err != nil {
			return err
		}
		return batchBench(*dataset, cfg, *targets, *batches,
			queryOverrides{timeout: *timeout, budget: *budget, policy: pol, parallel: *batchPar})
	}

	want := strings.ToLower(*exp)
	runAll := want == "all"
	ran := false
	start := time.Now()

	fmt.Printf("spbench: samples=%d reps=%d α=%g nodes=%d seed=%d\n\n",
		cfg.Samples, cfg.Reps, cfg.Alpha, cfg.Nodes, cfg.Seed)
	ds := expt.DefaultDatasets(cfg)
	order := make([]string, len(ds))
	for i, d := range ds {
		order[i] = d.Name
		fmt.Printf("dataset %-12s n=%d m=%d\n", d.Name, d.Graph.NumNodes(), d.Graph.NumEdges())
	}
	fmt.Println()

	if runAll || want == "table2" {
		ran = true
		fmt.Println(expt.RenderTable2(expt.Table2(ds)))
	}
	if runAll || want == "fig2a" {
		ran = true
		series := map[string][]expt.IntersectionPoint{}
		for _, d := range ds {
			pts, err := expt.IntersectionSweep(d, cfg)
			if err != nil {
				return err
			}
			series[d.Name] = pts
		}
		fmt.Println(expt.RenderIntersection(series, order))
	}
	if runAll || want == "fig2b" {
		ran = true
		series := map[string][]expt.BoundaryPoint{}
		for _, d := range ds {
			pts, err := expt.BoundaryCDF(d, cfg)
			if err != nil {
				return err
			}
			series[d.Name] = pts
		}
		fmt.Println(expt.RenderBoundaryCDF(series, order))
	}
	if runAll || want == "fig2c" {
		ran = true
		series := map[string][]expt.RadiusPoint{}
		for _, d := range ds {
			pts, err := expt.RadiusSweep(d, cfg)
			if err != nil {
				return err
			}
			series[d.Name] = pts
		}
		fmt.Println(expt.RenderRadius(series, order))
	}
	if runAll || want == "table3" {
		ran = true
		var rows []expt.Table3Row
		for _, d := range ds {
			row, err := expt.Table3(d, cfg)
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
		fmt.Println(expt.RenderTable3(rows))
	}
	if runAll || want == "memory" {
		ran = true
		var rows []expt.MemoryRow
		for _, d := range ds {
			row, err := expt.Memory(d, cfg)
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
		fmt.Println(expt.RenderMemory(rows))
	}
	if runAll || want == "ablation" {
		ran = true
		var rows []expt.AblationBoundaryRow
		for _, d := range ds {
			row, err := expt.AblationBoundary(d, cfg)
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
		fmt.Println(expt.RenderAblationBoundary(rows))
	}
	if runAll || want == "sampling" {
		ran = true
		var rows []expt.AblationSamplingRow
		for _, d := range ds {
			rs, err := expt.AblationSampling(d, cfg)
			if err != nil {
				return err
			}
			rows = append(rows, rs...)
		}
		fmt.Println(expt.RenderAblationSampling(rows))
	}
	if runAll || want == "accuracy" {
		ran = true
		// The paper's §4 comparison discussion centers on LiveJournal.
		rows, err := expt.Accuracy(ds[3], cfg)
		if err != nil {
			return err
		}
		fmt.Println(expt.RenderAccuracy(ds[3].Name, rows))
	}
	if runAll || want == "weighted" {
		ran = true
		var rows []expt.WeightedRow
		for _, d := range ds {
			row, err := expt.Weighted(d, 8, cfg)
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
		fmt.Println(expt.RenderWeighted(rows))
	}
	if runAll || want == "scaling" {
		ran = true
		sizes := []int{4000, 16000, 64000, 256000}
		if *quick {
			sizes = []int{1000, 4000}
		}
		rows, err := expt.Scaling(gen.ProfileLiveJournal, sizes, cfg)
		if err != nil {
			return err
		}
		fmt.Println(expt.RenderScaling("LiveJournal", rows))
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	fmt.Printf("spbench: done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
