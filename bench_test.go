package vicinity

// Benchmarks regenerating the paper's evaluation, one per experiment id
// in DESIGN.md. These run at reduced scale so `go test -bench=.`
// finishes in minutes; cmd/spbench produces the full paper-shaped
// tables (see CHANGES.md for recorded results).

import (
	"context"
	"sync"
	"testing"

	"vicinity/internal/approx"
	"vicinity/internal/baseline"
	"vicinity/internal/core"
	"vicinity/internal/expt"
	"vicinity/internal/gen"
	"vicinity/internal/graph"
	"vicinity/internal/tz"
	"vicinity/internal/xrand"
)

// benchCfg is the reduced-scale configuration shared by the harness
// benchmarks.
func benchCfg() expt.Config {
	cfg := expt.DefaultConfig()
	cfg.Samples = 120
	cfg.Reps = 1
	cfg.Alphas = []float64{0.25, 4, 16}
	cfg.Nodes = 4000
	return cfg
}

var (
	benchOnce sync.Once
	benchDS   []expt.Dataset
)

func benchDatasets(b *testing.B) []expt.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		benchDS = expt.DefaultDatasets(benchCfg())
	})
	return benchDS
}

// --- T2: Table 2, dataset statistics ---

func BenchmarkTable2DatasetStats(b *testing.B) {
	ds := benchDatasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := expt.Table2(ds)
		if len(rows) != 4 {
			b.Fatal("missing rows")
		}
	}
}

// --- F2a: Figure 2(left), intersection fraction vs α ---

func BenchmarkFig2aIntersectionSweep(b *testing.B) {
	ds := benchDatasets(b)
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := expt.IntersectionSweep(ds[0], cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[len(pts)-1].Fraction, "frac@α=16")
	}
}

// --- F2b: Figure 2(center), boundary size CDF ---

func BenchmarkFig2bBoundaryCDF(b *testing.B) {
	ds := benchDatasets(b)
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := expt.BoundaryCDF(ds[0], cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) > 0 {
			b.ReportMetric(100*pts[len(pts)-1].X, "worst-%ofN")
		}
	}
}

// --- F2c: Figure 2(right), vicinity radius vs α ---

func BenchmarkFig2cRadiusSweep(b *testing.B) {
	ds := benchDatasets(b)
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := expt.RadiusSweep(ds[0], cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[1].AvgRadius, "radius@α=4")
	}
}

// --- T3: Table 3, per-query latency of ours vs BFS vs BiBFS ---

// table3Fixture builds a scoped oracle and query pairs for one dataset.
type table3Fixture struct {
	oracle *core.Oracle
	g      *graph.Graph
	pairs  [][2]uint32
}

var (
	t3mu  sync.Mutex
	t3fix = map[string]*table3Fixture{}
)

func table3Fix(b *testing.B, d expt.Dataset) *table3Fixture {
	b.Helper()
	t3mu.Lock()
	defer t3mu.Unlock()
	if f, ok := t3fix[d.Name]; ok {
		return f
	}
	cfg := benchCfg()
	r := xrand.New(cfg.Seed)
	nodes := make([]uint32, 0, cfg.Samples)
	seen := map[uint32]bool{}
	for len(nodes) < cfg.Samples {
		u := r.Uint32n(uint32(d.Graph.NumNodes()))
		if !seen[u] {
			seen[u] = true
			nodes = append(nodes, u)
		}
	}
	o, err := core.Build(d.Graph, core.Options{
		Alpha: cfg.Alpha, Seed: cfg.Seed, Nodes: nodes,
	})
	if err != nil {
		b.Fatal(err)
	}
	var pairs [][2]uint32
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			pairs = append(pairs, [2]uint32{nodes[i], nodes[j]})
		}
	}
	f := &table3Fixture{oracle: o, g: d.Graph, pairs: pairs}
	t3fix[d.Name] = f
	return f
}

func benchTable3Oracle(b *testing.B, d expt.Dataset) {
	f := table3Fix(b, d)
	ctx := context.Background()
	var lookups int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := f.pairs[i%len(f.pairs)]
		res, err := f.oracle.Query(ctx, core.Request{S: p[0], T: p[1]})
		if err != nil {
			b.Fatal(err)
		}
		lookups += int64(res.Cost.Lookups)
	}
	b.ReportMetric(float64(lookups)/float64(b.N), "lookups/op")
}

func benchTable3Engine(b *testing.B, d expt.Dataset, eng baseline.Querier) {
	f := table3Fix(b, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := f.pairs[i%len(f.pairs)]
		eng.Distance(p[0], p[1])
	}
}

func BenchmarkTable3Oracle(b *testing.B) {
	for _, d := range benchDatasets(b) {
		b.Run(d.Name, func(b *testing.B) { benchTable3Oracle(b, d) })
	}
}

func BenchmarkTable3BFS(b *testing.B) {
	for _, d := range benchDatasets(b) {
		b.Run(d.Name, func(b *testing.B) {
			benchTable3Engine(b, d, baseline.NewBFS(d.Graph))
		})
	}
}

func BenchmarkTable3BiBFS(b *testing.B) {
	for _, d := range benchDatasets(b) {
		b.Run(d.Name, func(b *testing.B) {
			benchTable3Engine(b, d, baseline.NewBiBFS(d.Graph))
		})
	}
}

// --- M1: §3.2 memory accounting ---

func BenchmarkMemoryStats(b *testing.B) {
	ds := benchDatasets(b)
	f := table3Fix(b, ds[3]) // LiveJournal profile, the paper's 550× row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms := f.oracle.Memory()
		b.ReportMetric(ms.ProjectedSavings, "savings-x")
	}
}

// --- A1: boundary scan vs full vicinity scan ---

func BenchmarkAblationBoundaryVsFull(b *testing.B) {
	ds := benchDatasets(b)
	cfg := benchCfg()
	b.Run("boundary", func(b *testing.B) {
		row, err := expt.AblationBoundary(ds[0], cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(row.BoundaryLookups, "lookups/query")
		b.ReportMetric(float64(row.BoundaryTime.Nanoseconds()), "ns/query")
	})
}

// --- A2: sampling strategy ablation ---

func BenchmarkAblationSampling(b *testing.B) {
	ds := benchDatasets(b)
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := expt.AblationSampling(ds[0], cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Resolved, "paper-resolved")
	}
}

// --- A3: vicinity table implementation ablation: the Get benchmarks
// of internal/u32map (go test -bench Get ./internal/u32map) ---

// --- A4: parallel query throughput ---

func BenchmarkParallelQueries(b *testing.B) {
	ds := benchDatasets(b)
	f := table3Fix(b, ds[3])
	b.RunParallel(func(pb *testing.PB) {
		r := xrand.New(99)
		ctx := context.Background()
		for pb.Next() {
			p := f.pairs[int(r.Uint32n(uint32(len(f.pairs))))]
			if _, err := f.oracle.Query(ctx, core.Request{S: p[0], T: p[1]}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- R1: approximate baseline comparison ---

func BenchmarkApproxBaselines(b *testing.B) {
	ds := benchDatasets(b)
	g := ds[0].Graph
	r := xrand.New(7)
	n := uint32(g.NumNodes())
	pairs := make([][2]uint32, 512)
	for i := range pairs {
		pairs[i] = [2]uint32{r.Uint32n(n), r.Uint32n(n)}
	}
	lm := approx.NewLandmark(g, 16)
	sk := approx.NewSketch(g, 2, 7)
	tzo := tz.New(g, 7)
	b.Run("landmark", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i&511]
			lm.Estimate(p[0], p[1])
		}
	})
	b.Run("sketch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i&511]
			sk.Estimate(p[0], p[1])
		}
	})
	b.Run("thorup-zwick", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i&511]
			tzo.Distance(p[0], p[1])
		}
	})
}

// --- S1: build cost scaling (offline phase) ---

func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{2000, 8000} {
		g := gen.HolmeKim(xrand.New(1), n, 9, 0.45)
		b.Run(itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(g, core.Options{Seed: uint64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
