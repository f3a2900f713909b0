package expt

import (
	"strings"
	"testing"

	"vicinity/internal/gen"
)

func quickCfg() Config {
	cfg := DefaultConfig().Quick()
	cfg.Samples = 40
	cfg.Nodes = 1200
	return cfg
}

func quickDatasets(t *testing.T, cfg Config) []Dataset {
	t.Helper()
	ds := DefaultDatasets(cfg)
	if len(ds) != 4 {
		t.Fatalf("%d datasets", len(ds))
	}
	return ds
}

func TestTable2(t *testing.T) {
	cfg := quickCfg()
	ds := quickDatasets(t, cfg)
	rows := Table2(ds)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Nodes != cfg.Nodes {
			t.Errorf("%s: n=%d, want %d", r.Dataset, r.Nodes, cfg.Nodes)
		}
		if r.Undirected <= 0 || r.AvgDegree <= 0 {
			t.Errorf("%s: empty stats", r.Dataset)
		}
	}
	s := RenderTable2(rows)
	if !strings.Contains(s, "LiveJournal") || !strings.Contains(s, "Orkut") {
		t.Fatalf("render missing datasets:\n%s", s)
	}
}

func TestIntersectionSweepMonotone(t *testing.T) {
	cfg := quickCfg()
	cfg.Alphas = []float64{0.25, 4, 16}
	ds := quickDatasets(t, cfg)
	pts, err := IntersectionSweep(ds[3], cfg) // LiveJournal profile
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	// The paper's headline property: larger α ⇒ higher intersection
	// fraction, approaching 1 by α=16.
	if pts[0].Fraction > pts[2].Fraction {
		t.Errorf("fraction not increasing: %v", pts)
	}
	// At full bench scale (n ≥ 12k) this exceeds 0.99; the quick-test
	// graph is 1200 nodes, so use a loose floor.
	if pts[2].Fraction < 0.85 {
		t.Errorf("α=16 fraction %.3f < 0.85", pts[2].Fraction)
	}
	series := map[string][]IntersectionPoint{ds[3].Name: pts}
	if s := RenderIntersection(series, []string{ds[3].Name}); !strings.Contains(s, "alpha") {
		t.Fatalf("bad render:\n%s", s)
	}
}

func TestBoundaryCDF(t *testing.T) {
	cfg := quickCfg()
	ds := quickDatasets(t, cfg)
	pts, err := BoundaryCDF(ds[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("empty CDF")
	}
	last := pts[len(pts)-1]
	if last.Fraction != 1 {
		t.Fatalf("CDF does not reach 1: %v", last)
	}
	// Boundaries must be a small fraction of n (paper: < 0.4%; allow
	// slack at small scale).
	if last.X > 0.25 {
		t.Errorf("worst boundary fraction %.3f implausibly large", last.X)
	}
	series := map[string][]BoundaryPoint{ds[0].Name: pts}
	if s := RenderBoundaryCDF(series, []string{ds[0].Name}); !strings.Contains(s, "p50") {
		t.Fatalf("bad render:\n%s", s)
	}
}

func TestRadiusSweepDecreasing(t *testing.T) {
	cfg := quickCfg()
	cfg.Alphas = []float64{0.25, 16}
	ds := quickDatasets(t, cfg)
	pts, err := RadiusSweep(ds[1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Larger α ⇒ fewer landmarks ⇒ larger radius.
	if pts[0].AvgRadius > pts[1].AvgRadius {
		t.Errorf("radius not increasing with α: %v", pts)
	}
	series := map[string][]RadiusPoint{ds[1].Name: pts}
	if s := RenderRadius(series, []string{ds[1].Name}); s == "" {
		t.Fatal("empty render")
	}
}

func TestTable3(t *testing.T) {
	cfg := quickCfg()
	ds := quickDatasets(t, cfg)
	row, err := Table3(ds[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if row.AvgLookups <= 0 || row.WorstLookups < int(row.AvgLookups) {
		t.Errorf("lookup accounting: %+v", row)
	}
	if row.OracleTime <= 0 || row.TableOnlyTime <= 0 || row.BiBFSTime <= 0 || row.BFSTime <= 0 {
		t.Errorf("times not measured: %+v", row)
	}
	// "ours" times exact answers to every pair, not table misses.
	if row.Exact != 1 {
		t.Errorf("%.4f of PolicyFull pairs answered exactly, want all", row.Exact)
	}
	// At full bench scale this is ≥ 0.95 (paper: 99.9%); the quick-test
	// graph is tiny, so use a loose floor.
	if row.Resolved < 0.6 {
		t.Errorf("resolved fraction %.3f < 0.6 at α=4", row.Resolved)
	}
	// The paper's qualitative claim at any scale: the oracle beats
	// unidirectional BFS outright.
	if row.OracleTime >= row.BFSTime {
		t.Errorf("oracle (%v) not faster than BFS (%v)", row.OracleTime, row.BFSTime)
	}
	if s := RenderTable3([]Table3Row{row}); !strings.Contains(s, "speedup") {
		t.Fatalf("bad render:\n%s", s)
	}
}

func TestMemory(t *testing.T) {
	cfg := quickCfg()
	ds := quickDatasets(t, cfg)
	row, err := Memory(ds[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if row.Savings <= 1 {
		t.Errorf("savings %.1f not above 1", row.Savings)
	}
	if row.ProjectedEntries >= row.APSPEntries {
		t.Errorf("projection not below APSP: %+v", row)
	}
	if s := RenderMemory([]MemoryRow{row}); !strings.Contains(s, "savings") {
		t.Fatalf("bad render:\n%s", s)
	}
}

func TestAblationBoundary(t *testing.T) {
	cfg := quickCfg()
	ds := quickDatasets(t, cfg)
	row, err := AblationBoundary(ds[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Lemma 1: identical answers; boundary never scans more than full.
	if row.AgreeFraction != 1 {
		t.Fatalf("boundary and full scans disagree: %+v", row)
	}
	if row.BoundaryLookups > row.FullLookups {
		t.Errorf("boundary scan used more lookups: %+v", row)
	}
	if s := RenderAblationBoundary([]AblationBoundaryRow{row}); s == "" {
		t.Fatal("empty render")
	}
}

func TestAblationSampling(t *testing.T) {
	cfg := quickCfg()
	ds := quickDatasets(t, cfg)
	rows, err := AblationSampling(ds[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d strategies", len(rows))
	}
	for _, r := range rows {
		if r.Landmarks < 1 {
			t.Errorf("%s: no landmarks", r.Strategy)
		}
	}
	if s := RenderAblationSampling(rows); !strings.Contains(s, "uniform") {
		t.Fatalf("bad render:\n%s", s)
	}
}

func TestAccuracy(t *testing.T) {
	cfg := quickCfg()
	cfg.Samples = 30
	ds := quickDatasets(t, cfg)
	rows, err := Accuracy(ds[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d engines", len(rows))
	}
	for _, r := range rows {
		switch r.Engine {
		case "vicinity-oracle", "bidirectional-bfs":
			if r.ExactFraction < 0.999 {
				t.Errorf("%s: exact fraction %.4f", r.Engine, r.ExactFraction)
			}
		default:
			if r.AvgStretch < 1 {
				t.Errorf("%s: stretch %.3f below 1", r.Engine, r.AvgStretch)
			}
		}
	}
	if s := RenderAccuracy(ds[0].Name, rows); !strings.Contains(s, "stretch") {
		t.Fatalf("bad render:\n%s", s)
	}
}

func TestScaling(t *testing.T) {
	cfg := quickCfg()
	cfg.Samples = 30
	rows, err := Scaling(gen.ProfileDBLP, []int{600, 2400}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.OracleTime <= 0 || r.TableOnlyTime <= 0 || r.BiBFSTime <= 0 {
			t.Errorf("times missing: %+v", r)
		}
		if r.Exact != 1 {
			t.Errorf("n=%d: %.4f of PolicyFull pairs answered exactly, want all", r.Nodes, r.Exact)
		}
	}
	if s := RenderScaling("DBLP", rows); !strings.Contains(s, "speedup") {
		t.Fatalf("bad render:\n%s", s)
	}
}

func TestWeighted(t *testing.T) {
	cfg := quickCfg()
	cfg.Samples = 30
	ds := quickDatasets(t, cfg)
	row, err := Weighted(ds[0], 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if row.Violations != 0 {
		t.Fatalf("weighted oracle returned %d answers below true distance", row.Violations)
	}
	if row.Resolved <= 0 {
		t.Fatal("nothing resolved")
	}
	if row.AvgStretch < 1 {
		t.Fatalf("stretch %v below 1", row.AvgStretch)
	}
	if row.ExactFraction < 0.9 {
		t.Errorf("weighted exactness %.3f suspiciously low", row.ExactFraction)
	}
	if s := RenderWeighted([]WeightedRow{row}); !strings.Contains(s, "violations") {
		t.Fatalf("bad render:\n%s", s)
	}
}

func TestTSVString(t *testing.T) {
	s := tsvString([][]string{{"a", "b"}, {"1", "2"}})
	if s != "a\tb\n1\t2\n" {
		t.Fatalf("tsv = %q", s)
	}
}
