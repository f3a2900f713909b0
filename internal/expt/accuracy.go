package expt

import (
	"context"
	"fmt"
	"time"

	"vicinity/internal/approx"
	"vicinity/internal/baseline"
	"vicinity/internal/core"
	"vicinity/internal/tz"
)

// AccuracyRow is experiment R1: accuracy versus latency for the exact
// vicinity oracle and the §4 approximate baselines.
type AccuracyRow struct {
	Engine        string
	AvgTime       time.Duration
	ExactFraction float64 // answers equal to the true distance
	AvgStretch    float64 // mean estimate/true over answered finite pairs
	AvgAbsError   float64 // mean |estimate - true| in hops
	Answered      float64 // fraction of pairs with a finite answer
}

// Accuracy runs R1 on one dataset: the vicinity oracle (with exact
// fallback), landmark triangulation, a Das-Sarma sketch, and a
// Thorup–Zwick k=2 oracle, all against BiBFS ground truth.
func Accuracy(d Dataset, cfg Config) ([]AccuracyRow, error) {
	g := d.Graph
	nodes := sampleNodes(g, cfg.Samples, cfg.Seed)
	var pairs [][2]uint32
	for i := 0; i < len(nodes) && len(pairs) < 4000; i++ {
		for j := i + 1; j < len(nodes) && len(pairs) < 4000; j++ {
			pairs = append(pairs, [2]uint32{nodes[i], nodes[j]})
		}
	}
	truth := baseline.NewBiBFS(g)
	want := make([]uint32, len(pairs))
	for i, p := range pairs {
		want[i] = truth.Distance(p[0], p[1])
	}

	oracle, err := core.Build(g, core.Options{
		Alpha: cfg.Alpha, Seed: cfg.Seed, Workers: cfg.Workers, Nodes: nodes,
	})
	if err != nil {
		return nil, fmt.Errorf("accuracy %s: %w", d.Name, err)
	}
	lm := approx.NewLandmark(g, 16)
	sk := approx.NewSketch(g, 2, cfg.Seed)
	tzo := tz.New(g, cfg.Seed)

	engines := []struct {
		name string
		fn   func(s, t uint32) uint32
	}{
		{"vicinity-oracle", func(s, t uint32) uint32 {
			res, qerr := oracle.Query(context.Background(), core.Request{S: s, T: t})
			if qerr != nil {
				return core.NoDist
			}
			return res.Dist
		}},
		{lm.Name(), lm.Estimate},
		{sk.Name(), sk.Estimate},
		{tzo.Name(), tzo.Distance},
		{truth.Name(), truth.Distance},
	}

	var rows []AccuracyRow
	for _, e := range engines {
		row := AccuracyRow{Engine: e.name}
		var answered, exact int
		var stretchSum, absSum float64
		start := time.Now()
		for i, p := range pairs {
			got := e.fn(p[0], p[1])
			w := want[i]
			if w == core.NoDist {
				continue
			}
			if got == core.NoDist {
				continue
			}
			answered++
			if got == w {
				exact++
			}
			if w > 0 {
				stretchSum += float64(got) / float64(w)
				absSum += float64(got) - float64(w)
			} else {
				stretchSum++
			}
		}
		row.AvgTime = time.Since(start) / time.Duration(len(pairs))
		if answered > 0 {
			row.ExactFraction = float64(exact) / float64(answered)
			row.AvgStretch = stretchSum / float64(answered)
			row.AvgAbsError = absSum / float64(answered)
			row.Answered = float64(answered) / float64(len(pairs))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderAccuracy renders R1.
func RenderAccuracy(dataset string, rows []AccuracyRow) string {
	out := [][]string{{
		"engine", "avg-time", "exact", "avg-stretch", "avg-abs-err", "answered",
	}}
	for _, r := range rows {
		out = append(out, []string{
			r.Engine,
			fmt.Sprint(r.AvgTime),
			fmt.Sprintf("%.4f", r.ExactFraction),
			fmt.Sprintf("%.4f", r.AvgStretch),
			fmt.Sprintf("%.3f", r.AvgAbsError),
			fmt.Sprintf("%.4f", r.Answered),
		})
	}
	return tableString(
		fmt.Sprintf("R1 — accuracy vs latency on %s (§4 comparison)", dataset), out)
}
