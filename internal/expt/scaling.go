package expt

import (
	"context"
	"fmt"
	"time"

	"vicinity/internal/baseline"
	"vicinity/internal/core"
	"vicinity/internal/gen"
)

// ScalingRow is experiment S1: the paper's §3.2/§5 claim that the
// technique's relative performance improves with network size.
type ScalingRow struct {
	Nodes      int
	Edges      int
	OracleTime time.Duration
	BiBFSTime  time.Duration
	Speedup    float64
	Resolved   float64
}

// Scaling runs S1: one profile generated at increasing sizes, measuring
// the oracle-vs-BiBFS speedup at each size.
func Scaling(p gen.Profile, sizes []int, cfg Config) ([]ScalingRow, error) {
	var rows []ScalingRow
	for i, n := range sizes {
		g := p.Generate(n, cfg.Seed+uint64(i)*31)
		d := Dataset{Name: fmt.Sprintf("%s-%d", p.Name, n), Profile: p, Graph: g}
		nodes := sampleNodes(g, cfg.Samples, cfg.Seed)
		o, err := core.Build(g, core.Options{
			Alpha:    cfg.Alpha,
			Seed:     cfg.Seed,
			Workers:  cfg.Workers,
			Nodes:    nodes,
			Fallback: core.FallbackNone,
		})
		if err != nil {
			return nil, fmt.Errorf("scaling %s: %w", d.Name, err)
		}
		var pairs [][2]uint32
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				pairs = append(pairs, [2]uint32{nodes[i], nodes[j]})
			}
		}
		row := ScalingRow{Nodes: g.NumNodes(), Edges: g.NumEdges()}
		ctx := context.Background()
		resolved := 0
		start := time.Now()
		for _, pr := range pairs {
			res, err := o.Query(ctx, core.Request{S: pr[0], T: pr[1]})
			if err != nil {
				return nil, err
			}
			if res.Method.Resolved() {
				resolved++
			}
		}
		if len(pairs) > 0 {
			row.OracleTime = time.Since(start) / time.Duration(len(pairs))
			row.Resolved = float64(resolved) / float64(len(pairs))
		}
		row.BiBFSTime = timeEngine(baseline.NewBiBFS(g), pairs, 500)
		if row.OracleTime > 0 {
			row.Speedup = float64(row.BiBFSTime) / float64(row.OracleTime)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderScaling renders S1.
func RenderScaling(profile string, rows []ScalingRow) string {
	out := [][]string{{"n", "m", "ours", "bibfs", "speedup", "resolved"}}
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprint(r.Nodes),
			fmt.Sprint(r.Edges),
			fmt.Sprint(r.OracleTime),
			fmt.Sprint(r.BiBFSTime),
			fmt.Sprintf("%.0f×", r.Speedup),
			fmt.Sprintf("%.4f", r.Resolved),
		})
	}
	return tableString(
		fmt.Sprintf("S1 — speedup vs network size (%s profile); the paper's scaling claim", profile), out)
}
