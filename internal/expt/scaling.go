package expt

import (
	"fmt"
	"time"

	"vicinity/internal/baseline"
	"vicinity/internal/core"
	"vicinity/internal/gen"
)

// ScalingRow is experiment S1: the paper's §3.2/§5 claim that the
// technique's relative performance improves with network size.
type ScalingRow struct {
	Nodes         int
	Edges         int
	OracleTime    time.Duration // average per query under PolicyFull: every pair answered exactly
	TableOnlyTime time.Duration // average per query under PolicyTableOnly: misses get no answer
	BiBFSTime     time.Duration
	Speedup       float64 // BiBFSTime / OracleTime
	Resolved      float64
	Exact         float64 // fraction of pairs answered exactly under PolicyFull
}

// Scaling runs S1: one profile generated at increasing sizes, measuring
// the oracle-vs-BiBFS speedup at each size. The oracle's time answers
// every pair exactly (PolicyFull); the table-only time is reported
// beside it.
func Scaling(p gen.Profile, sizes []int, cfg Config) ([]ScalingRow, error) {
	var rows []ScalingRow
	for i, n := range sizes {
		g := p.Generate(n, cfg.Seed+uint64(i)*31)
		d := Dataset{Name: fmt.Sprintf("%s-%d", p.Name, n), Profile: p, Graph: g}
		nodes := sampleNodes(g, cfg.Samples, cfg.Seed)
		o, err := core.Build(g, core.Options{
			Alpha:   cfg.Alpha,
			Seed:    cfg.Seed,
			Workers: cfg.Workers,
			Nodes:   nodes,
		})
		if err != nil {
			return nil, fmt.Errorf("scaling %s: %w", d.Name, err)
		}
		pairs := allPairs(nodes)
		row := ScalingRow{Nodes: g.NumNodes(), Edges: g.NumEdges()}
		full, err := runPairs(o, pairs, core.PolicyFull)
		if err != nil {
			return nil, err
		}
		tables, err := runPairs(o, pairs, core.PolicyTableOnly)
		if err != nil {
			return nil, err
		}
		if len(pairs) > 0 {
			row.OracleTime, row.TableOnlyTime = full.avg, tables.avg
			row.Resolved = float64(full.resolved) / float64(len(pairs))
			row.Exact = float64(full.exact) / float64(len(pairs))
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
	out := [][]string{{"n", "m", "ours", "table-only", "bibfs", "speedup", "resolved"}}
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprint(r.Nodes),
			fmt.Sprint(r.Edges),
			fmt.Sprint(r.OracleTime),
			fmt.Sprint(r.TableOnlyTime),
			fmt.Sprint(r.BiBFSTime),
			fmt.Sprintf("%.0f×", r.Speedup),
			fmt.Sprintf("%.4f", r.Resolved),
		})
	}
	return tableString(
		fmt.Sprintf("S1 — speedup vs network size (%s profile); the paper's scaling claim", profile), out)
}
