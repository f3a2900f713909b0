package expt

import (
	"context"
	"fmt"
	"time"

	"vicinity/internal/baseline"
	"vicinity/internal/core"
)

// Table3Row is one dataset row of Table 3: our technique's lookup counts
// and query time versus BFS and bidirectional BFS, at α = cfg.Alpha.
type Table3Row struct {
	Dataset string
	Nodes   int
	Edges   int

	AvgLookups    float64
	WorstLookups  int
	OracleTime    time.Duration // average per query under PolicyFull: every pair answered exactly
	TableOnlyTime time.Duration // average per query under PolicyTableOnly: pairs the tables miss get no answer
	Resolved      float64       // fraction of pairs resolved by the tables
	Exact         float64       // fraction of pairs answered exactly under PolicyFull

	BFSTime   time.Duration // average per query
	BiBFSTime time.Duration // average per query
	Speedup   float64       // BiBFSTime / OracleTime

	PaperSpeedup float64 // the paper's reported speedup for this dataset
}

// paperSpeedups are Table 3's reported "speed-up compared to
// bidirectional BFS" per dataset.
var paperSpeedups = map[string]float64{
	"DBLP":        198,
	"Flickr":      368,
	"Orkut":       2588,
	"LiveJournal": 431,
}

// Table3 runs experiment T3 for one dataset: a scoped oracle over
// cfg.Samples nodes, all-pairs queries with lookup accounting, against
// timed BFS and bidirectional BFS on subsampled pairs (unidirectional
// BFS is orders of magnitude slower, so it gets the smallest subsample —
// the paper does the same in spirit by reporting one average).
func Table3(d Dataset, cfg Config) (Table3Row, error) {
	row := Table3Row{
		Dataset:      d.Name,
		Nodes:        d.Graph.NumNodes(),
		Edges:        d.Graph.NumEdges(),
		PaperSpeedup: paperSpeedups[d.Name],
	}
	o, nodes, err := buildScoped(d, cfg.Alpha, cfg, cfg.Seed, true)
	if err != nil {
		return row, fmt.Errorf("table3 %s: %w", d.Name, err)
	}

	// Our technique: all sampled pairs, lookup accounting, wall-clock.
	// "ours" answers every pair exactly, the misses by the fallback
	// search; the table-only time beside it shows what the tables alone
	// cost, which averages in pairs that got no answer.
	pairs := allPairs(nodes)
	full, err := runPairs(o, pairs, core.PolicyFull)
	if err != nil {
		return row, err
	}
	tables, err := runPairs(o, pairs, core.PolicyTableOnly)
	if err != nil {
		return row, err
	}
	if len(pairs) > 0 {
		row.AvgLookups = float64(full.lookups) / float64(len(pairs))
		row.WorstLookups = full.worst
		row.OracleTime, row.TableOnlyTime = full.avg, tables.avg
		row.Resolved = float64(full.resolved) / float64(len(pairs))
		row.Exact = float64(full.exact) / float64(len(pairs))
	}

	// Baselines on subsampled pairs.
	bfs := baseline.NewBFS(d.Graph)
	bibfs := baseline.NewBiBFS(d.Graph)
	row.BFSTime = timeEngine(bfs, pairs, 30)
	row.BiBFSTime = timeEngine(bibfs, pairs, 300)
	if row.OracleTime > 0 {
		row.Speedup = float64(row.BiBFSTime) / float64(row.OracleTime)
	}
	return row, nil
}

// allPairs lists every unordered pair of distinct nodes.
func allPairs(nodes []uint32) [][2]uint32 {
	var pairs [][2]uint32
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			pairs = append(pairs, [2]uint32{nodes[i], nodes[j]})
		}
	}
	return pairs
}

// pairRun is the outcome of answering a pair list under one policy.
type pairRun struct {
	avg             time.Duration // wall-clock per query
	lookups         int64         // summed Cost.Lookups
	worst           int           // largest Cost.Lookups
	resolved, exact int           // pairs with Method.Resolved and Method.Exact
}

// runPairs answers every pair under policy p, timing the whole pass.
func runPairs(o *core.Oracle, pairs [][2]uint32, p core.Policy) (pairRun, error) {
	var run pairRun
	ctx := context.Background()
	start := time.Now()
	for _, pr := range pairs {
		res, err := o.Query(ctx, core.Request{S: pr[0], T: pr[1], Policy: p})
		if err != nil {
			return run, err
		}
		run.lookups += int64(res.Cost.Lookups)
		run.worst = max(run.worst, res.Cost.Lookups)
		if res.Method.Resolved() {
			run.resolved++
		}
		if res.Method.Exact() {
			run.exact++
		}
	}
	if len(pairs) > 0 {
		run.avg = time.Since(start) / time.Duration(len(pairs))
	}
	return run, nil
}

// timeEngine measures the average per-query time of eng over at most
// maxPairs of the given pairs (strided to avoid sampling bias).
func timeEngine(eng baseline.Querier, pairs [][2]uint32, maxPairs int) time.Duration {
	if len(pairs) == 0 {
		return 0
	}
	stride := 1
	if len(pairs) > maxPairs {
		stride = len(pairs) / maxPairs
	}
	count := 0
	start := time.Now()
	for i := 0; i < len(pairs); i += stride {
		eng.Distance(pairs[i][0], pairs[i][1])
		count++
	}
	return time.Since(start) / time.Duration(count)
}

// RenderTable3 renders T3 as an aligned text table.
func RenderTable3(rows []Table3Row) string {
	out := [][]string{{
		"dataset", "n", "m", "lookups-avg", "lookups-worst",
		"ours", "table-only", "resolved", "bfs", "bibfs", "speedup", "paper-speedup",
	}}
	for _, r := range rows {
		out = append(out, []string{
			r.Dataset,
			fmt.Sprint(r.Nodes),
			fmt.Sprint(r.Edges),
			fmt.Sprintf("%.1f", r.AvgLookups),
			fmt.Sprint(r.WorstLookups),
			fmt.Sprint(r.OracleTime),
			fmt.Sprint(r.TableOnlyTime),
			fmt.Sprintf("%.4f", r.Resolved),
			fmt.Sprint(r.BFSTime),
			fmt.Sprint(r.BiBFSTime),
			fmt.Sprintf("%.0f×", r.Speedup),
			fmt.Sprintf("%.0f×", r.PaperSpeedup),
		})
	}
	return tableString("Table 3 — query time vs BFS and bidirectional BFS (α=4)", out)
}
