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

	AvgLookups   float64
	WorstLookups int
	OracleTime   time.Duration // average per resolved query
	Resolved     float64       // fraction of pairs resolved by the tables

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
	var pairs [][2]uint32
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			pairs = append(pairs, [2]uint32{nodes[i], nodes[j]})
		}
	}
	ctx := context.Background()
	var lookupSum int64
	resolved := 0
	start := time.Now()
	for _, p := range pairs {
		res, err := o.Query(ctx, core.Request{S: p[0], T: p[1]})
		if err != nil {
			return row, err
		}
		lookupSum += int64(res.Cost.Lookups)
		if res.Cost.Lookups > row.WorstLookups {
			row.WorstLookups = res.Cost.Lookups
		}
		if res.Method.Resolved() {
			resolved++
		}
	}
	elapsed := time.Since(start)
	if len(pairs) > 0 {
		row.AvgLookups = float64(lookupSum) / float64(len(pairs))
		row.OracleTime = elapsed / time.Duration(len(pairs))
		row.Resolved = float64(resolved) / float64(len(pairs))
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
		"ours", "resolved", "bfs", "bibfs", "speedup", "paper-speedup",
	}}
	for _, r := range rows {
		out = append(out, []string{
			r.Dataset,
			fmt.Sprint(r.Nodes),
			fmt.Sprint(r.Edges),
			fmt.Sprintf("%.1f", r.AvgLookups),
			fmt.Sprint(r.WorstLookups),
			fmt.Sprint(r.OracleTime),
			fmt.Sprintf("%.4f", r.Resolved),
			fmt.Sprint(r.BFSTime),
			fmt.Sprint(r.BiBFSTime),
			fmt.Sprintf("%.0f×", r.Speedup),
			fmt.Sprintf("%.0f×", r.PaperSpeedup),
		})
	}
	return tableString("Table 3 — query time vs BFS and bidirectional BFS (α=4)", out)
}
