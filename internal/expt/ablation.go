package expt

import (
	"context"
	"fmt"
	"time"

	"vicinity/internal/core"
)

// AblationBoundaryRow is experiment A1: Algorithm 1's boundary-scan
// optimization versus scanning the full vicinity, on the same pairs.
type AblationBoundaryRow struct {
	Dataset string

	BoundaryLookups float64 // avg lookups with ∂Γ scanning (Algorithm 1)
	FullLookups     float64 // avg lookups scanning all of Γ(s)
	BoundaryTime    time.Duration
	FullTime        time.Duration
	AgreeFraction   float64 // sanity: answers must agree (Lemma 1)
}

// AblationBoundary runs A1 for one dataset.
func AblationBoundary(d Dataset, cfg Config) (AblationBoundaryRow, error) {
	row := AblationBoundaryRow{Dataset: d.Name}
	o, nodes, err := buildScoped(d, cfg.Alpha, cfg, cfg.Seed, false)
	if err != nil {
		return row, fmt.Errorf("ablation boundary %s: %w", d.Name, err)
	}
	var pairs [][2]uint32
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			pairs = append(pairs, [2]uint32{nodes[i], nodes[j]})
		}
	}
	if len(pairs) == 0 {
		return row, nil
	}

	// Boundary scanning: the oracle's native query.
	ctx := context.Background()
	var boundaryLookups int64
	agreeDist := make([]uint32, len(pairs))
	start := time.Now()
	for i, p := range pairs {
		res, err := o.Query(ctx, core.Request{S: p[0], T: p[1], Policy: core.PolicyTableOnly})
		if err != nil {
			return row, err
		}
		boundaryLookups += int64(res.Cost.Lookups)
		agreeDist[i] = res.Dist
	}
	row.BoundaryTime = time.Since(start) / time.Duration(len(pairs))
	row.BoundaryLookups = float64(boundaryLookups) / float64(len(pairs))

	// Full-vicinity scanning, via the oracle's read interface.
	var fullLookups int64
	agree := 0
	start = time.Now()
	for i, p := range pairs {
		dist, lookups := fullScanDistance(o, p[0], p[1])
		fullLookups += int64(lookups)
		if dist == agreeDist[i] {
			agree++
		}
	}
	row.FullTime = time.Since(start) / time.Duration(len(pairs))
	row.FullLookups = float64(fullLookups) / float64(len(pairs))
	row.AgreeFraction = float64(agree) / float64(len(pairs))
	return row, nil
}

// fullScanDistance reimplements Algorithm 1 with the unoptimized line 5:
// iterating every member of Γ(s) instead of only ∂Γ(s).
func fullScanDistance(o *core.Oracle, s, t uint32) (uint32, int) {
	lookups := 0
	if s == t {
		return 0, 0
	}
	lookups++
	if d, ok := o.VicinityContains(s, t); ok {
		return d, lookups
	}
	lookups++
	if d, ok := o.VicinityContains(t, s); ok {
		return d, lookups
	}
	best := core.NoDist
	o.ForEachVicinityMember(s, func(w, ds uint32) {
		lookups++
		if dt, ok := o.VicinityContains(t, w); ok {
			if cand := ds + dt; cand < best {
				best = cand
			}
		}
	})
	return best, lookups
}

// RenderAblationBoundary renders A1.
func RenderAblationBoundary(rows []AblationBoundaryRow) string {
	out := [][]string{{
		"dataset", "∂Γ-lookups", "Γ-lookups", "∂Γ-time", "Γ-time", "agree",
	}}
	for _, r := range rows {
		out = append(out, []string{
			r.Dataset,
			fmt.Sprintf("%.1f", r.BoundaryLookups),
			fmt.Sprintf("%.1f", r.FullLookups),
			fmt.Sprint(r.BoundaryTime),
			fmt.Sprint(r.FullTime),
			fmt.Sprintf("%.4f", r.AgreeFraction),
		})
	}
	return tableString("Ablation A1 — boundary scan (Algorithm 1) vs full vicinity scan", out)
}

// AblationSamplingRow is experiment A2: landmark sampling strategies at
// fixed α.
type AblationSamplingRow struct {
	Dataset     string
	Strategy    string
	Landmarks   int
	AvgVicinity float64
	MaxVicinity int
	Resolved    float64
}

// AblationSampling runs A2 for one dataset across all strategies.
func AblationSampling(d Dataset, cfg Config) ([]AblationSamplingRow, error) {
	var rows []AblationSamplingRow
	for _, strat := range []core.Sampling{
		core.SamplingPaper, core.SamplingUniform, core.SamplingDegree, core.SamplingTop,
	} {
		nodes := sampleNodes(d.Graph, cfg.Samples, cfg.Seed)
		o, err := core.Build(d.Graph, core.Options{
			Alpha:                 cfg.Alpha,
			Seed:                  cfg.Seed,
			Workers:               cfg.Workers,
			Sampling:              strat,
			Nodes:                 nodes,
			DisableLandmarkTables: true,
		})
		if err != nil {
			return nil, fmt.Errorf("ablation sampling %s/%v: %w", d.Name, strat, err)
		}
		resolved, total := 0, 0
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				res, err := o.Query(context.Background(), core.Request{S: nodes[i], T: nodes[j], Policy: core.PolicyTableOnly})
				if err != nil {
					return nil, err
				}
				total++
				if res.Method.Resolved() {
					resolved++
				}
			}
		}
		bs := o.Stats()
		row := AblationSamplingRow{
			Dataset:     d.Name,
			Strategy:    strat.String(),
			Landmarks:   bs.Landmarks,
			AvgVicinity: bs.AvgVicinity,
			MaxVicinity: bs.MaxVicinity,
		}
		if total > 0 {
			row.Resolved = float64(resolved) / float64(total)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderAblationSampling renders A2.
func RenderAblationSampling(rows []AblationSamplingRow) string {
	out := [][]string{{
		"dataset", "strategy", "|L|", "avg|Γ|", "max|Γ|", "resolved",
	}}
	for _, r := range rows {
		out = append(out, []string{
			r.Dataset, r.Strategy,
			fmt.Sprint(r.Landmarks),
			fmt.Sprintf("%.1f", r.AvgVicinity),
			fmt.Sprint(r.MaxVicinity),
			fmt.Sprintf("%.4f", r.Resolved),
		})
	}
	return tableString("Ablation A2 — landmark sampling strategies (α=4)", out)
}
