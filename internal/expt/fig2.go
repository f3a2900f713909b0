package expt

import (
	"context"
	"fmt"

	"vicinity/internal/core"
	"vicinity/internal/stats"
)

// IntersectionPoint is one point of Figure 2(left): the fraction of
// sampled source-destination pairs whose vicinities intersect (i.e. the
// query is resolved by the stored tables, Algorithm 1 lines 3-8) at a
// given α.
type IntersectionPoint struct {
	Dataset     string
	Alpha       float64
	Fraction    float64
	Pairs       int
	Landmarks   int
	AvgVicinity float64
}

// buildScoped builds a vicinity oracle over sampled nodes only, the
// paper's §2.3 methodology. Landmark tables are kept for Table 3 runs
// (withTables) and skipped for the Figure 2 property sweeps.
func buildScoped(d Dataset, alpha float64, cfg Config, seed uint64, withTables bool) (*core.Oracle, []uint32, error) {
	nodes := sampleNodes(d.Graph, cfg.Samples, seed)
	o, err := core.Build(d.Graph, core.Options{
		Alpha:                 alpha,
		Seed:                  seed,
		Workers:               cfg.Workers,
		Nodes:                 nodes,
		DisableLandmarkTables: !withTables,
	})
	return o, nodes, err
}

// IntersectionSweep computes Figure 2(left) for one dataset: for each α,
// the fraction of sampled pairs whose vicinities intersect (conditions
// t ∈ Γ(s), s ∈ Γ(t), or a boundary-scan hit), averaged over cfg.Reps
// repetitions with fresh samples and landmark draws.
//
// Pairs with a landmark endpoint are excluded from the denominator:
// landmarks have empty vicinities by Definition 1 (they answer from
// their global table instead), and at scaled-down n the landmark
// fraction |L|/n is large enough to distort the figure. The paper's
// datasets have |L|/n ≈ 0.2%, where the distinction is invisible.
func IntersectionSweep(d Dataset, cfg Config) ([]IntersectionPoint, error) {
	var out []IntersectionPoint
	for _, alpha := range cfg.Alphas {
		var fracSum, vicSum float64
		var pairs, landmarks int
		for rep := 0; rep < cfg.Reps; rep++ {
			seed := cfg.Seed + uint64(rep)*1000003 + uint64(alpha*1024)
			o, nodes, err := buildScoped(d, alpha, cfg, seed, false)
			if err != nil {
				return nil, fmt.Errorf("intersection sweep %s α=%g: %w", d.Name, alpha, err)
			}
			resolved, total := 0, 0
			for i := 0; i < len(nodes); i++ {
				if o.IsLandmark(nodes[i]) {
					continue
				}
				for j := i + 1; j < len(nodes); j++ {
					if o.IsLandmark(nodes[j]) {
						continue
					}
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
			if total > 0 {
				fracSum += float64(resolved) / float64(total)
			}
			pairs = total
			bs := o.Stats()
			vicSum += bs.AvgVicinity
			landmarks = bs.Landmarks
		}
		out = append(out, IntersectionPoint{
			Dataset:     d.Name,
			Alpha:       alpha,
			Fraction:    fracSum / float64(cfg.Reps),
			Pairs:       pairs,
			Landmarks:   landmarks,
			AvgVicinity: vicSum / float64(cfg.Reps),
		})
	}
	return out, nil
}

// RenderIntersection renders Figure 2(left) as a text table, one row per
// α and one column per dataset.
func RenderIntersection(series map[string][]IntersectionPoint, order []string) string {
	header := []string{"alpha"}
	header = append(header, order...)
	rows := [][]string{header}
	if len(order) == 0 {
		return tableString("Figure 2(left) — fraction of vicinity intersections vs α", rows)
	}
	for i := range series[order[0]] {
		row := []string{fmt.Sprintf("%.4g", series[order[0]][i].Alpha)}
		for _, name := range order {
			row = append(row, fmt.Sprintf("%.4f", series[name][i].Fraction))
		}
		rows = append(rows, row)
	}
	return tableString("Figure 2(left) — fraction of vicinity intersections vs α", rows)
}

// BoundaryPoint is one CDF point of Figure 2(center): boundary size as a
// fraction of n, over sampled nodes, at α = cfg.Alpha.
type BoundaryPoint = stats.CDFPoint

// BoundaryCDF computes Figure 2(center) for one dataset.
func BoundaryCDF(d Dataset, cfg Config) ([]BoundaryPoint, error) {
	o, nodes, err := buildScoped(d, cfg.Alpha, cfg, cfg.Seed, false)
	if err != nil {
		return nil, fmt.Errorf("boundary cdf %s: %w", d.Name, err)
	}
	n := float64(d.Graph.NumNodes())
	var fracs []float64
	for _, u := range nodes {
		if o.IsLandmark(u) {
			continue
		}
		fracs = append(fracs, float64(paperBoundarySize(o, u))/n)
	}
	return stats.CDF(fracs), nil
}

// paperBoundarySize counts ∂Γ(u) as the paper defines it: the members
// of Γ(u) with a neighbor outside Γ(u). On unweighted graphs the oracle
// scans a superset, all of the last BFS level (see
// core.Oracle.BoundarySize), so the figure counts the members itself.
func paperBoundarySize(o *core.Oracle, u uint32) int {
	g := o.Graph()
	count := 0
	o.ForEachVicinityMember(u, func(v, _ uint32) {
		for _, w := range g.Neighbors(v) {
			if _, in := o.VicinityContains(u, w); !in {
				count++
				return
			}
		}
	})
	return count
}

// RenderBoundaryCDF renders Figure 2(center) at fixed quantiles.
func RenderBoundaryCDF(series map[string][]BoundaryPoint, order []string) string {
	quantiles := []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0}
	header := []string{"cdf-quantile"}
	header = append(header, order...)
	rows := [][]string{header}
	for _, q := range quantiles {
		row := []string{fmt.Sprintf("p%02.0f", q*100)}
		for _, name := range order {
			row = append(row, fmt.Sprintf("%.5f%%", 100*quantileX(series[name], q)))
		}
		rows = append(rows, row)
	}
	return tableString("Figure 2(center) — boundary size CDF (as % of n), α=4", rows)
}

// quantileX returns the smallest X whose CDF fraction reaches q.
func quantileX(pts []stats.CDFPoint, q float64) float64 {
	for _, p := range pts {
		if p.Fraction >= q {
			return p.X
		}
	}
	if len(pts) == 0 {
		return 0
	}
	return pts[len(pts)-1].X
}

// RadiusPoint is one point of Figure 2(right): average vicinity radius
// d(u, l(u)) over sampled nodes at a given α.
type RadiusPoint struct {
	Dataset   string
	Alpha     float64
	AvgRadius float64
	MaxRadius uint32
}

// RadiusSweep computes Figure 2(right) for one dataset.
func RadiusSweep(d Dataset, cfg Config) ([]RadiusPoint, error) {
	var out []RadiusPoint
	for _, alpha := range cfg.Alphas {
		var radSum float64
		var radCount int
		var maxR uint32
		for rep := 0; rep < cfg.Reps; rep++ {
			seed := cfg.Seed + uint64(rep)*7919 + uint64(alpha*2048)
			o, nodes, err := buildScoped(d, alpha, cfg, seed, false)
			if err != nil {
				return nil, fmt.Errorf("radius sweep %s α=%g: %w", d.Name, alpha, err)
			}
			for _, u := range nodes {
				if o.IsLandmark(u) {
					continue
				}
				if r := o.Radius(u); r != core.NoDist {
					radSum += float64(r)
					radCount++
					if r > maxR {
						maxR = r
					}
				}
			}
		}
		p := RadiusPoint{Dataset: d.Name, Alpha: alpha, MaxRadius: maxR}
		if radCount > 0 {
			p.AvgRadius = radSum / float64(radCount)
		}
		out = append(out, p)
	}
	return out, nil
}

// RenderRadius renders Figure 2(right) as a text table.
func RenderRadius(series map[string][]RadiusPoint, order []string) string {
	header := []string{"alpha"}
	header = append(header, order...)
	rows := [][]string{header}
	if len(order) == 0 {
		return tableString("Figure 2(right) — average vicinity radius vs α", rows)
	}
	for i := range series[order[0]] {
		row := []string{fmt.Sprintf("%.4g", series[order[0]][i].Alpha)}
		for _, name := range order {
			row = append(row, fmt.Sprintf("%.2f", series[name][i].AvgRadius))
		}
		rows = append(rows, row)
	}
	return tableString("Figure 2(right) — average vicinity radius vs α", rows)
}
