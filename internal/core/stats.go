package core

import (
	"fmt"
	"math"
)

// BuildStats summarizes the offline data structure, the quantities
// Figure 2 and §3.2 report.
type BuildStats struct {
	Nodes     int
	Edges     int
	Alpha     float64
	Landmarks int
	Covered   int // nodes with a constructed vicinity

	TargetVicinity float64 // α·√n, the paper's expected |Γ|
	AvgVicinity    float64
	MaxVicinity    int
	AvgBoundary    float64
	MaxBoundary    int
	AvgRadius      float64 // average d(u, l(u)) over covered nodes
	MaxRadius      uint32
}

// Stats computes BuildStats by scanning the oracle.
func (o *Oracle) Stats() BuildStats {
	n := o.g.NumNodes()
	s := BuildStats{
		Nodes:          n,
		Edges:          o.g.NumEdges(),
		Alpha:          o.opts.Alpha,
		Landmarks:      len(o.landmarks),
		Covered:        o.covered,
		TargetVicinity: o.opts.Alpha * sqrtF(n),
	}
	var sumVic, sumBound, sumRad, radCount int64
	for u := 0; u < n; u++ {
		t, ok := o.vicinity(uint32(u))
		if !ok {
			continue
		}
		sz := t.Len()
		sumVic += int64(sz)
		if sz > s.MaxVicinity {
			s.MaxVicinity = sz
		}
		bs := o.BoundarySize(uint32(u))
		sumBound += int64(bs)
		if bs > s.MaxBoundary {
			s.MaxBoundary = bs
		}
		if r := o.radius[u]; r != NoDist {
			sumRad += int64(r)
			radCount++
			if r > s.MaxRadius {
				s.MaxRadius = r
			}
		}
	}
	if s.Covered > 0 {
		s.AvgVicinity = float64(sumVic) / float64(s.Covered)
		s.AvgBoundary = float64(sumBound) / float64(s.Covered)
	}
	if radCount > 0 {
		s.AvgRadius = float64(sumRad) / float64(radCount)
	}
	return s
}

// String renders the stats in one line.
func (s BuildStats) String() string {
	return fmt.Sprintf(
		"n=%d m=%d α=%g |L|=%d covered=%d |Γ| avg=%.1f max=%d (target %.1f), |∂Γ| avg=%.1f max=%d, radius avg=%.2f max=%d",
		s.Nodes, s.Edges, s.Alpha, s.Landmarks, s.Covered,
		s.AvgVicinity, s.MaxVicinity, s.TargetVicinity,
		s.AvgBoundary, s.MaxBoundary, s.AvgRadius, s.MaxRadius)
}

// MemoryStats reports the space accounting behind §3.2's memory claims.
// The byte counts cover every stored array: a vicinity's coded table —
// its header, run and block records and packed gaps, the slack bits of
// each block's last data word included — and, on weighted graphs, one
// distance per entry, plus every landmark row in its form: its codes
// and exceptions, or its wide array. There is no index beside the
// tables.
type MemoryStats struct {
	VicinityEntries     int64 // Σ_u |Γ(u)|
	VicinityBytes       int64
	LandmarkEntries     int64 // |L_built| · n
	LandmarkBytes       int64
	TwoBitLandmarkRows  int   // coded rows at 2 bits per node
	FourBitLandmarkRows int   // coded rows at 4 bits per node
	WideLandmarkRows    int   // rows stored at 32 bits per node
	LandmarkExceptions  int64 // (node, distance) pairs beside the coded rows
	TotalEntries        int64
	TotalBytes          int64

	// APSPEntries is n², the all-pairs table the paper compares against;
	// SavingsFactor = APSPEntries / TotalEntries ("at least 550× less
	// memory" for LiveJournal in §3.2).
	APSPEntries   float64
	SavingsFactor float64

	// Projected* extrapolate a scoped build (Options.Nodes) to full
	// coverage: avg vicinity entries × n + |L| · n. For full builds the
	// projections equal the measured values.
	ProjectedEntries float64
	ProjectedSavings float64
}

// Memory computes MemoryStats by scanning the oracle.
func (o *Oracle) Memory() MemoryStats {
	n := o.g.NumNodes()
	var ms MemoryStats
	var covered int64
	for u := 0; u < n; u++ {
		t, ok := o.vicinity(uint32(u))
		if !ok {
			continue
		}
		ms.VicinityEntries += int64(t.Len())
		ms.VicinityBytes += int64(t.Bytes())
		covered++
	}
	for _, row := range o.lrows {
		ms.LandmarkEntries += int64(n)
		ms.LandmarkBytes += int64(row.bytes())
		ms.LandmarkExceptions += int64(len(row.xnode))
		switch row.k {
		case 2:
			ms.TwoBitLandmarkRows++
		case 4:
			ms.FourBitLandmarkRows++
		default:
			ms.WideLandmarkRows++
		}
	}
	ms.TotalEntries = ms.VicinityEntries + ms.LandmarkEntries
	ms.TotalBytes = ms.VicinityBytes + ms.LandmarkBytes
	ms.APSPEntries = float64(n) * float64(n)
	if ms.TotalEntries > 0 {
		ms.SavingsFactor = ms.APSPEntries / float64(ms.TotalEntries)
	}
	avgVic := 0.0
	if covered > 0 {
		avgVic = float64(ms.VicinityEntries) / float64(covered)
	}
	ms.ProjectedEntries = avgVic*float64(n) + float64(len(o.landmarks))*float64(n)
	if ms.ProjectedEntries > 0 {
		ms.ProjectedSavings = ms.APSPEntries / ms.ProjectedEntries
	}
	return ms
}

// ByteSplit renders the stored bytes and their split in one line (MB
// are 10^6 bytes), with the number of landmark rows in each form and
// their exceptions, for logs.
func (ms MemoryStats) ByteSplit() string {
	return fmt.Sprintf("%.1f MB: vicinities %.1f MB, landmark rows %.1f MB (%d at 2 bits, %d at 4, %d at 32; %d exceptions)",
		float64(ms.TotalBytes)/1e6, float64(ms.VicinityBytes)/1e6, float64(ms.LandmarkBytes)/1e6,
		ms.TwoBitLandmarkRows, ms.FourBitLandmarkRows, ms.WideLandmarkRows, ms.LandmarkExceptions)
}

// String renders the memory stats in one line.
func (ms MemoryStats) String() string {
	return fmt.Sprintf(
		"entries: vicinity=%d landmark=%d total=%d (%.1f MB); APSP=%.3g; savings=%.0f× (projected %.0f×)",
		ms.VicinityEntries, ms.LandmarkEntries, ms.TotalEntries,
		float64(ms.TotalBytes)/(1<<20), ms.APSPEntries, ms.SavingsFactor, ms.ProjectedSavings)
}

func sqrtF(n int) float64 {
	if n <= 0 {
		return 0
	}
	return math.Sqrt(float64(n))
}
