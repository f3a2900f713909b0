package core

import (
	"vicinity/internal/graph"
	"vicinity/internal/kpaths"
	"vicinity/internal/syncx"
	"vicinity/internal/traverse"
	"vicinity/internal/u32map"
)

// Oracle is the built vicinity-intersection data structure. It is safe
// for concurrent queries. Mutation goes through ApplyUpdates, which
// returns a new snapshot and leaves the receiver serving; see update.go.
//
// Every stored fact costs about the bits its data needs. Vicinity
// tables live in flat arena storage: one shared word arena (see
// u32map.Arena) with no hash index, each table grouped into runs sorted
// by node id and coded in blocks of bit-packed gaps, and each node's
// boundary ∂Γ(u) stored as the last run of its table. Weighted arenas
// store one distance per entry and split a table into its interior and
// its boundary tail; unweighted ones keep each table in BFS level
// order, one run per level, which implies every member's distance.
// Landmarks keep one dense distance row each, two or four bits per node
// with a short exception list when that takes fewer bytes than four
// bytes per node (see lrow). Path hops are derived from these distances
// at query time (see path.go) rather than stored beside them. The
// layout keeps one node's table contiguous in memory, leaves the
// garbage collector a handful of large pointer-free arrays to scan, and
// serializes with array copies (see persist.go).
type Oracle struct {
	g    *graph.Graph
	opts Options

	landmarks []uint32 // sorted landmark node ids
	isL       []bool   // per node: landmark flag
	lidx      []int32  // per node: index into landmarks, or -1

	// Vicinity tables. arena holds the coded tables and the distances of
	// every vicinity; vicFlat (len n) holds node u's
	// precomputed arena view — its offsets plus the shared arena
	// pointer, so resolving a table is one indexed load. An empty view
	// means "not covered" (landmark or out of build scope) — a built
	// vicinity always contains at least u itself. Persistence derives
	// CSR offset arrays from the views (u32map.Flat.Range) rather than
	// storing them twice.
	arena   *u32map.Arena
	vicFlat []u32map.Flat

	// boundLen[u] = |∂Γ(u)|: u's boundary members are the last run of
	// its table, sorted by id — all of level r on unweighted graphs, the
	// tail run on weighted ones — or none.
	boundLen []uint32

	// Arena waste: words and distances abandoned by repaired vicinities.
	// Old snapshots may still read the holes, so updates only count them
	// and compact once they dominate (see maybeCompact).
	waste uint64

	radius  []uint32 // d(u, l(u)); NoDist when uncovered or no landmark reachable
	nearest []uint32 // l(u); graph.NoNode when unknown

	// Per-landmark full tables. lpos maps a landmark index to its
	// position p among built tables, or -1; lrows[p] is one landmark's
	// dense length-n distance row, in the form of fewest bytes (see
	// lrow). One row per landmark — rather than one |L|·n array — lets
	// dynamic updates copy-on-write only the rows a new edge improves.
	lpos  []int32
	lrows []lrow

	covered int // number of nodes with vicinity state (excl. landmarks in scope)

	// Update lineage: chain is shared by every snapshot descending from
	// one Build/load; gen identifies this snapshot within it. Updates
	// may only be applied to the newest snapshot (see update.go).
	chain *updateChain
	gen   uint64

	// timings is the stage breakdown of the Build call that produced
	// this oracle (zero for loaded or updated snapshots); diagnostic
	// only, never persisted and never part of structural equality.
	timings BuildTimings

	fbPool *syncx.Pool[traverse.Workspace] // fallback-search workspaces
	kpPool *syncx.Pool[kpaths.Engine]      // k-shortest-paths engines (see kpaths.go)
}

// newWorkspacePool returns a fallback-workspace pool sized for g.
// Replaced wholesale when updates swap the graph: pooled workspaces
// hold per-node arrays whose length must match. The sharded ring (see
// syncx) keeps the O(n) workspaces alive across GCs and keeps
// concurrent fallback queries from contending on one shared free list.
func newWorkspacePool(g *graph.Graph) *syncx.Pool[traverse.Workspace] {
	return syncx.NewPool(func() *traverse.Workspace { return traverse.NewWorkspace(g) })
}

// Graph returns the graph the oracle was built over.
func (o *Oracle) Graph() *graph.Graph { return o.g }

// Options returns the (defaulted) build options.
func (o *Oracle) Options() Options { return o.opts }

// Landmarks returns the sorted landmark set L. Callers must not modify
// the returned slice.
func (o *Oracle) Landmarks() []uint32 { return o.landmarks }

// IsLandmark reports whether u ∈ L.
func (o *Oracle) IsLandmark(u uint32) bool { return o.isL[u] }

// vicinity resolves node u's arena view; ok is false when u has no
// vicinity (landmark or out of build scope).
func (o *Oracle) vicinity(u uint32) (u32map.Flat, bool) {
	f := o.vicFlat[u]
	return f, f.Len() > 0
}

// boundary returns ∂Γ(u), the last run of u's table, sorted by id,
// with its distances on weighted graphs; on unweighted ones they are
// nil, as every member lies at radius(u). A node without a boundary
// gets an empty run.
func (o *Oracle) boundary(u uint32) (u32map.Run, []uint32) {
	if o.boundLen[u] == 0 {
		return u32map.Run{}, nil
	}
	f := o.vicFlat[u]
	return f.Run(f.Runs() - 1)
}

// Covers reports whether queries involving u can be answered from the
// stored tables (u was in build scope: it has a vicinity or is a
// landmark with a distance table).
func (o *Oracle) Covers(u uint32) bool {
	if int(u) >= len(o.radius) {
		return false
	}
	if o.isL[u] {
		return o.hasLandmarkTable(o.lidx[u]) || o.opts.DisableLandmarkTables
	}
	_, ok := o.vicinity(u)
	return ok
}

// hasLandmarkTable reports whether landmark index li has a built
// distance table.
func (o *Oracle) hasLandmarkTable(li int32) bool {
	return li >= 0 && o.lpos[li] >= 0
}

// landmarkDist reads d(landmarks[li], v) from li's row. Callers must
// check hasLandmarkTable first.
func (o *Oracle) landmarkDist(li int32, v uint32) uint32 {
	return o.lrows[o.lpos[li]].at(v)
}

// Radius returns the vicinity radius d(u, l(u)) of u: 0 for a landmark,
// and NoDist when u is uncovered or reaches no landmark.
func (o *Oracle) Radius(u uint32) uint32 {
	if o.isL[u] {
		return 0
	}
	return o.radius[u]
}

// NearestLandmark returns l(u) (u itself for landmarks), or graph.NoNode
// if unknown.
func (o *Oracle) NearestLandmark(u uint32) uint32 {
	if o.isL[u] {
		return u
	}
	return o.nearest[u]
}

// VicinitySize returns |Γ(u)| (0 for landmarks and uncovered nodes).
func (o *Oracle) VicinitySize(u uint32) int {
	return o.vicFlat[u].Len()
}

// BoundarySize returns |∂Γ(u)|, the members the boundary scan walks (0
// for landmarks and uncovered nodes). On unweighted graphs that is all
// of the last BFS level, a superset of Definition 1's members with a
// neighbor outside Γ(u) that is just as exact to scan.
func (o *Oracle) BoundarySize(u uint32) int {
	return int(o.boundLen[u])
}

// VicinityContains reports whether v ∈ Γ(u) and returns d(u,v) if so.
func (o *Oracle) VicinityContains(u, v uint32) (uint32, bool) {
	return o.vicFlat[u].Get(v)
}

// ForEachVicinityMember calls fn(v, dist) for every v ∈ Γ(u), in stored
// order: level order, by id within a level, on unweighted graphs; the
// interior then the boundary, each by id, on weighted ones.
func (o *Oracle) ForEachVicinityMember(u uint32, fn func(v, dist uint32)) {
	t := o.vicFlat[u]
	if t.Leveled() {
		fn(t.Owner(), 0)
	}
	var buf [u32map.BlockLen]uint32
	for k := 0; k < t.Runs(); k++ {
		run, dists := t.Run(k)
		for b := 0; b < run.Blocks(); b++ {
			for i, v := range run.Block(b, &buf) {
				if dists != nil {
					fn(v, dists[b*u32map.BlockLen+i])
				} else {
					fn(v, uint32(k)+1)
				}
			}
		}
	}
}

// workspace borrows a fallback search workspace from the pool.
func (o *Oracle) workspace() *traverse.Workspace {
	return o.fbPool.Get()
}

func (o *Oracle) release(ws *traverse.Workspace) { o.fbPool.Put(ws) }
