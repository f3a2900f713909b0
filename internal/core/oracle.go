package core

import (
	"vicinity/internal/graph"
	"vicinity/internal/kpaths"
	"vicinity/internal/syncx"
	"vicinity/internal/traverse"
	"vicinity/internal/u32map"
)

// Oracle is the built vicinity-intersection data structure. It is safe
// for concurrent queries. Mutation goes through ApplyUpdates (which
// returns a new snapshot and leaves the receiver serving) or
// ApplyUpdatesInPlace (exclusive access); see update.go.
//
// All per-node state lives in flat arena storage: one shared entry
// arena plus one shared slot arena for the vicinity tables (see
// u32map.Arena), CSR offset arrays for per-node [offset, len) ranges,
// and the boundaries and landmark tables concatenated the same way.
// The layout keeps one node's table contiguous in memory, leaves the
// garbage collector a handful of large pointer-free arrays to scan,
// and serializes with array copies (see persist.go).
type Oracle struct {
	g    *graph.Graph
	opts Options

	landmarks []uint32 // sorted landmark node ids
	isL       []bool   // per node: landmark flag
	lidx      []int32  // per node: index into landmarks, or -1

	// Vicinity tables. arena holds the concatenated entries and slot
	// indexes of every vicinity; vicFlat (len n) holds node u's
	// precomputed arena view — 24 bytes of offsets plus the shared
	// arena pointer, so resolving a table is one indexed load. An empty
	// view means "not covered" (landmark or out of build scope) — a
	// built vicinity always contains at least u itself. Persistence
	// derives CSR offset arrays from the views (u32map.Flat.Ranges)
	// rather than storing them twice.
	arena   *u32map.Arena
	vicFlat []u32map.Flat

	// Boundaries ∂Γ(u), concatenated: node u owns the range
	// [boundOff[u], boundOff[u]+boundLen[u]) of boundKeys/boundDist
	// (both arrays len n). Build lays ranges out contiguously in node
	// order; updates may relocate a repaired node's range anywhere, so
	// unlike a CSR there is no adjacency requirement between nodes.
	boundOff  []uint32
	boundLen  []uint32
	boundKeys []uint32
	boundDist []uint32

	// Free-space accounting for the append-path mutation model: ranges
	// abandoned by repaired vicinities/boundaries. In-place updates
	// recycle them; copy-on-write updates only account (old snapshots
	// may still read the holes) and compact when waste dominates.
	entFree   *u32map.FreeList
	slotFree  *u32map.FreeList
	boundFree *u32map.FreeList

	radius  []uint32 // d(u, l(u)); NoDist when uncovered or no landmark reachable
	nearest []uint32 // l(u); graph.NoNode when unknown

	// Per-landmark full tables. lpos maps a landmark index to its
	// position p among built tables, or -1; row p is one landmark's
	// dense length-n table in ldist (or ldist16 with
	// Options.CompactLandmarkTables: half the memory; 0xFFFF encodes
	// "unreachable") and lparent (when path data is enabled). One row
	// per landmark — rather than one |L|·n array — lets dynamic updates
	// copy-on-write only the rows a new edge improves.
	lpos    []int32
	ldist   [][]uint32
	ldist16 [][]uint16
	lparent [][]uint32

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

// boundary returns the ∂Γ(u) key and distance ranges as shared views.
func (o *Oracle) boundary(u uint32) (keys, dists []uint32) {
	b0, b1 := o.boundOff[u], o.boundOff[u]+o.boundLen[u]
	return o.boundKeys[b0:b1], o.boundDist[b0:b1]
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
// distance table (full-width or compact).
func (o *Oracle) hasLandmarkTable(li int32) bool {
	return li >= 0 && o.lpos[li] >= 0
}

// compactUnreachable encodes NoDist in uint16 landmark tables.
const compactUnreachable = ^uint16(0)

// landmarkDist reads d(landmarks[li], v) from whichever table width was
// built. Callers must check hasLandmarkTable first.
func (o *Oracle) landmarkDist(li int32, v uint32) uint32 {
	if o.ldist != nil {
		return o.ldist[o.lpos[li]][v]
	}
	d := o.ldist16[o.lpos[li]][v]
	if d == compactUnreachable {
		return NoDist
	}
	return uint32(d)
}

// landmarkParents returns landmark li's parent table (len n), or nil
// when path data is disabled or the landmark has no built table.
func (o *Oracle) landmarkParents(li int32) []uint32 {
	if li < 0 || o.lpos[li] < 0 || o.lparent == nil {
		return nil
	}
	return o.lparent[o.lpos[li]]
}

// Radius returns the vicinity radius d(u, l(u)) of u, or NoDist if u is
// uncovered, is a landmark (radius 0 by convention is returned as 0), or
// cannot reach any landmark.
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

// BoundarySize returns |∂Γ(u)| (0 for landmarks and uncovered nodes).
func (o *Oracle) BoundarySize(u uint32) int {
	return int(o.boundLen[u])
}

// VicinityContains reports whether v ∈ Γ(u) and returns d(u,v) if so.
func (o *Oracle) VicinityContains(u, v uint32) (uint32, bool) {
	return o.vicFlat[u].Get(v)
}

// ForEachVicinityMember calls fn(v, dist) for every v ∈ Γ(u).
func (o *Oracle) ForEachVicinityMember(u uint32, fn func(v, dist uint32)) {
	t := o.vicFlat[u]
	for i := 0; i < t.Len(); i++ {
		k, d, _ := t.At(i)
		fn(k, d)
	}
}

// workspace borrows a fallback search workspace from the pool.
func (o *Oracle) workspace() *traverse.Workspace {
	return o.fbPool.Get()
}

func (o *Oracle) release(ws *traverse.Workspace) { o.fbPool.Put(ws) }
