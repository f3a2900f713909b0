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
// Landmarks keep one dense distance row each, four bits per node when
// the row's distances fit. Path hops are derived from these distances
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
	// dense length-n distance row, at the width its data needs (see
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

// Landmark-row widths. A nibble row stores four bits per node, two
// nodes per byte (node v in the low half of byte v/2 when v is even),
// with unreachable4 for NoDist, so it holds distances up to maxNibble.
// A row of odd length pads its last byte's high half with unreachable4.
const (
	unreachable4 = 0xF
	maxNibble    = unreachable4 - 1
)

// lrow is one landmark's dense distance row over all n nodes, stored at
// the width its data needs: four bits per node when every finite
// distance is at most maxNibble, wide (uint32, NoDist for unreachable)
// otherwise. Exactly one of the two slices is set. Social graphs have
// small diameters, so their rows are nibbles: an eighth of the wide
// bytes. Two widths and not three: a byte width would serve only rows
// whose largest distance runs from 15 to 254 — long paths and grids,
// none of the social profiles the oracle is built for — while every
// width costs a branch in at, a pack and a file section.
type lrow struct {
	nib  []uint8
	wide []uint32
}

// at returns the row's distance to v.
func (r lrow) at(v uint32) uint32 {
	if r.wide != nil {
		return r.wide[v]
	}
	if d := r.nib[v>>1] >> (v & 1 * 4) & unreachable4; d != unreachable4 {
		return uint32(d)
	}
	return NoDist
}

// bytes returns the row's footprint.
func (r lrow) bytes() int {
	return len(r.nib) + 4*len(r.wide)
}

// span returns the number of nodes the row can answer for: its length,
// rounded up to even on a nibble row, whose padding reads unreachable.
func (r lrow) span() int {
	return 2*len(r.nib) + len(r.wide)
}

// reader returns an accessor that also answers for nodes past the
// row's end (added by an update): they are unreachable until repaired.
func (r lrow) reader() func(v uint32) uint32 {
	n := r.span()
	return func(v uint32) uint32 {
		if int(v) >= n {
			return NoDist
		}
		return r.at(v)
	}
}

// expand writes the row at full width into dst, which may be longer
// than the row: nodes past its end (added by an update) are unreachable.
func (r lrow) expand(dst []uint32) {
	n := copy(dst, r.wide)
	if r.nib != nil {
		pairs := min(len(r.nib), len(dst)/2)
		for i, b := range r.nib[:pairs] {
			d := dst[2*i : 2*i+2 : 2*i+2]
			d[0], d[1] = nibDist(b&unreachable4), nibDist(b>>4)
		}
		n = 2 * pairs
		if n < len(dst) && pairs < len(r.nib) {
			dst[n] = nibDist(r.nib[pairs] & unreachable4)
			n++
		}
	}
	for v := n; v < len(dst); v++ {
		dst[v] = NoDist
	}
}

// nibDist maps a stored four-bit entry to its distance, without a
// branch: unreachable4 reads NoDist.
func nibDist(x uint8) uint32 {
	d := uint32(x)
	return d | -((d + 1) >> 4)
}

// grown returns a copy of the row extended to n nodes, the new ones
// unreachable, at the row's own width.
func (r lrow) grown(n int) lrow {
	if r.wide != nil {
		wide := make([]uint32, n)
		copy(wide, r.wide)
		for v := len(r.wide); v < n; v++ {
			wide[v] = NoDist
		}
		return lrow{wide: wide}
	}
	// The padding half of an odd row reads unreachable already.
	nib := append(make([]uint8, 0, (n+1)/2), r.nib...)
	for len(nib) < cap(nib) {
		nib = append(nib, unreachable4<<4|unreachable4)
	}
	return lrow{nib: nib}
}

// newNibbleRow returns a nibble row of n unreachable entries.
func newNibbleRow(n int) lrow {
	row := make([]uint8, (n+1)/2)
	for i := range row {
		row[i] = unreachable4<<4 | unreachable4
	}
	return lrow{nib: row}
}

// set stores d, at most maxNibble, for node v of a nibble row.
func (r lrow) set(v, d uint32) {
	sh := v & 1 * 4
	b := &r.nib[v>>1]
	*b = *b&^(unreachable4<<sh) | uint8(d)<<sh
}

// widen converts a nibble row of n nodes to wide in place, for a
// distance past maxNibble.
func (r *lrow) widen(n int) {
	wide := make([]uint32, n)
	r.expand(wide)
	r.nib, r.wide = nil, wide
}

// packRow stores dist (NoDist for unreachable) at the narrowest width
// that holds it, in fresh storage: dist may be a caller's scratch row.
// One pass packs the nibbles and notes whether some finite distance
// exceeds maxNibble (d+1 wraps NoDist to 0, and min maps it to
// unreachable4).
func packRow(dist []uint32) lrow {
	nib := make([]uint8, (len(dist)+1)/2)
	var over uint32
	for i := range len(dist) / 2 {
		a, b := dist[2*i], dist[2*i+1]
		over |= (a + 1) | (b + 1)
		nib[i] = uint8(min(a, unreachable4)) | uint8(min(b, unreachable4))<<4
	}
	if len(dist)%2 == 1 {
		a := dist[len(dist)-1]
		over |= a + 1
		nib[len(nib)-1] = uint8(min(a, unreachable4)) | unreachable4<<4
	}
	if over&^unreachable4 != 0 {
		return lrow{wide: append([]uint32(nil), dist...)}
	}
	return lrow{nib: nib}
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
