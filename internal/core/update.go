package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"vicinity/internal/graph"
	"vicinity/internal/heap"
	"vicinity/internal/queue"
	"vicinity/internal/traverse"
	"vicinity/internal/u32map"
)

// This file implements dynamic graph updates: absorbing edge
// insertions, edge deletions, weight changes, and node arrivals into a
// built oracle without re-running the offline phase, following the
// dynamic-maintenance idea of the paper's sequel ("Shortest Paths in
// Microseconds", COSN'13), which makes churn under *both* additions and
// deletions the headline contribution.
//
// The repair splits every batch by the direction distances can move:
// insertions and weight decreases only ever shorten distances,
// deletions and weight increases only ever lengthen them. Each
// structure is then fixed from the change outward:
//
//   - Landmark tables absorb the lengthening half by a three-phase
//     decremental repair per row (unweighted graphs): (A) starting from
//     the nodes whose tight parent edge died, walk old-distance levels
//     upward and invalidate every node with no surviving supporter at
//     the previous level; (B) re-settle the invalidated region by a
//     multi-seed level-bucket BFS from its surviving frontier, writing
//     NoDist for newly unreachable nodes; (C) run the incremental
//     ripple of the shortening half, seeded by the inserted edges and
//     the re-settled region. Untouched rows are provably unchanged and
//     stay shared with the parent snapshot. Weighted rows use a
//     shortest-path-tightness test instead: a deleted or re-weighted
//     edge can change a row only if it was tight (on some shortest
//     path) or newly improving, and such rows are recomputed by one
//     full Dijkstra.
//
//   - A vicinity Γ(x) can change only if some changed-edge endpoint
//     lies within x's old radius r(x) — in the OLD graph for the
//     lengthening half (a broken shortest path must have crossed the
//     old ball), in the NEW graph for the shortening half. The affected
//     set is the union of truncated searches from both endpoint sets,
//     plus a component-membership probe for landmark-free "flood"
//     vicinities (which store their whole component, so any endpoint in
//     the component — e.g. a deletion splitting it — marks them). Each
//     affected vicinity is rebuilt by the same truncated BFS/Dijkstra
//     the offline phase uses, so an updated oracle is structurally
//     identical to one built from scratch with the same landmarks.
//
//   - Repaired tables are appended to the vicinity arena instead of
//     reflattening it. Superseded ranges stay readable for older
//     snapshots and are only counted as waste; the arena is compacted
//     once waste dominates.
//
// Every stored fact is a distance, and path hops are a pure function of
// the graph and those distances (see path.go), so a repaired oracle is
// byte-identical on the wire to a fresh build with the same landmarks.
//
// The landmark set is kept fixed: sampling probabilities drift as the
// graph changes, which degrades the α·√n size balance gradually, not
// correctness (DESIGN.md discusses when to re-sample by rebuilding).

// Update is a batch of graph mutations for ApplyUpdates.
//
// AddNodes appends fresh isolated nodes (assigned ids n .. n+AddNodes-1).
// Edges inserts undirected unit-weight edges, which may reference the
// new ids; self-loops, duplicates and already-present edges are
// ignored. Unweighted graphs only (ErrWeightedUpdate otherwise).
//
// DelEdges removes undirected edges; every listed edge must exist
// (ErrEdgeNotFound otherwise — nothing is applied). DelNodes is sugar
// for deleting every edge currently incident to the listed nodes; the
// ids stay valid as isolated nodes (dense id spaces never shrink).
//
// SetWeights reassigns the weight of existing edges on weighted graphs
// (ErrEdgeNotFound for absent edges, an error for zero weights). On
// unweighted graphs a weight-1 entry degenerates to an idempotent edge
// upsert and any other weight is ErrWeightedUpdate.
//
// An edge may appear in at most one role per batch: deleting and
// inserting (or deleting and re-weighting) the same edge in one Update
// is rejected, so a batch never depends on operation order.
type Update struct {
	AddNodes   int
	Edges      [][2]uint32
	DelEdges   [][2]uint32
	DelNodes   []uint32
	SetWeights []WeightChange
}

// WeightChange reassigns the weight of one existing undirected edge
// {U, V} to W. See Update.SetWeights for the unweighted degeneration.
type WeightChange struct {
	U, V, W uint32
}

// updateChain links every snapshot descending from one Build or load.
// It serializes updates and rejects updates against superseded
// snapshots, whose arena tail a newer snapshot may already have
// appended into.
type updateChain struct {
	mu     sync.Mutex
	latest uint64
}

// ErrStaleSnapshot is returned when updates are applied to an oracle
// snapshot that has already been superseded by a newer ApplyUpdates.
var ErrStaleSnapshot = errors.New("core: oracle snapshot superseded; apply updates to the newest snapshot")

// ErrWeightedUpdate is returned for edge insertions on weighted graphs
// (and non-unit SetWeights on unweighted ones): the insertion repair is
// defined for the paper's unweighted social-network model. Deletions
// and weight changes of existing edges are supported on both.
var ErrWeightedUpdate = errors.New("core: edge insertion requires an unweighted graph")

// ErrEdgeNotFound is returned when a deletion or weight change names an
// edge absent from the current graph. The batch is rejected before any
// state changes, so the snapshot stays valid.
var ErrEdgeNotFound = errors.New("core: edge not found in the current graph")

// ApplyUpdates returns a new oracle snapshot reflecting the batch. The
// receiver is left fully intact and keeps answering queries correctly
// for the old graph while (and after) the new snapshot is produced, so
// a server can swap snapshots atomically with zero query downtime.
// Unchanged per-node state is shared between snapshots; repaired
// vicinities are appended to the shared arena backing (never
// overwriting ranges the old snapshot can read) and the storage is
// compacted automatically once superseded ranges dominate.
//
// Updates must be applied to the newest snapshot in the chain
// (ErrStaleSnapshot otherwise) and are serialized internally; queries
// need no synchronization against them.
func (o *Oracle) ApplyUpdates(upd Update) (*Oracle, error) {
	o.chain.mu.Lock()
	defer o.chain.mu.Unlock()
	if o.gen != o.chain.latest {
		return nil, ErrStaleSnapshot
	}
	oldN := o.g.NumNodes()
	// Normalize before touching anything: validation (absent edges, id
	// ranges, conflicting roles) must reject the whole batch up front,
	// and a no-op batch (a retrying client) must not pay the O(n+m) CSR
	// merge.
	cs, err := o.normalizeUpdate(upd)
	if err != nil {
		return nil, err
	}
	if cs.empty() {
		return o, nil // nothing changed; the snapshot stands
	}
	newG, err := cs.applyToGraph(o.g)
	if err != nil {
		return nil, err
	}

	t := o.cloneForUpdate()
	t.timings = BuildTimings{} // diagnostic of a Build call; repaired snapshots report zeros
	t.growNodes(newG.NumNodes())
	t.repairLandmarkTables(newG, oldN, cs)
	affected := t.affectedNodes(newG, oldN, cs)
	results := t.rebuildVicinities(newG, affected)
	if err := t.writeVicinities(affected, results); err != nil {
		return nil, err
	}
	t.maybeCompact()
	t.g = newG
	t.fbPool = newWorkspacePool(newG)
	t.kpPool = newKPathsPool(newG)
	t.chain.latest++
	t.gen = t.chain.latest
	return t, nil
}

// changeSet is a validated, deduplicated Update split by the direction
// distances can move: del/winc lengthen, ins/wdec shorten.
type changeSet struct {
	addNodes int
	ins      [][2]uint32 // normalized u<v, absent from the old graph
	del      []delEdge   // normalized u<v, present in the old graph
	winc     []wchange   // weight increases (weighted graphs only)
	wdec     []wchange   // weight decreases (weighted graphs only)
}

// delEdge is one deleted edge with its old weight (1 on unweighted
// graphs), captured at validation time for the weighted tightness test.
type delEdge struct{ u, v, w uint32 }

// wchange is one weight change with both old and new value: the old
// weight drives the tightness test, the new one the improvement test.
type wchange struct{ u, v, oldW, newW uint32 }

func (cs *changeSet) empty() bool {
	return cs.addNodes == 0 && len(cs.ins) == 0 && len(cs.del) == 0 &&
		len(cs.winc) == 0 && len(cs.wdec) == 0
}

func (cs *changeSet) delPairs() [][2]uint32 {
	out := make([][2]uint32, len(cs.del))
	for i, e := range cs.del {
		out[i] = [2]uint32{e.u, e.v}
	}
	return out
}

func (cs *changeSet) weightChanges() []graph.WeightedEdge {
	out := make([]graph.WeightedEdge, 0, len(cs.winc)+len(cs.wdec))
	for _, c := range cs.winc {
		out = append(out, graph.WeightedEdge{U: c.u, V: c.v, W: c.newW})
	}
	for _, c := range cs.wdec {
		out = append(out, graph.WeightedEdge{U: c.u, V: c.v, W: c.newW})
	}
	return out
}

// applyToGraph materializes the new CSR. Deletions run before
// insertions; the two sets are disjoint by validation, so the order is
// unobservable. Every constructor returns a fresh graph sharing no
// mutable state with g, which stays valid for concurrent readers.
func (cs *changeSet) applyToGraph(g *graph.Graph) (*graph.Graph, error) {
	var err error
	if g.Weighted() {
		if g, err = graph.GrowNodes(g, cs.addNodes); err != nil {
			return nil, err
		}
		if len(cs.del) > 0 {
			if g, err = graph.DeleteEdges(g, cs.delPairs()); err != nil {
				return nil, err
			}
		}
		if len(cs.winc)+len(cs.wdec) > 0 {
			if g, err = graph.SetWeights(g, cs.weightChanges()); err != nil {
				return nil, err
			}
		}
		return g, nil
	}
	if len(cs.del) > 0 {
		if g, err = graph.DeleteEdges(g, cs.delPairs()); err != nil {
			return nil, err
		}
	}
	if cs.addNodes > 0 || len(cs.ins) > 0 {
		if g, err = graph.InsertEdges(g, cs.addNodes, cs.ins); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// normalizeUpdate validates the batch against the current graph and
// splits it into the changeSet the repair consumes. All rejections
// happen here, before any state changes; out-of-range *inserted* edge
// ids are the one exception, deferred to graph.InsertEdges because they
// may legally reference the batch's own added nodes.
func (o *Oracle) normalizeUpdate(upd Update) (*changeSet, error) {
	oldN := o.g.NumNodes()
	weighted := o.g.Weighted()
	if upd.AddNodes < 0 {
		return nil, fmt.Errorf("core: negative AddNodes %d", upd.AddNodes)
	}
	if uint64(oldN)+uint64(upd.AddNodes) >= uint64(graph.NoNode) {
		return nil, fmt.Errorf("core: %d + %d nodes exceed the uint32 id space", oldN, upd.AddNodes)
	}
	if weighted && len(upd.Edges) > 0 {
		return nil, ErrWeightedUpdate
	}
	cs := &changeSet{addNodes: upd.AddNodes}

	// Deletions: explicit edges plus every edge incident to DelNodes.
	// Slices stay in first-seen order so the repair is deterministic
	// for a given batch.
	delSet := make(map[uint64]struct{}, len(upd.DelEdges)+len(upd.DelNodes))
	addDel := func(u, v uint32) { // pre-validated existing edge
		if v < u {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(v)
		if _, dup := delSet[key]; dup {
			return
		}
		delSet[key] = struct{}{}
		w, _ := o.g.EdgeWeight(u, v)
		cs.del = append(cs.del, delEdge{u, v, w})
	}
	for _, e := range upd.DelEdges {
		u, v := e[0], e[1]
		if int(u) >= oldN || int(v) >= oldN {
			return nil, fmt.Errorf("core: deleted edge %d-%d out of range [0,%d)", u, v, oldN)
		}
		if u == v || !o.g.HasEdge(u, v) {
			return nil, fmt.Errorf("core: delete %d-%d: %w", u, v, ErrEdgeNotFound)
		}
		addDel(u, v)
	}
	for _, u := range upd.DelNodes {
		if int(u) >= oldN {
			return nil, fmt.Errorf("core: deleted node %d out of range [0,%d)", u, oldN)
		}
		for _, v := range o.g.Neighbors(u) {
			addDel(u, v)
		}
	}

	// Insertions are collected through one closure so Edges and the
	// unweighted SetWeights degeneration share validation.
	insSeen := make(map[uint64]struct{}, len(upd.Edges))
	addIns := func(u, v uint32) error {
		if u == v {
			return nil
		}
		if v < u {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(v)
		if _, gone := delSet[key]; gone {
			return fmt.Errorf("core: edge %d-%d both inserted and deleted in one batch", u, v)
		}
		if int(u) < oldN && int(v) < oldN && o.g.HasEdge(u, v) {
			return nil // already present
		}
		if _, dup := insSeen[key]; dup {
			return nil
		}
		insSeen[key] = struct{}{}
		cs.ins = append(cs.ins, [2]uint32{u, v})
		return nil
	}

	// Weight changes.
	swSeen := make(map[uint64]uint32, len(upd.SetWeights))
	for _, c := range upd.SetWeights {
		u, v := c.U, c.V
		if c.W == 0 {
			return nil, fmt.Errorf("core: zero weight on edge %d-%d", u, v)
		}
		if !weighted {
			if c.W != 1 {
				return nil, fmt.Errorf("core: weight %d on edge %d-%d: %w", c.W, u, v, ErrWeightedUpdate)
			}
			if err := addIns(u, v); err != nil {
				return nil, err
			}
			continue
		}
		if int(u) >= oldN || int(v) >= oldN {
			return nil, fmt.Errorf("core: reweighted edge %d-%d out of range [0,%d)", u, v, oldN)
		}
		oldW, ok := o.g.EdgeWeight(u, v)
		if u == v || !ok {
			return nil, fmt.Errorf("core: reweight %d-%d: %w", u, v, ErrEdgeNotFound)
		}
		if v < u {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(v)
		if _, gone := delSet[key]; gone {
			return nil, fmt.Errorf("core: edge %d-%d both deleted and reweighted in one batch", u, v)
		}
		if prev, dup := swSeen[key]; dup {
			if prev != c.W {
				return nil, fmt.Errorf("core: conflicting weights %d and %d for edge %d-%d in one batch", prev, c.W, u, v)
			}
			continue
		}
		swSeen[key] = c.W
		switch {
		case c.W == oldW: // no-op
		case c.W < oldW:
			cs.wdec = append(cs.wdec, wchange{u, v, oldW, c.W})
		default:
			cs.winc = append(cs.winc, wchange{u, v, oldW, c.W})
		}
	}

	for _, e := range upd.Edges {
		if err := addIns(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return cs, nil
}

// cloneForUpdate makes the copy-on-write snapshot: per-node arrays the
// repair writes are duplicated, the arena header is cloned over shared
// backing (appends through the clone never disturb ranges the original
// reads), and everything immutable is shared. Landmark tables are
// cloned lazily by repairLandmarkTables only when they change.
func (o *Oracle) cloneForUpdate() *Oracle {
	c := *o
	c.radius = append([]uint32(nil), o.radius...)
	c.nearest = append([]uint32(nil), o.nearest...)
	c.boundLen = append([]uint32(nil), o.boundLen...)
	c.vicFlat = append([]u32map.Flat(nil), o.vicFlat...)
	c.arena = o.arena.Clone()
	// Landmark tables: clone the outer row slice (cheap, |L| headers)
	// so the repair can swap in repaired rows; unimproved rows stay
	// shared with the parent.
	c.lrows = append([]lrow(nil), o.lrows...)
	return &c
}

// growNodes extends every per-node array to newN. New nodes start as
// non-landmarks with no vicinity state.
func (t *Oracle) growNodes(newN int) {
	oldN := len(t.radius)
	if newN == oldN {
		return
	}
	isL := make([]bool, newN)
	copy(isL, t.isL)
	t.isL = isL
	lidx := make([]int32, newN)
	copy(lidx, t.lidx)
	radius := make([]uint32, newN)
	copy(radius, t.radius)
	nearest := make([]uint32, newN)
	copy(nearest, t.nearest)
	for u := oldN; u < newN; u++ {
		lidx[u] = -1
		radius[u] = NoDist
		nearest[u] = graph.NoNode
	}
	t.lidx, t.radius, t.nearest = lidx, radius, nearest
	vicFlat := make([]u32map.Flat, newN)
	copy(vicFlat, t.vicFlat)
	t.vicFlat = vicFlat
	boundLen := make([]uint32, newN)
	copy(boundLen, t.boundLen)
	t.boundLen = boundLen
}

// Phase-A/B mark states for the decremental landmark repair.
const (
	lmPending   = 1 // enqueued for a support check at its old level
	lmInvalid   = 2 // lost support: distance must grow (or become NoDist)
	lmSupported = 3 // keeps its old distance through a surviving supporter
)

// lmRepairWS is the per-worker scratch of the landmark-row repair. row
// holds the row being repaired at full width, whatever width it is
// stored at. The level buckets implement the monotone bucket queue both
// the invalidation walk and the re-settle BFS need; mark/touched give
// O(1) membership with O(touched) cleanup between rows.
type lmRepairWS struct {
	row      []uint32
	q        *queue.U32
	mark     []uint8
	touched  []uint32
	inval    []uint32
	buckets  [][]uint32
	bLo, bHi int
}

func newLmRepairWS(n int) *lmRepairWS {
	return &lmRepairWS{row: make([]uint32, n), q: queue.NewU32(256), mark: make([]uint8, n), bLo: math.MaxInt, bHi: -1}
}

func (ws *lmRepairWS) pushBucket(v uint32, lvl int) {
	for len(ws.buckets) <= lvl {
		ws.buckets = append(ws.buckets, nil)
	}
	ws.buckets[lvl] = append(ws.buckets[lvl], v)
	if lvl < ws.bLo {
		ws.bLo = lvl
	}
	if lvl > ws.bHi {
		ws.bHi = lvl
	}
}

func (ws *lmRepairWS) resetBuckets() {
	for l := ws.bLo; l <= ws.bHi && l < len(ws.buckets); l++ {
		ws.buckets[l] = ws.buckets[l][:0]
	}
	ws.bLo, ws.bHi = math.MaxInt, -1
}

// clear readies the workspace for the next row.
func (ws *lmRepairWS) clear() {
	for _, v := range ws.touched {
		ws.mark[v] = 0
	}
	ws.touched = ws.touched[:0]
	ws.inval = ws.inval[:0]
	ws.resetBuckets()
}

// repairLandmarkTables brings the per-landmark full tables up to date.
// Work is per-row: a row is touched only when the graph grew (rows must
// lengthen), some deleted edge was tight in it, or some new edge
// improves it; untouched rows stay shared with the parent snapshot, so
// a typical single-edge batch clones a handful of rows instead of the
// whole |L|·n table.
//
// Unweighted rows run the three-phase decremental repair described in
// the file comment. The phase order is what makes mixed batches exact:
// invalidation and re-settle never read a value below its old-graph
// distance, and the closing ripple (phase C) starts from a state where
// every value is an upper bound on the new distance, so its fixpoint is
// exact. A repaired row ends at the width it needs, the rule a fresh
// build follows: a nibble row is repaired in place and falls back to
// a full-width repair when a distance grows past maxNibble, and a full
// width result is packed (packRow), so a repaired row is
// byte-identical to a fresh build's.
func (t *Oracle) repairLandmarkTables(newG *graph.Graph, oldN int, cs *changeSet) {
	if len(t.lrows) == 0 {
		return
	}
	if newG.Weighted() {
		t.repairLandmarkTablesWeighted(newG, oldN, cs)
		return
	}
	newN := newG.NumNodes()
	grow := newN > oldN
	parallelFor(t.opts.Workers, len(t.lpos), func(int) any {
		return newLmRepairWS(newN)
	}, func(state any, li int) {
		ws := state.(*lmRepairWS)
		defer ws.clear() // marks/buckets must not leak into the next row
		pos := t.lpos[li]
		if pos < 0 {
			return
		}
		old := t.lrows[pos]
		read := old.reader()
		// A new edge {u,v} improves this row iff one endpoint's distance
		// can relax through the other; a deleted edge was load-bearing iff
		// it was tight (|du - dv| == 1: the farther endpoint may have
		// depended on it). Both tests read pre-repair values.
		insImproved := false
		for _, e := range cs.ins {
			du, dv := read(e[0]), read(e[1])
			if du != NoDist && (dv == NoDist || dv > du+1) {
				insImproved = true
				break
			}
			if dv != NoDist && (du == NoDist || du > dv+1) {
				insImproved = true
				break
			}
		}
		delTouched := false
		for _, e := range cs.del {
			du, dv := read(e.u), read(e.v)
			if (du != NoDist && dv == du+1) || (dv != NoDist && du == dv+1) {
				delTouched = true
				break
			}
		}
		if !insImproved && !delTouched {
			if grow {
				t.lrows[pos] = old.grown(newN)
			}
			return
		}
		// Repair a copy of the row, regrown for added nodes (older
		// snapshots keep reading the original). A nibble row is repaired
		// in place; when a new distance outgrows four bits, and for a
		// wide row, the row is expanded into the worker's scratch,
		// repaired at full width and packed at the width it needs.
		// Workers write distinct pos elements, so assigning into the
		// shared outer slice is race-free.
		if old.nib != nil {
			g := old.grown(newN)
			if repairRow(nibRow(g.nib), newG, cs, ws, delTouched) {
				t.lrows[pos] = g
				return
			}
			ws.clear()
		}
		old.expand(ws.row)
		repairRow(wideRow(ws.row), newG, cs, ws, delTouched)
		t.lrows[pos] = packRow(ws.row)
	})
}

// rowRW reads and writes one landmark row under repair: a nibble row
// in place, or a row expanded to full width. set reports false when a
// distance does not fit the row's width.
type rowRW interface {
	get(v uint32) uint32
	set(v, d uint32) bool
}

// nibRow is a nibble row repaired in place.
type nibRow []uint8

func (r nibRow) get(v uint32) uint32 { return lrow{nib: r}.at(v) }

func (r nibRow) set(v, d uint32) bool {
	if d != NoDist && d > maxNibble {
		return false
	}
	lrow{nib: r}.set(v, min(d, unreachable4))
	return true
}

// wideRow is a row expanded to full width (NoDist for unreachable).
type wideRow []uint32

func (r wideRow) get(v uint32) uint32 { return r[v] }

func (r wideRow) set(v, d uint32) bool {
	r[v] = d
	return true
}

// repairRow runs the three-phase repair on one unweighted landmark row
// and reports false — leaving the row half repaired — when a new
// distance does not fit its width.
func repairRow[R rowRW](row R, newG *graph.Graph, cs *changeSet, ws *lmRepairWS, delTouched bool) bool {

	// Phase A: level-monotone invalidation. Seeds are the farther
	// endpoints of tight deleted edges (a superset of the nodes whose
	// parent edge died); dependents enqueue one level up, so by the
	// time a level is processed every node below it has its final
	// verdict and the support test is sound.
	if delTouched {
		for _, e := range cs.del {
			du, dv := row.get(e.u), row.get(e.v)
			if du != NoDist && dv == du+1 && ws.mark[e.v] == 0 {
				ws.mark[e.v] = lmPending
				ws.touched = append(ws.touched, e.v)
				ws.pushBucket(e.v, int(dv))
			}
			if dv != NoDist && du == dv+1 && ws.mark[e.u] == 0 {
				ws.mark[e.u] = lmPending
				ws.touched = append(ws.touched, e.u)
				ws.pushBucket(e.u, int(du))
			}
		}
		for lvl := ws.bLo; lvl <= ws.bHi; lvl++ {
			bucket := ws.buckets[lvl]
			lw := uint32(lvl)
			for _, w := range bucket {
				supported := false
				for _, y := range newG.Neighbors(w) {
					if row.get(y) == lw-1 && ws.mark[y] != lmInvalid {
						supported = true
						break
					}
				}
				if supported {
					ws.mark[w] = lmSupported
					continue
				}
				ws.mark[w] = lmInvalid
				ws.inval = append(ws.inval, w)
				for _, y := range newG.Neighbors(w) {
					if row.get(y) == lw+1 && ws.mark[y] == 0 {
						ws.mark[y] = lmPending
						ws.touched = append(ws.touched, y)
						ws.pushBucket(y, lvl+1)
					}
				}
			}
		}
	}

	// Phase B: re-settle the invalidated region by a multi-seed
	// level-bucket BFS from its surviving frontier. Nodes no frontier
	// reaches keep NoDist — they are newly unreachable.
	if len(ws.inval) > 0 {
		for _, a := range ws.inval {
			row.set(a, NoDist) // unreachable fits every width
		}
		ws.resetBuckets()
		for _, a := range ws.inval {
			best := NoDist
			for _, y := range newG.Neighbors(a) {
				if dy := row.get(y); dy != NoDist && dy+1 < best {
					best = dy + 1
				}
			}
			if best != NoDist {
				if !row.set(a, best) {
					return false
				}
				ws.pushBucket(a, int(best))
			}
		}
		for lvl := ws.bLo; lvl <= ws.bHi; lvl++ {
			bucket := ws.buckets[lvl]
			lw := uint32(lvl)
			for _, w := range bucket {
				if row.get(w) != lw {
					continue // superseded by a better settle
				}
				for _, y := range newG.Neighbors(w) {
					if ws.mark[y] == lmInvalid && row.get(y) > lw+1 {
						if !row.set(y, lw+1) {
							return false
						}
						ws.pushBucket(y, lvl+1)
					}
				}
			}
		}
	}

	// Phase C: the incremental ripple. Seeded by the inserted edges
	// and the whole re-settled region: every value is an upper bound
	// on its new distance here, so relax-only-downward converges to
	// the exact fixpoint even when inserts and deletes interact.
	q := ws.q
	q.Reset()
	relax := func(from, to uint32) bool {
		if df := row.get(from); df != NoDist {
			if dt := row.get(to); dt == NoDist || dt > df+1 {
				if !row.set(to, df+1) {
					return false
				}
				q.Push(to)
			}
		}
		return true
	}
	for _, e := range cs.ins {
		if !relax(e[0], e[1]) || !relax(e[1], e[0]) {
			return false
		}
	}
	for _, a := range ws.inval {
		q.Push(a)
	}
	for !q.Empty() {
		x := q.Pop()
		for _, y := range newG.Neighbors(x) {
			if !relax(x, y) {
				return false
			}
		}
	}
	return true
}

// repairLandmarkTablesWeighted repairs weighted rows by a tightness
// test plus full recompute: a deletion or weight increase can change a
// row only if the edge was on some shortest path (du + w == dv up to
// symmetry), a weight decrease only if it improves one endpoint through
// the other. Rows failing every test are provably identical. Affected
// rows are recomputed by one Dijkstra, exactly as the offline build
// does, and stored at the width they need.
func (t *Oracle) repairLandmarkTablesWeighted(newG *graph.Graph, oldN int, cs *changeSet) {
	newN := newG.NumNodes()
	grow := newN > oldN
	parallelFor(t.opts.Workers, len(t.lpos), func(int) any { return nil }, func(_ any, li int) {
		pos := t.lpos[li]
		if pos < 0 {
			return
		}
		old := t.lrows[pos]
		read := old.reader()
		tight := func(u, v, w uint32) bool {
			du, dv := read(u), read(v)
			return du != NoDist && dv != NoDist &&
				(uint64(du)+uint64(w) == uint64(dv) || uint64(dv)+uint64(w) == uint64(du))
		}
		affected := false
		for _, e := range cs.del {
			if tight(e.u, e.v, e.w) {
				affected = true
				break
			}
		}
		if !affected {
			for _, c := range cs.winc {
				if tight(c.u, c.v, c.oldW) {
					affected = true
					break
				}
			}
		}
		if !affected {
			for _, c := range cs.wdec {
				du, dv := read(c.u), read(c.v)
				if du != NoDist && (dv == NoDist || uint64(dv) > uint64(du)+uint64(c.newW)) {
					affected = true
					break
				}
				if dv != NoDist && (du == NoDist || uint64(du) > uint64(dv)+uint64(c.newW)) {
					affected = true
					break
				}
			}
		}
		switch {
		case affected:
			t.lrows[pos] = packRow(traverse.Dijkstra(newG, t.landmarks[li]).Dist)
		case grow:
			// Pure growth: extend the row with unreachable new nodes.
			t.lrows[pos] = old.grown(newN)
		}
	})
}

// affectedNodes returns every node whose vicinity state may differ
// between this oracle and a fresh build on newG with the same
// landmarks. A vicinity Γ(x) is a closed ball of radius r(x): its
// stored trace can change only if some changed-edge endpoint lies
// within r(x) of x — in the old graph for lengthening changes
// (deletions, weight increases: a broken path crossed the old ball), in
// the new graph for shortening ones (insertions, weight decreases: an
// improving path enters the ball). Truncated searches from both
// endpoint sets, a component probe for landmark-free "flood"
// vicinities, and the added nodes cover exactly that union.
func (t *Oracle) affectedNodes(newG *graph.Graph, oldN int, cs *changeSet) []uint32 {
	newN := newG.NumNodes()
	oldG := t.g // pre-update graph: swapped only after the repair

	// Old max radius bounds the truncated searches; landmark-free flood
	// vicinities (radius NoDist, vicinity = whole component) are
	// collected for the component-membership probe below.
	var rmax uint32
	var flood []uint32
	for u := 0; u < oldN; u++ {
		if t.isL[u] {
			continue
		}
		if r := t.radius[u]; r == NoDist {
			if t.VicinitySize(uint32(u)) > 0 {
				flood = append(flood, uint32(u))
			}
		} else if r > rmax {
			rmax = r
		}
	}

	mark := make([]bool, newN)
	var out []uint32
	add := func(x uint32) {
		if mark[x] {
			return
		}
		mark[x] = true
		if t.isL[x] {
			return
		}
		// Stay within build scope: repair nodes that have vicinity state,
		// and cover added nodes only for full (unscoped) builds.
		if int(x) >= oldN {
			if t.opts.Nodes == nil {
				out = append(out, x)
			}
			return
		}
		if t.VicinitySize(x) > 0 {
			out = append(out, x)
		}
	}

	for u := oldN; u < newN; u++ {
		add(uint32(u))
	}

	// Endpoints, deduplicated into the lengthening set (searched on the
	// old graph), the shortening set (searched on the new graph), and
	// their union (the flood probe).
	var upEps, downEps, allEps []uint32
	seen := make(map[uint32]uint8, 2*(len(cs.del)+len(cs.ins)+len(cs.winc)+len(cs.wdec)))
	addEp := func(x uint32, up bool) {
		bit := uint8(1)
		if !up {
			bit = 2
		}
		prev := seen[x]
		if prev == 0 {
			allEps = append(allEps, x)
		}
		if prev&bit != 0 {
			return
		}
		seen[x] = prev | bit
		if up {
			upEps = append(upEps, x)
		} else {
			downEps = append(downEps, x)
		}
	}
	for _, e := range cs.del {
		addEp(e.u, true)
		addEp(e.v, true)
	}
	for _, c := range cs.winc {
		addEp(c.u, true)
		addEp(c.v, true)
	}
	for _, e := range cs.ins {
		addEp(e[0], false)
		addEp(e[1], false)
	}
	for _, c := range cs.wdec {
		addEp(c.u, false)
		addEp(c.v, false)
	}

	// Truncated search from each endpoint: node x at distance d from an
	// endpoint is affected iff d <= r(x). (r = NoDist compares as +inf,
	// correctly catching flood nodes near an endpoint; the probe below
	// catches the rest of their component.)
	nm := traverse.NewNodeMap(newN)
	if newG.Weighted() {
		settled := traverse.NewNodeMap(newN)
		h := heap.NewMin(newN)
		search := func(g *graph.Graph, eps []uint32) {
			for _, e := range eps {
				nm.Reset()
				settled.Reset()
				h.Reset()
				nm.Set(e, 0, graph.NoNode)
				h.Push(e, 0)
				for !h.Empty() {
					x, dx := h.Pop()
					if settled.Has(x) {
						continue
					}
					if dx > rmax {
						break
					}
					settled.Set(x, 0, 0)
					if dx <= t.radius[x] {
						add(x)
					}
					adj := g.Neighbors(x)
					wts := g.NeighborWeights(x)
					for i, y := range adj {
						if settled.Has(y) {
							continue
						}
						nd := traverse.SatAdd(dx, wts[i])
						if nd > rmax {
							continue
						}
						if old := nm.Dist(y); nd < old {
							nm.Set(y, nd, x)
							h.Push(y, nd)
						}
					}
				}
			}
		}
		search(oldG, upEps)
		search(newG, downEps)
	} else {
		q := queue.NewU32(256)
		search := func(g *graph.Graph, eps []uint32) {
			for _, e := range eps {
				nm.Reset()
				q.Reset()
				nm.Set(e, 0, graph.NoNode)
				add(e)
				q.Push(e)
				for !q.Empty() {
					x := q.Pop()
					dx := nm.Dist(x)
					if dx >= rmax {
						continue
					}
					for _, y := range g.Neighbors(x) {
						if nm.Has(y) {
							continue
						}
						nm.Set(y, dx+1, x)
						if dx+1 <= t.radius[y] {
							add(y)
						}
						q.Push(y)
					}
				}
			}
		}
		search(newG, downEps)
		t.classifyDeletions(oldG, cs.del, rmax, add)
	}

	// Flood vicinities hold their whole component, so membership of any
	// endpoint identifies the components the batch touches — including
	// deletions that split a component in two.
	for _, x := range flood {
		if mark[x] {
			continue
		}
		v, ok := t.vicinity(x)
		if !ok {
			continue
		}
		for _, e := range allEps {
			if _, in := v.Get(e); in {
				add(x)
				break
			}
		}
	}
	return out
}

// classifyDeletions marks the vicinities an unweighted deletion batch
// can actually change. The ball rule alone ("an endpoint within r(x)")
// is hugely conservative at hubs — a hub sits inside most balls, so
// deleting any hub edge would rebuild a quarter of the graph. The exact
// trigger is sharper. With du = d_old(x,u), dv = d_old(x,v) for a
// deleted edge {u,v}:
//
//   - du == dv: the edge lies on no shortest path from x and is never
//     a BFS discovery or parent edge (level-r members are recorded but
//     not expanded). The stored trace is bit-identical to a fresh
//     build; skip.
//   - max(du,dv) <= r(x) and du != dv: a tight in-ball edge; distances,
//     membership or radius may all change. Rebuild.
//   - min(du,dv) <= r(x) < max(du,dv): the edge joins a level-r member
//     to a node outside the ball. Level r is not expanded, so the
//     discovery order is unchanged, no in-ball distance can change (a
//     rerouted member would need the far endpoint as an in-ball
//     intermediate), and the boundary is all of level r whatever its
//     members' outside neighbors. Skip.
//
// Per-edge truncated BFS pairs on the OLD graph supply du and dv
// (unreached within rmax ⇒ farther than every radius ⇒ NoDist, which
// the comparisons treat as +inf; flood vicinities with radius NoDist
// rebuild whenever the classification cannot prove equality). The
// weighted path keeps the conservative per-endpoint ball rule. It was
// needed while a weighted table kept Dijkstra's settle order, which
// heap layout decides among equal distances and a deleted edge can
// perturb when no distance changes. Tables are now sorted by id within
// each run, so that dependence is gone and the rule could be
// sharpened; it has not been yet.
//
// Correctness under batches: marks are a union. If x's final trace
// differs, take the closest member y whose distance changed — the old
// shortest path to y breaks at some deleted edge strictly inside the
// old ball, and that edge classifies as rebuild for x. Insertions in the same batch mark x through the new-graph search
// above whenever they could interact with the stored ball.
func (t *Oracle) classifyDeletions(oldG *graph.Graph, del []delEdge, rmax uint32, add func(uint32)) {
	if len(del) == 0 {
		return
	}
	n := oldG.NumNodes()
	mu := traverse.NewNodeMap(n)
	mv := traverse.NewNodeMap(n)
	q := queue.NewU32(256)
	reached := make([]uint32, 0, 1024)
	bfs := func(m *traverse.NodeMap, src uint32) {
		m.Reset()
		q.Reset()
		m.Set(src, 0, graph.NoNode)
		reached = append(reached, src)
		q.Push(src)
		for !q.Empty() {
			x := q.Pop()
			dx := m.Dist(x)
			if dx >= rmax {
				continue
			}
			for _, y := range oldG.Neighbors(x) {
				if m.Has(y) {
					continue
				}
				m.Set(y, dx+1, x)
				reached = append(reached, y)
				q.Push(y)
			}
		}
	}
	for _, e := range del {
		reached = reached[:0]
		bfs(mu, e.u)
		fromV := len(reached)
		bfs(mv, e.v)
		for i, x := range reached {
			if i >= fromV && mu.Has(x) {
				continue // already classified during the u-side pass
			}
			du, dv := NoDist, NoDist
			if mu.Has(x) {
				du = mu.Dist(x)
			}
			if mv.Has(x) {
				dv = mv.Dist(x)
			}
			lo, hi := min(du, dv), max(du, dv)
			// Rebuild only on a tight in-ball edge; r == NoDist (a flood
			// vicinity) holds every reached node.
			if r := t.radius[x]; hi <= r && lo != hi {
				add(x)
			}
		}
	}
}

// rebuildVicinities recomputes Γ(x) on the updated graph for every
// affected node, with the same truncated BFS/Dijkstra the offline phase
// uses.
func (t *Oracle) rebuildVicinities(newG *graph.Graph, affected []uint32) []vicResult {
	results := make([]vicResult, len(affected))
	weighted := newG.Weighted()
	n := newG.NumNodes()
	parallelFor(t.opts.Workers, len(affected), func(int) any {
		return newBuildWS(n)
	}, func(state any, i int) {
		ws := state.(*buildWS)
		if weighted {
			results[i] = vicinityDijkstra(newG, t.isL, ws, affected[i]).detach()
		} else {
			results[i] = vicinityBFS(newG, t.isL, ws, affected[i]).detach()
		}
	})
	return results
}

// writeVicinities installs the recomputed vicinities (boundary members
// last, runs sorted and coded, as built) by appending them to the
// arena: old snapshots may still read the superseded ranges, which only
// count as waste.
func (t *Oracle) writeVicinities(affected []uint32, results []vicResult) error {
	a := t.arena
	words, dists, widest := uint64(len(a.Words)), uint64(len(a.Dists)), uint64(0)
	for i := range affected {
		words += uint64(len(results[i].code))
		dists += uint64(len(results[i].dists))
		widest = max(widest, uint64(len(results[i].code)))
	}
	if err := checkArenaCapacity(words, dists, widest); err != nil {
		return err
	}
	for i, x := range affected {
		res := &results[i]
		if old := t.vicFlat[x]; old.Len() > 0 {
			t.waste += uint64(old.Bytes() / 4)
		} else {
			t.covered++
		}
		t.radius[x] = res.radius
		t.nearest[x] = res.nearest
		t.boundLen[x] = res.boundLen
		t.vicFlat[x] = a.Add(res.code, res.dists, res.entries)
	}
	return nil
}

// maybeCompact squeezes out superseded ranges once they dominate the
// arena (amortized O(1) per appended word). The compacted arrays are
// fresh allocations, so snapshots still serving the old layout are
// unaffected.
func (t *Oracle) maybeCompact() {
	a := t.arena
	if t.waste > 0 && 2*t.waste > uint64(len(a.Words)+len(a.Dists)) {
		t.arena, t.vicFlat = t.compactVicinityArena()
		t.waste = 0
	}
}

// compactVicinityArena copies every live vicinity into a fresh arena of
// the same kind in node order and returns it with the corresponding
// views. Read-only on the oracle (persistence uses it to write
// waste-free files).
func (o *Oracle) compactVicinityArena() (*u32map.Arena, []u32map.Flat) {
	var words, dists int
	for u := range o.vicFlat {
		r := o.vicFlat[u].Range()
		words += int(r.WLen)
		dists += int(r.ELen)
	}
	na := &u32map.Arena{
		Words:   make([]uint32, 0, words),
		Leveled: o.arena.Leveled,
	}
	if !na.Leveled {
		na.Dists = make([]uint32, 0, dists)
	}
	flat := make([]u32map.Flat, len(o.vicFlat))
	for u := range o.vicFlat {
		flat[u] = o.vicFlat[u].CopyTo(na)
	}
	return na, flat
}
