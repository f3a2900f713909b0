package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"vicinity/internal/graph"
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
	results := t.computeVicinities(newG, affected)
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

// Phase-A/B mark states for the decremental landmark repair.
const (
	lmPending   = 1 // enqueued for a support check at its old level
	lmInvalid   = 2 // lost support: distance must grow (or become NoDist)
	lmSupported = 3 // keeps its old distance through a surviving supporter
)

// lmRepairWS is the per-worker scratch of the landmark-row repair. xd
// holds the exception distances of the row under repair by node (NoDist
// for none, its state between rows) and xtouched the nodes whose entry
// changed (see rowEdit). The level buckets implement the monotone
// bucket queue both the invalidation walk and the re-settle BFS need;
// mark/touched give O(1) membership with O(touched) cleanup between
// rows.
type lmRepairWS struct {
	xd       []uint32
	xtouched []uint32
	q        *queue.U32
	mark     []uint8
	touched  []uint32
	inval    []uint32
	buckets  [][]uint32
	bLo, bHi int
}

func newLmRepairWS(n int) *lmRepairWS {
	return &lmRepairWS{xd: grow([]uint32(nil), n, NoDist), q: queue.NewU32(256), mark: make([]uint8, n), bLo: math.MaxInt, bHi: -1}
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
// exact. A repaired row ends in the form the chooser picks for it, the
// rule a fresh build follows (lrow.rechosen), so a repaired row is
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
		// Repair a copy of the row in place, regrown for added nodes
		// (older snapshots keep reading the original), code by code, with
		// its exception edits kept in the worker's scratch. Only a row
		// whose chosen form changes is expanded and packed again. A
		// repair that sets no distance, as when every endpoint of a tight
		// deleted edge keeps another supporter, leaves the row as it was:
		// it stays shared, in the form already chosen for it. Workers
		// write distinct pos elements, so assigning into the shared outer
		// slice is race-free.
		r := old.extended(newN)
		rw := ws.edit(&r)
		changed := repairRow(rw, newG, cs, ws, delTouched)
		rw.finish()
		if changed || grow {
			t.lrows[pos] = r.rechosen(newN)
		}
	})
}

// rowEdit is a row repaired in place. A distance in the codes' window
// is written as its code, any other as the escape; the exception
// distances live in the worker's xd array meanwhile, and finish folds
// them back into a sorted list.
type rowEdit struct {
	r  *lrow
	ws *lmRepairWS
}

// edit starts the repair of row r, loading its exceptions into xd.
func (ws *lmRepairWS) edit(r *lrow) rowEdit {
	for i, v := range r.xnode {
		ws.xd[v] = r.xdist[i]
	}
	return rowEdit{r, ws}
}

func (e rowEdit) get(v uint32) uint32 {
	if c := e.r.code(v); c != e.r.esc {
		return e.r.base + c
	}
	return e.ws.xd[v]
}

func (e rowEdit) set(v, d uint32) {
	c := d - e.r.base
	if c < e.r.esc {
		d = NoDist // in the window: no exception
	} else {
		c = e.r.esc
	}
	if xd := &e.ws.xd[v]; *xd != d {
		*xd = d
		e.ws.xtouched = append(e.ws.xtouched, v)
	}
	e.r.setCode(v, c)
}

// finish gives the row the exception list xd now holds and clears xd.
// A row whose exceptions did not change keeps sharing its list.
func (e rowEdit) finish() {
	r, ws := e.r, e.ws
	touched := ws.xtouched
	slices.Sort(touched)
	touched = slices.Compact(touched)
	// each visits the nodes that held or hold an exception, in order.
	each := func(fn func(v uint32)) {
		i, j := 0, 0
		for i < len(r.xnode) || j < len(touched) {
			switch {
			case j == len(touched) || i < len(r.xnode) && r.xnode[i] < touched[j]:
				fn(r.xnode[i])
				i++
			case i == len(r.xnode) || touched[j] < r.xnode[i]:
				fn(touched[j])
				j++
			default:
				fn(touched[j])
				i, j = i+1, j+1
			}
		}
	}
	if len(touched) > 0 {
		x := 0
		each(func(v uint32) {
			if ws.xd[v] != NoDist {
				x++
			}
		})
		nodes, dists := make([]uint32, 0, x), make([]uint32, 0, x)
		each(func(v uint32) {
			if d := ws.xd[v]; d != NoDist {
				nodes, dists = append(nodes, v), append(dists, d)
			}
		})
		each(func(v uint32) { ws.xd[v] = NoDist })
		r.xnode, r.xdist = nodes, dists
	}
	for _, v := range r.xnode {
		ws.xd[v] = NoDist
	}
	ws.xtouched = touched[:0]
}

// repairRow runs the three-phase repair on one unweighted landmark row
// and reports whether it set any distance.
func repairRow(row rowEdit, newG *graph.Graph, cs *changeSet, ws *lmRepairWS, delTouched bool) bool {

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
			row.set(a, NoDist)
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
				row.set(a, best)
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
						row.set(y, lw+1)
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
	changed := len(ws.inval) > 0
	relax := func(from, to uint32) {
		if df := row.get(from); df != NoDist {
			if dt := row.get(to); dt == NoDist || dt > df+1 {
				row.set(to, df+1)
				q.Push(to)
				changed = true
			}
		}
	}
	for _, e := range cs.ins {
		relax(e[0], e[1])
		relax(e[1], e[0])
	}
	for _, a := range ws.inval {
		q.Push(a)
	}
	for !q.Empty() {
		x := q.Pop()
		for _, y := range newG.Neighbors(x) {
			relax(x, y)
		}
	}
	return changed
}

// repairLandmarkTablesWeighted repairs weighted rows by a tightness
// test plus full recompute: a deletion or weight increase can change a
// row only if the edge was on some shortest path (du + w == dv up to
// symmetry), a weight decrease only if it improves one endpoint through
// the other. Rows failing every test are provably identical. Affected
// rows are recomputed by one Dijkstra, exactly as the offline build
// does, and stored in the form chosen for them.
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
	ws := newBuildWS(newN)
	within := func(x, d uint32) {
		if d <= t.radius[x] {
			add(x)
		}
	}
	search := func(g *graph.Graph, eps []uint32) {
		for _, e := range eps {
			ws.ball(g, e, rmax, ws.nm, within)
		}
	}
	if newG.Weighted() {
		search(oldG, upEps)
		search(newG, downEps)
	} else {
		search(newG, downEps)
		t.classifyDeletions(oldG, cs.del, rmax, ws, add)
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
// rebuild whenever the classification cannot prove equality).
//
// The weighted path keeps the conservative per-endpoint ball rule. It
// was needed while a weighted table kept Dijkstra's settle order, which
// heap layout decides among equal distances and a deleted edge can
// perturb when no distance changes. Tables are now sorted by id within
// each run, so that dependence is gone and the rule could be sharpened;
// it has not been yet.
//
// Correctness under batches: marks are a union. If x's final trace
// differs, take the closest member y whose distance changed — the old
// shortest path to y breaks at some deleted edge strictly inside the
// old ball, and that edge classifies as rebuild for x. Insertions in
// the same batch mark x through the new-graph search whenever they
// could interact with the stored ball.
func (t *Oracle) classifyDeletions(oldG *graph.Graph, del []delEdge, rmax uint32, ws *buildWS, add func(uint32)) {
	if len(del) == 0 {
		return
	}
	n := oldG.NumNodes()
	mu := traverse.NewNodeMap(n)
	mv := traverse.NewNodeMap(n)
	reached := make([]uint32, 0, 1024)
	reach := func(x, _ uint32) { reached = append(reached, x) }
	for _, e := range del {
		reached = reached[:0]
		ws.ball(oldG, e.u, rmax, mu, reach)
		fromV := len(reached)
		ws.ball(oldG, e.v, rmax, mv, reach)
		for i, x := range reached {
			if i >= fromV && mu.Has(x) {
				continue // already classified during the u-side pass
			}
			du, dv := mu.Dist(x), mv.Dist(x)
			lo, hi := min(du, dv), max(du, dv)
			// Rebuild only on a tight in-ball edge; r == NoDist (a flood
			// vicinity) holds every reached node.
			if r := t.radius[x]; hi <= r && lo != hi {
				add(x)
			}
		}
	}
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
