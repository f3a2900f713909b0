// Package vicinity is an exact point-to-point shortest-path oracle for
// social networks, reproducing "Shortest Paths in Less Than a
// Millisecond" (Agarwal, Caesar, Godfrey, Zhao — WOSN/SIGCOMM 2012).
//
// The oracle precomputes, for every node u, a small "vicinity" Γ(u) —
// all nodes no farther from u than u's nearest landmark, where landmarks
// are sampled with probability growing in node degree — plus full
// distance tables for the landmarks themselves. Each vicinity is stored
// sorted by node id within each BFS level. A query between s and t is
// then a few binary searches and one sorted intersection: either one
// endpoint is a landmark, or one lies in the other's vicinity, or the
// boundary of Γ(s) is intersected with Γ(t) and the minimum
// d(s,w)+d(w,t) over the intersection is the exact distance (Theorem 1
// of the paper). On a
// LiveJournal-profile graph of 50,000 nodes with α = 4 (vicinity size
// ≈ 4√n), 62% of 20,000 uniform random pairs resolve from the tables
// in microseconds; the other 38% fall back to an exact bidirectional
// search unless the request's Policy asks for less.
//
// # Quick start
//
//	g := vicinity.GenerateSocial(10000, 9, 1) // or LoadGraph / NewBuilder
//	oracle, err := vicinity.Build(g, nil)     // nil = paper defaults (α=4)
//	d, method, err := oracle.Distance(12, 97)
//	path, _, err := oracle.Path(12, 97)
//
// # Guarantees
//
// For unweighted graphs every answer whose Method is Exact is the true
// shortest distance; the property is proven in the paper's appendix and
// property-tested in this repository. For weighted graphs (positive
// integer weights), resolved answers are upper bounds that are exact
// whenever some shortest-path vertex lies in both vicinities — see
// DESIGN.md for the honest discussion of the weighted case.
//
// # Dynamic updates
//
// Oracles absorb graph churn without rebuilding: InsertEdge, AddNode,
// DeleteEdge, SetWeight and the batched ApplyUpdates repair only the
// vicinities, boundaries and landmark tables the change can reach,
// following the dynamic scheme of the paper's sequel ("Shortest Paths
// in Microseconds") — growth and deletion alike, so unfollows and
// blocks are as cheap as new ties. Updates are safe to run
// concurrently with queries:
// each mutation builds a new internal snapshot and installs it
// atomically, so in-flight queries keep reading a consistent epoch and
// later queries see the updated graph. An updated oracle answers
// exactly like one freshly built on the mutated graph with the same
// landmark set (property-tested in this repository); see DESIGN.md for
// the repair algorithm and its correctness argument.
//
// Oracles are safe for concurrent use throughout.
package vicinity

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"vicinity/internal/core"
	"vicinity/internal/gen"
	"vicinity/internal/graph"
	"vicinity/internal/xrand"
)

// NoDist is returned as the distance for unreachable or unresolved
// pairs.
const NoDist = ^uint32(0)

// Graph is an immutable undirected graph with dense uint32 node ids.
type Graph struct {
	g *graph.Graph
}

// Builder accumulates edges for a Graph. Self-loops are dropped and
// duplicate edges merged; node ids must be < n.
type Builder struct {
	b *graph.Builder
}

// NewBuilder returns a Builder for a graph over n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{b: graph.NewBuilder(n)}
}

// AddEdge records the undirected edge {u, v} with weight 1.
func (b *Builder) AddEdge(u, v uint32) { b.b.AddEdge(u, v) }

// AddWeightedEdge records the undirected edge {u, v} with weight w
// (w >= 1 for oracle builds).
func (b *Builder) AddWeightedEdge(u, v, w uint32) { b.b.AddWeightedEdge(u, v, w) }

// Build finalizes the graph.
func (b *Builder) Build() *Graph { return &Graph{g: b.b.Build()} }

// NewGraph builds an unweighted graph over n nodes from an edge list.
func NewGraph(n int, edges [][2]uint32) *Graph {
	return &Graph{g: graph.FromEdges(n, edges)}
}

// LoadGraph reads a graph file, auto-detecting the binary format and
// falling back to the text edge-list format ("u v [w]" lines, '#'
// comments).
func LoadGraph(path string) (*Graph, error) {
	g, err := graph.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// SaveBinary writes the graph to path in the fast binary format.
func (g *Graph) SaveBinary(path string) error { return graph.SaveBinaryFile(path, g.g) }

// SaveEdgeList writes the graph to path as a text edge list.
func (g *Graph) SaveEdgeList(path string) error { return graph.SaveEdgeListFile(path, g.g) }

// GenerateSocial returns a synthetic social network: a Holme–Kim
// powerlaw-cluster graph with n nodes, about k·n edges (average degree
// ≈ 2k) and high clustering. Deterministic in seed; always connected.
func GenerateSocial(n, k int, seed uint64) *Graph {
	return &Graph{g: gen.HolmeKim(xrand.New(seed), n, k, 0.5)}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.g.NumNodes() }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.g.NumEdges() }

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u uint32) int { return g.g.Degree(u) }

// Neighbors returns the sorted adjacency of u (shared slice; do not
// modify).
func (g *Graph) Neighbors(u uint32) []uint32 { return g.g.Neighbors(u) }

// HasEdge reports whether the edge {u, v} exists.
func (g *Graph) HasEdge(u, v uint32) bool { return g.g.HasEdge(u, v) }

// AvgDegree returns 2m/n.
func (g *Graph) AvgDegree() float64 { return g.g.AvgDegree() }

// Connected reports whether the graph is connected.
func (g *Graph) Connected() bool { return graph.Connected(g.g) }

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.g.NumNodes(), g.g.NumEdges())
}

// Method reports how a query was answered; see the constants.
type Method = core.Method

// Query resolution methods (Algorithm 1 cases and fallbacks).
const (
	// MethodNone: unresolved (vicinities disjoint, fallback disabled).
	MethodNone = core.MethodNone
	// MethodSame: s == t.
	MethodSame = core.MethodSame
	// MethodLandmarkSource: s is a landmark (answered from its table).
	MethodLandmarkSource = core.MethodLandmarkSource
	// MethodLandmarkTarget: t is a landmark.
	MethodLandmarkTarget = core.MethodLandmarkTarget
	// MethodVicinitySource: t ∈ Γ(s).
	MethodVicinitySource = core.MethodVicinitySource
	// MethodVicinityTarget: s ∈ Γ(t).
	MethodVicinityTarget = core.MethodVicinityTarget
	// MethodIntersection: resolved by the boundary scan.
	MethodIntersection = core.MethodIntersection
	// MethodFallbackExact: resolved by the exact bidirectional fallback.
	MethodFallbackExact = core.MethodFallbackExact
	// MethodFallbackEstimate: landmark triangulation estimate (inexact).
	MethodFallbackEstimate = core.MethodFallbackEstimate
	// MethodUnreachable: no path exists.
	MethodUnreachable = core.MethodUnreachable
	// MethodBudgetBound: a budgeted or canceled fallback stopped early;
	// the distance is its best-known upper bound (Query only).
	MethodBudgetBound = core.MethodBudgetBound
)

// Options configures Build. The zero value (or a nil pointer) gives the
// paper's defaults: α = 4, √degree landmark sampling, vicinities and
// landmark tables. Paths need no option: they derive
// from the stored distances. What a pair the tables miss gets is not a
// build option either: each request's Policy chooses it, and the zero
// Policy is the exact search.
type Options struct {
	// Alpha controls the expected vicinity size α·√n (paper: 4).
	Alpha float64
	// Seed makes landmark sampling deterministic.
	Seed uint64
	// Workers bounds build parallelism (0 = GOMAXPROCS). The offline
	// phase shards across this many goroutines; the built oracle — and
	// any file written by Save — is bit-identical for every worker
	// count, so Workers trades build time only, never output.
	Workers int
	// WithoutLandmarkTables skips the |L|·n landmark distance tables;
	// landmark-endpoint queries then resolve via vicinities or fallback.
	// Built tables store each row at the width its distances need: four
	// bits per node on social networks.
	WithoutLandmarkTables bool
	// Nodes restricts vicinity construction to these nodes (advanced;
	// used by the evaluation harness to mirror the paper's methodology).
	Nodes []uint32
}

// Oracle is the built shortest-path oracle. It is safe for concurrent
// use: queries may run from any number of goroutines, and dynamic
// updates (ApplyUpdates, InsertEdge, AddNode) may run concurrently with
// them — each update installs a new internal snapshot atomically, so
// every query observes one consistent graph-plus-tables epoch.
type Oracle struct {
	ep atomic.Pointer[oracleEpoch]
	mu sync.Mutex // serializes updates; queries never take it
}

// oracleEpoch pairs one immutable core snapshot with its graph wrapper
// so both swap together.
type oracleEpoch struct {
	o *core.Oracle
	g *Graph
}

// cur returns the current epoch.
func (o *Oracle) cur() *oracleEpoch { return o.ep.Load() }

func newOracle(co *core.Oracle, g *Graph) *Oracle {
	o := &Oracle{}
	o.ep.Store(&oracleEpoch{o: co, g: g})
	return o
}

// Build runs the offline phase over g. A nil opts selects the paper's
// defaults.
func Build(g *Graph, opts *Options) (*Oracle, error) {
	if g == nil {
		return nil, errors.New("vicinity: nil graph")
	}
	var co core.Options
	if opts != nil {
		co = core.Options{
			Alpha:                 opts.Alpha,
			Seed:                  opts.Seed,
			Workers:               opts.Workers,
			DisableLandmarkTables: opts.WithoutLandmarkTables,
			Nodes:                 opts.Nodes,
		}
	}
	o, err := core.Build(g.g, co)
	if err != nil {
		return nil, fmt.Errorf("vicinity: %w", err)
	}
	return newOracle(o, g), nil
}

// Save writes the oracle's current epoch to path in the versioned,
// checksummed binary oracle format (see DESIGN.md). The file is
// self-contained — it embeds the graph alongside every built table —
// so LoadOracle restores serving state without re-running Build.
// Storage holes left by earlier updates are compacted away on write.
func (o *Oracle) Save(path string) error {
	if err := core.SaveOracleFile(path, o.cur().o); err != nil {
		return fmt.Errorf("vicinity: save oracle: %w", err)
	}
	return nil
}

// LoadOracle reads an oracle written by Save. Loading is array copies
// plus a checksum pass — orders of magnitude faster than rebuilding —
// and the loaded oracle answers every query identically to the
// original. Corrupt or truncated files are rejected.
func LoadOracle(path string) (*Oracle, error) {
	co, err := core.LoadOracleFile(path)
	if err != nil {
		return nil, fmt.Errorf("vicinity: load oracle: %w", err)
	}
	return newOracle(co, &Graph{g: co.Graph()}), nil
}

// Graph returns the graph of the oracle's current epoch. The returned
// Graph is an immutable snapshot: updates applied to the oracle later
// produce new snapshots and never mutate it.
func (o *Oracle) Graph() *Graph { return o.cur().g }

// Update is a batch of graph mutations for ApplyUpdates: AddNodes
// fresh nodes (assigned ids n .. n+AddNodes-1, where n is the node
// count before the batch), inserted undirected unit-weight Edges
// (which may reference the new ids; self-loops, duplicates and edges
// already present are ignored), deleted edges (DelEdges — every edge
// must exist, ErrEdgeNotFound otherwise), DelNodes (shorthand for
// deleting every incident edge; the id survives as an isolated node),
// and SetWeights weight changes for weighted oracles (on unweighted
// oracles only W == 1 is accepted, as an idempotent insert-or-keep
// upsert). A batch naming the same edge in conflicting ops (inserted
// and deleted, or deleted and reweighted) is rejected whole.
type Update = core.Update

// WeightChange sets edge {U, V} to weight W in Update.SetWeights.
type WeightChange = core.WeightChange

// ApplyUpdates mutates the oracle's graph in place of a rebuild: new
// edges and nodes, deleted edges, and changed weights are absorbed by
// repairing only the vicinities, boundaries and landmark tables the
// change can reach (typically a small neighborhood of the touched
// endpoints). The repaired oracle answers every query exactly as an
// oracle freshly built on the mutated graph with the same landmark set
// would.
//
// ApplyUpdates is safe to call concurrently with queries — they keep
// reading the previous epoch until the new one is installed atomically
// — and updates are serialized among themselves. Weighted oracles
// accept deletions and weight changes but not edge insertion
// (ErrWeightedUpdate); the landmark set is kept fixed, so after the
// graph has drifted far from its built size a fresh Build re-balances
// the α·√n size trade-off (see DESIGN.md).
func (o *Oracle) ApplyUpdates(u Update) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	cur := o.cur()
	co, err := cur.o.ApplyUpdates(u)
	if err != nil {
		return fmt.Errorf("vicinity: apply updates: %w", err)
	}
	if co != cur.o {
		o.ep.Store(&oracleEpoch{o: co, g: &Graph{g: co.Graph()}})
	}
	return nil
}

// ErrWeightedUpdate is returned when an update needs unweighted
// semantics on a weighted oracle: edge insertion (a new edge has no
// well-defined weight there) or a SetWeights entry with W != 1 on an
// unweighted oracle.
var ErrWeightedUpdate = core.ErrWeightedUpdate

// ErrEdgeNotFound is returned when an update deletes or reweights an
// edge that does not exist in the current graph. Nothing is applied.
var ErrEdgeNotFound = core.ErrEdgeNotFound

// InsertEdge adds the undirected unit-weight edge {u, v} to the graph
// and repairs the oracle incrementally. Equivalent to ApplyUpdates
// with a single edge; for many edges, one batched ApplyUpdates is
// cheaper than repeated InsertEdge calls.
func (o *Oracle) InsertEdge(u, v uint32) error {
	return o.ApplyUpdates(Update{Edges: [][2]uint32{{u, v}}})
}

// DeleteEdge removes the undirected edge {u, v} and repairs the oracle
// decrementally (ErrEdgeNotFound if the edge does not exist). The
// endpoints survive; a node left without edges becomes unreachable.
// Equivalent to ApplyUpdates with a single DelEdges entry.
func (o *Oracle) DeleteEdge(u, v uint32) error {
	return o.ApplyUpdates(Update{DelEdges: [][2]uint32{{u, v}}})
}

// SetWeight changes the weight of the existing edge {u, v} to w on a
// weighted oracle and repairs the affected state (ErrEdgeNotFound if
// the edge does not exist). On unweighted oracles only w == 1 is
// legal, where it degenerates to an idempotent InsertEdge. Equivalent
// to ApplyUpdates with a single SetWeights entry.
func (o *Oracle) SetWeight(u, v, w uint32) error {
	return o.ApplyUpdates(Update{SetWeights: []WeightChange{{U: u, V: v, W: w}}})
}

// AddNode grows the graph by one isolated node and returns its id.
// Connect it with InsertEdge or ApplyUpdates; until then it is
// unreachable from every other node.
func (o *Oracle) AddNode() (uint32, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	cur := o.cur()
	id := uint32(cur.o.Graph().NumNodes())
	co, err := cur.o.ApplyUpdates(Update{AddNodes: 1})
	if err != nil {
		return 0, fmt.Errorf("vicinity: add node: %w", err)
	}
	o.ep.Store(&oracleEpoch{o: co, g: &Graph{g: co.Graph()}})
	return id, nil
}

// Request describes one request-scoped query for Query: a source, one
// target (T) or many (Ts, the one-to-many ranking shape), and
// per-request settings — fallback Policy, a fallback search node
// Budget, ranked-alternatives fan-out K, and the WantPath/WantStats
// flags. The zero value of every setting is the default behavior: the
// exact search for pairs the tables miss, no budget, no path.
type Request = core.Request

// Result carries the answer(s) of one Query: distance/method/path for
// a single target, Items for one-to-many, the ranked alternatives in
// Paths when Request.K > 1, plus the snapshot Epoch that answered and
// the per-request cost counters.
type Result = core.Result

// PathAlt is one ranked alternative in Result.Paths: a loopless path
// (endpoints inclusive) and its total distance. Alternatives are
// sorted by (distance, length, lexicographic order), so the ranking is
// deterministic for a given graph snapshot.
type PathAlt = core.PathAlt

// MaxK caps Request.K, the number of ranked loopless alternatives one
// query may ask for. K = 1 answers bit-identically to a plain WantPath
// query; fewer than K paths may exist, in which case Result.Paths
// holds all of them.
const MaxK = core.MaxK

// ItemResult is one target's answer in a one-to-many Result.
type ItemResult = core.ItemResult

// Cost aggregates the work one Query performed (table look-ups, scan
// members examined, fallback searches and their node expansions).
type Cost = core.Cost

// Policy selects what a pair the stored tables cannot decide gets. It
// is chosen per request; there is no build-time default to override.
type Policy = core.Policy

// Per-request fallback policies.
const (
	// PolicyDefault, the zero value, is the exact search: the same
	// behavior as PolicyFull.
	PolicyDefault = core.PolicyDefault
	// PolicyFull answers unresolved queries with the exact
	// bidirectional search (bounded by Request.Budget and ctx). It
	// equals PolicyDefault.
	PolicyFull = core.PolicyFull
	// PolicyEstimate answers unresolved queries with the landmark
	// triangulation upper bound (no search).
	PolicyEstimate = core.PolicyEstimate
	// PolicyTableOnly answers from the stored tables only.
	PolicyTableOnly = core.PolicyTableOnly
)

// ParsePolicy parses "default", "full", "estimate" or "table".
func ParsePolicy(s string) (Policy, error) { return core.ParsePolicy(s) }

// The query error taxonomy. Every error returned by the query surface
// wraps one of these sentinels (plus ErrWeightedUpdate on the update
// surface), so callers branch with errors.Is instead of matching
// strings; the wire protocol and HTTP API carry the same taxonomy as
// typed error codes.
var (
	// ErrNodeRange: a query node id is >= NumNodes.
	ErrNodeRange = core.ErrNodeRange
	// ErrNotCovered: a query node is outside the build scope.
	ErrNotCovered = core.ErrNotCovered
	// ErrUnreachable: the taxonomy entry tools use to surface "no
	// path" as an error; the query engine itself reports
	// unreachability in-band (NoDist + MethodUnreachable, nil error).
	ErrUnreachable = core.ErrUnreachable
	// ErrBudgetExceeded: a fallback search stopped at Request.Budget
	// node expansions; the Result still carries the best-known upper
	// bound.
	ErrBudgetExceeded = core.ErrBudgetExceeded
	// ErrCanceled: the request context was canceled or its deadline
	// expired mid-query; wraps the context's own error.
	ErrCanceled = core.ErrCanceled
	// ErrStaleSnapshot: updates were applied to a superseded snapshot.
	ErrStaleSnapshot = core.ErrStaleSnapshot
)

// Query answers one request-scoped query against the oracle's current
// epoch: one target or a one-to-many ranking (Request.Ts, answered
// with one table pass and one inverted boundary scan, every item equal
// to the single-target answer), per-request fallback policy, a node
// budget for the fallback search, and context cancellation honored
// inside the search loop. All answers of one call read one epoch, and
// Result.Cost reports the work. See the core package's Query
// documentation for the budget and cancellation contracts. Query is
// the oracle's one query entry point; Distance and Path are one-line
// helpers over it.
func (o *Oracle) Query(ctx context.Context, req Request) (Result, error) {
	return o.cur().o.Query(ctx, req)
}

// Distance returns the distance from s to t and the method that
// resolved it. Pairs the tables miss get the exact search, so NoDist
// with a nil error means unreachable (MethodUnreachable).
//
// Distance is a one-line helper over Query with a default-policy
// Request; use Query directly for rankings, deadlines, budgets or
// per-query policy.
func (o *Oracle) Distance(s, t uint32) (uint32, Method, error) {
	res, err := o.cur().o.Query(context.Background(), core.Request{S: s, T: t})
	return res.Dist, res.Method, err
}

// Path returns a shortest path from s to t inclusive of endpoints, or
// nil when no path exists or the query fails.
//
// Path is a one-line helper over Query with a default-policy Request
// and WantPath set; use Query directly for rankings, deadlines, budgets
// or per-query policy.
func (o *Oracle) Path(s, t uint32) ([]uint32, Method, error) {
	res, err := o.cur().o.Query(context.Background(), core.Request{S: s, T: t, WantPath: true})
	return res.Path, res.Method, err
}

// IsLandmark reports whether u is in the sampled landmark set L.
func (o *Oracle) IsLandmark(u uint32) bool { return o.cur().o.IsLandmark(u) }

// Landmarks returns the sorted landmark set (shared slice; do not
// modify). The set is fixed at Build time; dynamic updates do not
// re-sample it.
func (o *Oracle) Landmarks() []uint32 { return o.cur().o.Landmarks() }

// VicinitySize returns |Γ(u)| (0 for landmarks).
func (o *Oracle) VicinitySize(u uint32) int { return o.cur().o.VicinitySize(u) }

// Radius returns d(u, l(u)), u's distance to its nearest landmark.
func (o *Oracle) Radius(u uint32) uint32 { return o.cur().o.Radius(u) }

// Stats summarizes the built data structure.
type Stats struct {
	Nodes, Edges  int
	Alpha         float64
	Landmarks     int
	AvgVicinity   float64
	MaxVicinity   int
	AvgBoundary   float64
	AvgRadius     float64
	TotalEntries  int64
	TotalBytes    int64
	SavingsVsAPSP float64 // all-pairs entries / stored entries
}

// Stats computes the oracle's build and memory statistics for the
// current epoch.
func (o *Oracle) Stats() Stats {
	co := o.cur().o
	bs := co.Stats()
	ms := co.Memory()
	return Stats{
		Nodes:         bs.Nodes,
		Edges:         bs.Edges,
		Alpha:         bs.Alpha,
		Landmarks:     bs.Landmarks,
		AvgVicinity:   bs.AvgVicinity,
		MaxVicinity:   bs.MaxVicinity,
		AvgBoundary:   bs.AvgBoundary,
		AvgRadius:     bs.AvgRadius,
		TotalEntries:  ms.TotalEntries,
		TotalBytes:    ms.TotalBytes,
		SavingsVsAPSP: ms.SavingsFactor,
	}
}

// String summarizes the stats.
func (s Stats) String() string {
	return fmt.Sprintf(
		"oracle(n=%d, m=%d, α=%g, |L|=%d, |Γ| avg %.0f, %.1f MB, %0.fx vs APSP)",
		s.Nodes, s.Edges, s.Alpha, s.Landmarks, s.AvgVicinity,
		float64(s.TotalBytes)/(1<<20), s.SavingsVsAPSP)
}
