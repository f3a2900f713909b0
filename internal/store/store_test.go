package store

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"vicinity/internal/core"
	"vicinity/internal/gen"
	"vicinity/internal/graph"
	"vicinity/internal/xrand"
)

// queryDist answers (s, t) through a default-policy core Query.
func queryDist(o *core.Oracle, s, t uint32) (uint32, core.Method, error) {
	res, err := o.Query(context.Background(), core.Request{S: s, T: t})
	return res.Dist, res.Method, err
}

// queryPath is queryDist with WantPath set.
func queryPath(o *core.Oracle, s, t uint32) ([]uint32, core.Method, error) {
	res, err := o.Query(context.Background(), core.Request{S: s, T: t, WantPath: true})
	return res.Path, res.Method, err
}

// buildOracle builds a small social-shaped test oracle.
func buildOracle(t testing.TB, seed uint64, n int) *core.Oracle {
	t.Helper()
	g := gen.HolmeKim(xrand.New(seed), n, 4, 0.5)
	o, err := core.Build(g, core.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// cloneOracle round-trips o through the snapshot format — exactly what
// a replica receives over the wire.
func cloneOracle(t testing.TB, o *core.Oracle) *core.Oracle {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteOracle(&buf, o); err != nil {
		t.Fatal(err)
	}
	got, err := core.ReadOracle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// churnKey normalizes an undirected edge to one map key.
func churnKey(u, v uint32) uint64 {
	if v < u {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// randomChurnBatch draws a mixed update batch valid against g:
// deletions from live adjacency, occasional node retirement, fresh
// edges and nodes, and weight-1 upserts — the same mix the core churn
// harness uses, regenerated here against the public graph API.
func randomChurnBatch(r *xrand.Rand, g *graph.Graph) core.Update {
	var upd core.Update
	n := uint32(g.NumNodes())
	seen := make(map[uint64]bool)
	for i := int(r.Uint32n(4)); i > 0; i-- {
		u := r.Uint32n(n)
		adj := g.Neighbors(u)
		if len(adj) == 0 {
			continue
		}
		v := adj[r.Uint32n(uint32(len(adj)))]
		if k := churnKey(u, v); !seen[k] {
			seen[k] = true
			upd.DelEdges = append(upd.DelEdges, [2]uint32{u, v})
		}
	}
	if r.Uint32n(8) == 0 {
		u := r.Uint32n(n)
		if deg := g.Degree(u); deg > 0 && deg <= 6 {
			for _, v := range g.Neighbors(u) {
				seen[churnKey(u, v)] = true
			}
			upd.DelNodes = append(upd.DelNodes, u)
		}
	}
	if r.Uint32n(4) == 0 {
		upd.AddNodes = int(r.Uint32n(3))
	}
	total := n + uint32(upd.AddNodes)
	for i := int(1 + r.Uint32n(5)); i > 0; i-- {
		u, v := r.Uint32n(total), r.Uint32n(total)
		if u != v && !seen[churnKey(u, v)] {
			upd.Edges = append(upd.Edges, [2]uint32{u, v})
		}
	}
	for a := n; a < total; a++ {
		if v := r.Uint32n(n); !seen[churnKey(a, v)] {
			upd.Edges = append(upd.Edges, [2]uint32{a, v})
		}
	}
	if r.Uint32n(3) == 0 {
		u, v := r.Uint32n(n), r.Uint32n(n)
		if u != v && !seen[churnKey(u, v)] {
			upd.SetWeights = append(upd.SetWeights, core.WeightChange{U: u, V: v, W: 1})
		}
	}
	return upd
}

// assertStatesAgree property-tests that two states answer a sampled
// query matrix bit-identically: distance, method, and path.
func assertStatesAgree(t *testing.T, a, b *State, trials int) {
	t.Helper()
	if a.Epoch != b.Epoch {
		t.Fatalf("epochs diverge: %d vs %d", a.Epoch, b.Epoch)
	}
	n := a.Oracle.Graph().NumNodes()
	if bn := b.Oracle.Graph().NumNodes(); bn != n {
		t.Fatalf("node counts diverge: %d vs %d", n, bn)
	}
	r := xrand.New(1234)
	for trial := 0; trial < trials; trial++ {
		s, u := r.Uint32n(uint32(n)), r.Uint32n(uint32(n))
		da, ma, errA := queryDist(a.Oracle, s, u)
		db, mb, errB := queryDist(b.Oracle, s, u)
		if (errA == nil) != (errB == nil) || da != db || ma != mb {
			t.Fatalf("(%d,%d): %d/%v/%v vs %d/%v/%v", s, u, da, ma, errA, db, mb, errB)
		}
		pa, _, _ := queryPath(a.Oracle, s, u)
		pb, _, _ := queryPath(b.Oracle, s, u)
		if len(pa) != len(pb) {
			t.Fatalf("(%d,%d): path lengths diverge: %v vs %v", s, u, pa, pb)
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("(%d,%d): paths diverge at %d", s, u, i)
			}
		}
	}
}

func TestCatalogApplyEmitsDeltas(t *testing.T) {
	o := buildOracle(t, 7, 300)
	c := NewCatalog(o, RoleWriter)
	if got := c.Manifest(); got.Epoch != 0 || got.MinDelta != 0 || got.MaxDelta != 0 {
		t.Fatalf("fresh manifest: %+v", got)
	}

	r := xrand.New(9)
	for i := 0; i < 5; i++ {
		g := c.State().Oracle.Graph()
		st, err := c.Apply(randomChurnBatch(r, g))
		if err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		if st.Epoch != uint64(i+1) {
			t.Fatalf("apply %d: epoch %d", i, st.Epoch)
		}
	}
	m := c.Manifest()
	if m.Role != "writer" || m.Epoch != 5 || m.MinDelta != 1 || m.MaxDelta != 5 {
		t.Fatalf("manifest after churn: %+v", m)
	}
	for to := uint64(1); to <= 5; to++ {
		raw, ok := c.DeltaArtifact(to)
		if !ok {
			t.Fatalf("delta %d not retained", to)
		}
		d, err := core.DecodeDelta(raw)
		if err != nil || d.ToEpoch != to || d.FromEpoch != to-1 {
			t.Fatalf("delta %d malformed: %+v, %v", to, d, err)
		}
	}
	if _, ok := c.DeltaArtifact(6); ok {
		t.Fatal("nonexistent delta served")
	}

	// A no-op batch changes nothing.
	st, err := c.Apply(core.Update{})
	if err != nil || st.Epoch != 5 {
		t.Fatalf("no-op batch: epoch %d, %v", st.Epoch, err)
	}
	if c.Updates() != 5 {
		t.Fatalf("updates counter: %d", c.Updates())
	}

	// Retention trims from the oldest end.
	c.SetDeltaRetention(2)
	if m := c.Manifest(); m.MinDelta != 4 || m.MaxDelta != 5 {
		t.Fatalf("manifest after trim: %+v", m)
	}
	if _, ok := c.DeltaArtifact(3); ok {
		t.Fatal("trimmed delta still served")
	}
}

func TestCatalogRoleGating(t *testing.T) {
	o := buildOracle(t, 5, 200)
	replica := NewCatalog(cloneOracle(t, o), RoleReplica)
	if _, err := replica.Apply(core.Update{Edges: [][2]uint32{{0, 9}}}); !errors.Is(err, ErrReplicaReadOnly) {
		t.Fatalf("replica Apply: %v", err)
	}

	writer := NewCatalog(o, RoleWriter)
	st, err := writer.Apply(core.Update{Edges: [][2]uint32{{0, 99}}})
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := writer.DeltaArtifact(st.Epoch)
	if _, err := writer.ApplyDeltaBytes(raw); !errors.Is(err, ErrWriterFollows) {
		t.Fatalf("writer ApplyDeltaBytes: %v", err)
	}
	if _, err := writer.InstallSnapshot(o, 9); !errors.Is(err, ErrWriterFollows) {
		t.Fatalf("writer InstallSnapshot: %v", err)
	}

	// Replica replays the artifact; a second replay is a gap.
	if _, err := replica.ApplyDeltaBytes(raw); err != nil {
		t.Fatalf("replica replay: %v", err)
	}
	if _, err := replica.ApplyDeltaBytes(raw); !errors.Is(err, ErrDeltaGap) {
		t.Fatalf("gapped replay: %v", err)
	}
	// Installing an older snapshot is a regression.
	if _, err := replica.InstallSnapshot(o, 0); !errors.Is(err, ErrEpochRegression) {
		t.Fatalf("regression install: %v", err)
	}
	assertStatesAgree(t, writer.State(), replica.State(), 200)
}

// TestReplicatorDeltaCatchup: a replica that starts from the writer's
// epoch-0 snapshot converges through the delta path alone and answers
// bit-identically.
func TestReplicatorDeltaCatchup(t *testing.T) {
	o := buildOracle(t, 11, 300)
	writer := NewCatalog(o, RoleWriter)
	srv := httptest.NewServer(ReplHandler(writer))
	defer srv.Close()

	replica := NewCatalog(cloneOracle(t, o), RoleReplica)
	rep := &Replicator{Catalog: replica, Base: srv.URL}

	r := xrand.New(21)
	for i := 0; i < 8; i++ {
		if _, err := writer.Apply(randomChurnBatch(r, writer.State().Oracle.Graph())); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	if err := rep.SyncOnce(context.Background()); err != nil {
		t.Fatalf("sync: %v", err)
	}
	assertStatesAgree(t, writer.State(), replica.State(), 300)

	rs := replica.ReplStats()
	if rs.DeltaSyncs != 8 || rs.FullSyncs != 0 {
		t.Fatalf("sync counters: %+v", rs)
	}
	if rs.Lag != 0 || rs.UpstreamEpoch != 8 {
		t.Fatalf("lag gauges: %+v", rs)
	}
	if rs.LastSyncBytes <= 0 || rs.Fetch.Count() == 0 {
		t.Fatalf("fetch gauges: %+v", rs)
	}

	// Already converged: another sync is a no-op.
	if err := rep.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rs := replica.ReplStats(); rs.DeltaSyncs != 8 || rs.FullSyncs != 0 {
		t.Fatalf("idle sync changed counters: %+v", rs)
	}
}

// TestReplicatorSnapshotFallback: when the writer's retained window no
// longer covers the replica's state — or the replica bootstraps empty —
// one full snapshot fetch restores convergence.
func TestReplicatorSnapshotFallback(t *testing.T) {
	o := buildOracle(t, 13, 300)
	writer := NewCatalog(o, RoleWriter)
	writer.SetDeltaRetention(2)
	srv := httptest.NewServer(ReplHandler(writer))
	defer srv.Close()

	// Bootstrap: the replica starts with an empty placeholder oracle.
	replica, err := Bootstrap(RoleReplica)
	if err != nil {
		t.Fatal(err)
	}
	rep := &Replicator{Catalog: replica, Base: srv.URL}

	r := xrand.New(23)
	for i := 0; i < 6; i++ {
		if _, err := writer.Apply(randomChurnBatch(r, writer.State().Oracle.Graph())); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	// Writer is at epoch 6 retaining only deltas 5..6: the replica (at
	// 0, and with a different base anyway) must take the snapshot path.
	if err := rep.SyncOnce(context.Background()); err != nil {
		t.Fatalf("sync: %v", err)
	}
	assertStatesAgree(t, writer.State(), replica.State(), 300)
	rs := replica.ReplStats()
	if rs.FullSyncs != 1 || rs.DeltaSyncs != 0 {
		t.Fatalf("sync counters: %+v", rs)
	}
	snapshotBytes := rs.LastSyncBytes

	// Further churn within the window rides the delta path, and each
	// delta is far smaller than the snapshot.
	for i := 0; i < 2; i++ {
		if _, err := writer.Apply(randomChurnBatch(r, writer.State().Oracle.Graph())); err != nil {
			t.Fatal(err)
		}
	}
	if err := rep.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertStatesAgree(t, writer.State(), replica.State(), 300)
	rs = replica.ReplStats()
	if rs.FullSyncs != 1 || rs.DeltaSyncs != 2 {
		t.Fatalf("sync counters after delta ride: %+v", rs)
	}
	if rs.LastSyncBytes*10 >= snapshotBytes {
		t.Fatalf("delta sync of %d bytes not measurably cheaper than %d-byte snapshot",
			rs.LastSyncBytes, snapshotBytes)
	}
}

// TestReplicationConvergenceUnderChurn is the randomized convergence
// property: replicas polling concurrently with writer churn all reach
// the writer's final epoch, and a sampled query matrix is
// bit-identical across every node. One replica keeps a tiny retention
// window by syncing rarely, exercising the snapshot fallback mid-run.
func TestReplicationConvergenceUnderChurn(t *testing.T) {
	o := buildOracle(t, 31, 400)
	writer := NewCatalog(o, RoleWriter)
	writer.SetDeltaRetention(4)
	srv := httptest.NewServer(ReplHandler(writer))
	defer srv.Close()

	base := cloneOracle(t, o)
	replicas := []*Catalog{
		NewCatalog(base, RoleReplica),
		NewCatalog(cloneOracle(t, o), RoleReplica),
	}
	reps := []*Replicator{
		{Catalog: replicas[0], Base: srv.URL},
		{Catalog: replicas[1], Base: srv.URL},
	}

	r := xrand.New(41)
	rounds := 30
	if testing.Short() {
		rounds = 10
	}
	for i := 0; i < rounds; i++ {
		if _, err := writer.Apply(randomChurnBatch(r, writer.State().Oracle.Graph())); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		// Replica 0 polls eagerly (delta path); replica 1 polls rarely,
		// so the 4-delta window forces periodic snapshot fallbacks.
		if err := reps[0].SyncOnce(context.Background()); err != nil {
			t.Fatalf("replica 0 sync %d: %v", i, err)
		}
		if i%7 == 6 {
			if err := reps[1].SyncOnce(context.Background()); err != nil {
				t.Fatalf("replica 1 sync %d: %v", i, err)
			}
		}
	}
	for _, rep := range reps {
		if err := rep.SyncOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	final := writer.State()
	for i, rc := range replicas {
		st := rc.State()
		if st.Epoch != final.Epoch {
			t.Fatalf("replica %d stuck at epoch %d, writer at %d", i, st.Epoch, final.Epoch)
		}
		assertStatesAgree(t, final, st, 400)
	}
	if rs := replicas[1].ReplStats(); rs.FullSyncs == 0 {
		t.Fatalf("slow replica never exercised the snapshot fallback: %+v", rs)
	}
	if rs := replicas[0].ReplStats(); rs.DeltaSyncs == 0 {
		t.Fatalf("eager replica never used the delta path: %+v", rs)
	}
}
