package qserver

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vicinity/internal/core"
	"vicinity/internal/gen"
	"vicinity/internal/store"
	"vicinity/internal/wire"
	"vicinity/internal/xrand"
)

// startServerWith starts a TCP server for an existing Server value on a
// loopback port, mirroring startServer's lifecycle management.
func startServerWith(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.Serve(ln)
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		<-done
	})
	return ln.Addr().String()
}

// TestReplicatedServing drives the full writer → replica loop through
// the real HTTP replication endpoints and the real TCP query surface: a
// replica bootstrapped empty converges on the churned writer and
// answers every query identically, reporting the writer's cluster
// epoch (not its local generation counter).
func TestReplicatedServing(t *testing.T) {
	const n = 300
	g := gen.HolmeKim(xrand.New(7), n, 4, 0.5)
	o, err := core.Build(g, core.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	writer := NewWithCatalog(store.NewCatalog(o, store.RoleWriter), Config{})
	writerAddr := startServerWith(t, writer)
	wh := httptest.NewServer(writer.Handler())
	defer wh.Close()

	repCat, err := store.Bootstrap(store.RoleReplica)
	if err != nil {
		t.Fatal(err)
	}
	replica := NewWithCatalog(repCat, Config{})
	replicaAddr := startServerWith(t, replica)

	repl := &store.Replicator{Catalog: repCat, Base: wh.URL}
	ctx := context.Background()
	// First sync: nothing retained covers epoch 0 → full snapshot.
	if err := repl.SyncOnce(ctx); err != nil {
		t.Fatalf("initial sync: %v", err)
	}
	if got := repCat.Epoch(); got != 0 {
		t.Fatalf("replica epoch after bootstrap sync = %d, want 0", got)
	}

	// Churn the writer: each batch attaches one new node.
	for i := uint32(0); i < 5; i++ {
		if _, _, err := writer.ApplyUpdates(core.Update{
			AddNodes: 1,
			Edges:    [][2]uint32{{n + i, i * 31 % n}},
		}); err != nil {
			t.Fatalf("writer update %d: %v", i, err)
		}
	}
	if err := repl.SyncOnce(ctx); err != nil {
		t.Fatalf("catch-up sync: %v", err)
	}
	rs := repCat.ReplStats()
	if rs.Epoch != writer.Catalog().Epoch() || rs.Epoch != 5 {
		t.Fatalf("replica epoch = %d, writer epoch = %d, want 5", rs.Epoch, writer.Catalog().Epoch())
	}
	if rs.DeltaSyncs == 0 {
		t.Fatalf("catch-up did not use deltas: %+v", rs)
	}

	wc, rc := dialMux(t, writerAddr), dialMux(t, replicaAddr)

	// Same wire answers, and the replica reports the cluster epoch even
	// though its loaded snapshot's generation counter restarted at zero.
	r := xrand.New(99)
	for i := 0; i < 200; i++ {
		a, b := r.Uint32n(n+5), r.Uint32n(n+5)
		req := &wire.QueryRequest{S: a, T: b, Flags: wire.QueryWantPath}
		wresp, rresp := wc.rt(req), rc.rt(req)
		wq, ok1 := wresp.(*wire.QueryResponse)
		rq, ok2 := rresp.(*wire.QueryResponse)
		if !ok1 || !ok2 {
			t.Fatalf("query (%d,%d): writer %T, replica %T", a, b, wresp, rresp)
		}
		if wq.Epoch != 5 || rq.Epoch != 5 {
			t.Fatalf("query (%d,%d): epochs writer=%d replica=%d, want 5", a, b, wq.Epoch, rq.Epoch)
		}
		if !bytes.Equal(wire.Marshal(wq), wire.Marshal(rq)) {
			t.Fatalf("query (%d,%d): writer %+v, replica %+v", a, b, wq, rq)
		}
	}
}

// TestReplStatusFrame pins the wire-level replication status probe.
func TestReplStatusFrame(t *testing.T) {
	s, addr := startServer(t, Config{})
	if _, _, err := s.ApplyUpdates(core.Update{AddNodes: 1, Edges: [][2]uint32{{400, 3}}}); err != nil {
		t.Fatal(err)
	}
	resp := dialMux(t, addr).rt(&wire.ReplStatusRequest{})
	st, ok := resp.(*wire.ReplStatusResponse)
	if !ok {
		t.Fatalf("got %T: %+v", resp, resp)
	}
	want := wire.ReplStatusResponse{Role: wire.RoleStandalone, Epoch: 1, MinDelta: 1, MaxDelta: 1}
	if *st != want {
		t.Fatalf("repl status = %+v, want %+v", *st, want)
	}
}

// TestReplicaRefusesAdminUpdate: the HTTP mutation endpoint answers 403
// on a replica even when updates are otherwise enabled.
func TestReplicaRefusesAdminUpdate(t *testing.T) {
	cat, err := store.Bootstrap(store.RoleReplica)
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithCatalog(cat, Config{AllowUpdates: true})
	h := httptest.NewServer(s.Handler())
	defer h.Close()
	resp, err := http.Post(h.URL+"/v1/admin/update", "application/json",
		bytes.NewReader([]byte(`{"add_nodes":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("status = %d, want 403", resp.StatusCode)
	}
	// The programmatic path refuses too.
	if _, _, err := s.ApplyUpdates(core.Update{AddNodes: 1}); err != store.ErrReplicaReadOnly {
		t.Fatalf("ApplyUpdates on replica: %v, want ErrReplicaReadOnly", err)
	}
}

// TestStallQueries: the chaos knob delays queries but not pings.
func TestStallQueries(t *testing.T) {
	const stall = 30 * time.Millisecond
	_, addr := startServer(t, Config{StallQueries: stall})
	conn := dialMux(t, addr)
	start := time.Now()
	if resp := conn.rt(&wire.QueryRequest{S: 1, T: 2}); resp.WireType() != wire.TypeQueryResp {
		t.Fatalf("got %v", resp.WireType())
	}
	if took := time.Since(start); took < stall {
		t.Fatalf("stalled query answered in %v, want >= %v", took, stall)
	}
	if resp := conn.rt(&wire.PingRequest{Token: 9}); resp.WireType() != wire.TypePingResp {
		t.Fatalf("got %v", resp.WireType())
	}
}
