package qclient_test

// Router tests run against real qserver instances (no import cycle:
// qserver does not import qclient) so that hedging, epoch routing and
// scatter-gather are exercised over the production wire path.

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"vicinity/internal/core"
	"vicinity/internal/gen"
	"vicinity/internal/qclient"
	"vicinity/internal/qserver"
	"vicinity/internal/xrand"
)

const routerN = 300

func routerOracle(t *testing.T) *core.Oracle {
	t.Helper()
	g := gen.HolmeKim(xrand.New(11), routerN, 4, 0.5)
	o, err := core.Build(g, core.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// startOracleServer serves o over TCP and returns its address.
func startOracleServer(t *testing.T, o *core.Oracle, cfg qserver.Config) (*qserver.Server, string) {
	t.Helper()
	s := qserver.New(o, cfg)
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
	return s, ln.Addr().String()
}

// TestRouterHedgesAroundStalledReplica: with one replica stalled far
// past the hedge delay, hedged queries answer at healthy-replica speed
// and the hedge counters move.
func TestRouterHedgesAroundStalledReplica(t *testing.T) {
	o := routerOracle(t)
	const stall = 400 * time.Millisecond
	_, slowAddr := startOracleServer(t, o, qserver.Config{StallQueries: stall})
	_, fastAddr := startOracleServer(t, o, qserver.Config{})
	r, err := qclient.NewRouter([]string{slowAddr, fastAddr}, qclient.RouterOptions{
		HedgeDelay: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	rng := xrand.New(3)
	for i := 0; i < 8; i++ {
		start := time.Now()
		res, err := r.Query(ctx, qclient.QuerySpec{S: rng.Uint32n(routerN), T: rng.Uint32n(routerN)})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(res.Items) != 1 {
			t.Fatalf("query %d: %d items", i, len(res.Items))
		}
		if took := time.Since(start); took >= stall {
			t.Fatalf("query %d took %v, stall is %v: hedge never fired", i, took, stall)
		}
	}
	m := r.Metrics()
	// Round-robin lands the stalled replica as primary about half the
	// time; each of those must have hedged to the fast one and won.
	if m.Hedges == 0 || m.HedgeWins == 0 {
		t.Fatalf("hedge counters flat after stalled-primary queries: %+v", m)
	}
}

// TestRouterFailsOverDeadBackend: a dead address in the rotation costs
// a failover, never an error.
func TestRouterFailsOverDeadBackend(t *testing.T) {
	o := routerOracle(t)
	_, liveAddr := startOracleServer(t, o, qserver.Config{})
	r, err := qclient.NewRouter([]string{deadAddr, liveAddr}, qclient.RouterOptions{
		Client: qclient.Options{DialTimeout: 300 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := r.Query(ctx, qclient.QuerySpec{S: 1, T: 2}); err != nil {
			t.Fatalf("query %d with one dead backend: %v", i, err)
		}
	}
	if m := r.Metrics(); m.Failovers == 0 {
		t.Fatalf("no failovers recorded with a dead backend in rotation: %+v", m)
	}
}

// TestRouterMinEpochRouting: read-your-epoch placement steers around a
// stale replica, and an unreachable epoch surfaces ErrStaleRead after
// the bounded wait.
func TestRouterMinEpochRouting(t *testing.T) {
	o := routerOracle(t)
	fresh, freshAddr := startOracleServer(t, o, qserver.Config{})
	_, staleAddr := startOracleServer(t, o, qserver.Config{})
	var epoch uint64
	for i := uint32(0); i < 3; i++ {
		e, _, err := fresh.ApplyUpdates(core.Update{
			AddNodes: 1,
			Edges:    [][2]uint32{{routerN + i, i}},
		})
		if err != nil {
			t.Fatal(err)
		}
		epoch = e
	}
	r, err := qclient.NewRouter([]string{staleAddr, freshAddr}, qclient.RouterOptions{
		StaleWait:    time.Millisecond,
		StaleRetries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		res, err := r.Query(ctx, qclient.QuerySpec{S: 1, T: 2, MinEpoch: epoch})
		if err != nil {
			t.Fatalf("read-your-epoch query %d: %v", i, err)
		}
		if res.Epoch < epoch {
			t.Fatalf("query %d answered at epoch %d, demanded %d", i, res.Epoch, epoch)
		}
	}
	// Nobody serves epoch 99: the router waits its bounded retries out,
	// then hands back ErrStaleRead rather than a stale answer.
	if _, err := r.Query(ctx, qclient.QuerySpec{S: 1, T: 2, MinEpoch: 99}); !errors.Is(err, qclient.ErrStaleRead) {
		t.Fatalf("unreachable min-epoch: err = %v, want ErrStaleRead", err)
	}
}

// TestRouterRefreshEpochs: the probe learns backend epochs without any
// query traffic.
func TestRouterRefreshEpochs(t *testing.T) {
	o := routerOracle(t)
	s, addr := startOracleServer(t, o, qserver.Config{})
	if _, _, err := s.ApplyUpdates(core.Update{AddNodes: 1, Edges: [][2]uint32{{routerN, 0}}}); err != nil {
		t.Fatal(err)
	}
	r, err := qclient.NewRouter([]string{addr}, qclient.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.RefreshEpochs(context.Background()); got != 1 {
		t.Fatalf("RefreshEpochs = %d, want 1", got)
	}
}

// TestRouterScatterGather pins the shard merge semantics: a two-shard
// router answers a many-target query bit-identically to one unsharded
// oracle, in request order, and a target outside every shard fails as
// its own item while the call succeeds.
func TestRouterScatterGather(t *testing.T) {
	o := routerOracle(t)
	_, loAddr := startOracleServer(t, o, qserver.Config{})
	_, hiAddr := startOracleServer(t, o, qserver.Config{})
	_, wholeAddr := startOracleServer(t, o, qserver.Config{})

	const cut = routerN / 2
	r, err := qclient.NewRouter(nil, qclient.RouterOptions{
		Nodes: []qclient.Shard{
			{Lo: 0, Hi: cut, Addrs: []string{loAddr}},
			{Lo: cut, Hi: routerN, Addrs: []string{hiAddr}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	whole, err := qclient.NewPool(wholeAddr, 1, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()

	ctx := context.Background()
	rng := xrand.New(17)
	for round := 0; round < 20; round++ {
		s := rng.Uint32n(routerN)
		ts := make([]uint32, 16)
		for i := range ts {
			ts[i] = rng.Uint32n(routerN)
		}
		spec := qclient.QuerySpec{S: s, Ts: ts, WantPath: round%2 == 0}
		sharded, err := r.Query(ctx, spec)
		if err != nil {
			t.Fatalf("round %d: sharded query: %v", round, err)
		}
		plain, err := whole.Query(ctx, spec)
		if err != nil {
			t.Fatalf("round %d: unsharded query: %v", round, err)
		}
		if len(sharded.Items) != len(plain.Items) {
			t.Fatalf("round %d: %d items sharded, %d unsharded", round, len(sharded.Items), len(plain.Items))
		}
		for i := range plain.Items {
			sh, pl := sharded.Items[i], plain.Items[i]
			if sh.Dist != pl.Dist || sh.Method != pl.Method {
				t.Fatalf("round %d item %d (t=%d): sharded (%d, %d), unsharded (%d, %d)",
					round, i, ts[i], sh.Dist, sh.Method, pl.Dist, pl.Method)
			}
			if len(sh.Path) != len(pl.Path) {
				t.Fatalf("round %d item %d: path lengths %d vs %d", round, i, len(sh.Path), len(pl.Path))
			}
			for j := range pl.Path {
				if sh.Path[j] != pl.Path[j] {
					t.Fatalf("round %d item %d: paths diverge at hop %d", round, i, j)
				}
			}
		}
	}

	// One covered target, one beyond every shard: per-item failure only.
	res, err := r.Query(ctx, qclient.QuerySpec{S: 1, Ts: []uint32{2, routerN + 50}})
	if err != nil {
		t.Fatalf("partial-coverage query: %v", err)
	}
	if res.Items[0].Err != nil {
		t.Fatalf("covered item failed: %v", res.Items[0].Err)
	}
	if !errors.Is(res.Items[1].Err, core.ErrNotCovered) {
		t.Fatalf("uncovered item err = %v, want ErrNotCovered", res.Items[1].Err)
	}

	// Single-target routing picks the covering shard; a target outside
	// every shard fails the call with the coverage taxonomy.
	if _, err := r.Query(ctx, qclient.QuerySpec{S: 1, T: cut + 3}); err != nil {
		t.Fatalf("single-target sharded query: %v", err)
	}
	if _, err := r.Query(ctx, qclient.QuerySpec{S: 1, T: routerN + 50}); !errors.Is(err, core.ErrNotCovered) {
		t.Fatalf("uncovered single target: err = %v, want ErrNotCovered", err)
	}
}

// TestRouterKPaths: ranked-alternatives requests ride the router like
// any other single-target read — hedging around a stalled replica
// returns the identical ranking (determinism is what makes the hedge
// safe), sharded routers send K to the shard covering T, and K mixed
// with Ts is refused before any network traffic.
func TestRouterKPaths(t *testing.T) {
	o := routerOracle(t)
	const stall = 400 * time.Millisecond
	_, slowAddr := startOracleServer(t, o, qserver.Config{StallQueries: stall})
	_, fastAddr := startOracleServer(t, o, qserver.Config{})
	r, err := qclient.NewRouter([]string{slowAddr, fastAddr}, qclient.RouterOptions{
		HedgeDelay: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	direct, err := qclient.NewPool(fastAddr, 1, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()

	ctx := context.Background()
	rng := xrand.New(29)
	for i := 0; i < 8; i++ {
		spec := qclient.QuerySpec{S: rng.Uint32n(routerN), T: rng.Uint32n(routerN), K: 4}
		routed, err := r.Query(ctx, spec)
		if err != nil {
			t.Fatalf("routed kpaths %d: %v", i, err)
		}
		want, err := direct.Query(ctx, spec)
		if err != nil {
			t.Fatalf("direct kpaths %d: %v", i, err)
		}
		if len(routed.Paths) != len(want.Paths) {
			t.Fatalf("kpaths %d: %d paths routed, %d direct", i, len(routed.Paths), len(want.Paths))
		}
		for j := range want.Paths {
			if routed.Paths[j].Dist != want.Paths[j].Dist {
				t.Fatalf("kpaths %d path %d: dist %d routed, %d direct", i, j, routed.Paths[j].Dist, want.Paths[j].Dist)
			}
			for x := range want.Paths[j].Path {
				if routed.Paths[j].Path[x] != want.Paths[j].Path[x] {
					t.Fatalf("kpaths %d path %d: hops diverge at %d", i, j, x)
				}
			}
		}
	}

	// K with Ts never leaves the client.
	if _, err := r.Query(ctx, qclient.QuerySpec{S: 1, Ts: []uint32{2, 3}, K: 2}); err == nil {
		t.Fatal("K with Ts accepted")
	}

	// Sharded: K routes to the covering shard; uncovered targets carry
	// the coverage taxonomy.
	const cut = routerN / 2
	sr, err := qclient.NewRouter(nil, qclient.RouterOptions{
		Nodes: []qclient.Shard{
			{Lo: 0, Hi: cut, Addrs: []string{fastAddr}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	res, err := sr.Query(ctx, qclient.QuerySpec{S: 1, T: cut - 1, K: 3})
	if err != nil {
		t.Fatalf("sharded kpaths: %v", err)
	}
	if len(res.Paths) == 0 {
		t.Fatal("sharded kpaths returned no paths")
	}
	if _, err := sr.Query(ctx, qclient.QuerySpec{S: 1, T: cut + 5, K: 3}); !errors.Is(err, core.ErrNotCovered) {
		t.Fatalf("uncovered kpaths target: err = %v, want ErrNotCovered", err)
	}
}
