package qserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"vicinity/internal/core"
	"vicinity/internal/gen"
	"vicinity/internal/qclient"
	"vicinity/internal/store"
	"vicinity/internal/wire"
	"vicinity/internal/xrand"
)

// TestKPathsWireCapMatchesCore pins the serving-layer assumption the
// wire codec documents: the protocol's K cap and the oracle's MaxK are
// the same constant, so a frame the codec accepts can never be refused
// by core validation (or vice versa).
func TestKPathsWireCapMatchesCore(t *testing.T) {
	if wire.MaxKPaths != core.MaxK {
		t.Fatalf("wire.MaxKPaths = %d, core.MaxK = %d: serving layer assumes they agree", wire.MaxKPaths, core.MaxK)
	}
}

// TestKPathsTCPRoundTrip drives ranked-alternatives requests over the
// multiplexed session and checks the wire answer against the in-process
// oracle: same paths, same order, same epoch — and K=1 must match the
// plain single-path query bit for bit.
func TestKPathsTCPRoundTrip(t *testing.T) {
	s, addr := startServer(t, Config{})
	t.Run("mux", func(t *testing.T) {
		c, err := qclient.Dial(addr, qclient.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ctx := context.Background()
		o := s.Oracle()
		r := xrand.New(5)
		for i := 0; i < 60; i++ {
			a, b := r.Uint32n(400), r.Uint32n(400)
			k := 1 + int(r.Uint32n(6))
			want, werr := o.Query(ctx, core.Request{S: a, T: b, K: k, WantPath: true, WantStats: true})
			if werr != nil {
				t.Fatalf("(%d,%d,k=%d): local query: %v", a, b, k, werr)
			}
			res, err := c.Query(ctx, qclient.QuerySpec{S: a, T: b, K: k, WantStats: true})
			if err != nil {
				t.Fatalf("(%d,%d,k=%d): %v", a, b, k, err)
			}
			if len(res.Paths) != len(want.Paths) {
				t.Fatalf("(%d,%d,k=%d): %d paths over the wire, %d locally", a, b, k, len(res.Paths), len(want.Paths))
			}
			for j := range want.Paths {
				if res.Paths[j].Dist != want.Paths[j].Dist || !reflect.DeepEqual(res.Paths[j].Path, want.Paths[j].Path) {
					t.Fatalf("(%d,%d,k=%d) path %d: wire %+v, local %+v", a, b, k, j, res.Paths[j], want.Paths[j])
				}
			}
			if res.Cost != want.Cost {
				t.Fatalf("(%d,%d,k=%d): wire cost %+v, local %+v", a, b, k, res.Cost, want.Cost)
			}
			if len(res.Items) != 1 {
				t.Fatalf("(%d,%d,k=%d): %d synthetic items", a, b, k, len(res.Items))
			}
			// The synthetic item mirrors the best path (or unreachable).
			if len(res.Paths) > 0 {
				if res.Items[0].Dist != res.Paths[0].Dist || !reflect.DeepEqual(res.Items[0].Path, res.Paths[0].Path) {
					t.Fatalf("(%d,%d,k=%d): item %+v does not mirror best path %+v", a, b, k, res.Items[0], res.Paths[0])
				}
			} else if res.Items[0].Dist != qclient.NoDist {
				t.Fatalf("(%d,%d,k=%d): empty enumeration with dist %d", a, b, k, res.Items[0].Dist)
			}
			// K=1 must agree with the plain query exactly.
			if k == 1 {
				plain, err := c.Query(ctx, qclient.QuerySpec{S: a, T: b, WantPath: true})
				if err != nil {
					t.Fatalf("(%d,%d): plain query: %v", a, b, err)
				}
				if plain.Items[0].Dist != res.Items[0].Dist || !reflect.DeepEqual(plain.Items[0].Path, res.Items[0].Path) {
					t.Fatalf("(%d,%d): k=1 item %+v, plain %+v", a, b, res.Items[0], plain.Items[0])
				}
			}
		}
	})
}

// TestKPathsTCPValidation covers the server-side refusals that reach
// the wire as typed error frames: bad policy, oversized deadline, and a
// K the codec itself refuses to decode.
func TestKPathsTCPValidation(t *testing.T) {
	_, addr := startServer(t, Config{})
	conn := dialMux(t, addr)

	for _, tc := range []struct {
		name string
		req  *wire.KPathsRequest
	}{
		{"bad-policy", &wire.KPathsRequest{S: 1, T: 2, K: 2, Policy: 9}},
		{"deadline-cap", &wire.KPathsRequest{S: 1, T: 2, K: 2, DeadlineMS: wire.MaxDeadlineMS + 1}},
	} {
		if resp := conn.rt(tc.req); !isBadRequest(resp) {
			t.Fatalf("%s: response %+v, want bad-request error", tc.name, resp)
		}
	}

	// K=0 never decodes: the codec refuses it, so the request fails
	// with a bad-request error under its id and the session goes on.
	conn.id++
	raw := wire.AppendMuxFrame(nil, conn.id, &wire.KPathsRequest{S: 1, T: 2, K: 1})
	raw[len(raw)-4] = 0 // zero the K u16 (K=1 → K=0)
	raw[len(raw)-3] = 0
	if resp := conn.rtRaw(raw); !isBadRequest(resp) {
		t.Fatalf("K=0 frame answered with %+v, want bad-request error", resp)
	}
	if resp := conn.rt(&wire.PingRequest{Token: 3}); resp.WireType() != wire.TypePingResp {
		t.Fatalf("session dead after a K=0 frame: %v", resp.WireType())
	}
}

// isBadRequest reports whether resp is a CodeBadRequest error frame.
func isBadRequest(resp wire.Message) bool {
	e, ok := resp.(*wire.ErrorResponse)
	return ok && e.Code == wire.CodeBadRequest
}

// TestKPathsBudgetPartialTCP checks the partial-result contract over
// the wire: a budget sized to complete the root search but not the
// enumeration comes back as the typed budget error on the synthetic
// item, with the paths found so far attached.
func TestKPathsBudgetPartialTCP(t *testing.T) {
	s, addr := startServer(t, Config{})
	c, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	o := s.Oracle()

	// Find a far pair so the spur searches need real work.
	r := xrand.New(9)
	var a, b uint32
	for i := 0; ; i++ {
		a, b = r.Uint32n(400), r.Uint32n(400)
		d, _, err := queryDist(o, a, b)
		if err == nil && d >= 4 && d != core.NoDist {
			break
		}
		if i > 10000 {
			t.Fatal("no far pair found")
		}
	}
	root, err := o.Query(ctx, core.Request{S: a, T: b, WantPath: true, WantStats: true, Policy: core.PolicyFull})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(ctx, qclient.QuerySpec{
		S: a, T: b, K: 8, Policy: core.PolicyFull, Budget: root.Cost.Expanded + 2, WantStats: true,
	})
	if err != nil {
		t.Fatalf("budgeted kpaths: %v", err)
	}
	if res.Items[0].Err == nil || !errors.Is(res.Items[0].Err, core.ErrBudgetExceeded) {
		t.Fatalf("item error = %v, want ErrBudgetExceeded", res.Items[0].Err)
	}
	if len(res.Paths) < 1 || len(res.Paths) >= 8 {
		t.Fatalf("budget partial returned %d paths, want [1, 8)", len(res.Paths))
	}
	if res.Paths[0].Dist != root.Dist {
		t.Fatalf("partial kept root dist %d, want %d", res.Paths[0].Dist, root.Dist)
	}
}

// TestKPathsHTTP drives POST /v2/kpaths: agreement with the in-process
// oracle, validation refusals, and the HTTP-200 budget partial with its
// machine-readable error code.
func TestKPathsHTTP(t *testing.T) {
	s, _ := startServer(t, Config{})
	h := httptest.NewServer(s.Handler())
	defer h.Close()
	ctx := context.Background()
	o := s.Oracle()

	type kAlt struct {
		Distance uint32   `json:"distance"`
		Hops     int      `json:"hops"`
		Path     []uint32 `json:"path"`
	}
	type kResp struct {
		S         uint32 `json:"s"`
		T         uint32 `json:"t"`
		K         int    `json:"k"`
		Epoch     uint64 `json:"epoch"`
		Method    string `json:"method"`
		Count     int    `json:"count"`
		Paths     []kAlt `json:"paths"`
		Error     string `json:"error"`
		ErrorCode string `json:"error_code"`
	}
	post := func(body string) (*http.Response, kResp) {
		t.Helper()
		resp, err := http.Post(h.URL+"/v2/kpaths", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out kResp
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode %q response: %v", body, err)
		}
		return resp, out
	}

	r := xrand.New(21)
	for i := 0; i < 25; i++ {
		a, b := r.Uint32n(400), r.Uint32n(400)
		k := 1 + int(r.Uint32n(5))
		resp, out := post(fmt.Sprintf(`{"s":%d,"t":%d,"k":%d}`, a, b, k))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("(%d,%d,k=%d): HTTP %d", a, b, k, resp.StatusCode)
		}
		want, err := o.Query(ctx, core.Request{S: a, T: b, K: k, WantPath: true})
		if err != nil {
			t.Fatal(err)
		}
		if out.Count != len(want.Paths) || len(out.Paths) != len(want.Paths) {
			t.Fatalf("(%d,%d,k=%d): count %d, want %d", a, b, k, out.Count, len(want.Paths))
		}
		for j, p := range want.Paths {
			if out.Paths[j].Distance != p.Dist || !reflect.DeepEqual(out.Paths[j].Path, p.Path) {
				t.Fatalf("(%d,%d,k=%d) path %d: http %+v, local %+v", a, b, k, j, out.Paths[j], p)
			}
			if out.Paths[j].Hops != len(p.Path)-1 {
				t.Fatalf("(%d,%d,k=%d) path %d: hops %d for %d nodes", a, b, k, j, out.Paths[j].Hops, len(p.Path))
			}
		}
		if out.Method != want.Method.String() {
			t.Fatalf("(%d,%d,k=%d): method %q, want %q", a, b, k, out.Method, want.Method)
		}
	}

	// Validation refusals.
	for _, body := range []string{
		`{"s":1,"t":2}`,             // k missing (0)
		`{"s":1,"t":2,"k":65}`,      // over the cap
		`{"s":1,"t":2,"k":-1}`,      // negative
		`{"s":1,"t":2,"k":2,"x":1}`, // unknown field
		`{"s":1,"t":2,"k":2,"budget":-1}`,
		`{"s":1,"t":2,"k":2,"policy":"warp"}`,
	} {
		resp, out := post(body)
		if resp.StatusCode != http.StatusBadRequest || out.ErrorCode != "bad_request" {
			t.Fatalf("body %s: HTTP %d code %q, want 400 bad_request", body, resp.StatusCode, out.ErrorCode)
		}
	}

	// Source out of range is a 400 with the taxonomy code.
	resp, out := post(`{"s":99999,"t":2,"k":2}`)
	if resp.StatusCode != http.StatusBadRequest || out.ErrorCode != "node_range" {
		t.Fatalf("out-of-range: HTTP %d code %q", resp.StatusCode, out.ErrorCode)
	}

	// Budget partial: HTTP 200 with the error inline.
	rr := xrand.New(33)
	var a, b uint32
	for {
		a, b = rr.Uint32n(400), rr.Uint32n(400)
		if d, _, err := queryDist(o, a, b); err == nil && d >= 4 && d != core.NoDist {
			break
		}
	}
	root, err := o.Query(ctx, core.Request{S: a, T: b, WantPath: true, WantStats: true, Policy: core.PolicyFull})
	if err != nil {
		t.Fatal(err)
	}
	resp, out = post(fmt.Sprintf(`{"s":%d,"t":%d,"k":8,"policy":"full","budget":%d}`, a, b, root.Cost.Expanded+2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budget partial: HTTP %d", resp.StatusCode)
	}
	if out.ErrorCode != "budget_exceeded" {
		t.Fatalf("budget partial: error_code %q, want budget_exceeded", out.ErrorCode)
	}
	if out.Count < 1 || out.Count >= 8 {
		t.Fatalf("budget partial: %d paths, want [1, 8)", out.Count)
	}
}

// TestKPathsReplicaByteIdentical syncs a replica off a churned writer
// and demands byte-identical k-paths frames from both nodes — the
// determinism the router's hedging and failover rely on.
func TestKPathsReplicaByteIdentical(t *testing.T) {
	const n = 300
	g := gen.HolmeKim(xrand.New(13), n, 4, 0.5)
	o, err := core.Build(g, core.Options{Seed: 13})
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

	for i := uint32(0); i < 3; i++ {
		if _, _, err := writer.ApplyUpdates(core.Update{
			AddNodes: 1,
			Edges:    [][2]uint32{{n + i, i * 17 % n}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	repl := &store.Replicator{Catalog: repCat, Base: wh.URL}
	if err := repl.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	wc, rc := dialMux(t, writerAddr), dialMux(t, replicaAddr)

	r := xrand.New(77)
	for i := 0; i < 80; i++ {
		a, b := r.Uint32n(n+3), r.Uint32n(n+3)
		req := &wire.KPathsRequest{S: a, T: b, K: uint16(1 + r.Uint32n(4)), Flags: wire.KPathsWantStats}
		wresp, rresp := wc.rt(req), rc.rt(req)
		wk, ok1 := wresp.(*wire.KPathsResponse)
		rk, ok2 := rresp.(*wire.KPathsResponse)
		if !ok1 || !ok2 {
			t.Fatalf("kpaths (%d,%d): writer %T, replica %T", a, b, wresp, rresp)
		}
		if wk.Epoch != 3 || rk.Epoch != 3 {
			t.Fatalf("kpaths (%d,%d): epochs writer=%d replica=%d, want 3", a, b, wk.Epoch, rk.Epoch)
		}
		if !bytes.Equal(wire.Marshal(wk), wire.Marshal(rk)) {
			t.Fatalf("kpaths (%d,%d): writer %+v, replica %+v", a, b, wk, rk)
		}
	}
}

// TestKPathsAdmissionControl pins that ranked requests ride the same
// admission valve as singles: over MaxInFlight, a default-policy
// request is degraded to the estimate policy (whose k-paths answer is
// the single witness path) and the shed counter moves.
func TestKPathsAdmissionControl(t *testing.T) {
	release := make(chan struct{})
	s, addr := startServer(t, Config{
		MaxInFlight: 1,
		testHookQuery: func(ctx context.Context) {
			<-release
		},
	})
	c1, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	// A failed check must not leave the held query parked: the server's
	// shutdown would wait on it and hang the test instead of failing it.
	var unparkOnce sync.Once
	unpark := func() { unparkOnce.Do(func() { close(release) }) }
	defer unpark()

	ctx := context.Background()
	var wg sync.WaitGroup
	results := make([]*qclient.QueryResult, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c1.Query(ctx, qclient.QuerySpec{S: 1, T: 200, K: 3})
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	// Let the requests pile up past MaxInFlight, then release them all.
	time.Sleep(50 * time.Millisecond)
	unpark()
	wg.Wait()
	if shed := s.Metrics().Shed; shed == 0 {
		t.Fatalf("no requests shed with MaxInFlight=1 and 4 concurrent k-paths queries")
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("query %d: no result", i)
		}
		if len(res.Paths) == 0 {
			t.Fatalf("query %d: no paths", i)
		}
	}
}
