package qserver

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vicinity/internal/core"
	"vicinity/internal/gen"
	"vicinity/internal/graph"
	"vicinity/internal/qclient"
	"vicinity/internal/traverse"
	"vicinity/internal/wire"
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

// startServer builds a small oracle, starts a TCP server on a loopback
// port, and returns the server plus its address. Cleanup is registered
// on t.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	g := gen.HolmeKim(xrand.New(1), 400, 4, 0.5)
	o, err := core.Build(g, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := New(o, cfg)
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

// queryOne asks for one s→t answer over c, with or without the path;
// the error is the call's, or else the answer's own.
func queryOne(c *qclient.Client, s, t uint32, wantPath bool) (qclient.QueryItem, error) {
	res, err := c.Query(context.Background(), qclient.QuerySpec{S: s, T: t, WantPath: wantPath})
	if err != nil {
		return qclient.QueryItem{}, err
	}
	return res.Items[0], res.Items[0].Err
}

// muxConn is a raw multiplexed session, for tests that send frames the
// client API cannot produce or compare replies byte for byte.
type muxConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	id   uint64
}

// dialMux opens a connection to addr and performs the hello exchange.
func dialMux(t *testing.T, addr string) *muxConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(conn)
	if err := wire.WriteMessage(conn, &wire.Hello{Features: wire.FeatureMux}); err != nil {
		t.Fatal(err)
	}
	ack, err := wire.ReadMessage(br)
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := ack.(*wire.HelloAck); !ok || a.Features&wire.FeatureMux == 0 {
		t.Fatalf("handshake reply %+v", ack)
	}
	return &muxConn{t: t, conn: conn, br: br}
}

// rt sends req under a fresh id and returns the reply, which must carry
// the same id.
func (m *muxConn) rt(req wire.Message) wire.Message {
	m.t.Helper()
	m.id++
	return m.rtRaw(wire.AppendMuxFrame(nil, m.id, req))
}

// rtRaw sends one complete mux frame built by the caller under the
// current id and returns the decoded reply.
func (m *muxConn) rtRaw(frame []byte) wire.Message {
	m.t.Helper()
	if _, err := m.conn.Write(frame); err != nil {
		m.t.Fatalf("write: %v", err)
	}
	id, payload, _, err := wire.ReadMuxFrame(m.br, nil)
	if err != nil {
		m.t.Fatalf("read reply to id %d: %v", m.id, err)
	}
	if id != m.id {
		m.t.Fatalf("reply under id %d, want %d", id, m.id)
	}
	resp, err := wire.Unmarshal(payload)
	if err != nil {
		m.t.Fatalf("decode reply: %v", err)
	}
	return resp
}

func TestDistanceAndPathRoundTrip(t *testing.T) {
	s, addr := startServer(t, Config{})
	c, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	g := s.Oracle().Graph()
	ws := traverse.NewWorkspace(g)
	r := xrand.New(2)
	for i := 0; i < 100; i++ {
		a, b := r.Uint32n(400), r.Uint32n(400)
		want := ws.BFSDist(a, b)
		it, err := queryOne(c, a, b, false)
		if err != nil {
			t.Fatal(err)
		}
		if it.Dist != want || it.Path != nil {
			t.Fatalf("distance (%d,%d) = %d (path %v), want %d and no path", a, b, it.Dist, it.Path, want)
		}
		it, err = queryOne(c, a, b, true)
		if err != nil {
			t.Fatal(err)
		}
		p := it.Path
		if want == traverse.NoDist {
			if p != nil {
				t.Fatalf("path for unreachable pair: %v", p)
			}
			continue
		}
		if uint32(len(p)-1) != want || p[0] != a || p[len(p)-1] != b {
			t.Fatalf("bad path %v for (%d,%d), want %d hops", p, a, b, want)
		}
	}
}

func TestPingAndStats(t *testing.T) {
	_, addr := startServer(t, Config{})
	c, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	// Two queries, then stats must reflect them.
	if _, err := queryOne(c, 0, 1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := queryOne(c, 1, 2, false); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != 400 || st.QueriesServed < 2 || st.Landmarks == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOutOfRangeError(t *testing.T) {
	_, addr := startServer(t, Config{})
	c, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = queryOne(c, 0, 100000, false)
	var werr *wire.ErrorResponse
	if !errors.As(err, &werr) {
		t.Fatalf("err = %v, want wire.ErrorResponse", err)
	}
	if werr.Code != wire.CodeOutOfRange {
		t.Fatalf("code = %d, want %d", werr.Code, wire.CodeOutOfRange)
	}
	// The connection survives an application-level error.
	if _, err := queryOne(c, 0, 1, false); err != nil {
		t.Fatalf("connection dead after error: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	s, addr := startServer(t, Config{})
	g := s.Oracle().Graph()
	ws := traverse.NewWorkspace(g)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			c, err := qclient.Dial(addr, qclient.Options{})
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			r := xrand.New(seed)
			for i := 0; i < 50; i++ {
				a, b := r.Uint32n(400), r.Uint32n(400)
				if _, err := queryOne(c, a, b, false); err != nil {
					errCh <- err
					return
				}
			}
		}(uint64(w + 10))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Sanity: one deterministic check after the storm.
	c, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	it, err := queryOne(c, 3, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := ws.BFSDist(3, 7); it.Dist != want {
		t.Fatalf("after concurrency: %d, want %d", it.Dist, want)
	}
	if m := s.Metrics(); m.Queries < 400 || m.TotalConns < 8 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestPool(t *testing.T) {
	_, addr := startServer(t, Config{})
	p, err := qclient.NewPool(addr, 4, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := xrand.New(seed)
			for i := 0; i < 25; i++ {
				if _, err := p.Query(ctx, qclient.QuerySpec{S: r.Uint32n(400), T: r.Uint32n(400)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
}

func TestConnectionCap(t *testing.T) {
	_, addr := startServer(t, Config{MaxConns: 1})
	c1, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	// Second connection must be refused with CodeUnavailable: the
	// refusal frame answers its hello, so the dial itself fails.
	c2, err := qclient.Dial(addr, qclient.Options{DialTimeout: 2 * time.Second})
	if err == nil {
		c2.Close()
		t.Fatal("second connection past the cap was served")
	}
	var werr *wire.ErrorResponse
	if !errors.As(err, &werr) || werr.Code != wire.CodeUnavailable {
		t.Fatalf("second connection: err = %v, want unavailable", err)
	}
}

func TestMalformedFrameGetsErrorResponse(t *testing.T) {
	_, addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A frame with a bad version byte.
	raw := wire.Marshal(&wire.PingRequest{Token: 1})
	raw[4] = 99
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	resp, err := wire.ReadMessage(conn)
	if err != nil {
		t.Fatalf("no error frame: %v", err)
	}
	werr, ok := resp.(*wire.ErrorResponse)
	if !ok || werr.Code != wire.CodeBadRequest {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestShutdownUnblocksServe(t *testing.T) {
	g := gen.Path(10)
	o, err := core.Build(g, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := New(o, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-serveErr:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Serve returned %v, want net.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
}

func TestHTTPGateway(t *testing.T) {
	s, _ := startServer(t, Config{})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := hs.Client().Post(hs.URL+"/v2/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	type result struct {
		Distance  uint32   `json:"distance"`
		Method    string   `json:"method"`
		Reachable bool     `json:"reachable"`
		Path      []uint32 `json:"path"`
	}
	var out struct {
		Results []result `json:"results"`
	}

	// Distance.
	resp := post(`{"s":0,"t":5}`)
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	dr := out.Results[0]
	if !dr.Reachable || dr.Method == "" || dr.Path != nil {
		t.Fatalf("distance response: %+v", dr)
	}

	// Path.
	resp = post(`{"s":0,"t":5,"want_path":true}`)
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	pr := out.Results[0]
	if len(pr.Path) == 0 || uint32(len(pr.Path)-1) != dr.Distance {
		t.Fatalf("path %v for distance %d", pr.Path, dr.Distance)
	}

	// Stats and health.
	resp, err := hs.Client().Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sr struct {
		Nodes         int   `json:"nodes"`
		Landmarks     int   `json:"landmarks"`
		TotalBytes    int64 `json:"total_bytes"`
		VicinityBytes int64 `json:"vicinity_bytes"`
		LandmarkBytes int64 `json:"landmark_bytes"`
		WideRows      *int  `json:"wide_landmark_rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sr.Nodes != 400 || sr.Landmarks == 0 {
		t.Fatalf("stats: %+v", sr)
	}
	// The byte split covers the total and names the oracle's own row
	// bytes; social-graph rows are coded, at no more than four bits per
	// node with their exceptions.
	ms := s.cat.State().Oracle.Memory()
	if sr.VicinityBytes <= 0 || sr.LandmarkBytes != ms.LandmarkBytes || sr.LandmarkBytes > int64((sr.Nodes+1)/2*sr.Landmarks) ||
		sr.VicinityBytes+sr.LandmarkBytes != sr.TotalBytes || sr.WideRows == nil || *sr.WideRows != 0 {
		t.Fatalf("stats byte split: %+v", sr)
	}
	resp, err = hs.Client().Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// Errors.
	resp = post(`{"s":"abc","t":1}`)
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad param status %d", resp.StatusCode)
	}
	resp = post(`{"s":999999,"t":1}`)
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("out-of-range status %d", resp.StatusCode)
	}
}

// TestV1QueryRoutesGone pins that the retired query routes are not
// served: every query travels through /v2/query.
func TestV1QueryRoutesGone(t *testing.T) {
	s, _ := startServer(t, Config{})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	for _, r := range []struct{ method, path, body string }{
		{"GET", "/v1/distance?s=0&t=5", ""},
		{"GET", "/v1/path?s=0&t=5", ""},
		{"POST", "/v1/batch", `{"s":0,"ts":[1,2]}`},
	} {
		req, err := http.NewRequest(r.method, hs.URL+r.path, strings.NewReader(r.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404", r.method, r.path, resp.StatusCode)
		}
	}
	if q := s.Metrics().Queries; q != 0 {
		t.Fatalf("retired routes answered %d queries", q)
	}
}

func TestClientClosed(t *testing.T) {
	_, addr := startServer(t, Config{})
	c, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := queryOne(c, 0, 1, false); !errors.Is(err, qclient.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestAdminUpdateEndpoint covers the HTTP mutation path: gating,
// validation, and that applied batches are visible to queries.
func TestAdminUpdateEndpoint(t *testing.T) {
	g := gen.HolmeKim(xrand.New(4), 300, 4, 0.5)
	o, err := core.Build(g, core.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Disabled by default.
	locked := httptest.NewServer(New(o, Config{}).Handler())
	defer locked.Close()
	resp, err := http.Post(locked.URL+"/v1/admin/update", "application/json",
		strings.NewReader(`{"edges":[[0,200]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("disabled endpoint returned %d, want 403", resp.StatusCode)
	}

	s := New(o, Config{AllowUpdates: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/admin/update", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp, out
	}

	// Find a non-edge to insert.
	var u, v uint32
	found := false
	for u = 0; u < 300 && !found; u++ {
		for v = u + 2; v < 300; v++ {
			if !g.HasEdge(u, v) {
				found = true
				u--
				break
			}
		}
	}
	u++
	resp, out := post(fmt.Sprintf(`{"add_nodes":1,"edges":[[%d,%d],[300,0]]}`, u, v))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update returned %d: %v", resp.StatusCode, out)
	}
	if out["epoch"].(float64) != 1 || out["nodes"].(float64) != 301 {
		t.Fatalf("unexpected response: %v", out)
	}
	if d, _, _ := queryDist(s.Oracle(), u, v); d != 1 {
		t.Fatalf("inserted edge not visible: d=%d", d)
	}
	if d, _, _ := queryDist(s.Oracle(), 300, 0); d != 1 {
		t.Fatalf("added node not wired: d=%d", d)
	}
	if m := s.Metrics(); m.Updates != 1 || m.Epoch != 1 {
		t.Fatalf("metrics: %+v", m)
	}

	// Malformed bodies are rejected.
	if resp, _ := post(`{"edges":[[0]]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short edge accepted: %d", resp.StatusCode)
	}
	if resp, _ := post(`{"bogus":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field accepted: %d", resp.StatusCode)
	}
	if resp, _ := post(`{"edges":[[0,999]]}`); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("out-of-range edge: %d", resp.StatusCode)
	}

	// Churn ops: delete the edge just inserted, then restore it with a
	// weight-1 upsert.
	resp, out = post(fmt.Sprintf(`{"del_edges":[[%d,%d]]}`, u, v))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete returned %d: %v", resp.StatusCode, out)
	}
	if d, _, _ := queryDist(s.Oracle(), u, v); d == 1 {
		t.Fatal("deleted edge still answers d=1")
	}
	// Deleting it again is a typed 404, and nothing is applied.
	resp, out = post(fmt.Sprintf(`{"del_edges":[[%d,%d]]}`, u, v))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent delete returned %d: %v", resp.StatusCode, out)
	}
	if out["error_code"] != "edge_not_found" {
		t.Fatalf("absent delete code: %v", out)
	}
	resp, out = post(fmt.Sprintf(`{"set_weights":[[%d,%d,1]]}`, u, v))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upsert returned %d: %v", resp.StatusCode, out)
	}
	if d, _, _ := queryDist(s.Oracle(), u, v); d != 1 {
		t.Fatalf("upsert did not restore the edge: d=%d", d)
	}
	// del_nodes isolates a node wholesale.
	resp, out = post(`{"del_nodes":[300]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("del_nodes returned %d: %v", resp.StatusCode, out)
	}
	if d, _, _ := queryDist(s.Oracle(), 300, 0); d != core.NoDist {
		t.Fatalf("retired node still reachable: d=%d", d)
	}

	// Admin save writes a loadable v1 file of the churned oracle.
	savePath := filepath.Join(t.TempDir(), "churned.vco")
	body, _ := json.Marshal(map[string]string{"path": savePath})
	sresp, err := http.Post(ts.URL+"/v1/admin/save", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("save returned %d", sresp.StatusCode)
	}
	loaded, err := core.LoadOracleFile(savePath)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Graph().NumNodes() != s.Oracle().Graph().NumNodes() {
		t.Fatal("saved oracle has a different graph")
	}
	// Save is gated like update.
	lresp, err := http.Post(locked.URL+"/v1/admin/save", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if lresp.StatusCode != http.StatusForbidden {
		t.Fatalf("ungated save returned %d", lresp.StatusCode)
	}
}

// sampleChurnEdge picks one live edge of g that none of the pending
// inserts name, so adding it to Update.DelEdges cannot conflict.
func sampleChurnEdge(r *xrand.Rand, g *graph.Graph, ins [][2]uint32) ([2]uint32, bool) {
	n := uint32(g.NumNodes())
	for tries := 0; tries < 8; tries++ {
		u := r.Uint32n(n)
		adj := g.Neighbors(u)
		if len(adj) == 0 {
			continue
		}
		v := adj[r.Uint32n(uint32(len(adj)))]
		conflict := false
		for _, e := range ins {
			if (e[0] == u && e[1] == v) || (e[0] == v && e[1] == u) {
				conflict = true
				break
			}
		}
		if !conflict {
			return [2]uint32{u, v}, true
		}
	}
	return [2]uint32{}, false
}

// TestQueriesDuringUpdates races TCP clients against a stream of update
// batches (meaningful under -race): every response must be internally
// consistent with some epoch.
func TestQueriesDuringUpdates(t *testing.T) {
	s, addr := startServer(t, Config{AllowUpdates: true})
	n := uint32(s.Oracle().Graph().NumNodes())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			c, err := qclient.Dial(addr, qclient.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			r := xrand.New(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Query only nodes of the original graph: they exist in
				// every epoch.
				s0, t0 := r.Uint32n(n), r.Uint32n(n)
				if _, err := queryOne(c, s0, t0, false); err != nil {
					t.Errorf("query (%d,%d): %v", s0, t0, err)
					return
				}
			}
		}(uint64(w) + 7)
	}

	r := xrand.New(50)
	for i := 0; i < 10; i++ {
		gg := s.Oracle().Graph()
		cur := uint32(gg.NumNodes())
		upd := core.Update{
			AddNodes: 1,
			Edges:    [][2]uint32{{cur, r.Uint32n(cur)}, {r.Uint32n(cur), r.Uint32n(cur)}},
		}
		// Mixed churn: also delete a live edge the batch does not insert.
		if e, ok := sampleChurnEdge(r, gg, upd.Edges); ok {
			upd.DelEdges = append(upd.DelEdges, e)
		}
		if _, _, err := s.ApplyUpdates(upd); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if m := s.Metrics(); m.Epoch != 10 {
		t.Fatalf("epoch %d, want 10", m.Epoch)
	}
}

// TestBatchRoundTrip cross-checks the TCP batch path (a many-target
// Query) against per-pair single-target Queries: same distances, same
// methods, and per-target errors carried as item codes without failing
// the batch.
func TestBatchRoundTrip(t *testing.T) {
	s, addr := startServer(t, Config{})
	c, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	r := xrand.New(5)
	for trial := 0; trial < 5; trial++ {
		src := r.Uint32n(400)
		ts := []uint32{src, 999999} // same-node and out-of-range targets
		for len(ts) < 50 {
			ts = append(ts, r.Uint32n(400))
		}
		res, err := c.Query(ctx, qclient.QuerySpec{S: src, Ts: ts})
		if err != nil {
			t.Fatal(err)
		}
		items := res.Items
		for i, tgt := range ts {
			d, m, serr := queryDist(s.Oracle(), src, tgt)
			if serr != nil {
				if items[i].Err == nil {
					t.Fatalf("item %d: missing error for (%d,%d)", i, src, tgt)
				}
				var werr *wire.ErrorResponse
				if !errors.As(items[i].Err, &werr) || werr.Code != wire.CodeOutOfRange {
					t.Fatalf("item %d: err = %v, want out-of-range code", i, items[i].Err)
				}
				continue
			}
			if items[i].Err != nil || items[i].Dist != d || items[i].Method != uint8(m) {
				t.Fatalf("item %d: (%d,%d,%v), single query says (%d,%v)",
					i, items[i].Dist, items[i].Method, items[i].Err, d, m)
			}
		}
	}
	// The connection survives per-target errors.
	if _, err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// A whole-batch failure (out-of-range source) is a call error.
	if _, err := c.Query(ctx, qclient.QuerySpec{S: 999999, Ts: []uint32{1, 2}}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

// TestBatchHTTP cross-checks a many-target POST /v2/query against
// per-pair answers, inline per-target errors included.
func TestBatchHTTP(t *testing.T) {
	s, _ := startServer(t, Config{})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	resp, err := hs.Client().Post(hs.URL+"/v2/query", "application/json",
		strings.NewReader(`{"s":3,"ts":[3,7,11,999999]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		S       uint32 `json:"s"`
		Results []struct {
			T         uint32 `json:"t"`
			Distance  uint32 `json:"distance"`
			Method    string `json:"method"`
			Reachable bool   `json:"reachable"`
			Error     string `json:"error"`
			ErrorCode string `json:"error_code"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.S != 3 || len(out.Results) != 4 {
		t.Fatalf("response shape: %+v", out)
	}
	for i, tgt := range []uint32{3, 7, 11, 999999} {
		it := out.Results[i]
		if it.T != tgt {
			t.Fatalf("result %d names target %d, want %d", i, it.T, tgt)
		}
		d, m, serr := queryDist(s.Oracle(), 3, tgt)
		if serr != nil {
			if it.Error == "" || it.ErrorCode != core.ErrorCode(serr) {
				t.Fatalf("result %d: inline error %q (%s), want code %s", i, it.Error, it.ErrorCode, core.ErrorCode(serr))
			}
			continue
		}
		if it.Error != "" || it.Method != m.String() || (it.Reachable && it.Distance != d) {
			t.Fatalf("result %d = %+v, single query says (%d, %v)", i, it, d, m)
		}
	}

	// Malformed bodies are rejected (and counted, see the metrics test).
	resp, err = hs.Client().Post(hs.URL+"/v2/query", "application/json", strings.NewReader(`{"bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed batch: status %d", resp.StatusCode)
	}
}

// TestErrorMetrics pins the metrics bugfix: every handler error — TCP
// distance/path/batch queries and their HTTP twins — must increment the
// error counter, and /v1/stats must expose it.
func TestErrorMetrics(t *testing.T) {
	s, addr := startServer(t, Config{})
	c, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	before := s.Metrics().Errors
	queryOne(c, 0, 999999, false)                                  // TCP distance error
	queryOne(c, 999999, 0, true)                                   // TCP path error
	c.Query(ctx, qclient.QuerySpec{S: 0, Ts: []uint32{1, 999999}}) // one per-target error
	c.Query(ctx, qclient.QuerySpec{S: 999999, Ts: []uint32{1}})    // whole-batch error
	want := before + 4

	if got := s.Metrics().Errors; got != want {
		t.Fatalf("TCP errors = %d, want %d", got, want)
	}

	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	post := func(body string) {
		resp, err := hs.Client().Post(hs.URL+"/v2/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	post(`{"s":"abc","t":1}`)                   // parse error
	post(`{"s":999999,"t":1}`)                  // out of range
	post(`{"s":0,"t":999999,"want_path":true}`) // out of range
	want += 3

	if got := s.Metrics().Errors; got != want {
		t.Fatalf("HTTP errors = %d, want %d", got, want)
	}

	// The stats payload exposes the counter.
	resp, err := hs.Client().Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Errors int64 `json:"errors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Errors != want {
		t.Fatalf("stats errors = %d, want %d", st.Errors, want)
	}
}

// TestBatchDuringUpdates races TCP batch queries against update batches
// (meaningful under -race): the server answers each batch from one
// pinned snapshot, so original-node queries never error mid-swap.
func TestBatchDuringUpdates(t *testing.T) {
	s, addr := startServer(t, Config{AllowUpdates: true})
	n := uint32(s.Oracle().Graph().NumNodes())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			c, err := qclient.Dial(addr, qclient.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			r := xrand.New(seed)
			ts := make([]uint32, 24)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range ts {
					ts[i] = r.Uint32n(n) // original nodes exist in every epoch
				}
				res, err := c.Query(context.Background(), qclient.QuerySpec{S: r.Uint32n(n), Ts: ts})
				if err != nil {
					t.Errorf("batch: %v", err)
					return
				}
				for i, it := range res.Items {
					if it.Err != nil {
						t.Errorf("item %d (t=%d): %v", i, ts[i], it.Err)
						return
					}
				}
			}
		}(uint64(w) + 13)
	}

	r := xrand.New(90)
	for i := 0; i < 10; i++ {
		gg := s.Oracle().Graph()
		cur := uint32(gg.NumNodes())
		upd := core.Update{
			AddNodes: 1,
			Edges:    [][2]uint32{{cur, r.Uint32n(cur)}},
		}
		// Mixed churn: also delete a live edge the batch does not insert.
		if e, ok := sampleChurnEdge(r, gg, upd.Edges); ok {
			upd.DelEdges = append(upd.DelEdges, e)
		}
		if _, _, err := s.ApplyUpdates(upd); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if m := s.Metrics(); m.Epoch != 10 {
		t.Fatalf("epoch %d, want 10", m.Epoch)
	}
}

// startGridServer is startServer over a long 2×600 grid whose corner
// pair (0, 1199) deterministically misses the tables — the fixture for
// budget and deadline tests that need a real fallback search.
func startGridServer(t *testing.T, cfg Config) (*Server, string, uint32, uint32) {
	t.Helper()
	g := gen.Grid(2, 600)
	o, err := core.Build(g, core.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s, u := uint32(0), uint32(g.NumNodes()-1)
	if _, m, err := queryDist(o, s, u); err != nil || m.Resolved() {
		t.Fatalf("grid corner pair resolved from tables (%v, %v)", m, err)
	}
	srv := New(o, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	})
	return srv, ln.Addr().String(), s, u
}

// TestQueryV2RoundTrip drives the v2 frame over TCP: default-policy
// equivalence with the server oracle, paths, batches, cost counters,
// epoch, and typed top-level errors.
func TestQueryV2RoundTrip(t *testing.T) {
	srv, addr := startServer(t, Config{})
	c, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	o := srv.Oracle()
	ctx := context.Background()

	r := xrand.New(5)
	for i := 0; i < 50; i++ {
		a, b := r.Uint32n(400), r.Uint32n(400)
		wantD, wantM, _ := queryDist(o, a, b)
		res, err := c.Query(ctx, qclient.QuerySpec{S: a, T: b, WantStats: true})
		if err != nil {
			t.Fatal(err)
		}
		it := res.Items[0]
		if it.Err != nil || it.Dist != wantD || core.Method(it.Method) != wantM {
			t.Fatalf("Query(%d,%d) = (%d, %v, %v), oracle says (%d, %v)",
				a, b, it.Dist, core.Method(it.Method), it.Err, wantD, wantM)
		}
		if res.Cost.Lookups == 0 && wantM != core.MethodSame {
			t.Fatalf("WantStats returned empty cost for method %v", wantM)
		}
	}

	// Path flag round-trips the witness path.
	p, _, _ := queryPath(o, 3, 77)
	res, err := c.Query(ctx, qclient.QuerySpec{S: 3, T: 77, WantPath: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Items[0].Path; len(got) != len(p) {
		t.Fatalf("path %v, oracle says %v", got, p)
	}

	// One-to-many mirrors the in-process Query, inline per-target
	// errors included, and maps codes back to the taxonomy.
	ts := []uint32{1, 2, 99999, 3}
	wantRes, err := o.Query(ctx, core.Request{S: 7, Ts: ts})
	if err != nil {
		t.Fatal(err)
	}
	want := wantRes.Items
	res, err = c.Query(ctx, qclient.QuerySpec{S: 7, Ts: ts})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != len(ts) {
		t.Fatalf("%d items for %d targets", len(res.Items), len(ts))
	}
	for i, it := range res.Items {
		if it.Dist != want[i].Dist {
			t.Fatalf("item %d: dist %d, want %d", i, it.Dist, want[i].Dist)
		}
		if (it.Err == nil) != (want[i].Err == nil) {
			t.Fatalf("item %d: err %v, want %v", i, it.Err, want[i].Err)
		}
	}
	if !errors.Is(res.Items[2].Err, core.ErrNodeRange) {
		t.Fatalf("out-of-range item err %v, want ErrNodeRange", res.Items[2].Err)
	}

	// Top-level errors come back as an ErrorResponse and map to the
	// taxonomy through the client.
	if _, err := c.Query(ctx, qclient.QuerySpec{S: 99999, T: 0}); !errors.Is(err, core.ErrNodeRange) {
		t.Fatalf("out-of-range source: %v, want ErrNodeRange", err)
	}
	var werr *wire.ErrorResponse
	if _, err := c.Query(ctx, qclient.QuerySpec{S: 99999, T: 0}); !errors.As(err, &werr) || werr.Code != wire.CodeOutOfRange {
		t.Fatalf("out-of-range source wire error: %v", err)
	}
}

// TestQueryV2BudgetAndDeadlineTCP exercises the budget and deadline
// paths end-to-end over TCP against a deterministic fallback pair.
func TestQueryV2BudgetAndDeadlineTCP(t *testing.T) {
	hold := make(chan struct{})
	var once sync.Once
	cfg := Config{testHookQuery: func(ctx context.Context) {
		select {
		case <-hold:
			<-ctx.Done() // second phase: park until the deadline fires
		default:
			once.Do(func() {}) // first phase: pass through
		}
	}}
	_, addr, s, u := startGridServer(t, cfg)
	c, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// Budget 1: the far pair cannot resolve; the item carries the typed
	// error and the method tells the client what the distance means.
	res, err := c.Query(ctx, qclient.QuerySpec{S: s, Ts: []uint32{s + 1, u}, Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if it := res.Items[0]; it.Err != nil {
		t.Fatalf("near target hit the budget: %v", it.Err)
	}
	if it := res.Items[1]; !errors.Is(it.Err, core.ErrBudgetExceeded) {
		t.Fatalf("far target err %v, want ErrBudgetExceeded", it.Err)
	}

	// Deadline: the hook parks the request on ctx.Done, so the frame's
	// deadline-ms is what unblocks it; the oracle then reports the
	// cancellation as a typed per-item error.
	close(hold)
	qctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err = c.Query(qctx, qclient.QuerySpec{S: s, T: u})
	if err != nil {
		t.Fatalf("deadline query: %v", err)
	}
	if it := res.Items[0]; !errors.Is(it.Err, core.ErrCanceled) {
		t.Fatalf("deadline item err %v, want ErrCanceled", it.Err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("deadline took %v to propagate", elapsed)
	}
}

// TestQueryV2HTTP covers POST /v2/query: single and many targets,
// paths, cost, typed error codes for budget exhaustion and bad input.
func TestQueryV2HTTP(t *testing.T) {
	g := gen.Grid(2, 600)
	o, err := core.Build(g, core.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(o, Config{})
	h := httptest.NewServer(srv.Handler())
	defer h.Close()
	far := uint32(g.NumNodes() - 1)

	post := func(body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(h.URL+"/v2/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, m
	}

	// Plain single query: one distance answer.
	code, m := post(`{"s":0,"t":1,"want_stats":true}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, m)
	}
	results := m["results"].([]any)
	first := results[0].(map[string]any)
	if first["reachable"] != true || first["distance"].(float64) != 1 {
		t.Fatalf("results = %v", results)
	}
	if m["cost"] == nil {
		t.Fatalf("want_stats did not return cost: %v", m)
	}

	// Budgeted far pair: HTTP 200 with the typed inline code.
	code, m = post(fmt.Sprintf(`{"s":0,"t":%d,"budget":1,"policy":"full"}`, far))
	if code != http.StatusOK {
		t.Fatalf("budget status %d: %v", code, m)
	}
	first = m["results"].([]any)[0].(map[string]any)
	if first["error_code"] != "budget_exceeded" {
		t.Fatalf("budget result = %v", first)
	}

	// Batch with an out-of-range target: inline node_range item.
	code, m = post(`{"s":0,"ts":[1,999999],"want_path":true}`)
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %v", code, m)
	}
	items := m["results"].([]any)
	if items[0].(map[string]any)["path"] == nil {
		t.Fatalf("want_path missing: %v", items[0])
	}
	if items[1].(map[string]any)["error_code"] != "node_range" {
		t.Fatalf("range item = %v", items[1])
	}

	// Validation failures are typed too.
	for body, wantStatus := range map[string]int{
		`{"s":0}`:                        http.StatusBadRequest, // no target
		`{"s":0,"t":1,"ts":[2]}`:         http.StatusBadRequest, // both
		`{"s":0,"t":1,"policy":"warp"}`:  http.StatusBadRequest,
		`{"s":0,"t":1,"budget":-4}`:      http.StatusBadRequest,
		`{"s":0,"t":1,"deadline_ms":-1}`: http.StatusBadRequest,
		`{"s":999999,"t":1}`:             http.StatusBadRequest, // node_range
	} {
		code, m := post(body)
		if code != wantStatus {
			t.Fatalf("%s: status %d (%v), want %d", body, code, m, wantStatus)
		}
		if m["error_code"] == "" {
			t.Fatalf("%s: missing error_code: %v", body, m)
		}
	}
}

// TestQueryV2HTTPDeadline holds a request on its context via the test
// hook and asserts the deadline surfaces as the typed "canceled" code.
func TestQueryV2HTTPDeadline(t *testing.T) {
	g := gen.Grid(2, 100)
	o, err := core.Build(g, core.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(o, Config{testHookQuery: func(ctx context.Context) { <-ctx.Done() }})
	h := httptest.NewServer(srv.Handler())
	defer h.Close()

	resp, err := http.Post(h.URL+"/v2/query", "application/json",
		strings.NewReader(fmt.Sprintf(`{"s":0,"t":%d,"deadline_ms":30}`, g.NumNodes()-1)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, m)
	}
	first := m["results"].([]any)[0].(map[string]any)
	if first["error_code"] != "canceled" {
		t.Fatalf("result = %v", first)
	}
}

// TestShutdownDrainsInFlightQuery pins the graceful path: a query held
// in flight blocks Shutdown until it completes, and the answer still
// reaches the client.
func TestShutdownDrainsInFlightQuery(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	cfg := Config{testHookQuery: func(ctx context.Context) {
		close(entered)
		<-release
	}}
	g := gen.HolmeKim(xrand.New(1), 200, 4, 0.5)
	o, err := core.Build(g, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(o, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = srv.Serve(ln) }()

	c, err := qclient.Dial(ln.Addr().String(), qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A failed check must not leave the held query parked: the server's
	// shutdown would wait on it and hang the test instead of failing it.
	var unparkOnce sync.Once
	unpark := func() { unparkOnce.Do(func() { close(release) }) }
	defer unpark()
	type qres struct {
		res *qclient.QueryResult
		err error
	}
	queryDone := make(chan qres, 1)
	go func() {
		res, err := c.Query(context.Background(), qclient.QuerySpec{S: 0, T: 1})
		queryDone <- qres{res, err}
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v with a query in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	unpark()
	q := <-queryDone
	if q.err != nil || q.res.Items[0].Err != nil {
		t.Fatalf("in-flight query lost to shutdown: %v / %+v", q.err, q.res)
	}
	c.Close() // connection gone: the drain can finish
	if err := <-shutdownDone; err != nil {
		t.Fatalf("drained shutdown returned %v", err)
	}
	<-serveDone
}

// TestShutdownForcedCancelsInFlightQuery pins the forced path: when the
// drain window is already spent, Shutdown cancels the in-flight request
// context — the hook (standing in for a long fallback search, which
// polls the same context) observes it and the server comes down without
// waiting on the query's natural completion.
func TestShutdownForcedCancelsInFlightQuery(t *testing.T) {
	entered := make(chan struct{})
	observed := make(chan struct{})
	cfg := Config{testHookQuery: func(ctx context.Context) {
		close(entered)
		<-ctx.Done()
		close(observed)
	}}
	g := gen.HolmeKim(xrand.New(1), 200, 4, 0.5)
	o, err := core.Build(g, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(o, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = srv.Serve(ln) }()

	c, err := qclient.Dial(ln.Addr().String(), qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go func() {
		_, _ = c.Query(context.Background(), qclient.QuerySpec{S: 0, T: 1})
	}()
	<-entered

	expired, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-expired.Done()
	if err := srv.Shutdown(expired); err == nil {
		t.Fatal("forced shutdown reported a clean drain")
	}
	select {
	case <-observed:
	case <-time.After(5 * time.Second):
		t.Fatal("forced shutdown never canceled the in-flight request context")
	}
	<-serveDone
}

// TestQueryV2FrameValidationTCP pins the TCP-side request validation:
// unknown policies and oversized deadlines are refused as bad-request
// frames — matching the HTTP layer — and rejected frames do not
// inflate the queries_served counter.
func TestQueryV2FrameValidationTCP(t *testing.T) {
	srv, addr := startServer(t, Config{})
	c, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := srv.Metrics().Queries

	if _, err := c.Query(context.Background(), qclient.QuerySpec{S: 0, T: 1, Policy: core.Policy(9)}); err == nil {
		t.Fatal("unknown policy accepted over TCP")
	}
	// Oversized deadline: build the frame directly (the client API
	// derives DeadlineMS from ctx and cannot produce one).
	huge := dialMux(t, addr).rt(&wire.QueryRequest{S: 0, T: 1, DeadlineMS: wire.MaxDeadlineMS + 1})
	if e, ok := huge.(*wire.ErrorResponse); !ok || e.Code != wire.CodeBadRequest {
		t.Fatalf("oversized deadline: %+v, want bad-request", huge)
	}
	if got := srv.Metrics().Queries; got != before {
		t.Fatalf("rejected frames counted as queries: %d -> %d", before, got)
	}
	if srv.Metrics().Errors < 2 {
		t.Fatalf("rejected frames not counted as errors: %+v", srv.Metrics())
	}
}

// TestStatsLatencyHistograms pins the /v1/stats latency surface: the
// JSON field names, the per-endpoint keys, and the histogram's basic
// sanity (counts match the traffic sent, quantiles are monotone,
// endpoints with no traffic are absent).
func TestStatsLatencyHistograms(t *testing.T) {
	s, addr := startServer(t, Config{})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	c, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Traffic: 10 TCP distances, 3 HTTP paths, one TCP batch of 5.
	for i := uint32(0); i < 10; i++ {
		if _, err := queryOne(c, i, i+1, false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"s":%d,"t":%d,"want_path":true}`, i, i+5)
		resp, err := http.Post(hs.URL+"/v2/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if _, err := c.Query(context.Background(), qclient.QuerySpec{S: 1, Ts: []uint32{2, 3, 4, 5, 6}}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Latency map[string]map[string]float64 `json:"latency"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}

	// Pin the endpoint keys and the per-endpoint field names.
	wantCounts := map[string]float64{"distance": 10, "path": 3, "batch": 1, "query": 14}
	if len(st.Latency) != len(wantCounts) {
		t.Fatalf("latency endpoints %v, want exactly %v", st.Latency, wantCounts)
	}
	for ep, wantCount := range wantCounts {
		h, ok := st.Latency[ep]
		if !ok {
			t.Fatalf("latency missing endpoint %q: %v", ep, st.Latency)
		}
		for _, field := range []string{"count", "mean_us", "p50_us", "p95_us", "p99_us", "max_us"} {
			if _, ok := h[field]; !ok {
				t.Fatalf("latency[%q] missing field %q: %v", ep, field, h)
			}
		}
		if len(h) != 6 {
			t.Fatalf("latency[%q] has unexpected fields: %v", ep, h)
		}
		if h["count"] != wantCount {
			t.Fatalf("latency[%q].count = %v, want %v", ep, h["count"], wantCount)
		}
		if !(h["p50_us"] <= h["p95_us"] && h["p95_us"] <= h["p99_us"] && h["p99_us"] <= h["max_us"]) {
			t.Fatalf("latency[%q] quantiles not monotone: %v", ep, h)
		}
	}
}

// TestAdmissionControlSheds holds one fallback query in flight and
// verifies that, over MaxInFlight, the next exact-search query — with
// PolicyFull or with no policy set, which means the same — is degraded
// to the landmark estimate (typed by its method, counted in Shed)
// instead of queueing behind the search, and that a table-only request
// is never upgraded by admission control.
func TestAdmissionControlSheds(t *testing.T) {
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	var park atomic.Bool
	cfg := Config{MaxInFlight: 1, testHookQuery: func(ctx context.Context) {
		if park.Load() {
			entered <- struct{}{}
			<-release
		}
	}}
	srv, addr, a, b := startGridServer(t, cfg)

	c1, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// A failed check must not leave the held query parked: the server's
	// shutdown would wait on it and hang the test instead of failing it.
	var unparkOnce sync.Once
	unpark := func() { unparkOnce.Do(func() { close(release) }) }
	defer unpark()
	ctx := context.Background()

	// Hold one admitted query in flight.
	park.Store(true)
	var wg sync.WaitGroup
	wg.Add(1)
	var heldErr error
	go func() {
		defer wg.Done()
		_, heldErr = c1.Query(ctx, qclient.QuerySpec{S: a, T: b, Policy: core.PolicyFull})
	}()
	<-entered
	park.Store(false)

	// The second fallback query must shed to the estimate: answered in
	// microseconds with the landmark upper-bound method, not parked
	// behind the held slot.
	res, err := c2.Query(ctx, qclient.QuerySpec{S: a, T: b, Policy: core.PolicyFull})
	if err != nil {
		t.Fatal(err)
	}
	it := res.Items[0]
	if it.Err != nil || core.Method(it.Method) != core.MethodFallbackEstimate {
		t.Fatalf("shed query answered (%v, %v), want landmark estimate", core.Method(it.Method), it.Err)
	}
	wantD, _, _ := queryDist(srv.Oracle(), a, b)
	if it.Dist < wantD {
		t.Fatalf("shed estimate %d below true distance %d", it.Dist, wantD)
	}
	if m := srv.Metrics(); m.Shed != 1 || m.InFlight < 1 {
		t.Fatalf("metrics after shed: %+v", m)
	}

	// No policy set is the exact search too, so it sheds the same way.
	res, err = c2.Query(ctx, qclient.QuerySpec{S: a, T: b})
	if err != nil {
		t.Fatal(err)
	}
	if it := res.Items[0]; it.Err != nil || core.Method(it.Method) != core.MethodFallbackEstimate || it.Dist < wantD {
		t.Fatalf("shed default-policy query answered (%d, %v, %v), want the landmark estimate",
			it.Dist, core.Method(it.Method), it.Err)
	}
	if m := srv.Metrics(); m.Shed != 2 {
		t.Fatalf("default-policy shed not counted: %+v", m)
	}

	// A table-only request is already cheap: it passes through admission
	// control unchanged even over the limit.
	res, err = c2.Query(ctx, qclient.QuerySpec{S: a, T: b, Policy: core.PolicyTableOnly})
	if err != nil {
		t.Fatal(err)
	}
	if got := core.Method(res.Items[0].Method); got != core.MethodNone {
		t.Fatalf("table-only under overload answered %v, want none", got)
	}
	if m := srv.Metrics(); m.Shed != 2 {
		t.Fatalf("table-only request counted as shed: %+v", m)
	}

	unpark()
	wg.Wait()
	if heldErr != nil {
		t.Fatalf("held query: %v", heldErr)
	}
	if m := srv.Metrics(); m.InFlight != 0 {
		t.Fatalf("in-flight gauge leaked: %+v", m)
	}

	// The /v1/stats surface exposes the shed counter.
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Shed     *int64 `json:"shed"`
		InFlight *int64 `json:"in_flight"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Shed == nil || *st.Shed != 2 || st.InFlight == nil {
		t.Fatalf("/v1/stats shed/in_flight: %+v", st)
	}
}

// TestQueryV2ParallelRoundTrip sends one-to-many requests with the
// Parallel knob over both surfaces and requires answers identical to
// the sequential pass (the engine's bit-identity property, observed
// end to end).
func TestQueryV2ParallelRoundTrip(t *testing.T) {
	srv, addr := startServer(t, Config{})
	c, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	r := xrand.New(11)
	ts := make([]uint32, 3*core.BatchParallelMinTargets)
	for i := range ts {
		ts[i] = r.Uint32n(400)
	}
	seq, err := c.Query(ctx, qclient.QuerySpec{S: 5, Ts: ts, WantPath: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := c.Query(ctx, qclient.QuerySpec{S: 5, Ts: ts, WantPath: true, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Items) != len(seq.Items) {
		t.Fatalf("%d items, want %d", len(par.Items), len(seq.Items))
	}
	for i := range seq.Items {
		w, g := seq.Items[i], par.Items[i]
		if w.Dist != g.Dist || w.Method != g.Method || len(w.Path) != len(g.Path) {
			t.Fatalf("item %d: parallel (%d,%d) vs sequential (%d,%d)",
				i, g.Dist, g.Method, w.Dist, w.Method)
		}
	}

	// HTTP surface accepts the knob too (and rejects a negative one).
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	body := `{"s":5,"ts":[1,2,3],"parallel":4}`
	resp, err := http.Post(hs.URL+"/v2/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("parallel v2 query: HTTP %d", resp.StatusCode)
	}
	resp, err = http.Post(hs.URL+"/v2/query", "application/json", strings.NewReader(`{"s":5,"t":1,"parallel":-1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative parallel accepted: HTTP %d", resp.StatusCode)
	}
}

// TestTransportsShareRequestOrder pins the one request order both
// transports share: the StallQueries stall, standing in for a slow
// replica, runs after admission and under the request's deadline, and
// it is timed. A table-resolved query with a 5 ms deadline behind a
// 40 ms stall answers at its deadline over TCP and over HTTP, its
// latency histogram records the wait, and a TCP query sitting in the
// stall holds an admission slot.
func TestTransportsShareRequestOrder(t *testing.T) {
	const stall = 40 * time.Millisecond
	const deadline = 5 * time.Millisecond
	srv, addr := startServer(t, Config{StallQueries: stall})
	const a, b = 3, 77
	if _, m, err := queryDist(srv.Oracle(), a, b); err != nil || !m.Resolved() {
		t.Fatalf("pair (%d, %d) not table-resolved (%v, %v)", a, b, m, err)
	}

	start := time.Now()
	resp := dialMux(t, addr).rt(&wire.QueryRequest{S: a, T: b, DeadlineMS: uint32(deadline / time.Millisecond)})
	took := time.Since(start)
	if qr, ok := resp.(*wire.QueryResponse); !ok || qr.Items[0].Code != 0 {
		t.Fatalf("TCP query answered %+v", resp)
	}
	if took > 30*time.Millisecond {
		t.Errorf("TCP query with a %v deadline behind a %v stall answered after %v", deadline, stall, took)
	}
	if h := srv.Latency(EpDistance); h.Count() != 1 || h.Mean() < float64(deadline) {
		t.Errorf("TCP distance histogram: %d samples, mean %v; want the one query at >= %v",
			h.Count(), time.Duration(h.Mean()), deadline)
	}

	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	start = time.Now()
	body := fmt.Sprintf(`{"s":%d,"t":%d,"want_path":true,"deadline_ms":%d}`, a, b, deadline/time.Millisecond)
	hresp, err := http.Post(hs.URL+"/v2/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	took = time.Since(start)
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP query: status %d", hresp.StatusCode)
	}
	if took > 30*time.Millisecond {
		t.Errorf("HTTP query with a %v deadline behind a %v stall answered after %v", deadline, stall, took)
	}
	if h := srv.Latency(EpPath); h.Count() != 1 || h.Mean() < float64(deadline) {
		t.Errorf("HTTP path histogram: %d samples, mean %v; want the one query at >= %v",
			h.Count(), time.Duration(h.Mean()), deadline)
	}

	// A query without a deadline sits in the stall in full, admitted.
	c, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	errc := make(chan error, 1)
	sent := time.Now()
	go func() {
		_, err := queryOne(c, a, b, false)
		errc <- err
	}()
	for {
		inFlight := srv.Metrics().InFlight
		// Read after the gauge: a 1 seen before the stall could have
		// ended was seen while the query sat in it.
		if at := time.Since(sent); at >= stall {
			t.Fatalf("in-flight gauge %d at %v: a query in the %v stall holds no admission slot", inFlight, at, stall)
		}
		if inFlight == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestDispatchAllocs gates the allocations of the server's query path:
// a table-resolved distance frame costs two (its response and the one
// item), and a path frame and a K=3 frame on a pair the tables miss
// stay at their measured counts. A refusal check that moved a variable
// to the heap would add one to every query.
func TestDispatchAllocs(t *testing.T) {
	g := gen.HolmeKim(xrand.New(1), 400, 4, 0.5)
	o, err := core.Build(g, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := New(o, Config{})
	if _, m, err := queryDist(o, 3, 77); err != nil || !m.Resolved() {
		t.Fatalf("pair (3, 77) not table-resolved (%v, %v)", m, err)
	}
	if _, m, err := queryDist(o, 1, 200); err != nil || m.Resolved() {
		t.Fatalf("pair (1, 200) resolved from tables (%v, %v)", m, err)
	}
	ctx := context.Background()
	for _, c := range []struct {
		name string
		req  wire.Message
		want wire.MsgType
		max  float64
	}{
		{"resolved distance", &wire.QueryRequest{S: 3, T: 77}, wire.TypeQueryResp, 2},
		{"fallback path", &wire.QueryRequest{S: 1, T: 200, Flags: wire.QueryWantPath}, wire.TypeQueryResp, 20},
		{"fallback k=3", &wire.KPathsRequest{S: 1, T: 200, K: 3}, wire.TypeKPathsResp, 68},
	} {
		if got := s.dispatch(ctx, c.req).WireType(); got != c.want {
			t.Fatalf("%s: answered %v, want %v", c.name, got, c.want)
		}
		if n := testing.AllocsPerRun(200, func() { s.dispatch(ctx, c.req) }); n > c.max {
			t.Errorf("%s: dispatch allocates %.1f per frame, want <= %.0f", c.name, n, c.max)
		}
	}
}
