package qserver

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vicinity/internal/core"
	"vicinity/internal/gen"
	"vicinity/internal/qclient"
	"vicinity/internal/wire"
)

// TestMuxNegotiationAndRoundTrip pins the hello handshake end to end:
// a dialed client opens the multiplexed session, the server counts it,
// and every request shape answers correctly over id-carrying frames.
func TestMuxNegotiationAndRoundTrip(t *testing.T) {
	s, addr := startServer(t, Config{})
	c, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := s.Metrics().MuxConns; got != 1 {
		t.Fatalf("MuxConns = %d, want 1", got)
	}
	if _, err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	it, err := queryOne(c, 3, 77, false)
	if err != nil {
		t.Fatal(err)
	}
	wantD, _, err := queryDist(s.Oracle(), 3, 77)
	if err != nil {
		t.Fatal(err)
	}
	if it.Dist != wantD {
		t.Fatalf("muxed distance %d, want %d", it.Dist, wantD)
	}
	it, err = queryOne(c, 3, 77, true)
	if err != nil {
		t.Fatal(err)
	}
	if p := it.Path; len(p) == 0 || p[0] != 3 || p[len(p)-1] != 77 {
		t.Fatalf("muxed path endpoints wrong: %v", p)
	}
	res, err := c.Query(context.Background(), qclient.QuerySpec{S: 1, Ts: []uint32{2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 3 {
		t.Fatalf("batch items = %d", len(res.Items))
	}
	res, err = c.Query(context.Background(), qclient.QuerySpec{S: 5, T: 9, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) == 0 || res.Items[0].Err != nil {
		t.Fatalf("muxed k-paths query: %+v", res)
	}
	c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for s.Metrics().MuxConns != 0 {
		if time.Now().After(deadline) {
			t.Fatal("MuxConns did not drop to 0 after close")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMuxOutOfOrderCompletion is the head-of-line proof at the protocol
// level: a query held in flight by the test hook does not block a
// distance query issued after it on the same connection.
func TestMuxOutOfOrderCompletion(t *testing.T) {
	release := make(chan struct{})
	var held atomic.Int32
	cfg := Config{testHookQuery: func(ctx context.Context) {
		if held.Add(1) == 1 {
			<-release
		}
	}}
	_, addr := startServer(t, cfg)
	c, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A failed check must not leave the held query parked: the server's
	// shutdown would wait on it and hang the test instead of failing it.
	var unparkOnce sync.Once
	unpark := func() { unparkOnce.Do(func() { close(release) }) }
	defer unpark()
	slowDone := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), qclient.QuerySpec{S: 3, T: 77})
		slowDone <- err
	}()
	// Wait until the slow query is parked inside the server.
	deadline := time.Now().Add(2 * time.Second)
	for held.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow query never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
	// The fast request must complete while the slow one is still held.
	fastDone := make(chan error, 1)
	go func() {
		_, err := queryOne(c, 1, 2, false)
		fastDone <- err
	}()
	select {
	case err := <-fastDone:
		if err != nil {
			t.Fatalf("fast distance behind held query: %v", err)
		}
	case err := <-slowDone:
		t.Fatalf("slow query finished first (err=%v): no out-of-order completion", err)
	case <-time.After(5 * time.Second):
		t.Fatal("fast request blocked behind held query: head-of-line blocking")
	}
	unpark()
	if err := <-slowDone; err != nil {
		t.Fatalf("slow query after release: %v", err)
	}
}

// TestMuxAbandonedRequestKeepsConnection pins the headline bugfix: a
// canceled in-flight request abandons its id, the connection survives,
// the next request works, and the late reply is discarded when the
// server eventually answers.
func TestMuxAbandonedRequestKeepsConnection(t *testing.T) {
	release := make(chan struct{})
	var held atomic.Int32
	cfg := Config{testHookQuery: func(ctx context.Context) {
		if held.Add(1) == 1 {
			<-release
		}
	}}
	s, addr := startServer(t, cfg)
	c, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A failed check must not leave the held query parked: the server's
	// shutdown would wait on it and hang the test instead of failing it.
	var unparkOnce sync.Once
	unpark := func() { unparkOnce.Do(func() { close(release) }) }
	defer unpark()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Query(ctx, qclient.QuerySpec{S: 3, T: 77})
		errCh <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for held.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, core.ErrCanceled) {
			t.Fatalf("canceled in-flight request: err = %v, want core.ErrCanceled", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("cancellation not honored mid-flight")
	}
	// The connection survived the abandonment: the next request works
	// on the same conn — no teardown, no redial.
	if !c.Alive() {
		t.Fatal("client dead after an abandoned request")
	}
	if _, err := queryOne(c, 1, 2, false); err != nil {
		t.Fatalf("request after abandonment: %v", err)
	}
	if got := s.Metrics().TotalConns; got != 1 {
		t.Fatalf("TotalConns = %d, want 1 (abandonment must not redial)", got)
	}
	// Let the held query finish; its reply arrives under the abandoned
	// id and must be discarded, not matched to anything.
	unpark()
	deadline = time.Now().Add(2 * time.Second)
	for c.Discarded() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("late reply to the abandoned id never discarded")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := queryOne(c, 5, 9, false); err != nil {
		t.Fatalf("request after discarding a late reply: %v", err)
	}
}

// TestMuxTinyDeadlineThenNormalQuery is the acceptance pin: a
// tiny-deadline query (forced to hit its deadline by the hook) comes
// back as a typed per-item error, and a normal query follows on the
// same connection.
func TestMuxTinyDeadlineThenNormalQuery(t *testing.T) {
	cfg := Config{testHookQuery: func(ctx context.Context) {
		// Park deadline-carrying queries until their deadline fires;
		// wave everything else straight through.
		if _, ok := ctx.Deadline(); ok {
			<-ctx.Done()
		}
	}}
	srv, addr, s, u := startGridServer(t, cfg)
	c, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	res, err := c.Query(ctx, qclient.QuerySpec{S: s, T: u})
	if err != nil {
		t.Fatalf("tiny-deadline query must degrade per-item, got call error %v", err)
	}
	if len(res.Items) != 1 || !errors.Is(res.Items[0].Err, core.ErrCanceled) {
		t.Fatalf("tiny-deadline item = %+v, want ErrCanceled", res.Items)
	}
	res, err = c.Query(context.Background(), qclient.QuerySpec{S: s, T: u})
	if err != nil || res.Items[0].Err != nil {
		t.Fatalf("normal query after tiny-deadline: res=%+v err=%v", res, err)
	}
	if got := srv.Metrics().TotalConns; got != 1 {
		t.Fatalf("TotalConns = %d, want 1 (deadline must not kill the connection)", got)
	}
}

// TestFirstFrameMustBeMuxHello drives the refusal every peer that does
// not open with a mux hello gets — a retired distance frame (type 1), a
// hello that does not offer the mux feature, and a plain-framed ping:
// one CodeBadRequest error frame naming the requirement, then the
// server closes the connection. Nothing is answered as a query.
func TestFirstFrameMustBeMuxHello(t *testing.T) {
	s, addr := startServer(t, Config{})
	retired := []byte{0, 0, 0, 10, wire.Version, 1, 0, 0, 0, 3, 0, 0, 0, 4}
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"retired-distance-frame", retired},
		{"hello-without-mux", wire.Marshal(&wire.Hello{Features: 0})},
		{"plain-ping", wire.Marshal(&wire.PingRequest{Token: 1})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := s.Metrics()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			_ = conn.SetReadDeadline(start.Add(time.Second))
			br := bufio.NewReader(conn)
			resp, err := wire.ReadMessage(br)
			if err != nil {
				t.Fatalf("no refusal frame: %v", err)
			}
			e, ok := resp.(*wire.ErrorResponse)
			if !ok || e.Code != wire.CodeBadRequest || !strings.Contains(e.Message, "hello") {
				t.Fatalf("refusal = %+v, want a bad-request error naming the hello", resp)
			}
			if _, err := br.ReadByte(); err != io.EOF {
				t.Fatalf("after the refusal: %v, want EOF", err)
			}
			if took := time.Since(start); took > time.Second {
				t.Fatalf("connection closed after %v, want within 1s", took)
			}
			after := s.Metrics()
			if after.Errors != before.Errors+1 || after.Queries != before.Queries {
				t.Fatalf("metrics %+v -> %+v: want one error and no query", before, after)
			}
		})
	}
}

// TestMuxMalformedPayloadFailsOnlyThatRequest drives the raw protocol:
// a well-framed request with a garbage payload gets an error under its
// id, and the session keeps serving.
func TestMuxMalformedPayloadFailsOnlyThatRequest(t *testing.T) {
	_, addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
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
	// Frame 1: valid framing, bad payload version.
	bad := []byte{0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0, 7, 99, 1}
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	id, payload, _, err := wire.ReadMuxFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 {
		t.Fatalf("error reply under id %d, want 7", id)
	}
	msg, err := wire.Unmarshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := msg.(*wire.ErrorResponse); !ok || e.Code != wire.CodeBadRequest {
		t.Fatalf("reply = %+v, want bad-request error", msg)
	}
	// Frame 2: the session is still healthy.
	if _, err := conn.Write(wire.AppendMuxFrame(nil, 8, &wire.PingRequest{Token: 5})); err != nil {
		t.Fatal(err)
	}
	id, payload, _, err = wire.ReadMuxFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 8 {
		t.Fatalf("pong under id %d, want 8", id)
	}
	if pong, err := wire.Unmarshal(payload); err != nil {
		t.Fatal(err)
	} else if p, ok := pong.(*wire.PingResponse); !ok || p.Token != 5 {
		t.Fatalf("pong = %+v", pong)
	}
}

// TestMuxSharedClientStressWithChurn is the -race stress: N goroutines
// share one muxed client while ApplyUpdates churns the snapshot
// underneath, once with admission control off and once with it shedding
// hard. Every request shape must come back answered with no error, on
// the request or on any item — shed requests degrade to estimates,
// never to errors — and the in-flight gauge must drain to zero. How
// many requests shed depends on timing; TestAdmissionControlSheds pins
// shedding itself.
func TestMuxSharedClientStressWithChurn(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"unlimited", Config{}},
		{"limited", Config{MaxInFlight: 2, MaxBatchParallel: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, addr := startServer(t, tc.cfg)
			c, err := qclient.Dial(addr, qclient.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			stop := make(chan struct{})
			var churnWg sync.WaitGroup
			churnWg.Add(1)
			go func() {
				defer churnWg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					u := core.Update{Edges: [][2]uint32{{uint32(i % 400), uint32((i*13 + 7) % 400)}}}
					if _, _, err := s.ApplyUpdates(u); err != nil {
						// Self-edges and duplicates are rejected; that churn
						// pattern is fine, keep going.
						continue
					}
				}
			}()
			// A fanned-out batch needs BatchParallelMinTargets targets.
			wide := make([]uint32, core.BatchParallelMinTargets)
			for i := range wide {
				wide[i] = uint32(i * 6)
			}
			const workers = 8
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 48; i++ {
						sN, tN := uint32((w*41+i)%400), uint32((i*17+w)%400)
						var spec qclient.QuerySpec
						switch i % 6 {
						case 0:
							spec = qclient.QuerySpec{S: sN, T: tN}
						case 1:
							spec = qclient.QuerySpec{S: sN, T: tN, WantPath: true}
						case 2:
							spec = qclient.QuerySpec{S: sN, Ts: []uint32{tN, (tN + 1) % 400}}
						case 3:
							spec = qclient.QuerySpec{S: sN, T: tN, Policy: core.PolicyFull}
						case 4:
							spec = qclient.QuerySpec{S: sN, Ts: wide, Parallel: 4}
						case 5:
							spec = qclient.QuerySpec{S: sN, T: tN, K: 2 + 2*(w%2)}
						}
						res, err := c.Query(context.Background(), spec)
						if err != nil {
							errs <- fmt.Errorf("worker %d request %d: %w", w, i, err)
							return
						}
						if want := max(len(spec.Ts), 1); len(res.Items) != want {
							errs <- fmt.Errorf("worker %d request %d: %d items, want %d", w, i, len(res.Items), want)
							return
						}
						for j, it := range res.Items {
							if it.Err != nil {
								errs <- fmt.Errorf("worker %d request %d item %d: %w", w, i, j, it.Err)
								return
							}
						}
						if spec.K > 0 && len(res.Paths) == 0 {
							errs <- fmt.Errorf("worker %d request %d: k=%d answered no path", w, i, spec.K)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			churnWg.Wait()
			select {
			case err := <-errs:
				t.Fatal(err)
			default:
			}
			m := s.Metrics()
			if m.TotalConns != 1 {
				t.Fatalf("TotalConns = %d, want 1 (stress must share one connection)", m.TotalConns)
			}
			if m.InFlight != 0 {
				t.Fatalf("InFlight = %d after every reply arrived, want 0", m.InFlight)
			}
		})
	}
}

// TestOversizedResponseRefused drives the frame-cap refusal: a
// want-path batch whose encoded answer outgrows wire.MaxFrame comes
// back under its id as a CodeBadRequest error naming the cap, counts
// one error, and the next request on the connection answers.
func TestOversizedResponseRefused(t *testing.T) {
	const n = 40000
	o, err := core.Build(gen.Path(n), core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := New(o, Config{})
	addr := startServerWith(t, s)
	// Registered after the server's cleanup, so the connection closes
	// first and the shutdown need not wait out its read timeout.
	conn := dialMux(t, addr)

	// 110 paths of n nodes: about 17.6 MB encoded, over the 16 MiB cap.
	ts := make([]uint32, 110)
	for i := range ts {
		ts[i] = n - 1
	}
	before := s.Metrics().Errors
	resp := conn.rt(&wire.QueryRequest{S: 0, Ts: ts, Flags: wire.QueryMany | wire.QueryWantPath})
	e, ok := resp.(*wire.ErrorResponse)
	if !ok || e.Code != wire.CodeBadRequest || !strings.Contains(e.Message, "frame cap") {
		if ok {
			t.Fatalf("oversized answer refused with %+v, want a bad-request error naming the frame cap", e)
		}
		t.Fatalf("oversized answer came back as %v, want a bad-request error naming the frame cap", resp.WireType())
	}
	if got := s.Metrics().Errors - before; got != 1 {
		t.Fatalf("refusal moved the error counter by %d, want 1", got)
	}
	resp = conn.rt(&wire.QueryRequest{S: 0, T: n - 1})
	if qr, ok := resp.(*wire.QueryResponse); !ok || qr.Items[0].Code != 0 || qr.Items[0].Dist != n-1 {
		t.Fatalf("query after the refusal answered %+v", resp)
	}

	// HTTP refuses the same answer with the same message, as a 400.
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	post := func(body string) (int, map[string]any) {
		t.Helper()
		hr, err := hs.Client().Post(hs.URL+"/v2/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(hr.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return hr.StatusCode, out
	}
	tsJSON, _ := json.Marshal(ts)
	before = s.Metrics().Errors
	status, out := post(fmt.Sprintf(`{"s":0,"ts":%s,"want_path":true}`, tsJSON))
	msg, _ := out["error"].(string)
	if status != http.StatusBadRequest || out["error_code"] != "bad_request" || msg != e.Message {
		t.Fatalf("HTTP answered the oversized batch with %d %v, want 400 bad_request with %q", status, out, e.Message)
	}
	if got := s.Metrics().Errors - before; got != 1 {
		t.Fatalf("HTTP refusal moved the error counter by %d, want 1", got)
	}
	status, out = post(fmt.Sprintf(`{"s":0,"t":%d}`, n-1))
	if rs, _ := out["results"].([]any); status != http.StatusOK || len(rs) != 1 || rs[0].(map[string]any)["distance"] != float64(n-1) {
		t.Fatalf("HTTP query after the refusal answered %d %v", status, out)
	}
}
