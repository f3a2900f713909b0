package qclient_test

// Black-box tests against hand-rolled fake servers; the happy path
// against the real server lives in internal/qserver's integration tests.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"vicinity/internal/core"
	"vicinity/internal/qclient"
	"vicinity/internal/wire"
)

// fakeServer accepts one connection and passes it to handle.
func fakeServer(t *testing.T, handle func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		handle(conn)
	}()
	return ln.Addr().String()
}

// ackHello reads the client's opening hello and grants the multiplexed
// session, as every server must before it answers requests. The
// returned reader holds whatever the client sent after the hello.
func ackHello(conn net.Conn) (*bufio.Reader, error) {
	br := bufio.NewReader(conn)
	msg, err := wire.ReadMessage(br)
	if err != nil {
		return nil, err
	}
	if _, ok := msg.(*wire.Hello); !ok {
		return nil, fmt.Errorf("opening frame %v, want hello", msg.WireType())
	}
	return br, wire.WriteMessage(conn, &wire.HelloAck{Features: wire.FeatureMux})
}

// muxServer accepts one connection, acks the hello, and answers every
// request with reply(req) under the request's id; a nil reply leaves
// the request unanswered.
func muxServer(t *testing.T, reply func(wire.Message) wire.Message) string {
	return fakeServer(t, func(conn net.Conn) {
		br, err := ackHello(conn)
		if err != nil {
			return
		}
		for {
			id, payload, _, err := wire.ReadMuxFrame(br, nil)
			if err != nil {
				return
			}
			req, err := wire.Unmarshal(payload)
			if err != nil {
				return
			}
			if resp := reply(req); resp != nil {
				if _, err := conn.Write(wire.AppendMuxFrame(nil, id, resp)); err != nil {
					return
				}
			}
		}
	})
}

// deadAddr is an address nothing can listen on: a connect to port 0 is
// refused at once, and unlike a closed listener's port no other test
// can take it.
const deadAddr = "127.0.0.1:0"

func TestDialFailure(t *testing.T) {
	if _, err := qclient.Dial(deadAddr, qclient.Options{DialTimeout: 500 * time.Millisecond}); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
}

func TestRequestTimeout(t *testing.T) {
	addr := muxServer(t, func(wire.Message) wire.Message { return nil })
	c, err := qclient.Dial(addr, qclient.Options{RequestTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Query(context.Background(), qclient.QuerySpec{S: 1, T: 2})
	if err == nil {
		t.Fatal("silent server produced no error")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want timeout", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("timeout took %v", time.Since(start))
	}
}

func TestServerErrorSurfaces(t *testing.T) {
	addr := muxServer(t, func(wire.Message) wire.Message {
		return &wire.ErrorResponse{Code: wire.CodeNotCovered, Message: "node 7 not covered"}
	})
	c, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Query(context.Background(), qclient.QuerySpec{S: 7, T: 8})
	var werr *wire.ErrorResponse
	if !errors.As(err, &werr) || werr.Code != wire.CodeNotCovered {
		t.Fatalf("err = %v, want CodeNotCovered", err)
	}
	// Wire codes map back to the oracle's error taxonomy.
	if !errors.Is(err, core.ErrNotCovered) {
		t.Fatalf("err = %v, want errors.Is ErrNotCovered", err)
	}
}

func TestUnexpectedResponseType(t *testing.T) {
	addr := muxServer(t, func(wire.Message) wire.Message { return &wire.PingResponse{Token: 1} })
	c, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(context.Background(), qclient.QuerySpec{S: 1, T: 2}); err == nil {
		t.Fatal("mismatched response type accepted")
	}
}

func TestPongTokenMismatch(t *testing.T) {
	addr := muxServer(t, func(wire.Message) wire.Message { return &wire.PingResponse{Token: 12345} })
	c, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Ping(); err == nil {
		t.Fatal("token mismatch accepted")
	}
}

// TestPoolRedialsOnRecovery pins the lazy-pool contract: a pool to a
// dead backend constructs fine, fails per-request while the backend is
// down, and starts answering again — no pool restart — once the backend
// serves. The test owns its listener throughout; during the outage the
// backend drops each connection before acking the hello.
func TestPoolRedialsOnRecovery(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var up atomic.Bool
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if up.Load() {
				if br, err := ackHello(conn); err == nil {
					if id, _, _, err := wire.ReadMuxFrame(br, nil); err == nil {
						_, _ = conn.Write(wire.AppendMuxFrame(nil, id, &wire.QueryResponse{Items: []wire.QueryItem{{Dist: 42, Method: 1}}}))
						// Hold the session until the pool hangs up: a
						// close racing the reply can surface as a read
						// error instead of the answer.
						_, _ = io.Copy(io.Discard, br)
					}
				}
			}
			conn.Close()
		}
	}()

	p, err := qclient.NewPool(ln.Addr().String(), 3, qclient.Options{DialTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatalf("lazy pool construction to dead backend failed: %v", err)
	}
	defer p.Close()
	ctx := context.Background()
	if _, err := p.Query(ctx, qclient.QuerySpec{S: 1, T: 2}); err == nil {
		t.Fatal("request to dead backend succeeded")
	}

	// The backend recovers; the next borrow redials.
	up.Store(true)
	res, err := p.Query(ctx, qclient.QuerySpec{S: 1, T: 2})
	if err != nil {
		t.Fatalf("request after backend recovery: %v", err)
	}
	if d := res.Items[0].Dist; d != 42 {
		t.Fatalf("dist = %d, want 42", d)
	}
}

func TestCloseIdempotent(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		if _, err := ackHello(conn); err == nil {
			time.Sleep(time.Second)
		}
	})
	c, err := qclient.Dial(addr, qclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
