package qclient_test

// Tests for the client-side transport: Close and context cancellation
// interrupting in-flight I/O, and the hello handshake failing the dial
// — once, with no fallback — against peers that refuse or ignore it.

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"vicinity/internal/core"
	"vicinity/internal/qclient"
	"vicinity/internal/wire"
)

// fakeServerAll accepts connections until the listener closes, passing
// each to handle on its own goroutine.
func fakeServerAll(t *testing.T, handle func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				handle(conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// blackhole grants the session, then swallows every request and never
// replies — the shape of a stalled server.
func blackhole(conn net.Conn) {
	if br, err := ackHello(conn); err == nil {
		_, _ = io.Copy(io.Discard, br)
	}
}

// TestCloseInterruptsInFlightRequest pins the lock-split fix: Close
// must interrupt a request blocked on a stalled server immediately —
// not queue behind it for the full request timeout.
func TestCloseInterruptsInFlightRequest(t *testing.T) {
	addr := fakeServerAll(t, blackhole)
	c, err := qclient.Dial(addr, qclient.Options{RequestTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		close(started)
		_, err := c.Query(context.Background(), qclient.QuerySpec{S: 1, T: 2})
		errCh <- err
	}()
	<-started
	time.Sleep(100 * time.Millisecond) // let the request block on the read
	closeDone := make(chan struct{})
	go func() {
		_ = c.Close()
		close(closeDone)
	}()
	select {
	case <-closeDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked behind an in-flight request")
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("request against a blackhole succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight request not interrupted by Close")
	}
}

// TestCancelWithoutDeadlineMidFlight pins the second bugfix: a context
// canceled after the request is written — carrying no deadline at all —
// must surface core.ErrCanceled promptly, not wait out RequestTimeout.
func TestCancelWithoutDeadlineMidFlight(t *testing.T) {
	addr := fakeServerAll(t, blackhole)
	c, err := qclient.Dial(addr, qclient.Options{RequestTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Query(ctx, qclient.QuerySpec{S: 1, T: 2})
		errCh <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the request go out and block
	start := time.Now()
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, core.ErrCanceled) {
			t.Fatalf("err = %v, want core.ErrCanceled", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("cancellation took %v to propagate", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("mid-flight cancellation ignored")
	}
}

// TestDialRefusedHelloFailsAfterOneDial covers the peers that do not
// open a multiplexed session: one that answers the hello with an error
// frame (what the server sends any opening frame but a mux hello), one
// that closes without a word (what servers predating the hello did
// with its unknown type), and one that acknowledges the hello but
// grants nothing. Dial must fail against each, after exactly one
// connection: there is no serial mode left to redial into.
func TestDialRefusedHelloFailsAfterOneDial(t *testing.T) {
	for _, peer := range []struct {
		name  string
		reply wire.Message // nil: close without replying
	}{
		{"error-frame", &wire.ErrorResponse{Code: wire.CodeBadRequest, Message: "connection must open with a hello offering the mux feature"}},
		{"silent-close", nil},
		{"no-grant", &wire.HelloAck{Features: 0}},
	} {
		t.Run(peer.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				if _, err := wire.ReadMessage(conn); err != nil || peer.reply == nil {
					return
				}
				_ = wire.WriteMessage(conn, peer.reply)
			}()
			c, err := qclient.Dial(ln.Addr().String(), qclient.Options{DialTimeout: 2 * time.Second})
			if err == nil {
				c.Close()
				t.Fatal("dial succeeded against a peer that refused the session")
			}
			// Dial returns only after the peer answered the first
			// connection, so a second one it opened would already be
			// waiting in the accept queue.
			_ = ln.(*net.TCPListener).SetDeadline(time.Now().Add(200 * time.Millisecond))
			if extra, err := ln.Accept(); err == nil {
				extra.Close()
				t.Fatal("dial opened a second connection after the refusal")
			}
			var werr *wire.ErrorResponse
			if isErr := errors.As(err, &werr); isErr != (peer.name == "error-frame") {
				t.Fatalf("err = %v: typed refusal surfaced = %v", err, isErr)
			}
			if werr != nil && werr.Code != wire.CodeBadRequest {
				t.Fatalf("refusal code %d, want %d", werr.Code, wire.CodeBadRequest)
			}
		})
	}
}

// TestDialTimeoutCoversHello pins that DialTimeout bounds the whole
// dial, handshake included: a peer that accepts the connection but
// never answers the hello fails the dial within the timeout.
func TestDialTimeoutCoversHello(t *testing.T) {
	addr := fakeServerAll(t, func(conn net.Conn) { _, _ = io.Copy(io.Discard, conn) })
	const timeout = 300 * time.Millisecond
	start := time.Now()
	c, err := qclient.Dial(addr, qclient.Options{DialTimeout: timeout})
	elapsed := time.Since(start)
	if err == nil {
		c.Close()
		t.Fatal("dial succeeded against a peer that never answered the hello")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want a timeout", err)
	}
	if elapsed > timeout+250*time.Millisecond {
		t.Fatalf("dial failed after %v, want within the %v dial timeout", elapsed, timeout)
	}
}

// TestReplyRacingCloseDelivered pins that a reply the server sends
// just before it closes reaches the caller. The reply and the close
// arrive together, so the demux loop delivers the reply and then fails
// the session; the waiter sees both at once and must still return the
// reply, not the read error.
func TestReplyRacingCloseDelivered(t *testing.T) {
	addr := fakeServerAll(t, func(conn net.Conn) {
		br, err := ackHello(conn)
		if err != nil {
			return
		}
		id, payload, _, err := wire.ReadMuxFrame(br, nil)
		if err != nil {
			return
		}
		req, err := wire.Unmarshal(payload)
		if err != nil {
			return
		}
		ping, ok := req.(*wire.PingRequest)
		if !ok {
			return
		}
		_, _ = conn.Write(wire.AppendMuxFrame(nil, id, &wire.PingResponse{Token: ping.Token}))
	})
	const dials = 3000
	lost := 0
	var first error
	for i := 0; i < dials; i++ {
		c, err := qclient.Dial(addr, qclient.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Ping(); err != nil {
			lost++
			if first == nil {
				first = err
			}
		}
		c.Close()
	}
	if lost > 0 {
		t.Fatalf("%d of %d replies lost to the close behind them; first: %v", lost, dials, first)
	}
}
