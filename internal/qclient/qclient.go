// Package qclient is the Go client for the TCP query protocol served by
// internal/qserver. A Client owns one connection, opened with the hello
// handshake that starts the multiplexed session: many requests run in
// flight at once and replies are demultiplexed by request id. Pool
// spreads concurrent callers over a fixed number of lazily-dialed
// connections to one server; Router spreads reads over a cluster of
// replicas — per-replica health and epoch tracking, read-your-epoch
// placement (QuerySpec.MinEpoch), hedged requests, and scatter-gather
// over scope-partitioned shards.
package qclient

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"vicinity/internal/core"
	"vicinity/internal/wire"
)

// NoDist mirrors the oracle's unreachable sentinel on the client side.
const NoDist = ^uint32(0)

// Options tunes a Client.
type Options struct {
	// DialTimeout bounds connection establishment, hello handshake
	// included (0 = 5s).
	DialTimeout time.Duration
	// RequestTimeout bounds each request/response round trip (0 = 10s).
	RequestTimeout time.Duration
	// Mux has no effect: every connection negotiates the multiplexed
	// session mode. The field remains so existing callers still compile.
	Mux bool
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	return o
}

// Client is a single-connection protocol client. Methods are safe for
// concurrent use: requests interleave on the connection, each
// identified by a request id.
type Client struct {
	opts Options

	// connMu guards connection identity and the closed flag only — it
	// is never held across network I/O, so Close always interrupts an
	// in-flight request instead of queueing behind it.
	connMu sync.Mutex
	conn   net.Conn
	closed bool

	// reqMu serializes frame writes; the reusable encode buffer lives
	// under it.
	reqMu sync.Mutex
	br    *bufio.Reader
	bw    *bufio.Writer
	wbuf  []byte

	// Session state. pending maps in-flight request ids to their reply
	// channels; an abandoned id is simply removed, and the demux loop
	// counts its late reply in discarded instead of letting it poison the
	// stream.
	nextID    atomic.Uint64
	pendMu    sync.Mutex
	pending   map[uint64]chan wire.Message
	readErr   error
	demuxDone chan struct{}
	discarded atomic.Int64
}

// Dial connects to a query server at addr and performs the hello
// handshake that opens the multiplexed session, all within
// Options.DialTimeout. A server that refuses the session — with an
// error frame, a close, or an acknowledgement that grants nothing —
// fails the dial; an error frame stays reachable through errors.As as
// a *wire.ErrorResponse.
func Dial(addr string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	deadline := time.Now().Add(opts.DialTimeout)
	conn, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("qclient: dial %s: %w", addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	c := &Client{
		opts:      opts,
		conn:      conn,
		br:        bufio.NewReaderSize(conn, 4096),
		bw:        bufio.NewWriterSize(conn, 4096),
		pending:   make(map[uint64]chan wire.Message),
		demuxDone: make(chan struct{}),
	}
	if err := c.handshake(deadline); err != nil {
		conn.Close()
		return nil, fmt.Errorf("qclient: dial %s: hello: %w", addr, err)
	}
	go c.demux()
	return c, nil
}

// handshake sends the hello offering wire.FeatureMux and checks the
// server granted it, all before deadline.
func (c *Client) handshake(deadline time.Time) error {
	if err := c.conn.SetDeadline(deadline); err != nil {
		return err
	}
	if err := wire.WriteMessage(c.bw, &wire.Hello{Features: wire.FeatureMux}); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	resp, err := wire.ReadMessage(c.br)
	if err != nil {
		return err
	}
	switch m := resp.(type) {
	case *wire.HelloAck:
		if m.Features&wire.FeatureMux == 0 {
			return errors.New("server did not grant the multiplexed session")
		}
	case *wire.ErrorResponse:
		return m
	default:
		return fmt.Errorf("unexpected handshake response %v", resp.WireType())
	}
	return c.conn.SetDeadline(time.Time{})
}

// Discarded returns how many late replies to abandoned requests the
// demux loop has dropped on this connection.
func (c *Client) Discarded() int64 { return c.discarded.Load() }

// Close closes the underlying connection. It never waits for in-flight
// requests: closing the connection out-of-band is what interrupts
// them.
func (c *Client) Close() error {
	c.connMu.Lock()
	if c.closed {
		c.connMu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	c.conn = nil
	c.connMu.Unlock()
	if conn == nil {
		return nil
	}
	return conn.Close()
}

// ErrClosed is returned for requests on a closed client.
var ErrClosed = errors.New("qclient: client is closed")

// ErrStaleRead is returned when a response's epoch is behind the
// QuerySpec.MinEpoch the caller demanded (read-your-epoch violated).
var ErrStaleRead = errors.New("qclient: replica behind requested min-epoch")

// deadlineGrace is how long past the context deadline the client keeps
// listening for the server's typed cancellation reply (deadline
// truncation + one round trip, with margin).
const deadlineGrace = time.Second

// codeError maps a wire error code back to the oracle's error taxonomy,
// so errors.Is(err, core.ErrBudgetExceeded) etc. work across the
// network exactly as in-process. Codes without a taxonomy sentinel
// return nil (the caller falls back to the raw wire error).
func codeError(code uint16) error {
	switch code {
	case wire.CodeOutOfRange:
		return core.ErrNodeRange
	case wire.CodeNotCovered:
		return core.ErrNotCovered
	case wire.CodeBudget:
		return core.ErrBudgetExceeded
	case wire.CodeCanceled:
		return core.ErrCanceled
	case wire.CodeStale:
		return core.ErrStaleSnapshot
	default:
		return nil
	}
}

// typedError wraps a server error response so both the taxonomy
// sentinel (errors.Is) and the raw *wire.ErrorResponse (errors.As)
// remain reachable.
func typedError(e *wire.ErrorResponse) error {
	if sentinel := codeError(e.Code); sentinel != nil {
		return fmt.Errorf("qclient: %w: %w", sentinel, e)
	}
	return fmt.Errorf("qclient: %w", e)
}

// waitDeadline computes how long to keep listening for a reply: the
// request timeout, or the context deadline plus a grace window when the
// context carries one.
//
// An explicit context deadline overrides RequestTimeout in both
// directions: the server enforces it inside the query (it rides the
// frame as DeadlineMS) and then sends a typed reply carrying the
// best-known bound. Its timer starts at frame receipt, so the reply
// lands shortly *after* our deadline plus a network round trip — keep
// listening for that grace window rather than losing the degraded
// answer to a client timeout (or, for deadlines beyond RequestTimeout,
// abandoning a reply the server was explicitly told it had time to
// produce). The wait is capped at the protocol's deadline window:
// DeadlineMS is clamped to wire.MaxDeadlineMS on send, so waiting
// longer than that only risks blocking on a dead server.
func (c *Client) waitDeadline(ctx context.Context) time.Time {
	deadline := time.Now().Add(c.opts.RequestTimeout)
	if d, ok := ctx.Deadline(); ok {
		deadline = d.Add(deadlineGrace)
		if cap := time.Now().Add(wire.MaxDeadlineMS*time.Millisecond + deadlineGrace); deadline.After(cap) {
			deadline = cap
		}
	}
	return deadline
}

// muxRoundTrip issues one request on the multiplexed session: allocate
// an id, register its reply channel, write the frame, and wait. A
// timeout or cancellation abandons the id — the connection stays
// healthy and the late reply is discarded by the demux loop when it
// arrives. A context already done sends nothing.
func (c *Client) muxRoundTrip(ctx context.Context, req wire.Message) (wire.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("qclient: %w: %w", core.ErrCanceled, err)
	}
	c.connMu.Lock()
	conn := c.conn
	c.connMu.Unlock()
	if conn == nil {
		return nil, ErrClosed
	}
	id := c.nextID.Add(1)
	ch := make(chan wire.Message, 1)
	c.pendMu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.pendMu.Unlock()
		return nil, fmt.Errorf("qclient: read: %w", err)
	}
	c.pending[id] = ch
	c.pendMu.Unlock()

	c.reqMu.Lock()
	_ = conn.SetWriteDeadline(time.Now().Add(c.opts.RequestTimeout))
	c.wbuf = wire.AppendMuxFrame(c.wbuf[:0], id, req)
	_, err := c.bw.Write(c.wbuf)
	if err == nil {
		err = c.bw.Flush()
	}
	c.reqMu.Unlock()
	if err != nil {
		// A half-written frame corrupts the stream for every request on
		// it: fail the whole session.
		c.abandon(id)
		c.failMux(err)
		return nil, fmt.Errorf("qclient: write: %w", err)
	}

	timer := time.NewTimer(time.Until(c.waitDeadline(ctx)))
	defer timer.Stop()
	ctxDone := ctx.Done()
	for {
		select {
		case resp := <-ch:
			return reply(resp)
		case <-ctxDone:
			if errors.Is(ctx.Err(), context.Canceled) {
				c.abandon(id)
				return nil, fmt.Errorf("qclient: %w: %w", core.ErrCanceled, ctx.Err())
			}
			// Deadline passed: the server was told (DeadlineMS) and owes
			// a typed reply carrying the best-known bound — keep
			// listening until the grace timer instead of abandoning the
			// degraded answer.
			ctxDone = nil
		case <-timer.C:
			c.abandon(id)
			return nil, fmt.Errorf("qclient: request timed out: %w", os.ErrDeadlineExceeded)
		case <-c.demuxDone:
			// The reply and the close can arrive together, and select
			// picks among ready cases at random: demux may already have
			// delivered the reply before the read that failed.
			select {
			case resp := <-ch:
				return reply(resp)
			default:
			}
			c.pendMu.Lock()
			err := c.readErr
			c.pendMu.Unlock()
			return nil, fmt.Errorf("qclient: read: %w", err)
		}
	}
}

// reply turns a delivered response into muxRoundTrip's result: a
// server error response becomes a typed error.
func reply(resp wire.Message) (wire.Message, error) {
	if e, ok := resp.(*wire.ErrorResponse); ok {
		return nil, typedError(e)
	}
	return resp, nil
}

// abandon forgets an in-flight request id; the demux loop discards its
// reply if one ever arrives.
func (c *Client) abandon(id uint64) {
	c.pendMu.Lock()
	delete(c.pending, id)
	c.pendMu.Unlock()
}

// demux is the multiplexed session's read loop: it routes each reply to
// the channel registered under its id, and drops replies whose id was
// abandoned. Any read error is fatal to the session — waiters learn of
// it through demuxDone.
func (c *Client) demux() {
	var buf []byte
	for {
		id, payload, nb, err := wire.ReadMuxFrame(c.br, buf)
		buf = nb
		if err != nil {
			c.failMux(err)
			return
		}
		msg, err := wire.Unmarshal(payload)
		if err != nil {
			c.failMux(err)
			return
		}
		c.pendMu.Lock()
		ch, ok := c.pending[id]
		if ok {
			delete(c.pending, id)
		}
		c.pendMu.Unlock()
		if !ok {
			c.discarded.Add(1)
			continue
		}
		ch <- msg // buffered; the demux loop never blocks on a waiter
	}
}

// failMux marks the session dead: records the first error, wakes every
// waiter, and closes the connection so Alive turns false and Pool
// redials.
func (c *Client) failMux(err error) {
	c.pendMu.Lock()
	if c.readErr == nil {
		c.readErr = err
		close(c.demuxDone)
	}
	c.pendMu.Unlock()
	c.connMu.Lock()
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
	c.connMu.Unlock()
}

// Alive reports whether the client still holds a live connection (a
// failed session and Close both drop it; Pool uses this to redial
// instead of recycling dead clients).
func (c *Client) Alive() bool {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.conn != nil
}

// QuerySpec describes one request-scoped query: a distance (the zero
// overrides), a path (WantPath), a ranking (Ts) or ranked alternatives
// (K). The context passed to Query supplies the deadline (sent to the
// server as a relative deadline and enforced inside its fallback search
// loop).
type QuerySpec struct {
	S uint32
	// T is the single target; ignored when Ts is non-nil.
	T uint32
	// Ts, when non-nil, makes this a one-to-many request.
	Ts []uint32
	// K, when positive, makes this a ranked-alternatives request: up to
	// K loopless s→t paths in (distance, length, lexicographic) order,
	// returned in QueryResult.Paths. Single-target only (Ts must be
	// nil), capped at core.MaxK, and implies WantPath. K=1 returns
	// exactly the single shortest path the plain query would. Routers
	// treat K like any other read: the answer is a deterministic
	// function of the pinned snapshot, so hedging and replica failover
	// stay safe.
	K int
	// Policy selects the fallback for this request
	// (core.PolicyDefault/Full/Estimate/TableOnly; the zero value is
	// the exact search).
	Policy core.Policy
	// Budget caps each fallback search's node expansions (0 = none).
	Budget int
	// WantPath asks for the path(s); WantStats for the cost counters.
	WantPath  bool
	WantStats bool
	// Parallel asks the server to fan a one-to-many request across up
	// to this many workers (0 or 1 = sequential; the server clamps to
	// its own ceiling). Answers are bit-identical either way.
	Parallel int
	// MinEpoch demands the answer come from a snapshot at this cluster
	// epoch or later — the read-your-epoch guarantee after a write: pass
	// the epoch the writer returned and a lagging replica's answer is
	// refused with ErrStaleRead instead of silently serving the past. A
	// Router retries stale reads on other replicas; a bare Client or
	// Pool surfaces the error. 0 disables the check.
	MinEpoch uint64
}

// QueryItem is one target's answer in a QueryResult. Err wraps the
// error taxonomy (core.ErrBudgetExceeded, core.ErrCanceled, ...); for
// budget/cancel outcomes Dist still carries the server's best-known
// upper bound.
type QueryItem struct {
	Dist   uint32
	Method uint8
	Path   []uint32
	Err    error
}

// QueryResult is a query's answer: one item per target (exactly one for
// single-target requests), the answering snapshot's epoch, and — when
// QuerySpec.WantStats was set — the per-request cost counters.
//
// For a ranked-alternatives request (QuerySpec.K > 0) Paths carries the
// ranked list and Items holds one synthetic entry mirroring the best
// path — so consumers that only look at Items[0] see exactly the
// single-path answer. A budget or deadline that expired mid-enumeration
// surfaces as that item's Err with the paths found so far in Paths.
type QueryResult struct {
	Items []QueryItem
	Paths []core.PathAlt
	Epoch uint64
	Cost  core.Cost
}

// Query sends one request-scoped query. The context deadline (if
// any) rides the frame as a relative deadline-ms so the server can
// honor it inside the query; budget and cancellation outcomes come
// back as per-item errors wrapping the same sentinels the in-process
// API returns. A single-target request reports query errors on the
// lone item, not as a call error.
func (c *Client) Query(ctx context.Context, spec QuerySpec) (*QueryResult, error) {
	if spec.K != 0 {
		return c.queryKPaths(ctx, spec)
	}
	if len(spec.Ts) > wire.MaxBatchTargets {
		return nil, fmt.Errorf("qclient: query of %d targets exceeds the %d cap", len(spec.Ts), wire.MaxBatchTargets)
	}
	if spec.Budget < 0 {
		// ClampU32 would silently turn a negative budget into "no
		// budget" — the most expensive interpretation of invalid input;
		// refuse it like the HTTP handler and the CLI do.
		return nil, fmt.Errorf("qclient: negative budget %d", spec.Budget)
	}
	if spec.Parallel < 0 {
		return nil, fmt.Errorf("qclient: negative parallel %d", spec.Parallel)
	}
	req := &wire.QueryRequest{
		S:      spec.S,
		T:      spec.T,
		Budget: wire.ClampU32(spec.Budget),
		Policy: uint8(spec.Policy),
		// The wire field is one byte; 255 workers already exceeds any
		// server's clamp, so saturating loses nothing.
		Parallel: uint8(min(spec.Parallel, 255)),
	}
	if spec.WantPath {
		req.Flags |= wire.QueryWantPath
	}
	if spec.WantStats {
		req.Flags |= wire.QueryWantStats
	}
	if spec.Ts != nil {
		req.Flags |= wire.QueryMany
		req.Ts = spec.Ts
	}
	// Beyond the protocol cap a deadline is indistinguishable from
	// none; deadlineMS clamps rather than have the server reject a
	// query an ordinary long-lived context would carry.
	req.DeadlineMS = deadlineMS(ctx)
	resp, err := c.muxRoundTrip(ctx, req)
	if err != nil {
		return nil, err
	}
	qr, ok := resp.(*wire.QueryResponse)
	if !ok {
		return nil, fmt.Errorf("qclient: unexpected response %v", resp.WireType())
	}
	if spec.MinEpoch > 0 && qr.Epoch < spec.MinEpoch {
		return nil, fmt.Errorf("%w: at epoch %d, need %d", ErrStaleRead, qr.Epoch, spec.MinEpoch)
	}
	want := 1
	if spec.Ts != nil {
		want = len(spec.Ts)
	}
	if len(qr.Items) != want {
		return nil, fmt.Errorf("qclient: query returned %d items for %d targets", len(qr.Items), want)
	}
	out := &QueryResult{
		Items: make([]QueryItem, len(qr.Items)),
		Epoch: qr.Epoch,
		Cost: core.Cost{
			Lookups:   int(qr.Lookups),
			Scanned:   int(qr.Scanned),
			Expanded:  int(qr.Expanded),
			Fallbacks: int(qr.Fallbacks),
		},
	}
	for i, it := range qr.Items {
		out.Items[i] = QueryItem{Dist: it.Dist, Method: it.Method, Path: it.Path}
		if it.Code != 0 {
			out.Items[i].Err = typedError(&wire.ErrorResponse{Code: it.Code, Message: "query failed"})
		}
	}
	return out, nil
}

// deadlineMS converts a context deadline to the relative wire field,
// clamped to the protocol cap (shared by the query and kpaths frames).
func deadlineMS(ctx context.Context) uint32 {
	d, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(d).Milliseconds()
	if ms < 1 {
		ms = 1 // already (nearly) expired: let the server refuse it
	}
	if ms > wire.MaxDeadlineMS {
		ms = wire.MaxDeadlineMS
	}
	return wire.ClampU32(int(ms))
}

// queryKPaths is the K>0 arm of Query: one ranked-alternatives frame,
// answered from one pinned snapshot on the server.
func (c *Client) queryKPaths(ctx context.Context, spec QuerySpec) (*QueryResult, error) {
	switch {
	case spec.K < 0 || spec.K > core.MaxK:
		return nil, fmt.Errorf("qclient: k %d outside [1, %d]", spec.K, core.MaxK)
	case spec.Ts != nil:
		return nil, errors.New("qclient: k-paths requests are single-target (Ts must be nil)")
	case spec.Budget < 0:
		return nil, fmt.Errorf("qclient: negative budget %d", spec.Budget)
	}
	req := &wire.KPathsRequest{
		S:          spec.S,
		T:          spec.T,
		K:          uint16(spec.K),
		DeadlineMS: deadlineMS(ctx),
		Budget:     wire.ClampU32(spec.Budget),
		Policy:     uint8(spec.Policy),
	}
	if spec.WantStats {
		req.Flags |= wire.KPathsWantStats
	}
	resp, err := c.muxRoundTrip(ctx, req)
	if err != nil {
		return nil, err
	}
	kr, ok := resp.(*wire.KPathsResponse)
	if !ok {
		return nil, fmt.Errorf("qclient: unexpected response %v", resp.WireType())
	}
	if spec.MinEpoch > 0 && kr.Epoch < spec.MinEpoch {
		return nil, fmt.Errorf("%w: at epoch %d, need %d", ErrStaleRead, kr.Epoch, spec.MinEpoch)
	}
	out := &QueryResult{
		Items: make([]QueryItem, 1),
		Paths: make([]core.PathAlt, len(kr.Items)),
		Epoch: kr.Epoch,
		Cost: core.Cost{
			Lookups:   int(kr.Lookups),
			Scanned:   int(kr.Scanned),
			Expanded:  int(kr.Expanded),
			Fallbacks: int(kr.Fallbacks),
		},
	}
	for i, it := range kr.Items {
		out.Paths[i] = core.PathAlt{Dist: it.Dist, Path: it.Path}
	}
	// The synthetic item mirrors the best path so Items[0] consumers see
	// the single-path answer; an empty enumeration is an unreachable
	// target unless the response code says otherwise.
	item := QueryItem{Dist: NoDist, Method: kr.Method}
	if len(out.Paths) > 0 {
		item.Dist = out.Paths[0].Dist
		item.Path = out.Paths[0].Path
	}
	if kr.Code != 0 {
		item.Err = typedError(&wire.ErrorResponse{Code: kr.Code, Message: "k-paths enumeration cut short"})
	}
	out.Items[0] = item
	return out, nil
}

// Stats fetches the server's oracle statistics.
func (c *Client) Stats() (*wire.StatsResponse, error) {
	resp, err := c.muxRoundTrip(context.Background(), &wire.StatsRequest{})
	if err != nil {
		return nil, err
	}
	st, ok := resp.(*wire.StatsResponse)
	if !ok {
		return nil, fmt.Errorf("qclient: unexpected response %v", resp.WireType())
	}
	return st, nil
}

// ReplStatus asks the server for its place in the replication
// topology: role, serving epoch, retained delta window. Routers use it
// to seed epoch tracking; servers predating the frame answer with a
// bad-request error.
func (c *Client) ReplStatus() (*wire.ReplStatusResponse, error) {
	resp, err := c.muxRoundTrip(context.Background(), &wire.ReplStatusRequest{})
	if err != nil {
		return nil, err
	}
	st, ok := resp.(*wire.ReplStatusResponse)
	if !ok {
		return nil, fmt.Errorf("qclient: unexpected response %v", resp.WireType())
	}
	return st, nil
}

// Ping round-trips a token and reports the latency.
func (c *Client) Ping() (time.Duration, error) {
	token := uint64(time.Now().UnixNano())
	start := time.Now()
	resp, err := c.muxRoundTrip(context.Background(), &wire.PingRequest{Token: token})
	if err != nil {
		return 0, err
	}
	pong, ok := resp.(*wire.PingResponse)
	if !ok {
		return 0, fmt.Errorf("qclient: unexpected response %v", resp.WireType())
	}
	if pong.Token != token {
		return 0, errors.New("qclient: pong token mismatch")
	}
	return time.Since(start), nil
}

// Pool is a fixed-size pool of clients for concurrent callers,
// dialing lazily: construction allocates slots without touching the
// network, and each slot connects on its first borrow. A pooled client
// whose connection died (a failed session closes it) is transparently
// redialed at the next borrow, so a backend that is down at
// construction — or dies and comes back mid-run — costs exactly the
// requests that raced the outage, never the pool. Clients are handed
// out shared rather than exclusively: many callers run in flight on one
// connection at once, so the pool size caps connections, not
// concurrency.
type Pool struct {
	addr    string
	opts    Options
	clients chan *Client

	mu  sync.Mutex
	all []*Client
}

// NewPool creates a pool of size connection slots for addr. No
// connection is attempted yet — a dead backend surfaces as request
// errors, then stops mattering the moment it comes up — so the error
// is always nil and exists only for call-site compatibility.
func NewPool(addr string, size int, opts Options) (*Pool, error) {
	if size < 1 {
		size = 1
	}
	p := &Pool{addr: addr, opts: opts, clients: make(chan *Client, size)}
	for i := 0; i < size; i++ {
		// A placeholder client is simply "not alive": borrow's redial
		// path dials it on first use, the same way it revives a died one.
		c := &Client{opts: opts.withDefaults()}
		c.closed = true
		p.clients <- c
		p.all = append(p.all, c)
	}
	return p, nil
}

// borrow takes a client, redialing a dead one, and returns its slot to
// the pool at once so concurrent borrowers share the connection instead
// of queueing. On redial failure the dead client goes back to the pool
// — its slot stays usable for the next attempt — and the dial error is
// reported. The wait for a slot is only ever a redial in progress; a
// cancellation while waiting reports through the taxonomy (errors.Is
// core.ErrCanceled).
func (p *Pool) borrow(ctx context.Context) (*Client, error) {
	select {
	case c := <-p.clients:
		if c.Alive() {
			p.clients <- c
			return c, nil
		}
		nc, err := Dial(p.addr, p.opts)
		if err != nil {
			p.clients <- c
			return nil, err
		}
		// Replace the dead entry so p.all stays bounded at the pool
		// size no matter how much connection churn the redials absorb.
		p.mu.Lock()
		for i, old := range p.all {
			if old == c {
				p.all[i] = nc
				break
			}
		}
		p.mu.Unlock()
		p.clients <- nc
		return nc, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("qclient: %w: %w", core.ErrCanceled, ctx.Err())
	}
}

// Query borrows a client for one request-scoped query; ctx bounds both
// the wait for a connection and the request itself.
func (p *Pool) Query(ctx context.Context, spec QuerySpec) (*QueryResult, error) {
	c, err := p.borrow(ctx)
	if err != nil {
		return nil, err
	}
	return c.Query(ctx, spec)
}

// ReplStatus borrows a client for one replication status probe.
func (p *Pool) ReplStatus(ctx context.Context) (*wire.ReplStatusResponse, error) {
	c, err := p.borrow(ctx)
	if err != nil {
		return nil, err
	}
	return c.ReplStatus()
}

// Close closes every connection the pool ever dialed.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.all {
		c.Close()
	}
}
