// Package qserver serves vicinity-oracle queries over TCP (the wire
// protocol) and HTTP/JSON. It is the production-shaped entry point the
// paper's motivating applications (social-network path queries behind a
// user-facing service with tens-of-milliseconds budgets) would deploy.
//
// Design follows standard Go server practice: one goroutine per
// connection, per-request read/write deadlines, a connection cap
// enforced with a semaphore, graceful shutdown draining active
// connections, and atomic counters exported for scraping.
//
// The served oracle lives in a store.Catalog — the epoch-versioned
// snapshot state machine shared by every serving role. Dynamic updates
// (ApplyUpdates, or the /v1/admin/update endpoint when enabled) build a
// new snapshot copy-on-write and swap it in with zero query downtime —
// queries never take a lock and each one reads a consistent epoch. A
// server created with NewWithCatalog in store.RoleWriter publishes
// snapshots and delta artifacts under /v1/repl/ for read replicas to
// follow; one in store.RoleReplica serves queries from whatever state
// its Replicator installs and refuses mutation.
package qserver

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vicinity/internal/core"
	"vicinity/internal/lhist"
	"vicinity/internal/store"
	"vicinity/internal/wire"
)

// Config tunes the server. The zero value gets sensible defaults.
type Config struct {
	// MaxConns caps concurrent connections (0 = 1024).
	MaxConns int
	// ReadTimeout bounds the wait for the next request on an idle
	// connection (0 = 30s).
	ReadTimeout time.Duration
	// WriteTimeout bounds each response write (0 = 10s).
	WriteTimeout time.Duration
	// Logger receives connection-level errors, such as peers refused for
	// not opening with a mux hello (nil = silent).
	Logger *log.Logger
	// AllowUpdates enables the HTTP admin mutation endpoint
	// (POST /v1/admin/update). The programmatic ApplyUpdates method is
	// always available; this gates only the network surface.
	AllowUpdates bool
	// MaxInFlight enables admission control (0 = off): when more than
	// this many queries are being answered at once, new queries whose
	// policy permits a fallback search are degraded to PolicyEstimate —
	// shed load gets a cheap landmark upper bound (marked by its method
	// and counted in Metrics.Shed) instead of queueing behind µs-to-ms
	// fallback searches. Table-resolved queries are unaffected: the
	// degradation only ever removes the expensive step, so the server
	// keeps its latency floor under overload rather than collapsing.
	MaxInFlight int
	// MaxBatchParallel caps the per-request batch worker fan-out a
	// client may ask for via the wire Parallel knob (0 = number of CPUs;
	// negative disables client-requested parallelism).
	MaxBatchParallel int
	// MaxConnWorkers bounds concurrent request workers per connection
	// (0 = 32). When all workers are busy the connection's reader stops
	// pulling frames, so backpressure reaches the client through TCP
	// instead of unbounded goroutine growth. Server-wide admission
	// control (MaxInFlight) still applies on top.
	MaxConnWorkers int
	// StallQueries artificially delays every query and k-paths request
	// by this duration before any oracle work — a chaos knob standing in
	// for a slow replica, for exercising client-side hedging. The stall
	// is service time: it runs after admission, so a stalled query holds
	// an admission slot (Metrics.InFlight); it ends at the request's
	// deadline if that comes first; and it shows in the latency
	// histograms. Pings, stats and replication status frames are
	// unaffected, so health checks still see a live server. Never set in
	// production.
	StallQueries time.Duration

	// testHookQuery, when non-nil, runs after the stall of every query
	// and k-paths request, with the request context (deadline applied).
	// Tests use it to hold a request in flight and observe shutdown
	// cancellation; never set in production.
	testHookQuery func(context.Context)
}

func (c Config) withDefaults() Config {
	if c.MaxConns <= 0 {
		c.MaxConns = 1024
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.MaxBatchParallel == 0 {
		c.MaxBatchParallel = runtime.GOMAXPROCS(0)
	}
	if c.MaxConnWorkers <= 0 {
		c.MaxConnWorkers = 32
	}
	return c
}

// Metrics is a point-in-time snapshot of server counters.
type Metrics struct {
	ActiveConns int64
	TotalConns  int64
	Queries     int64
	Errors      int64
	Updates     int64  // update batches applied
	Epoch       uint64 // current oracle epoch (0 = as built/loaded)
	InFlight    int64  // queries being answered right now
	Shed        int64  // queries degraded to PolicyEstimate by admission control
	MuxConns    int64  // connections past the hello, in the multiplexed session
}

// Endpoint indexes the per-endpoint latency histograms: the query
// shapes a server answers, shared between the TCP and HTTP surfaces.
type Endpoint int

// Latency endpoints.
const (
	EpDistance Endpoint = iota // single-target query without a path
	EpPath                     // single-target query with a path
	EpBatch                    // many-target query
	EpQuery                    // queries of any shape, end to end
	EpKPaths                   // ranked k-shortest-paths enumeration
	numEndpoints
)

// String returns the stats-reporting name of the endpoint.
func (e Endpoint) String() string {
	switch e {
	case EpDistance:
		return "distance"
	case EpPath:
		return "path"
	case EpBatch:
		return "batch"
	case EpQuery:
		return "query"
	case EpKPaths:
		return "kpaths"
	default:
		return fmt.Sprintf("Endpoint(%d)", int(e))
	}
}

// Server answers oracle queries. Create with New, start with Serve or
// ListenAndServe, stop with Shutdown.
type Server struct {
	cat *store.Catalog
	cfg Config

	// baseCtx parents every request context. Shutdown cancels it once
	// draining is over (or immediately on a forced shutdown), so
	// in-flight fallback searches — which poll the context inside the
	// search loop — stop burning CPU instead of running to completion
	// against closed connections.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool

	sem chan struct{}
	wg  sync.WaitGroup

	activeConns atomic.Int64
	totalConns  atomic.Int64
	queries     atomic.Int64
	errCount    atomic.Int64
	inFlight    atomic.Int64
	shed        atomic.Int64
	muxConns    atomic.Int64

	lat [numEndpoints]lhist.Hist // per-endpoint service latency (ns)
}

// endpoint is the latency endpoint a query's shape picks.
func endpoint(req *core.Request) Endpoint {
	switch {
	case req.K > 0:
		return EpKPaths
	case req.Ts != nil:
		return EpBatch
	case req.WantPath:
		return EpPath
	}
	return EpDistance
}

// observe records one query's service latency (admission, stall and
// oracle work; response encoding and socket writes excluded) against
// its endpoint and, unless it is a k-paths query, against EpQuery.
func (s *Server) observe(ep Endpoint, start time.Time) {
	d := int64(time.Since(start))
	s.lat[ep].Observe(d)
	if ep != EpKPaths {
		s.lat[EpQuery].Observe(d)
	}
}

// Latency returns a snapshot of one endpoint's latency histogram.
func (s *Server) Latency(ep Endpoint) *lhist.Snapshot { return s.lat[ep].Snapshot() }

// admit applies admission control to one query: it enters the query
// into the in-flight gauge (the caller leaves it) and, when the server
// is over MaxInFlight, degrades the exact search (PolicyDefault or
// PolicyFull, which are the same) to PolicyEstimate so overload sheds
// to cheap landmark bounds instead of queueing. The returned policy is
// what the query must run with.
func (s *Server) admit(p core.Policy) core.Policy {
	n := s.inFlight.Add(1)
	if s.cfg.MaxInFlight > 0 && n > int64(s.cfg.MaxInFlight) &&
		(p == core.PolicyDefault || p == core.PolicyFull) {
		s.shed.Add(1)
		return core.PolicyEstimate
	}
	return p
}

// New returns an unstarted standalone server for the oracle.
func New(oracle *core.Oracle, cfg Config) *Server {
	return NewWithCatalog(store.NewCatalog(oracle, store.RoleStandalone), cfg)
}

// NewWithCatalog returns an unstarted server serving the catalog's
// current state — the entry point for replicated roles: pass a
// store.RoleWriter catalog to publish snapshots and deltas, a
// store.RoleReplica one (driven by a store.Replicator) to serve
// read-only replicas.
func NewWithCatalog(cat *store.Catalog, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cat:   cat,
		cfg:   cfg,
		conns: make(map[net.Conn]struct{}),
		sem:   make(chan struct{}, cfg.MaxConns),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	return s
}

// Catalog returns the snapshot catalog the server serves from.
func (s *Server) Catalog() *store.Catalog { return s.cat }

// Oracle returns the currently served oracle snapshot.
func (s *Server) Oracle() *core.Oracle { return s.cat.State().Oracle }

// ApplyUpdates applies the batch to the served oracle copy-on-write and
// atomically swaps the new snapshot in; in-flight queries finish on the
// epoch they started with and later queries see the updated graph. It
// returns the new epoch number together with that epoch's snapshot
// (taken together under the catalog's mutation lock, so they are
// consistent with each other even when batches race). Batches are
// serialized; queries are never blocked. On a replica it refuses with
// store.ErrReplicaReadOnly — state arrives only via replication.
func (s *Server) ApplyUpdates(u core.Update) (uint64, *core.Oracle, error) {
	st, err := s.cat.Apply(u)
	return st.Epoch, st.Oracle, err
}

// Metrics returns a snapshot of the server counters.
func (s *Server) Metrics() Metrics {
	return Metrics{
		ActiveConns: s.activeConns.Load(),
		TotalConns:  s.totalConns.Load(),
		Queries:     s.queries.Load(),
		Errors:      s.errCount.Load(),
		Updates:     s.cat.Updates(),
		Epoch:       s.cat.Epoch(),
		InFlight:    s.inFlight.Load(),
		Shed:        s.shed.Load(),
		MuxConns:    s.muxConns.Load(),
	}
}

// ListenAndServe listens on addr ("host:port") and serves until
// Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections from ln until Shutdown closes it. It always
// returns a non-nil error; after Shutdown the error is net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.listener = ln
	s.mu.Unlock()

	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			// Transient errors (EMFILE etc.) get exponential backoff,
			// the pattern used by net/http.
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		select {
		case s.sem <- struct{}{}:
		default:
			// Over the connection cap: refuse politely.
			s.errCount.Add(1)
			_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
			_ = wire.WriteMessage(conn, &wire.ErrorResponse{
				Code: wire.CodeUnavailable, Message: "connection limit reached",
			})
			conn.Close()
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			<-s.sem
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		s.totalConns.Add(1)
		s.activeConns.Add(1)
		go s.handleConn(conn)
	}
}

// Addr returns the bound listener address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil
	}
	return s.listener.Addr()
}

// Shutdown stops accepting, closes the listener, and waits for active
// connections to drain. If ctx expires first the shutdown turns
// forced: the server cancels every in-flight request context (budgeted
// and fallback searches observe it inside their search loop and return
// promptly with ErrCanceled) and closes the connections.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.baseCancel()
		return nil
	case <-ctx.Done():
		s.baseCancel()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// handleConn serves one connection: the hello exchange in plain
// framing, then the multiplexed session (serveMux). A connection whose
// first frame is anything but a hello offering wire.FeatureMux — a
// retired query frame, a plain-framed request, a hello without the mux
// bit, a malformed frame — gets one CodeBadRequest error frame naming
// the requirement and is closed, so an old peer learns why instead of
// seeing a silent close.
func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.activeConns.Add(-1)
		<-s.sem
		s.wg.Done()
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // request/response protocol: latency over batching
	}
	br := bufio.NewReaderSize(conn, 4096)
	bw := bufio.NewWriterSize(conn, 4096)
	if err := conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout)); err != nil {
		return
	}
	payload, _, err := wire.ReadFrame(br, nil)
	if err != nil && !isProtocolError(err) {
		return // EOF or idle timeout before the hello: nothing to answer
	}
	var hello *wire.Hello
	if err == nil {
		hello, err = parseHello(payload)
	}
	if err := conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)); err != nil {
		return
	}
	if err != nil {
		s.errCount.Add(1)
		s.logf("qserver: refusing %v: %v", conn.RemoteAddr(), err)
		_ = wire.WriteMessage(conn, &wire.ErrorResponse{
			Code:    wire.CodeBadRequest,
			Message: "connection must open with a hello offering the mux feature: " + err.Error(),
		})
		return
	}
	// Count the session before acknowledging it, so a client that has
	// its HelloAck in hand always finds itself in the gauge.
	s.muxConns.Add(1)
	defer s.muxConns.Add(-1)
	if err := wire.WriteMessage(bw, &wire.HelloAck{Features: hello.Features & wire.KnownFeatures}); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	s.serveMux(conn, br, bw)
}

// parseHello decodes a connection's opening frame, reporting why it is
// not a hello offering wire.FeatureMux when it is not one.
func parseHello(payload []byte) (*wire.Hello, error) {
	msg, err := wire.Unmarshal(payload)
	if err != nil {
		return nil, err
	}
	hello, ok := msg.(*wire.Hello)
	if !ok {
		return nil, fmt.Errorf("got %v", msg.WireType())
	}
	if hello.Features&wire.FeatureMux == 0 {
		return nil, fmt.Errorf("hello offers features %#x", hello.Features)
	}
	return hello, nil
}

// muxCompletion pairs a finished response with the request id it must
// echo on the wire.
type muxCompletion struct {
	id   uint64
	resp wire.Message
}

// serveMux runs one connection's multiplexed session: a reader loop
// (this goroutine) pulling id-carrying frames, a bounded pool of
// per-request workers, and a single writer goroutine draining a
// completion channel — so a slow batch or budgeted fallback no longer
// head-of-line-blocks the pings and singles sharing the connection.
//
// Ordering guarantee: responses are written in completion order, one
// whole frame at a time, by the single writer — frames never
// interleave, but ids may appear in any order relative to requests.
// The connection context descends from the server's base context and
// is canceled when the reader exits, so a client disconnect cancels
// every in-flight search on that connection.
func (s *Server) serveMux(conn net.Conn, br *bufio.Reader, bw *bufio.Writer) {
	connCtx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()

	out := make(chan muxCompletion, s.cfg.MaxConnWorkers)
	writerDone := make(chan struct{})
	var writeFailed atomic.Bool
	go func() {
		defer close(writerDone)
		var buf []byte
		for c := range out {
			if writeFailed.Load() {
				continue // dead pipe: keep draining so workers never block
			}
			buf = wire.AppendMuxFrame(buf[:0], c.id, c.resp)
			if n := wire.MuxPayloadLen(buf); n > wire.MaxFrame {
				// The peer's reader would refuse this frame and tear the
				// connection down: a want-path batch or k long paths
				// can outgrow the cap. Send a refusal the client can
				// use under the same id, and drop the oversized buffer
				// rather than keep it for the connection's life.
				s.errCount.Add(1)
				buf = wire.AppendMuxFrame(nil, c.id, &wire.ErrorResponse{Code: wire.CodeBadRequest, Message: frameCapMessage(n)})
			}
			_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			if _, err := bw.Write(buf); err != nil {
				writeFailed.Store(true)
				cancel() // no one is listening: stop in-flight searches
				continue
			}
			// Flush only when nothing else is queued: completions that
			// pile up while the kernel buffer drains coalesce into one
			// syscall without adding latency to a lone response.
			if len(out) == 0 {
				if err := bw.Flush(); err != nil {
					writeFailed.Store(true)
					cancel()
				}
			}
		}
	}()

	var (
		wg       sync.WaitGroup
		inflight atomic.Int64
		workers  = make(chan struct{}, s.cfg.MaxConnWorkers)
		rbuf     []byte
	)
	for {
		// The idle timeout is enforced on a non-consuming Peek so a
		// deadline can never fire halfway through a frame and desync the
		// stream; a connection with work still in flight is not idle.
		if err := conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout)); err != nil {
			break
		}
		if _, err := br.Peek(1); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && inflight.Load() > 0 {
				continue
			}
			break
		}
		id, payload, nb, err := wire.ReadMuxFrame(br, rbuf)
		rbuf = nb
		if err != nil {
			break // framing is unrecoverable: no id to answer under
		}
		req, err := wire.Unmarshal(payload)
		if err != nil {
			// A malformed payload inside a well-framed request fails only
			// that request: the id is known, so answer under it.
			s.errCount.Add(1)
			out <- muxCompletion{id, &wire.ErrorResponse{
				Code: wire.CodeBadRequest, Message: err.Error(),
			}}
			continue
		}
		workers <- struct{}{} // backpressure: stop reading at the cap
		wg.Add(1)
		inflight.Add(1)
		go func(id uint64, req wire.Message) {
			defer func() {
				inflight.Add(-1)
				<-workers
				wg.Done()
			}()
			out <- muxCompletion{id, s.dispatch(connCtx, req)}
		}(id, req)
	}
	cancel() // reader gone: cancel in-flight searches, then drain them
	wg.Wait()
	close(out)
	<-writerDone
}

func isProtocolError(err error) bool {
	return errors.Is(err, wire.ErrFrameTooLarge) ||
		errors.Is(err, wire.ErrBadVersion) ||
		errors.Is(err, wire.ErrTruncated)
}

// stall implements the Config.StallQueries chaos knob: it sleeps the
// configured delay, or until ctx, which carries the request's
// deadline, is done.
func (s *Server) stall(ctx context.Context) {
	if s.cfg.StallQueries <= 0 {
		return
	}
	t := time.NewTimer(s.cfg.StallQueries)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// dispatch answers a single request message. Query and k-paths frames
// go through answer; ctx parents any search they run and is the
// connection's context, canceled when the client goes away.
func (s *Server) dispatch(ctx context.Context, req wire.Message) wire.Message {
	switch m := req.(type) {
	case *wire.PingRequest:
		return &wire.PingResponse{Token: m.Token}

	case *wire.ReplStatusRequest:
		man := s.cat.Manifest()
		return &wire.ReplStatusResponse{
			Role:     uint8(s.cat.Role()),
			Epoch:    man.Epoch,
			MinDelta: man.MinDelta,
			MaxDelta: man.MaxDelta,
		}

	case *wire.QueryRequest:
		return s.dispatchQuery(ctx, m)

	case *wire.KPathsRequest:
		return s.dispatchKPaths(ctx, m)

	case *wire.StatsRequest:
		oracle := s.cat.State().Oracle
		stats := oracle.Stats()
		ms := oracle.Memory()
		return &wire.StatsResponse{
			Nodes:         uint64(stats.Nodes),
			Edges:         uint64(stats.Edges),
			Landmarks:     uint64(stats.Landmarks),
			AvgVicinityE6: uint64(stats.AvgVicinity * 1e6),
			TotalEntries:  uint64(ms.TotalEntries),
			QueriesServed: uint64(s.queries.Load()),
		}

	default:
		s.errCount.Add(1)
		return &wire.ErrorResponse{
			Code:    wire.CodeBadRequest,
			Message: fmt.Sprintf("unexpected message type %v", req.WireType()),
		}
	}
}

// badRequest is a query that answer refuses before doing any work. TCP
// answers it with CodeBadRequest, HTTP with 400 "bad_request".
type badRequest string

func (e badRequest) Error() string { return string(e) }

// validate refuses the values no query may carry, whichever transport
// decoded it; the transports check their own shapes.
func validate(req *core.Request, deadlineMS int64) error {
	switch {
	case req.Policy > core.PolicyTableOnly:
		return badRequest(fmt.Sprintf("unknown query policy %d", req.Policy))
	case deadlineMS < 0 || deadlineMS > wire.MaxDeadlineMS:
		return badRequest(fmt.Sprintf("deadline_ms must be in [0, %d]", wire.MaxDeadlineMS))
	case req.Budget < 0:
		return badRequest("budget must be >= 0")
	case req.Parallel < 0:
		return badRequest("parallel must be >= 0")
	case len(req.Ts) > wire.MaxBatchTargets:
		return badRequest(fmt.Sprintf("query of %d targets exceeds the %d cap", len(req.Ts), wire.MaxBatchTargets))
	case req.K > core.MaxK:
		return badRequest(fmt.Sprintf("k must be in [1, %d]", core.MaxK))
	}
	return nil
}

// answer runs one query, whichever transport carried it, in the
// server's one request order:
//
//  1. validate it; a refusal counts one error and no query;
//  2. count it and time it against the endpoint its shape picks;
//  3. admit it, which may degrade its policy (Config.MaxInFlight);
//  4. put its relative deadline (0 = none) on ctx;
//  5. run the Config.StallQueries stall, then the test hook;
//  6. pin one snapshot, clamp Parallel and call Query on it.
//
// It counts one error per failed single-target or k-paths query, per
// batch that failed whole and per failed batch item. The state is the
// pinned snapshot, whose cluster epoch the response reports; it is nil
// when the query got no answer and err is all there is to report. A
// budget or deadline cut still answers, with the best-known bound or
// the paths found so far, and a batch that came back with its items
// reports their failures per item.
func (s *Server) answer(ctx context.Context, req core.Request, deadlineMS int64) (*store.State, core.Result, error) {
	if err := validate(&req, deadlineMS); err != nil {
		s.errCount.Add(1)
		return nil, core.Result{}, err
	}
	ep := endpoint(&req)
	if ep == EpBatch {
		s.queries.Add(int64(len(req.Ts)))
	} else {
		s.queries.Add(1)
	}
	defer s.observe(ep, time.Now())
	req.Policy = s.admit(req.Policy)
	defer s.inFlight.Add(-1)
	if deadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(deadlineMS)*time.Millisecond)
		defer cancel()
	}
	s.stall(ctx)
	if s.cfg.testHookQuery != nil {
		s.cfg.testHookQuery(ctx)
	}
	st := s.cat.State()
	req.Parallel = min(req.Parallel, s.cfg.MaxBatchParallel)
	res, err := st.Oracle.Query(ctx, req)
	switch {
	case err == nil:
	case ep != EpBatch:
		s.errCount.Add(1)
		if !errors.Is(err, core.ErrBudgetExceeded) && !errors.Is(err, core.ErrCanceled) {
			return nil, res, err
		}
	case res.Items == nil:
		s.errCount.Add(1)
		return nil, res, err
	}
	for i := range res.Items {
		if res.Items[i].Err != nil {
			s.errCount.Add(1)
		}
	}
	return st, res, err
}

// dispatchQuery answers a query frame through answer. Budget and
// deadline cuts come back as per-item codes, so the best-known bound
// survives the wire; a query with no answer comes back as an
// ErrorResponse.
func (s *Server) dispatchQuery(ctx context.Context, m *wire.QueryRequest) wire.Message {
	req := core.Request{
		S:         m.S,
		T:         m.T,
		Policy:    core.Policy(m.Policy),
		Budget:    int(m.Budget),
		WantPath:  m.Flags&wire.QueryWantPath != 0,
		WantStats: m.Flags&wire.QueryWantStats != 0,
		Parallel:  int(m.Parallel),
	}
	if m.Flags&wire.QueryMany != 0 {
		req.Ts = m.Ts
		if req.Ts == nil {
			req.Ts = []uint32{}
		}
	}
	st, res, err := s.answer(ctx, req, int64(m.DeadlineMS))
	if st == nil {
		return queryError(err)
	}
	return queryResponse(st, &req, &res, err)
}

// frameCapMessage is the refusal of an answer whose wire encoding, n
// payload bytes, exceeds wire.MaxFrame. TCP sends it in place of the
// frame, HTTP as a 400, so a client gets the same refusal either way.
func frameCapMessage(n int) string {
	return fmt.Sprintf("response of %d bytes exceeds the %d frame cap; ask for fewer targets, fewer paths or none", n, wire.MaxFrame)
}

// queryResponse is the wire form of an answered query: res and err as
// answer returned them for req on the pinned snapshot st.
func queryResponse(st *store.State, req *core.Request, res *core.Result, err error) *wire.QueryResponse {
	// The response reports the cluster epoch pinned with the snapshot,
	// not the oracle's internal generation counter: a replica's loaded
	// snapshot restarts its generation at zero, but its cluster epoch
	// matches the writer's, which is what read-your-epoch routing needs.
	resp := &wire.QueryResponse{Epoch: st.Epoch}
	if req.WantStats {
		resp.Lookups, resp.Scanned, resp.Expanded, resp.Fallbacks = wireCost(res.Cost)
	}
	if req.Ts == nil {
		resp.Items = []wire.QueryItem{{Code: queryCode(err), Dist: res.Dist, Method: uint8(res.Method), Path: res.Path}}
		return resp
	}
	resp.Items = make([]wire.QueryItem, len(res.Items))
	for i, it := range res.Items {
		resp.Items[i] = wire.QueryItem{Code: queryCode(it.Err), Dist: it.Dist, Method: uint8(it.Method), Path: it.Path}
	}
	return resp
}

// dispatchKPaths answers a ranked-alternatives frame through answer.
// The codec decodes only K in [1, wire.MaxKPaths], so the request is
// always a k-paths query. Budget and deadline exhaustion
// mid-enumeration come back as a top-level response code with the
// paths found so far, matching the partial-result contract of
// core.Request.K; per-item codes are reserved for the scatter-gather
// layer, which stamps wire.CodeNotCovered on uncovered shards.
func (s *Server) dispatchKPaths(ctx context.Context, m *wire.KPathsRequest) wire.Message {
	req := core.Request{
		S:         m.S,
		T:         m.T,
		K:         int(m.K),
		Policy:    core.Policy(m.Policy),
		Budget:    int(m.Budget),
		WantPath:  true,
		WantStats: m.Flags&wire.KPathsWantStats != 0,
	}
	st, res, err := s.answer(ctx, req, int64(m.DeadlineMS))
	if st == nil {
		return queryError(err)
	}
	resp := &wire.KPathsResponse{Epoch: st.Epoch, Code: queryCode(err), Method: uint8(res.Method)}
	if req.WantStats {
		resp.Lookups, resp.Scanned, resp.Expanded, resp.Fallbacks = wireCost(res.Cost)
	}
	resp.Items = make([]wire.KPathsItem, len(res.Paths))
	for i, p := range res.Paths {
		resp.Items[i] = wire.KPathsItem{Dist: p.Dist, Path: p.Path}
	}
	return resp
}

// wireCost clamps a query's cost counters to the wire's fields.
func wireCost(c core.Cost) (lookups, scanned, expanded, fallbacks uint32) {
	return wire.ClampU32(c.Lookups), wire.ClampU32(c.Scanned), wire.ClampU32(c.Expanded), wire.ClampU32(c.Fallbacks)
}

// queryCode maps a refusal and the oracle's error taxonomy to wire
// error codes (0 for no error).
func queryCode(err error) uint16 {
	// A type switch, not errors.As: the target variable errors.As
	// needs would escape to the heap on every query.
	if _, ok := err.(badRequest); ok {
		return wire.CodeBadRequest
	}
	switch {
	case err == nil:
		return 0
	case errors.Is(err, core.ErrNotCovered):
		return wire.CodeNotCovered
	case errors.Is(err, core.ErrNodeRange):
		return wire.CodeOutOfRange
	case errors.Is(err, core.ErrBudgetExceeded):
		return wire.CodeBudget
	case errors.Is(err, core.ErrCanceled):
		return wire.CodeCanceled
	case errors.Is(err, core.ErrStaleSnapshot):
		return wire.CodeStale
	default:
		return wire.CodeInternal
	}
}

// queryError maps a refusal or an oracle error to a wire error.
func queryError(err error) wire.Message {
	return &wire.ErrorResponse{Code: queryCode(err), Message: err.Error()}
}
