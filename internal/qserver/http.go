package qserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"vicinity/internal/core"
	"vicinity/internal/store"
	"vicinity/internal/wire"
)

// Handler returns an http.Handler exposing the oracle as a JSON API:
//
//	POST /v2/query         → distances and paths, one target or many: deadline, budget, policy, typed error codes
//	POST /v2/kpaths        → ranked loopless alternatives: {"s":..,"t":..,"k":4}
//	GET  /v1/stats         → oracle build statistics and server counters
//	POST /v1/admin/update  → apply a graph mutation batch (requires Config.AllowUpdates)
//	POST /v1/admin/save    → serialize the current oracle to a server-side path (requires Config.AllowUpdates)
//	GET  /v1/repl/manifest → replication manifest: role, epoch, retained delta window
//	GET  /v1/repl/fetch    → snapshot or delta artifact for replicas (see store.ReplHandler)
//	GET  /healthz          → 200 "ok"
//
// The update body is {"add_nodes":N,"edges":[[u,v],...],
// "del_edges":[[u,v],...],"del_nodes":[u,...],
// "set_weights":[[u,v,w],...]}; the response reports the new epoch and
// graph size. Deleting or reweighting an absent edge is a 404 with the
// "edge_not_found" error code and applies nothing. Updates swap the
// oracle atomically, so queries keep flowing during a batch.
//
// The save body is {"path":"..."}: the handler writes the current
// snapshot as a v1 oracle file on the server's filesystem — the
// end-to-end hook that lets an operator (or CI) diff a churned oracle
// against a fresh build of the same graph.
//
// The handler shares the oracle (and the query/error counters) with
// the TCP server when constructed from the same Server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/query", s.handleQueryV2)
	mux.HandleFunc("POST /v2/kpaths", s.handleKPathsV2)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/admin/update", s.handleUpdate)
	mux.HandleFunc("POST /v1/admin/save", s.handleSave)
	mux.Handle("/v1/repl/", store.ReplHandler(s.cat))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	return mux
}

type httpError struct {
	Error string `json:"error"`
	Code  string `json:"error_code,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError reports a typed oracle error: message plus the taxonomy's
// machine-readable snake_case code (core.ErrorCode — the one mapping
// the HTTP API and the CLI share).
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, httpError{Error: err.Error(), Code: core.ErrorCode(err)})
}

func queryStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrNodeRange):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrNotCovered):
		return http.StatusNotFound
	case errors.Is(err, core.ErrCanceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, core.ErrStaleSnapshot):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

// maxUpdateBody bounds the admin update request body (64 MiB is ~4M
// edges, far beyond a sane single batch).
const maxUpdateBody = 64 << 20

// maxUpdateNodes bounds add_nodes per batch: growth is per-node memory
// across a dozen arrays plus every landmark row, so an unbounded count
// in a tiny request body could otherwise OOM the server.
const maxUpdateNodes = 1 << 20

// handleUpdate applies a mutation batch posted as JSON. Replicas
// refuse: their state changes only by following the writer.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.AllowUpdates {
		writeJSON(w, http.StatusForbidden, httpError{Error: "updates disabled: start the server with updates enabled"})
		return
	}
	if s.cat.Role() == store.RoleReplica {
		s.errCount.Add(1)
		writeJSON(w, http.StatusForbidden, httpError{Error: store.ErrReplicaReadOnly.Error(), Code: "replica_read_only"})
		return
	}
	var body struct {
		AddNodes   int         `json:"add_nodes"`
		Edges      [][]uint32  `json:"edges"`
		DelEdges   [][]uint32  `json:"del_edges"`
		DelNodes   []uint32    `json:"del_nodes"`
		SetWeights [][3]uint32 `json:"set_weights"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUpdateBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		s.errCount.Add(1)
		writeJSON(w, http.StatusBadRequest, httpError{Error: "invalid update body: " + err.Error()})
		return
	}
	// Decode into variable-length pairs so malformed edges fail loudly
	// (a fixed [2]uint32 would silently zero-fill short arrays).
	pairs := func(field string, in [][]uint32) ([][2]uint32, bool) {
		out := make([][2]uint32, len(in))
		for i, e := range in {
			if len(e) != 2 {
				s.errCount.Add(1)
				writeJSON(w, http.StatusBadRequest, httpError{Error: fmt.Sprintf("%s %d: want [u, v], got %d elements", field, i, len(e))})
				return nil, false
			}
			out[i] = [2]uint32{e[0], e[1]}
		}
		return out, true
	}
	edges, ok := pairs("edge", body.Edges)
	if !ok {
		return
	}
	delEdges, ok := pairs("del_edge", body.DelEdges)
	if !ok {
		return
	}
	changes := make([]core.WeightChange, len(body.SetWeights))
	for i, c := range body.SetWeights {
		changes[i] = core.WeightChange{U: c[0], V: c[1], W: c[2]}
	}
	if body.AddNodes < 0 || body.AddNodes > maxUpdateNodes {
		s.errCount.Add(1)
		writeJSON(w, http.StatusBadRequest, httpError{Error: fmt.Sprintf("add_nodes must be in [0, %d]", maxUpdateNodes)})
		return
	}
	epoch, snap, err := s.ApplyUpdates(core.Update{
		AddNodes:   body.AddNodes,
		Edges:      edges,
		DelEdges:   delEdges,
		DelNodes:   body.DelNodes,
		SetWeights: changes,
	})
	if err != nil {
		s.errCount.Add(1)
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, core.ErrWeightedUpdate), errors.Is(err, core.ErrStaleSnapshot):
			status = http.StatusConflict
		case errors.Is(err, core.ErrEdgeNotFound):
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	g := snap.Graph()
	type resp struct {
		Epoch uint64 `json:"epoch"`
		Nodes int    `json:"nodes"`
		Edges int    `json:"edges"`
	}
	writeJSON(w, http.StatusOK, resp{Epoch: epoch, Nodes: g.NumNodes(), Edges: g.NumEdges()})
}

// handleSave serializes the current oracle snapshot to a path on the
// server's filesystem. Gated by AllowUpdates like handleUpdate — it is
// the other half of the churn workflow (mutate, then persist the
// repaired oracle for offline verification against a fresh build).
func (s *Server) handleSave(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.AllowUpdates {
		writeJSON(w, http.StatusForbidden, httpError{Error: "updates disabled: start the server with updates enabled"})
		return
	}
	var body struct {
		Path string `json:"path"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil || body.Path == "" {
		s.errCount.Add(1)
		writeJSON(w, http.StatusBadRequest, httpError{Error: "invalid save body: want {\"path\":\"...\"}"})
		return
	}
	epoch, err := s.cat.SaveFile(body.Path)
	if err != nil {
		s.errCount.Add(1)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	type resp struct {
		Path  string `json:"path"`
		Epoch uint64 `json:"epoch"`
	}
	writeJSON(w, http.StatusOK, resp{Path: body.Path, Epoch: epoch})
}

// LatencyStats is the JSON shape of one endpoint's latency summary in
// /v1/stats (microsecond quantiles from the log-linear histogram; each
// is a ≤6.25%-under estimate of the true quantile).
type LatencyStats struct {
	Count  int64   `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P95US  float64 `json:"p95_us"`
	P99US  float64 `json:"p99_us"`
	MaxUS  float64 `json:"max_us"`
}

// latencyStats summarizes the per-endpoint histograms; endpoints with
// no samples are omitted.
func (s *Server) latencyStats() map[string]LatencyStats {
	out := make(map[string]LatencyStats, numEndpoints)
	for ep := Endpoint(0); ep < numEndpoints; ep++ {
		snap := s.lat[ep].Snapshot()
		if snap.Count() == 0 {
			continue
		}
		const us = 1e3 // ns per µs
		out[ep.String()] = LatencyStats{
			Count:  snap.Count(),
			MeanUS: snap.Mean() / us,
			P50US:  float64(snap.Quantile(0.50)) / us,
			P95US:  float64(snap.Quantile(0.95)) / us,
			P99US:  float64(snap.Quantile(0.99)) / us,
			MaxUS:  float64(snap.Max()) / us,
		}
	}
	return out
}

// ReplicationStats is the JSON shape of the replication section in
// /v1/stats: the node's role and epoch, how far behind its upstream it
// is (replicas only), and the sync gauges its Replicator maintains.
type ReplicationStats struct {
	Role          string        `json:"role"`
	Epoch         uint64        `json:"epoch"`
	UpstreamEpoch uint64        `json:"upstream_epoch,omitempty"`
	Lag           uint64        `json:"lag"`
	FullSyncs     int64         `json:"full_syncs"`
	DeltaSyncs    int64         `json:"delta_syncs"`
	SyncErrors    int64         `json:"sync_errors"`
	LastSyncBytes int64         `json:"last_sync_bytes"`
	LastSyncMS    float64       `json:"last_sync_ms"`
	Fetch         *LatencyStats `json:"fetch,omitempty"`
}

// replicationStats summarizes the catalog's replication gauges.
func (s *Server) replicationStats() ReplicationStats {
	rs := s.cat.ReplStats()
	out := ReplicationStats{
		Role:          rs.Role.String(),
		Epoch:         rs.Epoch,
		UpstreamEpoch: rs.UpstreamEpoch,
		Lag:           rs.Lag,
		FullSyncs:     rs.FullSyncs,
		DeltaSyncs:    rs.DeltaSyncs,
		SyncErrors:    rs.SyncErrors,
		LastSyncBytes: rs.LastSyncBytes,
		LastSyncMS:    float64(rs.LastSyncNanos) / 1e6,
	}
	if rs.Fetch.Count() > 0 {
		const us = 1e3
		out.Fetch = &LatencyStats{
			Count:  rs.Fetch.Count(),
			MeanUS: rs.Fetch.Mean() / us,
			P50US:  float64(rs.Fetch.Quantile(0.50)) / us,
			P95US:  float64(rs.Fetch.Quantile(0.95)) / us,
			P99US:  float64(rs.Fetch.Quantile(0.99)) / us,
			MaxUS:  float64(rs.Fetch.Max()) / us,
		}
	}
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cur := s.cat.State()
	st := cur.Oracle.Stats()
	ms := cur.Oracle.Memory()
	type resp struct {
		Nodes        int                     `json:"nodes"`
		Edges        int                     `json:"edges"`
		Alpha        float64                 `json:"alpha"`
		Landmarks    int                     `json:"landmarks"`
		AvgVicinity  float64                 `json:"avg_vicinity"`
		MaxVicinity  int                     `json:"max_vicinity"`
		AvgBoundary  float64                 `json:"avg_boundary"`
		AvgRadius    float64                 `json:"avg_radius"`
		TotalEntries int64                   `json:"total_entries"`
		TotalBytes   int64                   `json:"total_bytes"`
		VicBytes     int64                   `json:"vicinity_bytes"`
		LmBytes      int64                   `json:"landmark_bytes"`
		WideRows     int                     `json:"wide_landmark_rows"`
		Queries      int64                   `json:"queries_served"`
		Errors       int64                   `json:"errors"`
		Updates      int64                   `json:"updates_applied"`
		Epoch        uint64                  `json:"epoch"`
		InFlight     int64                   `json:"in_flight"`
		Shed         int64                   `json:"shed"`
		MuxConns     int64                   `json:"mux_conns"`
		Replication  ReplicationStats        `json:"replication"`
		Latency      map[string]LatencyStats `json:"latency,omitempty"`
	}
	writeJSON(w, http.StatusOK, resp{
		Nodes:        st.Nodes,
		Edges:        st.Edges,
		Alpha:        st.Alpha,
		Landmarks:    st.Landmarks,
		AvgVicinity:  st.AvgVicinity,
		MaxVicinity:  st.MaxVicinity,
		AvgBoundary:  st.AvgBoundary,
		AvgRadius:    st.AvgRadius,
		TotalEntries: ms.TotalEntries,
		TotalBytes:   ms.TotalBytes,
		VicBytes:     ms.VicinityBytes,
		LmBytes:      ms.LandmarkBytes,
		WideRows:     ms.WideLandmarkRows,
		Queries:      s.queries.Load(),
		Errors:       s.errCount.Load(),
		Updates:      s.cat.Updates(),
		Epoch:        cur.Epoch,
		InFlight:     s.inFlight.Load(),
		Shed:         s.shed.Load(),
		MuxConns:     s.muxConns.Load(),
		Replication:  s.replicationStats(),
		Latency:      s.latencyStats(),
	})
}

// costJSON is the "cost" object of the /v2 responses, sent when the
// request sets want_stats. Its fields are core.Cost's, so a Cost
// converts to it.
type costJSON struct {
	Lookups   int `json:"lookups"`
	Scanned   int `json:"scanned"`
	Expanded  int `json:"expanded"`
	Fallbacks int `json:"fallbacks"`
}

// costOf returns the cost object of a response: nil unless want.
func costOf(want bool, c core.Cost) *costJSON {
	if !want {
		return nil
	}
	out := costJSON(c)
	return &out
}

// decodeBody decodes a /v2 request body of at most limit bytes into v,
// refusing one that does not parse or carries unknown fields.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, what string, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.refuse(w, "invalid "+what+" body: "+err.Error())
		return false
	}
	return true
}

// refuse answers a request the HTTP layer rejects before answer sees
// it, counting one error.
func (s *Server) refuse(w http.ResponseWriter, msg string) {
	s.errCount.Add(1)
	writeFailure(w, badRequest(msg))
}

// writeFailure reports a query that got no answer: a refusal as 400
// "bad_request", an oracle error with its typed status and code.
func writeFailure(w http.ResponseWriter, err error) {
	if _, ok := err.(badRequest); ok {
		writeJSON(w, http.StatusBadRequest, httpError{Error: err.Error(), Code: "bad_request"})
		return
	}
	writeError(w, queryStatus(err), err)
}

// requestContext is an HTTP query's context: client disconnect
// (r.Context()) ∧ server shutdown (s.baseCtx). answer adds the
// request's own deadline.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// handleQueryV2 answers a request-scoped query posted as JSON:
//
//	{"s":15, "t":4711}                                  single target
//	{"s":15, "ts":[42,99], "want_path":true}            one-to-many
//	{"s":15, "t":4711, "deadline_ms":5, "budget":20000, "policy":"full"}
//
// The deadline is relative, enforced inside the fallback search loop,
// and combined with the client disconnect signal (r.Context()) and the
// server's shutdown context. Budget and cancellation outcomes come
// back inline per result with a machine-readable "error_code"
// ("budget_exceeded", "canceled", ...) and HTTP 200: a
// partially-answered request is a success whose items explain
// themselves, so one bad target id cannot fail a ranking; only
// validation and source errors use HTTP error statuses. A many-target
// request is answered from one oracle snapshot, so an epoch swap
// mid-batch cannot mix answers from different oracles.
func (s *Server) handleQueryV2(w http.ResponseWriter, r *http.Request) {
	var body struct {
		S          uint32    `json:"s"`
		T          *uint32   `json:"t"`
		Ts         *[]uint32 `json:"ts"`
		DeadlineMS int64     `json:"deadline_ms"`
		Budget     int       `json:"budget"`
		Policy     string    `json:"policy"`
		WantPath   bool      `json:"want_path"`
		WantStats  bool      `json:"want_stats"`
		Parallel   int       `json:"parallel"`
	}
	if !s.decodeBody(w, r, "query", maxUpdateBody, &body) {
		return
	}
	req := core.Request{
		S:         body.S,
		Budget:    body.Budget,
		WantPath:  body.WantPath,
		WantStats: body.WantStats,
		Parallel:  body.Parallel,
	}
	switch {
	case body.T == nil && body.Ts == nil:
		s.refuse(w, "one of t or ts is required")
		return
	case body.T != nil && body.Ts != nil:
		s.refuse(w, "t and ts are mutually exclusive")
		return
	case body.T != nil:
		req.T = *body.T
	default:
		req.Ts = *body.Ts
		if req.Ts == nil {
			req.Ts = []uint32{}
		}
	}
	var err error
	if req.Policy, err = core.ParsePolicy(body.Policy); err != nil {
		s.refuse(w, err.Error())
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	st, res, err := s.answer(ctx, req, body.DeadlineMS)
	if st == nil {
		writeFailure(w, err)
		return
	}
	// An answer TCP would refuse is refused here too, sized by the
	// same codec the mux writer encodes it with.
	if n := wire.MuxPayloadLen(wire.AppendMuxFrame(nil, 0, queryResponse(st, &req, &res, err))); n > wire.MaxFrame {
		s.refuse(w, frameCapMessage(n))
		return
	}

	type v2Item struct {
		T         uint32   `json:"t"`
		Distance  uint32   `json:"distance"`
		Method    string   `json:"method"`
		Reachable bool     `json:"reachable"`
		Path      []uint32 `json:"path,omitempty"`
		Error     string   `json:"error,omitempty"`
		ErrorCode string   `json:"error_code,omitempty"`
	}
	type v2Resp struct {
		S       uint32    `json:"s"`
		Epoch   uint64    `json:"epoch"`
		Results []v2Item  `json:"results"`
		Cost    *costJSON `json:"cost,omitempty"`
	}
	item := func(t uint32, dist uint32, method core.Method, path []uint32, ierr error) v2Item {
		it := v2Item{T: t, Method: method.String(), Path: path}
		if dist != core.NoDist {
			it.Distance = dist
			it.Reachable = true
		}
		if ierr != nil {
			it.Error = ierr.Error()
			it.ErrorCode = core.ErrorCode(ierr)
		}
		return it
	}
	out := v2Resp{S: body.S, Epoch: st.Epoch, Cost: costOf(req.WantStats, res.Cost)}
	if req.Ts == nil {
		out.Results = []v2Item{item(req.T, res.Dist, res.Method, res.Path, err)}
	} else {
		// A canceled batch still reports its per-item outcomes; the
		// top-level error is fully represented by the item codes.
		out.Results = make([]v2Item, len(res.Items))
		for i, it := range res.Items {
			out.Results[i] = item(req.Ts[i], it.Dist, it.Method, it.Path, it.Err)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleKPathsV2 answers a ranked-alternatives request posted as JSON:
//
//	{"s":15, "t":4711, "k":4}
//	{"s":15, "t":4711, "k":8, "budget":20000, "deadline_ms":5, "policy":"full"}
//
// The response lists up to k loopless s→t paths in canonical
// (distance, length, lexicographic) order. Budget and deadline
// exhaustion mid-enumeration is HTTP 200 with the paths found so far
// plus a top-level machine-readable error_code — mirroring the partial
// contract of /v2/query. The request runs against one pinned snapshot:
// epoch swaps mid-enumeration cannot mix graphs, and the reported
// epoch is the cluster epoch read-your-epoch routing needs.
func (s *Server) handleKPathsV2(w http.ResponseWriter, r *http.Request) {
	var body struct {
		S          uint32 `json:"s"`
		T          uint32 `json:"t"`
		K          int    `json:"k"`
		DeadlineMS int64  `json:"deadline_ms"`
		Budget     int    `json:"budget"`
		Policy     string `json:"policy"`
		WantStats  bool   `json:"want_stats"`
	}
	if !s.decodeBody(w, r, "kpaths", 1<<16, &body) {
		return
	}
	if body.K < 1 {
		s.refuse(w, fmt.Sprintf("k must be in [1, %d]", core.MaxK))
		return
	}
	req := core.Request{
		S:         body.S,
		T:         body.T,
		K:         body.K,
		Budget:    body.Budget,
		WantPath:  true,
		WantStats: body.WantStats,
	}
	var err error
	if req.Policy, err = core.ParsePolicy(body.Policy); err != nil {
		s.refuse(w, err.Error())
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	st, res, err := s.answer(ctx, req, body.DeadlineMS)
	if st == nil {
		writeFailure(w, err)
		return
	}

	type kAlt struct {
		Distance uint32   `json:"distance"`
		Hops     int      `json:"hops"`
		Path     []uint32 `json:"path"`
	}
	type kResp struct {
		S         uint32    `json:"s"`
		T         uint32    `json:"t"`
		K         int       `json:"k"`
		Epoch     uint64    `json:"epoch"`
		Method    string    `json:"method"`
		Count     int       `json:"count"`
		Paths     []kAlt    `json:"paths"`
		Error     string    `json:"error,omitempty"`
		ErrorCode string    `json:"error_code,omitempty"`
		Cost      *costJSON `json:"cost,omitempty"`
	}
	out := kResp{
		S: body.S, T: body.T, K: body.K,
		Epoch:  st.Epoch,
		Method: res.Method.String(),
		Count:  len(res.Paths),
		Paths:  make([]kAlt, len(res.Paths)),
		Cost:   costOf(req.WantStats, res.Cost),
	}
	for i, p := range res.Paths {
		out.Paths[i] = kAlt{Distance: p.Dist, Hops: len(p.Path) - 1, Path: p.Path}
	}
	if err != nil {
		out.Error = err.Error()
		out.ErrorCode = core.ErrorCode(err)
	}
	writeJSON(w, http.StatusOK, out)
}
