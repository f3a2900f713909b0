package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"vicinity/internal/baseline"
	"vicinity/internal/core"
	"vicinity/internal/qserver"
	"vicinity/internal/store"
	"vicinity/internal/wire"
)

// tracedMemLimit is the traced run's own memory limit: it holds an
// in-process oracle, and under the churn passes that oracle's heap
// grows with every batch. The server process is started only after the
// in-process oracle is released, so the two never coexist.
const tracedMemLimit = 3 << 30

// Replay sizes of the traced run's passes: the first traceSingles
// singles and traceRanks rankings of the window's streams, and
// 2×traceUpdates update batches (ApplyUpdates on the first half,
// Catalog.Apply on the second). The K-paths pass replays the pool in
// the order of the loopback probe.
const (
	traceSingles = 2000
	traceRanks   = 200
	traceUpdates = 4
)

// Ladder settings: capacity is searched upward from twice the
// workload's base rate by ladderGrowth, then bisected ladderBisections
// times between the last rate that held and the first that did not.
const (
	ladderStepDur    = 1500 * time.Millisecond
	ladderGrowth     = 1.5
	ladderMaxSteps   = 8
	ladderBisections = 3
	// A step whose outstanding requests at its last arrival exceed
	// backlogLimits × limit × rate has a growing backlog. One that
	// exceeds abortBacklog times that while sending is overloaded past
	// doubt, and stops sending.
	backlogLimits = 10
	abortBacklog  = 10
)

// layer names a span's layer: the entry point a pass calls.
type layer uint8

const (
	layerCore    layer = iota // core.Oracle.Query / ApplyUpdates
	layerStore                // store.Catalog.Apply
	layerWire                 // wire frame encode and decode
	layerQServer              // qserver.Server.Serve over net.Pipe
	layerQClient              // qclient.Pool.Query over loopback, one in flight
	layerLoadgen              // the open-loop run's client call
)

var layerNames = [...]string{"core", "store", "wire", "qserver", "qclient", "loadgen"}

// parentLayer is the next-outer layer of each layer's span for the
// same request; wire and core are both children of qserver.
var parentLayer = [...]int{layerCore: int(layerQServer), layerStore: -1, layerWire: int(layerQServer),
	layerQServer: int(layerQClient), layerQClient: int(layerLoadgen), layerLoadgen: -1}

// span is one call into one layer for one request.
type span struct {
	layer      layer
	kind       opKind
	id         int
	start, end int64 // ns since the span log's epoch
}

// spanLog keeps spans in memory; they are written out when the run ends.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []*span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) begin(ly layer, k opKind, id int) *span {
	sp := &span{layer: ly, kind: k, id: id, start: int64(time.Since(l.epoch))}
	l.mu.Lock()
	l.spans = append(l.spans, sp)
	l.mu.Unlock()
	return sp
}

func (l *spanLog) end(sp *span) { sp.end = int64(time.Since(l.epoch)) }

// durations maps (layer, kind, id) to the span's duration in ns; with
// several spans for one key the last wins.
func (l *spanLog) durations(ly layer, k opKind) map[int]float64 {
	out := map[int]float64{}
	for _, sp := range l.spans {
		if sp.layer == ly && sp.kind == k {
			out[sp.id] = float64(sp.end - sp.start)
		}
	}
	return out
}

// selfTime is the median over requests of a layer's span minus its
// children's spans for the same request.
func selfTime(outer map[int]float64, inner ...map[int]float64) float64 {
	var xs []float64
	for id, d := range outer {
		ok := true
		for _, in := range inner {
			c, found := in[id]
			if !found {
				ok = false
				break
			}
			d -= c
		}
		if ok {
			xs = append(xs, d)
		}
	}
	return quantile(xs, 0.5)
}

// write stores the spans as JSON lines, each naming its parent span's
// line number (-1 for none).
func (l *spanLog) write(path string) error {
	type key struct {
		ly   layer
		kind opKind
		id   int
	}
	index := map[key]int{}
	for i, sp := range l.spans {
		index[key{sp.layer, sp.kind, sp.id}] = i
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, sp := range l.spans {
		parent := -1
		if pl := parentLayer[sp.layer]; pl >= 0 {
			if i, ok := index[key{layer(pl), sp.kind, sp.id}]; ok {
				parent = i
			}
		}
		fmt.Fprintf(bw, `{"layer":%q,"kind":%d,"id":%d,"start_ns":%d,"end_ns":%d,"parent":%d}`+"\n",
			layerNames[sp.layer], sp.kind, sp.id, sp.start, sp.end, parent)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTraced replays the workload's seeded streams through one layer's
// entry point per pass, innermost first, and reports per-layer metrics.
func runTraced(cfg config) (*result, error) {
	debug.SetMemoryLimit(tracedMemLimit)
	w, graphFile, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	printMeta(cfg, w)
	n := w.g.NumNodes()
	prim := w.primary()
	// The window is drawn first so that the passes replay its head.
	window := w.phase(0, time.Duration(cfg.seconds)*time.Second, w.primaryRate(), true)
	singles := lookupStream(w.seed, saltLookup, n, traceSingles)
	ranks := rankStream(w.seed, saltRank, n, traceRanks, rankSize)
	kpairs := kpathsPairs(w.seed, saltProbe, n, kpathsPool)
	sample := traceSingles
	if prim == opRank {
		sample = traceRanks
	}
	spans := newSpanLog()
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	v, err := newVerifier(w.g, w.updates, 0)
	if err != nil {
		return nil, err
	}
	var attempted, failed int

	// Pass 1: core, on an oracle built in process with the server's
	// options; the build is deterministic, so it matches the server's.
	t0 := time.Now()
	o, err := core.Build(w.g, core.Options{Alpha: 4, Seed: graphSeed})
	if err != nil {
		return nil, err
	}
	bt := o.BuildTimings()
	put("core.build_s", time.Since(t0).Seconds(), "s")
	put("core.build_vicinities_s", bt.Vicinities.Seconds(), "s")
	put("core.build_merge_s", bt.Merge.Seconds(), "s")
	put("core.build_landmarks_s", bt.Landmarks.Seconds(), "s")

	ctx := context.Background()
	singleRes := make([]core.Result, len(singles))
	var qt, fbt []float64
	var resolved, lookups, scanned, expanded, fallbacks int
	for i, q := range singles {
		var sp *span
		if prim == opLookup {
			sp = spans.begin(layerCore, opLookup, i)
		}
		t := time.Now()
		res, err := o.Query(ctx, core.Request{S: q.s, T: q.t, WantPath: q.wantPath})
		d := float64(time.Since(t))
		if sp != nil {
			spans.end(sp)
		}
		attempted++
		if err != nil {
			failed++
			continue
		}
		singleRes[i] = res
		qt = append(qt, d)
		if res.Method.Resolved() {
			resolved++
		} else {
			fbt = append(fbt, d)
		}
		lookups += res.Cost.Lookups
		scanned += res.Cost.Scanned
		expanded += res.Cost.Expanded
		fallbacks += res.Cost.Fallbacks
		v.single(res.Epoch, i, q, res.Dist, res.Method, res.Path)
	}
	put("core.query_us", usOf(quantile(qt, 0.5)), "us")
	put("core.table_share", float64(resolved)/float64(len(singles)), "share")
	put("core.lookups_per_query", float64(lookups)/float64(len(singles)), "count")
	put("core.scanned_per_query", float64(scanned)/float64(len(singles)), "count")
	put("traverse.fallback_us", usOf(quantile(fbt, 0.5)), "us")
	put("traverse.expanded_per_fallback", float64(expanded)/float64(max(fallbacks, 1)), "count")

	// Table 3: the same pairs, distance only, against bidirectional BFS.
	bib := baseline.NewBiBFS(w.g)
	var oracleNS, bibNS time.Duration
	for _, q := range singles {
		t := time.Now()
		_, _ = o.Query(ctx, core.Request{S: q.s, T: q.t})
		oracleNS += time.Since(t)
		t = time.Now()
		bib.Distance(q.s, q.t)
		bibNS += time.Since(t)
	}
	put("core.speedup_vs_bibfs", float64(bibNS)/float64(oracleNS), "x")

	rankRes := make([]core.Result, len(ranks))
	var bt2 []float64
	var rankAnswers []rankAnswer
	for i, r := range ranks {
		var sp *span
		if prim == opRank {
			sp = spans.begin(layerCore, opRank, i)
		}
		t := time.Now()
		res, err := o.Query(ctx, core.Request{S: r.s, Ts: r.ts})
		d := float64(time.Since(t))
		if sp != nil {
			spans.end(sp)
		}
		attempted++
		if err != nil {
			failed++
			continue
		}
		rankRes[i] = res
		bt2 = append(bt2, d)
		a := rankAnswer{epoch: res.Epoch, idx: i, r: r}
		for _, it := range res.Items {
			a.dists = append(a.dists, it.Dist)
			a.meths = append(a.meths, it.Method)
		}
		rankAnswers = append(rankAnswers, a)
	}
	v.rankings(rankAnswers)
	put("core.batch_us", usOf(quantile(bt2, 0.5)), "us")

	var kt []float64
	kexp := 0
	for i, q := range kpairs {
		t := time.Now()
		res, err := o.Query(ctx, core.Request{S: q.s, T: q.t, K: kpathsK})
		kt = append(kt, float64(time.Since(t)))
		attempted++
		if err != nil {
			failed++
			continue
		}
		kexp += res.Cost.Expanded
		v.kpaths(res.Epoch, i, q, res.Paths)
	}
	put("kpaths.query_ms", msOf(quantile(kt, 0.5)), "ms")
	put("kpaths.expanded_per_query", float64(kexp)/float64(len(kpairs)), "count")

	// Pass 2: wire, the primary sample's request and response frames.
	reqs, resps := wireMessages(prim, singles[:min(sample, len(singles))], ranks[:min(sample, len(ranks))], singleRes, rankRes)
	wm := wirePass(reqs, resps, prim, spans)
	put("wire.encode_ns", wm.encodeNS, "ns")
	put("wire.decode_ns", wm.decodeNS, "ns")
	put("wire.resp_bytes", wm.respBytes, "B")
	put("wire.allocs_per_frame", wm.allocs, "count")

	// Pass 3: qserver.Server.Serve on an in-memory listener.
	pipeRTT, pipeResps, err := pipePass(o, reqs, prim, spans)
	if err != nil {
		return nil, err
	}
	attempted += len(reqs)
	var pipeRanks []rankAnswer
	for i, r := range pipeResps {
		if prim == opRank {
			a := rankAnswer{epoch: r.Epoch, idx: i, r: ranks[i]}
			for _, it := range r.Items {
				a.dists = append(a.dists, it.Dist)
				a.meths = append(a.meths, core.Method(it.Method))
			}
			pipeRanks = append(pipeRanks, a)
			continue
		}
		it := r.Items[0]
		v.single(r.Epoch, i, singles[i], it.Dist, core.Method(it.Method), it.Path)
	}
	v.rankings(pipeRanks)
	put("qserver.pipe_rtt_us", usOf(quantile(pipeRTT, 0.5)), "us")

	// Pass 1, write path: ApplyUpdates on the first batches, then
	// Catalog.Apply on the next ones, continuing from the newest
	// snapshot (a superseded snapshot refuses updates).
	var at, st []float64
	var livePeak uint64
	liveHeap := func() {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		livePeak = max(livePeak, ms.HeapAlloc)
	}
	updates := churnStream(graphSeed, w.g, 2*traceUpdates)
	cur := o
	o = nil
	for _, u := range updates[:traceUpdates] {
		sp := spans.begin(layerCore, opUpdate, len(at))
		t := time.Now()
		next, err := cur.ApplyUpdates(u)
		d := float64(time.Since(t))
		spans.end(sp)
		attempted++
		if err != nil {
			return nil, fmt.Errorf("ApplyUpdates: %w", err)
		}
		cur = next
		at = append(at, d)
		liveHeap()
	}
	cat := store.NewCatalog(cur, store.RoleStandalone)
	cur = nil
	for _, u := range updates[traceUpdates:] {
		sp := spans.begin(layerStore, opUpdate, traceUpdates+len(st))
		t := time.Now()
		_, err := cat.Apply(u)
		d := float64(time.Since(t))
		spans.end(sp)
		attempted++
		if err != nil {
			return nil, fmt.Errorf("Catalog.Apply: %w", err)
		}
		st = append(st, d)
		liveHeap()
	}
	put("core.apply_ms", msOf(quantile(at, 0.5)), "ms")
	put("store.apply_ms", msOf(quantile(st, 0.5)), "ms")
	put("core.live_peak_mb", float64(livePeak)/1e6, "MB")
	cat = nil
	runtime.GC()
	debug.FreeOSMemory()

	// Pass 4: qclient.Pool.Query to the server process, one request in
	// flight; the server restarts from the unchanged graph file.
	srv, _, err := launch(cfg, w, graphFile, 1)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	d := srv.sender(w)
	closed := make([]call, 0, sample)
	for i := 0; i < sample; i++ {
		closed = append(closed, call{kind: prim, i: i})
	}
	d.runClosed(closed, spans, layerQClient)
	rtt := make([]float64, 0, len(closed))
	for _, c := range closed {
		if !c.failed() {
			rtt = append(rtt, float64(c.done-c.sent))
		}
	}
	put("qclient.rtt_us", usOf(quantile(rtt, 0.5)), "us")

	// Pass 5: the open-loop window untraced on this server, then on a
	// fresh one with a span around each client call; the difference is
	// the tracing overhead. Each window follows the same warm-up, and
	// on churn each server starts from the same graph and applies the
	// same update batches. The K-paths probe runs before the first
	// window; the capacity ladder and the update probe after the second.
	recA := &recorder{}
	recA.add(closed)
	kprobe := w.kpathsProbe()
	d.runClosed(kprobe, nil, 0)
	recA.add(kprobe)
	warmA := w.phase(saltWarmup, warmup, w.primaryRate(), false)
	d.run(warmA, nil, 0)
	recA.add(warmA)
	ticks0, err := srv.cpuTicks()
	if err != nil {
		return nil, err
	}
	plain := append([]call(nil), window...)
	ps := d.run(plain, nil, 0)
	ticks1, err := srv.cpuTicks()
	if err != nil {
		return nil, err
	}
	recA.add(plain)
	stats, err := srv.stats()
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSS()
	if err != nil {
		return nil, err
	}
	srv.stop()
	vA, err := newVerifier(w.g, w.updates, d.acked())
	if err != nil {
		return nil, err
	}
	vA.calls(w, recA.calls)

	srvB, _, err := launch(cfg, w, graphFile, 1)
	if err != nil {
		return nil, err
	}
	defer srvB.stop()
	dB := srvB.sender(w)
	recB := &recorder{}
	warmB := w.phase(saltWarmup, warmup, w.primaryRate(), false)
	dB.run(warmB, nil, 0)
	recB.add(warmB)
	traced := append([]call(nil), window...)
	dB.run(traced, spans, 0)
	recB.add(traced)
	capacity := dB.ladder(recB)
	var uprobe []call
	if w.name != "churn" {
		time.Sleep(probePause)
		uprobe = w.updateProbe()
		dB.runClosed(uprobe, nil, 0)
		recB.add(uprobe)
	}
	srvB.stop()
	vB, err := newVerifier(w.g, w.updates, dB.acked())
	if err != nil {
		return nil, err
	}
	vB.calls(w, recB.calls)

	pp, tp := callsOf(plain, prim), callsOf(traced, prim)
	late := lateness(plain)
	up := callsOf(plain, opUpdate)
	if len(up) == 0 {
		up = callsOf(uprobe, opUpdate)
	}
	put("p99_us", usOf(quantile(latencies(pp), 0.99)), "us")
	put("rss_peak_mb", float64(rss)/1e6, "MB")
	put("capacity_qps", capacity, "1/s")
	put("kpaths_p50_ms", msOf(quantile(latencies(callsOf(kprobe, opKPaths)), 0.5)), "ms")
	put("update_p50_ms", msOf(quantile(latencies(up), 0.5)), "ms")
	put("loadgen.late_p50_us", usOf(quantile(late, 0.5)), "us")
	put("loadgen.late_p99_us", usOf(quantile(late, 0.99)), "us")
	put("trace.overhead_us", usOf(quantile(latencies(tp), 0.5)-quantile(latencies(pp), 0.5)), "us")
	put("qserver.service_us", stats.Latency["query"].P50US, "us")
	put("qserver.cpu_us_per_req", float64(ticks1-ticks0)*float64(clockTick)/1e3/float64(len(pp)), "us")
	put("qclient.cpu_us_per_req", float64(ps.cpuUser+ps.cpuSystem)/1e3/float64(len(pp)), "us")

	coreD, wireD := spans.durations(layerCore, prim), spans.durations(layerWire, prim)
	pipeD, cliD := spans.durations(layerQServer, prim), spans.durations(layerQClient, prim)
	loadD := spans.durations(layerLoadgen, prim)
	put("qserver.self_us", usOf(selfTime(pipeD, coreD, wireD)), "us")
	put("qclient.self_us", usOf(selfTime(cliD, pipeD)), "us")
	put("loadgen.self_us", usOf(selfTime(loadD, cliD)), "us")

	for _, r := range []*recorder{recA, recB} {
		a, f := r.counts()
		attempted += a
		failed += f
	}
	checked, bad := 0, 0
	var wrong []string
	for _, vv := range []*verifier{v, vA, vB} {
		checked += vv.checked
		bad += vv.bad
		wrong = append(wrong, vv.first...)
	}
	if err := spans.write(filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))); err != nil {
		return nil, err
	}
	fmt.Printf("traced: %d spans; verified %d answers, %d wrong\n", len(spans.spans), checked, bad)
	for _, msg := range wrong {
		fmt.Println("wrong answer:", msg)
	}
	return &result{Correct: bad == 0, Attempted: attempted, Failed: failed + bad, Metrics: m}, nil
}

// wireMessages builds the primary sample's request messages and, from
// the in-process answers, the response messages a server would send.
func wireMessages(prim opKind, singles []single, ranks []ranking, sres, rres []core.Result) (reqs []*wire.QueryRequest, resps []*wire.QueryResponse) {
	item := func(it core.ItemResult) wire.QueryItem {
		return wire.QueryItem{Dist: it.Dist, Method: uint8(it.Method), Path: it.Path}
	}
	if prim == opRank {
		for i, r := range ranks {
			reqs = append(reqs, &wire.QueryRequest{S: r.s, Ts: r.ts, Flags: wire.QueryMany})
			resp := &wire.QueryResponse{Epoch: rres[i].Epoch}
			for _, it := range rres[i].Items {
				resp.Items = append(resp.Items, item(it))
			}
			resps = append(resps, resp)
		}
		return reqs, resps
	}
	for i, q := range singles {
		req := &wire.QueryRequest{S: q.s, T: q.t}
		if q.wantPath {
			req.Flags |= wire.QueryWantPath
		}
		reqs = append(reqs, req)
		r := sres[i]
		resps = append(resps, &wire.QueryResponse{Epoch: r.Epoch,
			Items: []wire.QueryItem{{Dist: r.Dist, Method: uint8(r.Method), Path: r.Path}}})
	}
	return reqs, resps
}

type wireMetrics struct{ encodeNS, decodeNS, respBytes, allocs float64 }

// wirePass times AppendMuxFrame and ReadMuxFrame+Unmarshal over every
// request and response frame, first as whole loops for the metrics,
// then once more per request for the spans.
func wirePass(reqs []*wire.QueryRequest, resps []*wire.QueryResponse, prim opKind, spans *spanLog) wireMetrics {
	var buf bytes.Buffer
	var frame, rbuf []byte
	var ms0, ms1 runtime.MemStats
	frames := float64(len(reqs) + len(resps))
	runtime.ReadMemStats(&ms0)
	t := time.Now()
	for i, r := range reqs {
		frame = wire.AppendMuxFrame(frame[:0], uint64(i), r)
		buf.Write(frame)
	}
	respStart := buf.Len()
	for i, r := range resps {
		frame = wire.AppendMuxFrame(frame[:0], uint64(i), r)
		buf.Write(frame)
	}
	enc := time.Since(t)
	respBytes := buf.Len() - respStart
	rd := bytes.NewReader(buf.Bytes())
	t = time.Now()
	for {
		_, payload, nb, err := wire.ReadMuxFrame(rd, rbuf)
		rbuf = nb
		if err != nil {
			break
		}
		_, _ = wire.Unmarshal(payload)
	}
	dec := time.Since(t)
	runtime.ReadMemStats(&ms1)
	wm := wireMetrics{
		encodeNS:  float64(enc) / frames,
		decodeNS:  float64(dec) / frames,
		respBytes: float64(respBytes) / float64(len(resps)),
		allocs:    float64(ms1.Mallocs-ms0.Mallocs) / frames,
	}
	for i := range reqs {
		sp := spans.begin(layerWire, prim, i)
		frame = wire.AppendMuxFrame(frame[:0], uint64(i), reqs[i])
		_, payload, _, _ := wire.ReadMuxFrame(bytes.NewReader(frame), rbuf)
		_, _ = wire.Unmarshal(payload)
		frame = wire.AppendMuxFrame(frame[:0], uint64(i), resps[i])
		_, payload, _, _ = wire.ReadMuxFrame(bytes.NewReader(frame), rbuf)
		_, _ = wire.Unmarshal(payload)
		spans.end(sp)
	}
	return wm
}

// pipeListener hands qserver.Server.Serve in-memory net.Pipe
// connections, so the server's dispatch runs with no kernel sockets.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// pipePass sends each request through qserver over net.Pipe speaking
// multiplexed frames, one in flight, and returns the round trips in ns
// and the responses.
func pipePass(o *core.Oracle, reqs []*wire.QueryRequest, prim opKind, spans *spanLog) ([]float64, []*wire.QueryResponse, error) {
	srv := qserver.New(o, qserver.Config{})
	ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-served
	}()
	cli, conn := net.Pipe()
	defer cli.Close()
	select {
	case ln.conns <- conn:
	case err := <-served:
		return nil, nil, fmt.Errorf("qserver: %w", err)
	}
	if _, err := cli.Write(wire.AppendFrame(nil, &wire.Hello{Features: wire.FeatureMux})); err != nil {
		return nil, nil, err
	}
	ack, err := wire.ReadMessage(cli)
	if err != nil {
		return nil, nil, fmt.Errorf("qserver handshake: %w", err)
	}
	if a, ok := ack.(*wire.HelloAck); !ok || a.Features&wire.FeatureMux == 0 {
		return nil, nil, errors.New("qserver handshake: multiplexing not granted")
	}
	var frame, rbuf []byte
	rtt := make([]float64, 0, len(reqs))
	var resps []*wire.QueryResponse
	for i, r := range reqs {
		sp := spans.begin(layerQServer, prim, i)
		t := time.Now()
		frame = wire.AppendMuxFrame(frame[:0], uint64(i), r)
		if _, err := cli.Write(frame); err != nil {
			return nil, nil, err
		}
		id, payload, nb, err := wire.ReadMuxFrame(cli, rbuf)
		rbuf = nb
		if err != nil {
			return nil, nil, err
		}
		msg, err := wire.Unmarshal(payload)
		rtt = append(rtt, float64(time.Since(t)))
		spans.end(sp)
		if err != nil {
			return nil, nil, err
		}
		qr, ok := msg.(*wire.QueryResponse)
		if !ok || id != uint64(i) || len(qr.Items) == 0 || qr.Items[0].Code != 0 {
			return nil, nil, fmt.Errorf("qserver over pipe: request %d answered by %v id %d", i, msg.WireType(), id)
		}
		resps = append(resps, qr)
	}
	return rtt, resps, nil
}

// ladder finds the highest primary rate at which the median stays
// within the workload's limit, nothing fails and the backlog does not
// grow. Every step's answers join rec for verification.
func (d *sender) ladder(rec *recorder) float64 {
	w := d.w
	step := 0
	holds := func(rate float64) bool {
		// On churn the ladder runs reads only, after the window's
		// updates, so every run applies the same update batches.
		calls := w.phase(saltLadder+uint64(step), ladderStepDur, rate, false)
		step++
		backlogCap := int64(backlogLimits*w.limit().Seconds()*rate) + 16
		ps := d.run(calls, nil, abortBacklog*backlogCap)
		rec.add(calls)
		prim := callsOf(calls, w.primary())
		ok := !ps.aborted && ps.backlog <= backlogCap
		for _, c := range calls {
			ok = ok && !c.failed()
		}
		p50 := quantile(latencies(prim), 0.5)
		ok = ok && p50 <= float64(w.limit())
		fmt.Printf("ladder: %.0f/s p50 %.1f us backlog %d aborted %v -> %v\n", rate, usOf(p50), ps.backlog, ps.aborted, ok)
		return ok
	}
	lo, hi := 0.0, 0.0
	for rate, k := 2*w.primaryRate(), 0; k < ladderMaxSteps; rate, k = rate*ladderGrowth, k+1 {
		if !holds(rate) {
			hi = rate
			break
		}
		lo = rate
	}
	if hi == 0 {
		return lo // held at every step: report the top of the ladder
	}
	for b := 0; b < ladderBisections; b++ {
		mid := (lo + hi) / 2
		if holds(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		lo = hi / (1 << ladderBisections) // below the finest step tried
	}
	return lo
}
