// Command spload is an open-loop load generator for a running spserver:
// it offers queries at a configured arrival rate (optionally ramping),
// measures latency from each query's *scheduled* send time, and reports
// throughput, goodput, tail quantiles and the error-taxonomy breakdown
// in the vicinity-bench/v1 JSON schema.
//
// Usage:
//
//	spload -addr 127.0.0.1:7421 -qps 2000 -duration 10s
//	spload -url http://127.0.0.1:8080 -workload batch -targets 100
//	spload -addr ... -workload single,batch,overload -json BENCH.json
//
// Workloads (comma-separated; each becomes one workload entry in the
// report):
//
//	single    single-target default-policy distances
//	batch     one-to-many rankings of -targets candidates (-parallel
//	          forwards the server-side fan-out knob)
//	budget    single-target policy=full with -budget node expansions
//	estimate  single-target policy=estimate (landmark upper bound)
//	overload  three policy-full singles then one batch, repeating — the
//	          long batches keep several queries genuinely in flight, so
//	          behind a server started with -max-in-flight this
//	          exercises admission control; answers degraded to the
//	          landmark estimate are counted as "degraded"
//	kpaths    ranked alternatives: k-shortest requests with k cycling
//	          through 2, 4 and 8, interleaved one-for-one with plain
//	          singles so the report shows what the deviation search
//	          costs next to the table lookup it extends
//	mixed     round-robin over single/batch/budget/estimate
//	holblock  one large batch riding with eight singles — only the
//	          singles are measured, so the latency quantiles isolate
//	          head-of-line blocking: run it with "-pool 1" to check the
//	          batch does not stall the singles sharing its connection
//
// Any entry may carry its own rate as "name@qps" (e.g.
// "single@2000,batch@50"), overriding the global -qps for that
// workload only.
//
// TCP requests carry ids and replies complete out of order, so every
// pooled connection serves many requests at once (-pool caps
// connections, -conns the in-flight workers).
//
// With -addrs (a comma-separated replica list, instead of -addr) the
// load is routed through qclient.Router: per-replica health and epoch
// tracking, failover past dead replicas, and — with -hedge — hedged
// requests that duplicate a slow query to a second replica after the
// given delay. The router's hedge/failover counters land in the
// report's config (hedges, hedge_wins, failovers, stale_retries), so
// one stalled-replica run with and without -hedge shows the tail the
// hedging policy buys back.
//
// With -churn-url and -churn-qps the run doubles as a read/churn
// soak: a background stream of mixed insert/delete batches is POSTed
// to the server's /v1/admin/update endpoint (start spserver with
// updates enabled) while the query workloads are measured, so the
// reported latencies include epoch swaps and decremental repairs. The
// applied/error counts land in the report's config as churn_updates /
// churn_errors.
//
// Open loop means the arrival schedule never waits for responses: if
// the server falls behind, requests queue and their latency — measured
// from the scheduled arrival, not the delayed send — absorbs the queue
// wait. A closed-loop generator would silently stop offering load
// exactly when the server is slowest (coordinated omission); this one
// charges the stall to the server, where it belongs.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"vicinity/internal/benchfmt"
	"vicinity/internal/core"
	"vicinity/internal/lhist"
	"vicinity/internal/qclient"
	"vicinity/internal/xrand"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spload:", err)
		os.Exit(1)
	}
}

type config struct {
	addr     string
	url      string
	qps      float64
	rampTo   float64
	duration time.Duration
	warmup   time.Duration
	conns    int
	pool     int
	targets  int
	parallel int
	budget   int
	deadline time.Duration
	nodes    uint32
	seed     uint64
}

// kind is one request shape a workload issues.
type kind int

const (
	kSingle kind = iota
	kBatch
	kBudget
	kEstimate
	kOverload
	kKPaths2
	kKPaths4
	kKPaths8
)

// kOf returns the ranked-alternatives fan-out for a kind (0 = plain).
func kOf(k kind) int {
	switch k {
	case kKPaths2:
		return 2
	case kKPaths4:
		return 4
	case kKPaths8:
		return 8
	}
	return 0
}

// workload resolves a workload name to its request-shape rotation.
func workloadKinds(name string) ([]kind, string, error) {
	switch name {
	case "single":
		return []kind{kSingle}, "single", nil
	case "batch":
		return []kind{kBatch}, "batch", nil
	case "budget":
		return []kind{kBudget}, "budget", nil
	case "estimate":
		return []kind{kEstimate}, "estimate", nil
	case "overload":
		// Long batch requests force genuine overlap (a lone stream of
		// µs-scale singles finishes each query before the next arrives,
		// so the in-flight gauge never builds); the policy-full singles
		// riding alongside are what admission control sheds.
		return []kind{kOverload, kOverload, kOverload, kBatch}, "mixed", nil
	case "kpaths":
		// Ranked alternatives interleaved with plain singles: every other
		// request is a k-shortest enumeration (k cycling 2 → 4 → 8), so
		// the latency histogram prices the deviation search against the
		// table lookups it shares the server with.
		return []kind{kSingle, kKPaths2, kSingle, kKPaths4, kSingle, kKPaths8}, "mixed", nil
	case "mixed":
		return []kind{kSingle, kBatch, kBudget, kEstimate}, "mixed", nil
	case "holblock":
		// The head-of-line probe: every large batch is chased by eight
		// singles sharing its connection and its multi-megabyte reply's
		// writer. Only the singles are measured (see runWorkload), so the
		// quantiles read as "what a 5 µs query pays for sharing a
		// connection with bulk traffic".
		return []kind{kBatch, kSingle, kSingle, kSingle, kSingle, kSingle, kSingle, kSingle, kSingle}, "mixed", nil
	default:
		return nil, "", fmt.Errorf("unknown workload %q (want single|batch|budget|estimate|kpaths|overload|mixed|holblock)", name)
	}
}

// result is one request's outcome, aggregated by the collector.
type result struct {
	latency  time.Duration
	queries  int64 // targets answered
	good     int64 // targets answered without error
	degraded int64 // targets answered via the shed landmark estimate
	codes    map[string]int64
}

// transport issues one request of the given shape and reports outcomes.
// Implementations must be safe for concurrent use by -conns workers.
type transport interface {
	issue(ctx context.Context, k kind, s uint32, ts []uint32, cfg *config) (result, error)
	host() string
	close()
}

// spec builds the qclient request for one shape (shared by both
// transports so TCP and HTTP measure the same traffic).
func spec(k kind, s uint32, ts []uint32, cfg *config) qclient.QuerySpec {
	q := qclient.QuerySpec{S: s}
	switch k {
	case kSingle:
		q.T = ts[0]
	case kBatch:
		q.Ts = ts
		q.Parallel = cfg.parallel
	case kBudget:
		q.T = ts[0]
		q.Policy = core.PolicyFull
		q.Budget = cfg.budget
	case kEstimate:
		q.T = ts[0]
		q.Policy = core.PolicyEstimate
	case kOverload:
		q.T = ts[0]
		q.Policy = core.PolicyFull
	case kKPaths2, kKPaths4, kKPaths8:
		q.T = ts[0]
		q.K = kOf(k)
	}
	return q
}

// tally folds one answered item into the result.
func (r *result) tally(k kind, method uint8, ierr error) {
	r.queries++
	if ierr != nil {
		if r.codes == nil {
			r.codes = make(map[string]int64)
		}
		r.codes[errCode(ierr)]++
		return
	}
	r.good++
	// Every workload except estimate issues fallback-permitting
	// policies, so a landmark-estimate answer means the server's
	// admission control shed the query.
	if k != kEstimate && core.Method(method) == core.MethodFallbackEstimate {
		r.degraded++
	}
}

// errCode maps any error to its taxonomy code ("internal" when unknown).
func errCode(err error) string {
	if code := core.ErrorCode(err); code != "" {
		return code
	}
	return "internal"
}

// --- TCP transport (wire protocol via qclient) ---

type tcpTransport struct {
	addr string
	pool *qclient.Pool
}

func newTCPTransport(addr string, conns int) (*tcpTransport, error) {
	pool, err := qclient.NewPool(addr, conns, qclient.Options{})
	if err != nil {
		return nil, err
	}
	return &tcpTransport{addr: addr, pool: pool}, nil
}

func (t *tcpTransport) host() string { return "tcp://" + t.addr }
func (t *tcpTransport) close()       { t.pool.Close() }

func (t *tcpTransport) issue(ctx context.Context, k kind, s uint32, ts []uint32, cfg *config) (result, error) {
	if cfg.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.deadline)
		defer cancel()
	}
	res, err := t.pool.Query(ctx, spec(k, s, ts, cfg))
	var r result
	if err != nil {
		r.queries = 1
		if k == kBatch {
			r.queries = int64(len(ts))
		}
		r.codes = map[string]int64{errCode(err): r.queries}
		return r, nil
	}
	for _, it := range res.Items {
		r.tally(k, it.Method, it.Err)
	}
	return r, nil
}

// --- Router transport (replica cluster via qclient.Router) ---

type routerTransport struct {
	addrs  []string
	router *qclient.Router
}

func newRouterTransport(addrs []string, poolSize int, hedge time.Duration) (*routerTransport, error) {
	r, err := qclient.NewRouter(addrs, qclient.RouterOptions{
		PoolSize:   poolSize,
		HedgeDelay: hedge,
	})
	if err != nil {
		return nil, err
	}
	return &routerTransport{addrs: addrs, router: r}, nil
}

func (t *routerTransport) host() string { return "tcp://" + strings.Join(t.addrs, ",") }
func (t *routerTransport) close()       { t.router.Close() }

func (t *routerTransport) issue(ctx context.Context, k kind, s uint32, ts []uint32, cfg *config) (result, error) {
	if cfg.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.deadline)
		defer cancel()
	}
	res, err := t.router.Query(ctx, spec(k, s, ts, cfg))
	var r result
	if err != nil {
		r.queries = 1
		if k == kBatch {
			r.queries = int64(len(ts))
		}
		r.codes = map[string]int64{errCode(err): r.queries}
		return r, nil
	}
	for _, it := range res.Items {
		r.tally(k, it.Method, it.Err)
	}
	return r, nil
}

// --- HTTP transport (POST /v2/query) ---

type httpTransport struct {
	base   string
	client *http.Client
}

func newHTTPTransport(base string, conns int) *httpTransport {
	return &httpTransport{
		base: strings.TrimSuffix(base, "/"),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: conns},
		},
	}
}

func (t *httpTransport) host() string { return t.base }
func (t *httpTransport) close()       { t.client.CloseIdleConnections() }

func (t *httpTransport) issue(ctx context.Context, k kind, s uint32, ts []uint32, cfg *config) (result, error) {
	q := spec(k, s, ts, cfg)
	if q.K > 0 {
		return t.issueKPaths(ctx, q, cfg)
	}
	body := map[string]any{"s": q.S}
	if q.Ts != nil {
		body["ts"] = q.Ts
		if q.Parallel > 0 {
			body["parallel"] = q.Parallel
		}
	} else {
		body["t"] = q.T
	}
	if q.Policy != core.PolicyDefault {
		body["policy"] = q.Policy.String()
	}
	if q.Budget > 0 {
		body["budget"] = q.Budget
	}
	if cfg.deadline > 0 {
		body["deadline_ms"] = max(cfg.deadline.Milliseconds(), 1)
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return result{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+"/v2/query", bytes.NewReader(payload))
	if err != nil {
		return result{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(req)
	var r result
	nq := int64(1)
	if k == kBatch {
		nq = int64(len(ts))
	}
	if err != nil {
		r.queries = nq
		r.codes = map[string]int64{"transport": nq}
		return r, nil
	}
	defer resp.Body.Close()
	var out struct {
		Results []struct {
			Method    string `json:"method"`
			ErrorCode string `json:"error_code"`
		} `json:"results"`
		ErrorCode string `json:"error_code"`
	}
	if derr := json.NewDecoder(resp.Body).Decode(&out); derr != nil || resp.StatusCode != http.StatusOK {
		r.queries = nq
		code := out.ErrorCode
		if code == "" {
			code = fmt.Sprintf("http_%d", resp.StatusCode)
		}
		r.codes = map[string]int64{code: nq}
		return r, nil
	}
	for _, it := range out.Results {
		r.queries++
		if it.ErrorCode != "" {
			if r.codes == nil {
				r.codes = make(map[string]int64)
			}
			r.codes[it.ErrorCode]++
			continue
		}
		r.good++
		if k != kEstimate && it.Method == core.MethodFallbackEstimate.String() {
			r.degraded++
		}
	}
	return r, nil
}

// issueKPaths posts one ranked-alternatives request to /v2/kpaths.
// Partial enumerations (budget or deadline expiry mid-search) come back
// as HTTP 200 with an inline error_code, matching the TCP contract, so
// they are tallied as that code rather than a transport failure.
func (t *httpTransport) issueKPaths(ctx context.Context, q qclient.QuerySpec, cfg *config) (result, error) {
	body := map[string]any{"s": q.S, "t": q.T, "k": q.K}
	if cfg.deadline > 0 {
		body["deadline_ms"] = max(cfg.deadline.Milliseconds(), 1)
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return result{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+"/v2/kpaths", bytes.NewReader(payload))
	if err != nil {
		return result{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(req)
	var r result
	if err != nil {
		r.queries = 1
		r.codes = map[string]int64{"transport": 1}
		return r, nil
	}
	defer resp.Body.Close()
	var out struct {
		Method    string `json:"method"`
		ErrorCode string `json:"error_code"`
	}
	if derr := json.NewDecoder(resp.Body).Decode(&out); derr != nil || resp.StatusCode != http.StatusOK {
		r.queries = 1
		code := out.ErrorCode
		if code == "" {
			code = fmt.Sprintf("http_%d", resp.StatusCode)
		}
		r.codes = map[string]int64{code: 1}
		return r, nil
	}
	r.queries = 1
	if out.ErrorCode != "" {
		r.codes = map[string]int64{out.ErrorCode: 1}
		return r, nil
	}
	r.good++
	if out.Method == core.MethodFallbackEstimate.String() {
		r.degraded++
	}
	return r, nil
}

// --- open-loop schedule ---

// schedule yields the offset of the i-th arrival for a linear ramp
// from q0 to q1 qps over total duration d: arrivals follow the
// cumulative-rate curve A(t) = q0·t + (q1-q0)·t²/(2d), stepped by
// advancing each arrival 1/rate(t) past the previous one.
type schedule struct {
	q0, q1 float64
	d      time.Duration
	next   time.Duration
}

// arrival returns the next arrival offset, or false past the end.
func (s *schedule) arrival() (time.Duration, bool) {
	if s.next >= s.d {
		return 0, false
	}
	at := s.next
	frac := float64(at) / float64(s.d)
	rate := s.q0 + (s.q1-s.q0)*frac
	if rate < 1e-9 {
		rate = 1e-9
	}
	s.next += time.Duration(float64(time.Second) / rate)
	return at, true
}

// job is one scheduled request.
type job struct {
	at time.Time // scheduled arrival (latency is measured from here)
	k  kind
	s  uint32
	ts []uint32
}

// runWorkload offers one workload's open-loop schedule and aggregates
// the outcomes. qps/rampTo override the global rates when positive
// (the "name@qps" workload syntax).
func runWorkload(tr transport, name string, qps float64, cfg *config) (benchfmt.Workload, error) {
	kinds, kindName, err := workloadKinds(name)
	if err != nil {
		return benchfmt.Workload{}, err
	}
	if qps <= 0 {
		qps = cfg.qps
	}
	// holblock measures only its singles: the batches exist to occupy
	// the connection, and folding their multi-millisecond latencies into
	// the histogram would drown the head-of-line signal being probed.
	measured := func(kind) bool { return true }
	if name == "holblock" {
		measured = func(k kind) bool { return k == kSingle }
	}
	r := xrand.New(cfg.seed)
	pick := func(i int) job {
		k := kinds[i%len(kinds)]
		j := job{k: k, s: r.Uint32n(cfg.nodes)}
		if k == kBatch {
			j.ts = make([]uint32, cfg.targets)
			for x := range j.ts {
				j.ts[x] = r.Uint32n(cfg.nodes)
			}
		} else {
			j.ts = []uint32{r.Uint32n(cfg.nodes)}
		}
		return j
	}

	// Warmup (closed loop, unmeasured): faults in connections, pools
	// and the server's workspace rings before the clock starts.
	wctx, wcancel := context.WithTimeout(context.Background(), max(cfg.warmup, 50*time.Millisecond))
	for i := 0; ; i++ {
		j := pick(i)
		if _, err := tr.issue(wctx, j.k, j.s, j.ts, cfg); err != nil || wctx.Err() != nil {
			break
		}
	}
	wcancel()

	// The dispatcher releases jobs at their scheduled arrival times;
	// -conns workers drain them. The channel holds the entire backlog
	// so a saturated server delays service, never arrivals.
	sched := schedule{q0: qps, q1: qps, d: cfg.duration}
	if cfg.rampTo > 0 {
		sched.q1 = cfg.rampTo
	}
	jobs := make(chan job, int(max64(1, int64(float64(cfg.duration)/float64(time.Second)*sched.q1*2))))
	var (
		hist     lhist.Hist
		mu       sync.Mutex
		agg      benchfmt.Workload
		good     int64
		errTally = map[string]int64{}
	)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < cfg.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				res, ierr := tr.issue(ctx, j.k, j.s, j.ts, cfg)
				lat := time.Since(j.at) // from *scheduled* arrival: CO-safe
				if ierr != nil {
					continue
				}
				if measured(j.k) {
					hist.Observe(int64(lat))
				}
				mu.Lock()
				agg.Requests++
				agg.Queries += res.queries
				agg.Degraded += res.degraded
				good += res.good
				for c, n := range res.codes {
					errTally[c] += n
				}
				mu.Unlock()
			}
		}()
	}

	start := time.Now()
	dropped := 0
	for i := 0; ; i++ {
		at, ok := sched.arrival()
		if !ok {
			break
		}
		deadline := start.Add(at)
		if d := time.Until(deadline); d > 0 {
			time.Sleep(d)
		}
		j := pick(i)
		j.at = deadline
		select {
		case jobs <- j:
		default:
			dropped++ // backlog buffer full: the server is hopelessly behind
		}
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "spload: %s: dropped %d arrivals (backlog full)\n", name, dropped)
	}
	w := benchfmt.Workload{
		Name:        name,
		Kind:        kindName,
		DurationSec: elapsed.Seconds(),
		OfferedQPS:  qps,
		Requests:    agg.Requests,
		Queries:     agg.Queries,
		AchievedQPS: float64(agg.Queries) / elapsed.Seconds(),
		GoodputQPS:  float64(good) / elapsed.Seconds(),
		Degraded:    agg.Degraded,
		Latency:     benchfmt.FromSnapshot(hist.Snapshot()),
	}
	if len(errTally) > 0 {
		w.Errors = errTally
	}
	return w, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func run(args []string) error {
	fs := flag.NewFlagSet("spload", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "", "TCP server address (wire protocol)")
		addrsFlag = fs.String("addrs", "", "comma-separated replica TCP addresses: load is routed with health tracking, failover and -hedge (mutually exclusive with -addr/-url)")
		hedge     = fs.Duration("hedge", 0, "with -addrs: duplicate a request to a second replica after this delay (0 = no hedging)")
		url       = fs.String("url", "", "HTTP server base URL (mutually exclusive with -addr)")
		workloads = fs.String("workload", "single", "comma-separated workloads: single|batch|budget|estimate|kpaths|overload|mixed, each optionally \"name@qps\" to override -qps")
		qps       = fs.Float64("qps", 1000, "offered arrival rate (requests/sec, open loop)")
		rampTo    = fs.Float64("ramp-to", 0, "linearly ramp the offered rate to this by the end of each workload (0 = flat)")
		duration  = fs.Duration("duration", 5*time.Second, "offered-load window per workload")
		warmup    = fs.Duration("warmup", 300*time.Millisecond, "unmeasured closed-loop warmup per workload")
		conns     = fs.Int("conns", 8, "concurrent workers issuing requests")
		poolSize  = fs.Int("pool", 0, "TCP connections in the pool (0 = -conns); each connection carries many in-flight requests, so \"-pool 1 -conns 16\" probes one connection")
		targets   = fs.Int("targets", 64, "targets per batch request")
		parallel  = fs.Int("parallel", 0, "server-side batch fan-out knob forwarded with batch requests")
		budget    = fs.Int("budget", 256, "fallback node budget for the budget workload")
		deadline  = fs.Duration("deadline", 0, "per-request deadline (0 = none)")
		nodes     = fs.Uint("n", 0, "node-id space to draw from (0 = ask the server)")
		seed      = fs.Uint64("seed", 1, "random seed for the query stream")
		jsonOut   = fs.String("json", "", "write the vicinity-bench/v1 report to this file (\"-\" = stdout)")
		churnURL  = fs.String("churn-url", "", "HTTP base URL to POST /v1/admin/update churn batches to while the workloads run (needs a server with updates enabled)")
		churnQPS  = fs.Float64("churn-qps", 0, "churn batches per second posted to -churn-url (each inserts one edge and deletes one it inserted earlier)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var addrs []string
	for _, a := range strings.Split(*addrsFlag, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	set := 0
	for _, have := range []bool{*addr != "", *url != "", len(addrs) > 0} {
		if have {
			set++
		}
	}
	if set != 1 {
		return errors.New("exactly one of -addr (TCP), -addrs (replica cluster) or -url (HTTP) is required")
	}
	if *hedge > 0 && len(addrs) < 2 {
		return errors.New("-hedge needs -addrs with at least two replicas")
	}
	if *qps <= 0 || *duration <= 0 || *conns < 1 || *targets < 1 {
		return errors.New("-qps, -duration, -conns and -targets must be positive")
	}
	if *poolSize == 0 {
		*poolSize = *conns
	}
	if *poolSize < 1 {
		return errors.New("-pool must be positive")
	}
	var tr transport
	switch {
	case len(addrs) > 0:
		rt, err := newRouterTransport(addrs, *poolSize, *hedge)
		if err != nil {
			return err
		}
		tr = rt
	case *url != "":
		tr = newHTTPTransport(*url, *conns)
	default:
		t, err := newTCPTransport(*addr, *poolSize)
		if err != nil {
			return err
		}
		tr = t
	}
	defer tr.close()

	n := uint32(*nodes)
	if n == 0 {
		var err error
		if n, err = probeNodes(tr); err != nil {
			return fmt.Errorf("probing node count (pass -n to skip): %w", err)
		}
	}

	cfg := &config{
		addr: *addr, url: *url,
		qps: *qps, rampTo: *rampTo,
		duration: *duration, warmup: *warmup,
		conns: *conns, pool: *poolSize, targets: *targets, parallel: *parallel,
		budget: *budget, deadline: *deadline,
		nodes: n, seed: *seed,
	}

	var ch *churner
	if *churnURL != "" {
		if *churnQPS <= 0 {
			return errors.New("-churn-url requires -churn-qps > 0")
		}
		ch = newChurner(*churnURL, *churnQPS, n, *seed)
		go ch.run()
	}

	report := &benchfmt.Report{
		Schema: benchfmt.Schema,
		Tool:   "spload",
		Host:   tr.host(),
		Config: map[string]string{
			"qps":      fmt.Sprint(*qps),
			"ramp_to":  fmt.Sprint(*rampTo),
			"duration": duration.String(),
			"conns":    fmt.Sprint(*conns),
			"pool":     fmt.Sprint(*poolSize),
			"targets":  fmt.Sprint(*targets),
			"parallel": fmt.Sprint(*parallel),
			"budget":   fmt.Sprint(*budget),
			"deadline": deadline.String(),
			"nodes":    fmt.Sprint(n),
			"seed":     fmt.Sprint(*seed),
		},
	}
	if ch != nil {
		report.Config["churn_qps"] = fmt.Sprint(*churnQPS)
	}
	if len(addrs) > 0 {
		report.Config["addrs"] = strings.Join(addrs, ",")
		report.Config["hedge"] = hedge.String()
	}

	for _, entry := range strings.Split(*workloads, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name := entry
		// "name@qps" overrides the global rate for this workload, so one
		// run can pace batches slower than single-target traffic.
		rate := 0.0
		if at := strings.IndexByte(name, '@'); at >= 0 {
			if _, err := fmt.Sscanf(name[at+1:], "%g", &rate); err != nil || rate <= 0 {
				return fmt.Errorf("workload %q: bad rate after @", entry)
			}
			name = name[:at]
		}
		w, err := runWorkload(tr, name, rate, cfg)
		if err != nil {
			return err
		}
		report.Workloads = append(report.Workloads, w)
		fmt.Printf("%-14s %8.0f req/s offered  %8.0f q/s achieved  %8.0f q/s goodput  p50=%.0fµs p95=%.0fµs p99=%.0fµs p99.9=%.0fµs",
			w.Name, w.OfferedQPS, w.AchievedQPS, w.GoodputQPS,
			w.Latency.P50US, w.Latency.P95US, w.Latency.P99US, w.Latency.P999US)
		if w.Degraded > 0 {
			fmt.Printf("  degraded=%d", w.Degraded)
		}
		if len(w.Errors) > 0 {
			fmt.Printf("  errors=%v", w.Errors)
		}
		fmt.Println()
	}

	if rt, ok := tr.(*routerTransport); ok {
		m := rt.router.Metrics()
		report.Config["hedges"] = fmt.Sprint(m.Hedges)
		report.Config["hedge_wins"] = fmt.Sprint(m.HedgeWins)
		report.Config["failovers"] = fmt.Sprint(m.Failovers)
		report.Config["stale_retries"] = fmt.Sprint(m.StaleRetries)
		fmt.Printf("router     %d hedges (%d wins), %d failovers, %d stale retries\n",
			m.Hedges, m.HedgeWins, m.Failovers, m.StaleRetries)
	}

	if ch != nil {
		applied, errs := ch.halt()
		report.Config["churn_updates"] = fmt.Sprint(applied)
		report.Config["churn_errors"] = fmt.Sprint(errs)
		fmt.Printf("churn      %d update batches applied, %d errors\n", applied, errs)
		if errs > applied {
			return fmt.Errorf("churn stream mostly failing: %d errors vs %d applied", errs, applied)
		}
	}

	if *jsonOut != "" {
		if err := report.WriteFile(*jsonOut); err != nil {
			return err
		}
		if *jsonOut != "-" {
			fmt.Printf("report written to %s\n", *jsonOut)
		}
	}
	return nil
}

// churner posts a steady open-loop stream of mixed insert/delete
// batches to a server's admin update endpoint while the workloads run,
// so measured query latencies include epoch swaps and decremental
// repairs. Each batch inserts one random edge; once a warm pool of its
// own insertions exists, each batch also deletes the oldest pooled
// edge, keeping the graph size roughly stable across the run.
type churner struct {
	base    string
	qps     float64
	n       uint32
	seed    uint64
	client  *http.Client
	stop    chan struct{}
	done    chan struct{}
	applied int
	errs    int
}

func newChurner(base string, qps float64, n uint32, seed uint64) *churner {
	return &churner{
		base:   strings.TrimRight(base, "/"),
		qps:    qps,
		n:      n,
		seed:   seed,
		client: &http.Client{Timeout: 10 * time.Second},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

func (c *churner) halt() (applied, errs int) {
	close(c.stop)
	<-c.done
	return c.applied, c.errs
}

func (c *churner) run() {
	defer close(c.done)
	r := xrand.New(c.seed + 777)
	type edge = [2]uint32
	key := func(e edge) uint64 {
		u, v := e[0], e[1]
		if v < u {
			u, v = v, u
		}
		return uint64(u)<<32 | uint64(v)
	}
	var pool []edge
	inPool := make(map[uint64]bool)
	tick := time.NewTicker(time.Duration(float64(time.Second) / c.qps))
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		var body struct {
			Edges    []edge `json:"edges,omitempty"`
			DelEdges []edge `json:"del_edges,omitempty"`
		}
		for tries := 0; tries < 8; tries++ {
			u, v := r.Uint32n(c.n), r.Uint32n(c.n)
			e := edge{u, v}
			if u == v || inPool[key(e)] {
				continue
			}
			inPool[key(e)] = true
			pool = append(pool, e)
			body.Edges = append(body.Edges, e)
			break
		}
		// Delete only edges this churner inserted itself, so every
		// deletion targets an edge known to exist.
		if len(pool) > 32 {
			e := pool[0]
			pool = pool[1:]
			delete(inPool, key(e))
			body.DelEdges = append(body.DelEdges, e)
		}
		if len(body.Edges) == 0 && len(body.DelEdges) == 0 {
			continue
		}
		buf, err := json.Marshal(body)
		if err != nil {
			c.errs++
			continue
		}
		resp, err := c.client.Post(c.base+"/v1/admin/update", "application/json", bytes.NewReader(buf))
		if err != nil {
			c.errs++
			continue
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			c.errs++
			continue
		}
		c.applied++
	}
}

// probeNodes asks the server for its graph size so the query stream
// can cover the whole id space (TCP: the stats frame; HTTP: /v1/stats).
func probeNodes(tr transport) (uint32, error) {
	switch t := tr.(type) {
	case *tcpTransport:
		c, err := qclient.Dial(t.addr, qclient.Options{})
		if err != nil {
			return 0, err
		}
		defer c.Close()
		st, err := c.Stats()
		if err != nil {
			return 0, err
		}
		return uint32(st.Nodes), nil
	case *routerTransport:
		var lastErr error
		for _, addr := range t.addrs {
			c, err := qclient.Dial(addr, qclient.Options{})
			if err != nil {
				lastErr = err
				continue
			}
			st, err := c.Stats()
			c.Close()
			if err != nil {
				lastErr = err
				continue
			}
			return uint32(st.Nodes), nil
		}
		return 0, lastErr
	case *httpTransport:
		resp, err := t.client.Get(t.base + "/v1/stats")
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		var st struct {
			Nodes uint32 `json:"nodes"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return 0, err
		}
		if st.Nodes == 0 {
			return 0, errors.New("server reports zero nodes")
		}
		return st.Nodes, nil
	}
	return 0, errors.New("unknown transport")
}
