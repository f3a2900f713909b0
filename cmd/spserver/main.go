// Command spserver serves vicinity-oracle queries over TCP (binary
// protocol, see internal/wire) and HTTP/JSON.
//
// Usage:
//
//	spserver -graph lj.bin -addr :7421 -http :8080
//	spserver -gen orkut -n 10000 -addr 127.0.0.1:7421 -parallel 8
//	spserver -oracle lj.vco -addr :7421   # prebuilt oracle: cold start in ms
//	spserver -gen flickr -http :8080 -allow-updates
//
// With -oracle, the server loads a prebuilt oracle file (written by
// Oracle.Save or spbench -save) instead of building one; the file
// embeds the graph, so -graph/-gen are not needed.
//
// With -allow-updates, POST /v1/admin/update accepts graph mutation
// batches ({"add_nodes":N,"edges":[[u,v],...],"del_edges":[[u,v],...],
// "del_nodes":[u,...],"set_weights":[[u,v,w],...]}); the oracle is
// repaired incrementally — growth and deletion alike — and swapped in
// atomically, so queries keep flowing through every update. POST
// /v1/admin/save ({"path":"..."}) serializes the current snapshot to a
// server-side file, the hook CI uses to diff a churned oracle against
// a fresh build.
//
// Every TCP connection opens with a hello frame that starts the
// multiplexed session: many concurrent requests per connection,
// completing out of order; -max-conn-workers bounds the per-connection
// fan-out. A peer that opens with anything else gets one error frame
// naming the requirement, and the connection closes.
//
// The oracle stores distances only and derives path hops from them, so
// a churned oracle serializes byte-identically to a fresh build on the
// final graph — the property the end-to-end churn verification checks.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the server stops
// accepting, drains in-flight TCP/HTTP requests for -drain (default
// 10s), and past the window cancels every in-flight request context —
// the query path polls it inside the fallback search loop, so even
// slow searches exit promptly instead of running against closed
// connections.
//
// # Cluster roles
//
// -role selects the node's place in a replicated tier:
//
//	spserver -gen flickr -role writer -http :8080 -allow-updates
//	spserver -role replica -follow http://writer:8080 -addr :7422 -http :8082
//
// A writer (or the default standalone) serves queries and publishes
// its snapshot and retained update deltas over /v1/repl/manifest and
// /v1/repl/fetch; -delta-retain sizes the retained delta window. A
// replica starts empty — no -graph/-gen/-oracle — and follows the
// -follow base URL: one full snapshot to bootstrap, then per-epoch
// deltas every -poll, swapping each state in atomically. Its answers
// are bit-identical to the writer's at the same epoch, and its
// /v1/admin/update returns 403.
//
// -scope lo:hi[,lo:hi...] builds the oracle over only those node-id
// ranges (core Options.Nodes): the shard form behind qclient's
// scatter-gather router. A shard must cover the query-source
// population as well as its target range, hence the multi-range form.
//
// -stall injects a fixed delay into every query (never pings, stats or
// replication) — the chaos knob hedged-request benchmarks point at one
// replica to manufacture a slow outlier. The delay is service time: a
// stalled query holds an admission slot, its deadline cuts the stall
// short, and the latency histograms record it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vicinity/internal/core"
	"vicinity/internal/gen"
	"vicinity/internal/graph"
	"vicinity/internal/qserver"
	"vicinity/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spserver:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("spserver", flag.ContinueOnError)
	var (
		graphPath  = fs.String("graph", "", "graph file (binary or edge list)")
		genName    = fs.String("gen", "", "generate a dataset profile instead of loading")
		oraclePath = fs.String("oracle", "", "prebuilt oracle file (skips the build; embeds its graph)")
		n          = fs.Int("n", 0, "nodes for -gen (0 = profile default)")
		alpha      = fs.Float64("alpha", 4, "vicinity size parameter α")
		seed       = fs.Uint64("seed", 42, "random seed")
		parallel   = fs.Int("parallel", 0, "build parallelism (0 = GOMAXPROCS); the built oracle is identical for every value")
		addr       = fs.String("addr", "127.0.0.1:7421", "TCP listen address (empty = disabled)")
		httpAddr   = fs.String("http", "", "HTTP listen address (empty = disabled)")
		maxConns   = fs.Int("max-conns", 1024, "maximum concurrent TCP connections")
		allowUpd   = fs.Bool("allow-updates", false, "enable POST /v1/admin/update (dynamic graph mutation)")
		drain      = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain window before in-flight requests are canceled")
		maxInFl    = fs.Int("max-in-flight", 0, "admission control: over this many concurrent queries, fallback-permitting queries shed to the landmark estimate (0 = off)")
		maxBatchP  = fs.Int("max-batch-parallel", 0, "ceiling on client-requested batch worker fan-out (0 = CPU count, negative = disable)")
		maxConnWk  = fs.Int("max-conn-workers", 0, "concurrent request workers per multiplexed connection (0 = 32)")
		role       = fs.String("role", "standalone", "cluster role: standalone, writer (publishes snapshots+deltas), or replica (follows -follow, read-only)")
		follow     = fs.String("follow", "", "upstream base URL a replica polls, e.g. http://writer:8080")
		poll       = fs.Duration("poll", 500*time.Millisecond, "replica poll interval")
		deltaRet   = fs.Int("delta-retain", 0, "retained delta window on a writer; replicas older than this catch up via one full snapshot (0 = default)")
		scope      = fs.String("scope", "", "build scope as lo:hi ranges, comma-separated (shard form; must also cover the query-source population)")
		stall      = fs.Duration("stall", 0, "chaos: delay every query by this much (pings/stats/replication unaffected) — for hedging benchmarks")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" && *httpAddr == "" {
		return errors.New("nothing to serve: set -addr and/or -http")
	}
	logger := log.New(os.Stderr, "spserver: ", log.LstdFlags)

	var catRole store.Role
	switch *role {
	case "standalone":
		catRole = store.RoleStandalone
	case "writer":
		catRole = store.RoleWriter
	case "replica":
		catRole = store.RoleReplica
	default:
		return fmt.Errorf("unknown -role %q (want standalone, writer or replica)", *role)
	}
	if catRole == store.RoleReplica {
		if *follow == "" {
			return errors.New("-role replica requires -follow (the upstream base URL)")
		}
		if *graphPath != "" || *genName != "" || *oraclePath != "" {
			return errors.New("a replica fetches its oracle from -follow: drop -graph/-gen/-oracle")
		}
		if *allowUpd {
			return errors.New("replicas are read-only: drop -allow-updates")
		}
	} else if *follow != "" {
		return errors.New("-follow only applies to -role replica")
	}
	if catRole == store.RoleReplica && *scope != "" {
		return errors.New("a replica inherits its upstream's scope: drop -scope")
	}
	if catRole == store.RoleWriter && *httpAddr == "" {
		return errors.New("-role writer requires -http (replicas fetch over the HTTP replication endpoints)")
	}

	scopeNodes, err := parseScope(*scope)
	if err != nil {
		return err
	}

	var cat *store.Catalog
	if catRole == store.RoleReplica {
		cat, err = store.Bootstrap(store.RoleReplica)
		if err != nil {
			return err
		}
	} else {
		var oracle *core.Oracle
		if *oraclePath != "" {
			if *graphPath != "" || *genName != "" {
				return errors.New("-oracle is mutually exclusive with -graph/-gen")
			}
			start := time.Now()
			oracle, err = core.LoadOracleFile(*oraclePath)
			if err != nil {
				return err
			}
			logger.Printf("graph: %s", graph.ComputeStats(oracle.Graph()))
			logger.Printf("oracle loaded in %v: %s; %s", time.Since(start).Round(time.Millisecond), oracle.Stats(), oracle.Memory().ByteSplit())
		} else {
			g, err := loadGraph(*graphPath, *genName, *n, *seed)
			if err != nil {
				return err
			}
			logger.Printf("graph: %s", graph.ComputeStats(g))
			start := time.Now()
			oracle, err = core.Build(g, core.Options{
				Alpha: *alpha, Seed: *seed, Workers: *parallel, Nodes: scopeNodes,
			})
			if err != nil {
				return err
			}
			logger.Printf("oracle built in %v (%s): %s; %s",
				time.Since(start).Round(time.Millisecond), oracle.BuildTimings(), oracle.Stats(), oracle.Memory().ByteSplit())
		}
		cat = store.NewCatalog(oracle, catRole)
	}
	if *deltaRet > 0 {
		cat.SetDeltaRetention(*deltaRet)
	}

	if *allowUpd && *httpAddr == "" {
		return errors.New("-allow-updates requires -http (updates arrive via the HTTP admin endpoint)")
	}
	srv := qserver.NewWithCatalog(cat, qserver.Config{
		MaxConns:         *maxConns,
		Logger:           logger,
		AllowUpdates:     *allowUpd,
		MaxInFlight:      *maxInFl,
		MaxBatchParallel: *maxBatchP,
		MaxConnWorkers:   *maxConnWk,
		StallQueries:     *stall,
	})
	if *maxInFl > 0 {
		logger.Printf("admission control: shedding to estimates over %d in-flight queries", *maxInFl)
	}
	if *allowUpd {
		logger.Printf("dynamic updates enabled: POST %s/v1/admin/update", *httpAddr)
	}
	if *stall > 0 {
		logger.Printf("chaos: stalling every query by %v", *stall)
	}
	replCtx, replStop := context.WithCancel(context.Background())
	defer replStop()
	switch catRole {
	case store.RoleWriter:
		logger.Printf("role: writer, publishing snapshots+deltas on %s/v1/repl/", *httpAddr)
	case store.RoleReplica:
		repl := &store.Replicator{Catalog: cat, Base: *follow, Interval: *poll, Logger: logger}
		go repl.Run(replCtx)
		logger.Printf("role: replica, following %s every %v", *follow, *poll)
	}
	errCh := make(chan error, 2)

	if *addr != "" {
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		logger.Printf("tcp: listening on %s", ln.Addr())
		go func() { errCh <- srv.Serve(ln) }()
	}

	var hs *http.Server
	if *httpAddr != "" {
		hs = &http.Server{
			Addr:         *httpAddr,
			Handler:      srv.Handler(),
			ReadTimeout:  10 * time.Second,
			WriteTimeout: 30 * time.Second,
		}
		logger.Printf("http: listening on %s", *httpAddr)
		go func() { errCh <- hs.ListenAndServe() }()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		logger.Printf("received %v, shutting down", s)
	case err := <-errCh:
		if err != nil && !errors.Is(err, net.ErrClosed) && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}
	// Drain in-flight HTTP and TCP requests for up to -drain; past the
	// window the shutdown turns forced — qserver cancels every request
	// context, so even a long bidirectional fallback search observes it
	// inside its loop and returns promptly with a canceled error.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if hs != nil {
		_ = hs.Shutdown(ctx)
	}
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("forced shutdown after %v drain: %v", *drain, err)
	}
	m := srv.Metrics()
	logger.Printf("served %d queries over %d connections", m.Queries, m.TotalConns)
	return nil
}

// parseScope parses "lo:hi[,lo:hi...]" into the node set for
// core.Options.Nodes; ranges are half-open. "" means full coverage.
func parseScope(s string) ([]uint32, error) {
	if s == "" {
		return nil, nil
	}
	var nodes []uint32
	for _, r := range strings.Split(s, ",") {
		lo, hi, ok := strings.Cut(r, ":")
		if !ok {
			return nil, fmt.Errorf("-scope range %q: want lo:hi", r)
		}
		l, err := strconv.ParseUint(strings.TrimSpace(lo), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("-scope range %q: %v", r, err)
		}
		h, err := strconv.ParseUint(strings.TrimSpace(hi), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("-scope range %q: %v", r, err)
		}
		if h <= l {
			return nil, fmt.Errorf("-scope range %q is empty", r)
		}
		for u := l; u < h; u++ {
			nodes = append(nodes, uint32(u))
		}
	}
	return nodes, nil
}

func loadGraph(path, genName string, n int, seed uint64) (*graph.Graph, error) {
	switch {
	case path != "" && genName != "":
		return nil, errors.New("-graph and -gen are mutually exclusive")
	case path != "":
		return graph.LoadFile(path)
	case genName != "":
		prof, err := gen.ProfileByName(genName)
		if err != nil {
			return nil, err
		}
		return prof.Generate(n, seed), nil
	default:
		return nil, errors.New("one of -graph or -gen is required")
	}
}
