// Command spquery answers point-to-point and one-to-many shortest-path
// queries, either by building a vicinity oracle locally or by driving a
// running spserver over the TCP protocol. Every query goes through the
// request-scoped v2 API, so deadlines, budgets and per-query fallback
// policy work identically against both backends.
//
// Usage:
//
//	spquery -graph lj.bin 15 4711            # build locally, one query
//	spquery -gen livejournal -n 10000 -batch < pairs.txt
//	spquery -gen dblp -many 15 4711 42 99    # rank targets by distance from 15
//	spquery -server 127.0.0.1:7421 15 4711   # query a running spserver
//	spquery -server 127.0.0.1:7421 -timeout 5ms -budget 20000 -policy full 15 4711
//	spquery -server 127.0.0.1:7421 -k 4 15 4711  # up to 4 ranked loopless paths
//	spquery -json -gen dblp 15 4711          # machine-readable output
//	spquery -server r1:7421,r2:7421 -hedge 2ms 15 4711   # replica cluster
//	spquery -shards "0:5000=a:7421,5000:10000=b:7421" -many 15 4711 42
//
// Batch lines are "s t" pairs; output is "s t distance method [path]".
// With -many the first id is the source and the rest are targets,
// answered in one Query call (one wire round trip with -server). With
// -json each answer is one JSON object per line (errors carry a typed
// "error_code"), making the CLI usable in pipelines.
//
// With -k each query returns up to k ranked loopless alternatives,
// printed one per line under the primary answer (or as a "paths" array
// with -json). A budget or deadline that expires mid-enumeration exits
// 2 and prints the paths found so far. -k 1 is exactly the single
// shortest path.
//
// A comma-separated -server list routes over a replica cluster
// (qclient.Router): per-replica health and epoch tracking, failover,
// and — with -hedge — a duplicate request to a second replica when the
// first is slow. -min-epoch demands read-your-epoch freshness: answers
// come only from replicas at that cluster epoch or later. -shards maps
// node-id scopes to backend groups ("lo:hi=addr[|addr...],..."); a
// -many query is then scatter-gathered across the shards covering its
// targets and merged back in request order.
//
// Exit codes: 0 every query resolved; 1 some query was unreachable or
// unresolved; 2 some query hit its budget or deadline; 3 usage or I/O
// error. The worst code across a batch wins.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"vicinity/internal/core"
	"vicinity/internal/gen"
	"vicinity/internal/graph"
	"vicinity/internal/qclient"
)

// Exit codes (see the package comment).
const (
	exitOK          = 0
	exitUnreachable = 1
	exitBudget      = 2
	exitUsage       = 3
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "spquery:", err)
	}
	os.Exit(code)
}

// queryOpts carries the per-query overrides shared by both backends.
type queryOpts struct {
	timeout  time.Duration
	budget   int
	policy   core.Policy
	wantPath bool
	k        int
}

// answer is one target's normalized result from either backend.
type answer struct {
	S, T    uint32
	Dist    uint32
	Method  string
	Path    []uint32
	Paths   []core.PathAlt // ranked alternatives when -k was given
	Err     error
	Latency time.Duration
}

// exitFor maps one answer onto the CLI exit-code ladder.
func exitFor(a answer) int {
	switch {
	case a.Err != nil:
		return exitForErr(a.Err)
	case a.Dist == core.NoDist:
		return exitUnreachable
	default:
		return exitOK
	}
}

// exitForErr classifies a query error: deadline/budget outcomes are
// exit 2 whether they surface per item (local backend) or as a
// top-level call error (remote backend rejecting an expired context).
func exitForErr(err error) int {
	if errors.Is(err, core.ErrBudgetExceeded) || errors.Is(err, core.ErrCanceled) {
		return exitBudget
	}
	return exitUsage
}

// backend answers queries from a local oracle, a remote server, or a
// router over a replica/shard cluster.
type backend struct {
	oracle   *core.Oracle
	client   *qclient.Client
	router   *qclient.Router
	addr     string
	opts     queryOpts
	minEpoch uint64
}

// ensureClient redials a remote connection that died (e.g. the server
// restarted mid-run), so a single failure degrades one answer instead
// of poisoning the rest of a -batch run.
func (b *backend) ensureClient() error {
	if b.client == nil || b.client.Alive() {
		return nil
	}
	c, err := qclient.Dial(b.addr, qclient.Options{})
	if err != nil {
		return err
	}
	b.client = c
	return nil
}

// ctx returns the per-query context implied by -timeout.
func (b *backend) ctx() (context.Context, context.CancelFunc) {
	if b.opts.timeout > 0 {
		return context.WithTimeout(context.Background(), b.opts.timeout)
	}
	return context.Background(), func() {}
}

// query answers one s→t query through the v2 surface.
func (b *backend) query(s, t uint32) answer {
	ctx, cancel := b.ctx()
	defer cancel()
	a := answer{S: s, T: t, Dist: core.NoDist}
	start := time.Now()
	if b.client != nil || b.router != nil {
		spec := qclient.QuerySpec{
			S: s, T: t,
			K:        b.opts.k,
			Policy:   b.opts.policy,
			Budget:   b.opts.budget,
			WantPath: b.opts.wantPath,
			MinEpoch: b.minEpoch,
		}
		var res *qclient.QueryResult
		var err error
		if b.router != nil {
			res, err = b.router.Query(ctx, spec)
		} else {
			if err := b.ensureClient(); err != nil {
				a.Err = err
				return a
			}
			res, err = b.client.Query(ctx, spec)
		}
		a.Latency = time.Since(start)
		if err != nil {
			a.Err = err
			return a
		}
		it := res.Items[0]
		a.Dist, a.Method, a.Path, a.Err = it.Dist, core.Method(it.Method).String(), it.Path, it.Err
		a.Paths = res.Paths
		return a
	}
	res, err := b.oracle.Query(ctx, core.Request{
		S: s, T: t,
		K:        b.opts.k,
		Policy:   b.opts.policy,
		Budget:   b.opts.budget,
		WantPath: b.opts.wantPath,
	})
	a.Latency = time.Since(start)
	a.Dist, a.Method, a.Path = res.Dist, res.Method.String(), res.Path
	a.Paths = res.Paths
	a.Err = err
	return a
}

// many answers the one-to-many query in one Query call.
func (b *backend) many(s uint32, ts []uint32) ([]answer, time.Duration, error) {
	ctx, cancel := b.ctx()
	defer cancel()
	out := make([]answer, len(ts))
	start := time.Now()
	if b.client != nil || b.router != nil {
		spec := qclient.QuerySpec{
			S: s, Ts: ts,
			Policy:   b.opts.policy,
			Budget:   b.opts.budget,
			WantPath: b.opts.wantPath,
			MinEpoch: b.minEpoch,
		}
		var res *qclient.QueryResult
		var err error
		if b.router != nil {
			res, err = b.router.Query(ctx, spec)
		} else {
			if err := b.ensureClient(); err != nil {
				return nil, 0, err
			}
			res, err = b.client.Query(ctx, spec)
		}
		if err != nil {
			return nil, 0, err
		}
		for i, it := range res.Items {
			out[i] = answer{S: s, T: ts[i], Dist: it.Dist, Method: core.Method(it.Method).String(), Path: it.Path, Err: it.Err}
		}
		return out, time.Since(start), nil
	}
	res, err := b.oracle.Query(ctx, core.Request{
		S: s, Ts: ts,
		Policy:   b.opts.policy,
		Budget:   b.opts.budget,
		WantPath: b.opts.wantPath,
	})
	if err != nil && res.Items == nil {
		return nil, 0, err
	}
	for i, it := range res.Items {
		out[i] = answer{S: s, T: ts[i], Dist: it.Dist, Method: it.Method.String(), Path: it.Path, Err: it.Err}
	}
	return out, time.Since(start), nil
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("spquery", flag.ContinueOnError)
	var (
		graphPath = fs.String("graph", "", "graph file (binary or edge list)")
		genName   = fs.String("gen", "", "generate a dataset profile instead of loading (DBLP|Flickr|Orkut|LiveJournal)")
		n         = fs.Int("n", 0, "nodes for -gen (0 = profile default)")
		alpha     = fs.Float64("alpha", 4, "vicinity size parameter α")
		seed      = fs.Uint64("seed", 42, "random seed")
		server    = fs.String("server", "", "query running spserver(s): one TCP address, or a comma-separated replica list routed with failover/hedging")
		shards    = fs.String("shards", "", "scope-partitioned shard map 'lo:hi=addr[|addr...],...': -many queries scatter-gather across the shards covering their targets")
		hedge     = fs.Duration("hedge", 0, "with a multi-address -server/-shards: duplicate a request to a second replica after this delay (0 = off)")
		minEpoch  = fs.Uint64("min-epoch", 0, "read-your-epoch floor: refuse answers from replicas behind this cluster epoch (0 = off)")
		batch     = fs.Bool("batch", false, "read 's t' pairs from stdin")
		many      = fs.Bool("many", false, "one-to-many: args are s t1 t2 ... (one Query call)")
		showPath  = fs.Bool("path", false, "also print the shortest path")
		kAlt      = fs.Int("k", 0, "ranked alternatives: print up to k loopless shortest paths per query (implies -path; not with -many)")
		jsonOut   = fs.Bool("json", false, "print one JSON object per answer")
		timeout   = fs.Duration("timeout", 0, "per-query deadline, honored inside the fallback search (0 = none)")
		budget    = fs.Int("budget", 0, "fallback search node budget per query (0 = unlimited)")
		policyStr = fs.String("policy", "default", "fallback policy for pairs the tables miss: default|full|estimate|table (default and full are the exact search)")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage, nil // flag package already printed the error
	}
	policy, err := core.ParsePolicy(*policyStr)
	if err != nil {
		return exitUsage, err
	}
	if *budget < 0 {
		return exitUsage, fmt.Errorf("-budget must be >= 0")
	}
	if *kAlt < 0 || *kAlt > core.MaxK {
		return exitUsage, fmt.Errorf("-k must be in [0, %d]", core.MaxK)
	}
	if *kAlt > 0 {
		if *many {
			return exitUsage, fmt.Errorf("-k is single-target: not usable with -many")
		}
		*showPath = true // ranked alternatives are paths; always print them
	}

	be := backend{opts: queryOpts{timeout: *timeout, budget: *budget, policy: policy, wantPath: *showPath, k: *kAlt}, minEpoch: *minEpoch}
	addrs := splitAddrs(*server)
	switch {
	case *shards != "" || len(addrs) > 1:
		if *graphPath != "" || *genName != "" {
			return exitUsage, fmt.Errorf("-server/-shards are mutually exclusive with -graph/-gen")
		}
		shardMap, err := parseShards(*shards)
		if err != nil {
			return exitUsage, err
		}
		r, err := qclient.NewRouter(addrs, qclient.RouterOptions{
			HedgeDelay: *hedge,
			Nodes:      shardMap,
		})
		if err != nil {
			return exitUsage, err
		}
		be.router = r
		defer r.Close()
	case len(addrs) == 1:
		if *graphPath != "" || *genName != "" {
			return exitUsage, fmt.Errorf("-server is mutually exclusive with -graph/-gen")
		}
		c, err := qclient.Dial(addrs[0], qclient.Options{})
		if err != nil {
			return exitUsage, err
		}
		be.client = c
		be.addr = addrs[0]
		defer func() { be.client.Close() }()
	default:
		g, err := loadGraph(*graphPath, *genName, *n, *seed)
		if err != nil {
			return exitUsage, err
		}
		fmt.Fprintf(os.Stderr, "spquery: %s\n", graph.ComputeStats(g))
		start := time.Now()
		be.oracle, err = core.Build(g, core.Options{Alpha: *alpha, Seed: *seed})
		if err != nil {
			return exitUsage, err
		}
		fmt.Fprintf(os.Stderr, "spquery: built in %v: %s\n",
			time.Since(start).Round(time.Millisecond), be.oracle.Stats())
	}

	worst := exitOK
	note := func(code int) {
		if code > worst {
			worst = code
		}
	}
	// printAlts lists the ranked alternatives under the primary line; a
	// budget/deadline partial still prints the paths found so far.
	printAlts := func(a answer) {
		for i, p := range a.Paths {
			fmt.Printf("  k=%d dist=%d path=%s\n", i+1, p.Dist, core.PathString(p.Path))
		}
	}
	emit := func(a answer) {
		note(exitFor(a))
		if *jsonOut {
			printJSON(a, *showPath)
			return
		}
		if a.Err != nil {
			if a.Dist != core.NoDist {
				// A budget/deadline answer still carries the best-known
				// upper bound; print it alongside the error like the
				// -json mode does.
				fmt.Printf("%d %d %d %s error %s\n", a.S, a.T, a.Dist, a.Method, a.Err)
				printAlts(a)
				return
			}
			fmt.Printf("%d %d error %s\n", a.S, a.T, a.Err)
			return
		}
		dist := "unreachable"
		if a.Dist != core.NoDist {
			dist = strconv.FormatUint(uint64(a.Dist), 10)
		}
		line := fmt.Sprintf("%d %d %s %s", a.S, a.T, dist, a.Method)
		if a.Latency > 0 {
			line += " " + a.Latency.String()
		}
		if *showPath && *kAlt == 0 {
			line += " path=" + core.PathString(a.Path)
		}
		fmt.Println(line)
		printAlts(a)
	}

	if *many {
		ids, err := parseIDs(fs.Args())
		if err != nil {
			return exitUsage, err
		}
		if len(ids) < 2 {
			return exitUsage, fmt.Errorf("-many wants a source and at least one target")
		}
		s, ts := ids[0], ids[1:]
		answers, lat, err := be.many(s, ts)
		if err != nil {
			if *jsonOut {
				// The one-object-per-answer contract holds even when the
				// whole request failed: every target gets the error.
				for _, t := range ts {
					printJSON(answer{S: s, T: t, Dist: core.NoDist, Err: err}, *showPath)
				}
			}
			return exitForErr(err), err
		}
		for _, a := range answers {
			emit(a)
		}
		fmt.Fprintf(os.Stderr, "spquery: %d targets in %v (%.2f µs/target)\n",
			len(ts), lat, float64(lat.Microseconds())/float64(len(ts)))
		return worst, nil
	}

	if *batch {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || line[0] == '#' {
				continue
			}
			s, t, err := parsePair(line)
			if err != nil {
				return exitUsage, err
			}
			emit(be.query(s, t))
		}
		if err := sc.Err(); err != nil {
			return exitUsage, err
		}
		return worst, nil
	}

	rest := fs.Args()
	if len(rest) != 2 {
		return exitUsage, fmt.Errorf("want exactly two node ids, got %d args (or use -batch / -many)", len(rest))
	}
	s, t, err := parsePair(rest[0] + " " + rest[1])
	if err != nil {
		return exitUsage, err
	}
	emit(be.query(s, t))
	return worst, nil
}

// printJSON writes one machine-readable answer line.
func printJSON(a answer, withPath bool) {
	type alt struct {
		Distance uint32   `json:"distance"`
		Path     []uint32 `json:"path"`
	}
	type line struct {
		S         uint32   `json:"s"`
		T         uint32   `json:"t"`
		Distance  uint32   `json:"distance"`
		Reachable bool     `json:"reachable"`
		Method    string   `json:"method,omitempty"`
		Path      []uint32 `json:"path,omitempty"`
		Paths     []alt    `json:"paths,omitempty"`
		LatencyUS float64  `json:"latency_us,omitempty"`
		Error     string   `json:"error,omitempty"`
		ErrorCode string   `json:"error_code,omitempty"`
	}
	l := line{S: a.S, T: a.T, Method: a.Method}
	if a.Dist != core.NoDist {
		l.Distance = a.Dist
		l.Reachable = true
	}
	if withPath {
		l.Path = a.Path
	}
	for _, p := range a.Paths {
		l.Paths = append(l.Paths, alt{Distance: p.Dist, Path: p.Path})
	}
	if a.Latency > 0 {
		l.LatencyUS = float64(a.Latency.Nanoseconds()) / 1e3
	}
	if a.Err != nil {
		l.Error = a.Err.Error()
		l.ErrorCode = core.ErrorCode(a.Err)
	}
	enc := json.NewEncoder(os.Stdout)
	_ = enc.Encode(l)
}

// splitAddrs splits a comma-separated address list, dropping blanks.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// parseShards parses "lo:hi=addr[|addr...],..." into the router's
// scope-partitioned shard map.
func parseShards(s string) ([]qclient.Shard, error) {
	if s == "" {
		return nil, nil
	}
	var out []qclient.Shard
	for _, part := range strings.Split(s, ",") {
		scope, addrs, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("-shards entry %q: want lo:hi=addr[|addr...]", part)
		}
		lo, hi, ok := strings.Cut(scope, ":")
		if !ok {
			return nil, fmt.Errorf("-shards entry %q: scope wants lo:hi", part)
		}
		l, err := strconv.ParseUint(strings.TrimSpace(lo), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("-shards entry %q: %v", part, err)
		}
		h, err := strconv.ParseUint(strings.TrimSpace(hi), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("-shards entry %q: %v", part, err)
		}
		sh := qclient.Shard{Lo: uint32(l), Hi: uint32(h)}
		for _, a := range strings.Split(addrs, "|") {
			if a = strings.TrimSpace(a); a != "" {
				sh.Addrs = append(sh.Addrs, a)
			}
		}
		out = append(out, sh)
	}
	return out, nil
}

func parseIDs(fields []string) ([]uint32, error) {
	ids := make([]uint32, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("node id %q: %w", f, err)
		}
		ids[i] = uint32(v)
	}
	return ids, nil
}

func parsePair(line string) (uint32, uint32, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return 0, 0, fmt.Errorf("want 's t', got %q", line)
	}
	ids, err := parseIDs(fields[:2])
	if err != nil {
		return 0, 0, err
	}
	return ids[0], ids[1], nil
}

func loadGraph(path, genName string, n int, seed uint64) (*graph.Graph, error) {
	switch {
	case path != "" && genName != "":
		return nil, fmt.Errorf("-graph and -gen are mutually exclusive")
	case path != "":
		return graph.LoadFile(path)
	case genName != "":
		prof, err := gen.ProfileByName(genName)
		if err != nil {
			return nil, err
		}
		return prof.Generate(n, seed), nil
	default:
		return nil, fmt.Errorf("one of -graph or -gen is required")
	}
}
