// Command perfbench is the repository's end-to-end benchmark. It
// generates the LiveJournal-profile graph at 50,000 nodes and a request
// stream from a workload seed, starts spserver, built from the same
// checkout, as a separate process on loopback, drives it open loop from
// this one process, checks every answer against reference searches,
// and prints one JSON result as the last line of its output.
//
// run.sh builds both programs and runs this one; from the repository
// root:
//
//	bash perfbench/run.sh --workload lookup --seed 1 --seconds 16 --trace 0
//
// Workloads:
//
//   - lookup: uniform single-target queries at 4000/s, alternating
//     distance-only and path requests; transport dominates.
//   - churn: lookup's reads beside one single-edge update batch every
//     two seconds; the only workload that runs the write path.
//   - rank: 100-target rankings from Zipf-popular sources at 200/s;
//     the oracle's batch engine dominates. Each ranking is CPU-bound
//     for about 2 ms, so its latency tracks the shared host's CPU
//     speed, which drifted by a third within minutes; BENCHMARK.json
//     therefore lists only lookup and churn, and rank runs by hand.
//     Every traced run measures the batch engine in process.
//
// With --trace 0 it reports the end-to-end metrics of the fixed-rate
// window. With --trace 1 it replays the same seeded streams one layer
// at a time (core, wire, qserver, qclient, the open-loop run) and
// reports per-layer metrics, together with the end-to-end quantities
// whose run-to-run spread on a shared host is too wide to bound: the
// p99 latency, peak RSS, the capacity ladder, and closed-loop probes of
// K-shortest-paths and update latency.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"vicinity/internal/core"
	"vicinity/internal/graph"
	"vicinity/internal/qclient"
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	spserver string
	dir      string
}

func main() {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "lookup", "workload: lookup, rank or churn")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: draws every request stream")
	fs.IntVar(&cfg.seconds, "seconds", 16, "length of the measured fixed-rate window")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.spserver, "spserver", "", "spserver binary built from the checkout under test")
	fs.StringVar(&cfg.dir, "dir", "", "directory for the generated graph and the span file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if cfg.spserver == "" || cfg.dir == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -spserver, -dir, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	var out *result
	var err error
	if cfg.trace {
		out, err = runTraced(cfg)
	} else {
		out, err = runMeasured(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupLaunches is how many times a measured run starts the server;
// setup_s is their median, and the last server serves the run.
const setupLaunches = 5

// prepare generates the graph, writes it where the server reads it,
// and draws the workload.
func prepare(cfg config) (*workload, string, error) {
	g := genGraph()
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, "", err
	}
	file := filepath.Join(cfg.dir, "graph.bin")
	if err := graph.SaveBinaryFile(file, g); err != nil {
		return nil, "", err
	}
	// A server applies at most one window's batches and the probe's.
	w, err := newWorkload(cfg.workload, cfg.seed, g, int(float64(cfg.seconds)*updateRate)+probeUpdates)
	return w, file, err
}

// readinessProbe is the path query a starting server must answer
// correctly before it counts as set up.
func readinessProbe(w *workload) (qclient.QuerySpec, func(*qclient.QueryResult) error) {
	q := lookupStream(w.seed, saltProbe, w.g.NumNodes(), 1)[0]
	q.wantPath = true
	truth := bfsDist(w.g, q.s, q.t)
	check := func(res *qclient.QueryResult) error {
		it := res.Items[0]
		if err := checkDist(truth, it.Dist, core.Method(it.Method)); err != nil {
			return err
		}
		return checkWalk(w.g, q.s, q.t, it.Path, it.Dist)
	}
	return qclient.QuerySpec{S: q.s, T: q.t, WantPath: true}, check
}

// launch starts the server launches times in turn and keeps the last;
// it returns the setup time of each launch.
func launch(cfg config, w *workload, graphFile string, launches int) (*server, []float64, error) {
	probe, check := readinessProbe(w)
	var setups []float64
	for i := 0; ; i++ {
		srv, d, err := startServer(cfg.spserver, graphFile, probe, check)
		if err != nil {
			return nil, setups, err
		}
		setups = append(setups, d.Seconds())
		if i == launches-1 {
			return srv, setups, nil
		}
		srv.stop()
	}
}

// runMeasured is the untraced run: set-up, warm-up and the fixed-rate
// window, then answer verification and the end-to-end metrics.
func runMeasured(cfg config) (*result, error) {
	w, graphFile, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	printMeta(cfg, w)
	srv, setups, err := launch(cfg, w, graphFile, setupLaunches)
	if errors.Is(err, errWrongAnswer) {
		fmt.Println("wrong answer:", err)
		return &result{Correct: false, Attempted: len(setups) + 1, Failed: 1, Metrics: map[string]metric{}}, nil
	}
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	st, err := srv.stats()
	if err != nil {
		return nil, err
	}
	d := srv.sender(w)
	rec := &recorder{}
	warm := w.phase(saltWarmup, warmup, w.primaryRate(), false)
	d.run(warm, nil, 0)
	rec.add(warm)
	window := w.phase(0, time.Duration(cfg.seconds)*time.Second, w.primaryRate(), true)
	steal0 := hostSteal()
	ps := d.run(window, nil, 0)
	steal := hostSteal() - steal0
	rec.add(window)
	srv.stop()

	v, err := newVerifier(w.g, w.updates, d.acked())
	if err != nil {
		return nil, err
	}
	v.calls(w, rec.calls)

	prim := callsOf(window, w.primary())
	attempted, failed := rec.counts()
	failed += v.bad
	m := map[string]metric{
		"setup_s":     {median(setups), "s"},
		"p50_us":      {usOf(quantile(latencies(prim), 0.50)), "us"},
		"slo_share":   {within(prim, w.limit()), "share"},
		"ok_share":    {1 - float64(failed)/float64(attempted), "share"},
		"exact_share": {exactShare(prim), "share"},
		"oracle_mb":   {float64(st.TotalBytes) / 1e6, "MB"},
	}
	late := lateness(window)
	fmt.Printf("window: %d primary requests in %v, p99 %.1f us, generator late p50 %.1f us p99 %.1f us, host steal %v\n",
		len(prim), ps.elapsed.Round(time.Millisecond), usOf(quantile(latencies(prim), 0.99)),
		usOf(quantile(late, 0.5)), usOf(quantile(late, 0.99)), steal)
	fmt.Printf("setup launches: %v s; verified %d answers, %d wrong\n", setups, v.checked, v.bad)
	for _, msg := range v.first {
		fmt.Println("wrong answer:", msg)
	}
	return &result{Correct: v.bad == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// saltWarmup seeds the unmeasured warm-up phase's requests.
const saltWarmup = 1 << 20

// acked is the number of update batches the server acknowledged: the
// epoch of its last snapshot.
func (d *sender) acked() int {
	if d.updFailed {
		return d.nextUpdate - 1
	}
	return d.nextUpdate
}

// recorder keeps every call of a run for verification and counting.
type recorder struct{ calls []*call }

func (r *recorder) add(cs []call) {
	for i := range cs {
		if !cs[i].skipped {
			r.calls = append(r.calls, &cs[i])
		}
	}
}

func (r *recorder) counts() (attempted, failed int) {
	for _, c := range r.calls {
		attempted++
		if c.failed() {
			failed++
		}
	}
	return attempted, failed
}

func callsOf(calls []call, k opKind) []*call {
	var out []*call
	for i := range calls {
		if calls[i].kind == k && !calls[i].skipped {
			out = append(out, &calls[i])
		}
	}
	return out
}

// latencies returns each call's latency in ns, a failed call's as inf.
func latencies(calls []*call) []float64 {
	out := make([]float64, len(calls))
	for i, c := range calls {
		out[i] = float64(c.latency())
	}
	return out
}

// lateness returns how late each sent read left, in ns.
func lateness(calls []call) []float64 {
	var out []float64
	for _, c := range calls {
		if c.kind != opUpdate && !c.unsent {
			out = append(out, float64(c.sent-c.due))
		}
	}
	return out
}

// within is the share of calls answered within limit; failures miss.
func within(calls []*call, limit time.Duration) float64 {
	if len(calls) == 0 {
		return 0
	}
	n := 0
	for _, c := range calls {
		if !c.failed() && c.done-c.due <= limit {
			n++
		}
	}
	return float64(n) / float64(len(calls))
}

// exactShare is the share of answered distances whose method is exact;
// a failed request answers nothing exactly.
func exactShare(calls []*call) float64 {
	total, exact := 0, 0
	for _, c := range calls {
		if c.failed() {
			total++
			continue
		}
		for _, it := range c.res.Items {
			total++
			if core.Method(it.Method).Exact() {
				exact++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(exact) / float64(total)
}

var inf = float64(maxDuration)

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place). It is 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	if xs[i+1] == inf {
		return xs[i+1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func usOf(ns float64) float64 { return ns / 1e3 }
func msOf(ns float64) float64 { return ns / 1e6 }

// printMeta prints what makes a result comparable with another: host,
// CPU, toolchain, source and inputs.
func printMeta(cfg config, w *workload) {
	bi, _ := debug.ReadBuildInfo()
	commit := "unknown"
	if bi != nil {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	host, _ := os.Hostname()
	meta := map[string]any{
		"host": host, "cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit, "source_sha256": sourceDigest("."),
		"graph":    map[string]any{"profile": graphProfile, "n": w.g.NumNodes(), "m": w.g.NumEdges(), "seed": graphSeed},
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"rates": map[string]any{"lookup": lookupRate, "rank": rankRate, "rank_targets": rankSize,
			"kpaths_probe": kpathsPool, "k": kpathsK, "updates": updateRate},
		"server_gomemlimit": serverMemLimit, "traced_memlimit_bytes": tracedMemLimit,
	}
	raw, _ := json.Marshal(meta)
	fmt.Println("meta:", string(raw))
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if k, val, ok := bytes.Cut(line, []byte(":")); ok && string(bytes.TrimSpace(k)) == "model name" {
			return string(bytes.TrimSpace(val))
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so
// results from checkouts without version control can still be told
// apart by the code they measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
