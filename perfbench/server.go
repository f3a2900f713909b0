package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vicinity/internal/qclient"
)

// serverMemLimit is the GOMEMLIMIT every spserver process runs under,
// the same for every workload. Under churn the server's live heap
// climbs by about 90 MB with each update batch until compaction, and
// without a limit its heap goal doubles that: a server on an 8 GB host
// was killed for memory after about 21 batches. A server here applies
// at most one batch per two seconds of its window, which keeps the live
// heap below this limit.
const serverMemLimit = "3GiB"

// server is one spserver process on loopback.
type server struct {
	cmd      *exec.Cmd
	tcpAddr  string
	httpURL  string
	pool     *qclient.Pool
	exited   chan struct{}
	waitErr  error
	logMu    sync.Mutex
	logTail  []string
	stopOnce sync.Once
}

// freePort reserves an ephemeral loopback port and releases it for the
// server to bind.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer launches spserver on graphFile and returns once it has
// given a verified answer to probe; the returned duration runs from the
// launch to that answer. check verifies the probe's answer.
func startServer(bin, graphFile string, probe qclient.QuerySpec, check func(*qclient.QueryResult) error) (*server, time.Duration, error) {
	tcpAddr, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	httpAddr, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, "-graph", graphFile, "-seed", strconv.Itoa(graphSeed),
		"-addr", tcpAddr, "-http", httpAddr, "-allow-updates")
	cmd.Env = append(os.Environ(), "GOMEMLIMIT="+serverMemLimit)
	// The kernel kills the server if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, tcpAddr: tcpAddr, httpURL: "http://" + httpAddr, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start spserver: %w", err)
	}
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			s.logMu.Lock()
			s.logTail = append(s.logTail, sc.Text())
			if len(s.logTail) > 20 {
				s.logTail = s.logTail[1:]
			}
			s.logMu.Unlock()
		}
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	s.pool, _ = qclient.NewPool(tcpAddr, runtime.NumCPU(), qclient.Options{
		Mux: true, DialTimeout: time.Second, RequestTimeout: requestTimeout,
	})
	deadline := start.Add(readyTimeout)
	for {
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("spserver exited before answering (%v): %s", s.waitErr, s.tail())
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("spserver gave no answer within %v: %s", readyTimeout, s.tail())
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		res, err := s.pool.Query(ctx, probe)
		cancel()
		if err != nil || res.Items[0].Err != nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if err := check(res); err != nil {
			s.stop()
			return nil, 0, fmt.Errorf("%w: readiness probe: %v", errWrongAnswer, err)
		}
		return s, time.Since(start), nil
	}
}

var errWrongAnswer = errors.New("wrong answer")

const (
	readyTimeout   = 120 * time.Second
	requestTimeout = 5 * time.Second
)

func (s *server) tail() string {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return strings.Join(s.logTail, " | ")
}

// stop kills the server and waits until the process has ended.
func (s *server) stop() {
	s.stopOnce.Do(func() {
		if s.pool != nil {
			s.pool.Close()
		}
		_ = s.cmd.Process.Kill()
		<-s.exited
	})
}

// sender returns a sender of w's operations to this server.
func (s *server) sender(w *workload) *sender {
	return &sender{pool: s.pool, httpURL: s.httpURL, hc: &http.Client{Timeout: 30 * time.Second}, w: w}
}

// serverStats is the part of /v1/stats the benchmark reads.
type serverStats struct {
	TotalBytes int64 `json:"total_bytes"`
	Latency    map[string]struct {
		P50US float64 `json:"p50_us"`
	} `json:"latency"`
}

func (s *server) stats() (serverStats, error) {
	var st serverStats
	resp, err := http.Get(s.httpURL + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// cpuTicks returns the server's user+system CPU in clock ticks.
func (s *server) cpuTicks() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime
	// are fields 14 and 15 of the whole line.
	f := strings.Fields(string(raw[strings.LastIndexByte(string(raw), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	k, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return u + k, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// hostSteal returns the CPU time the hypervisor gave to other guests
// while this machine's CPUs were ready to run, summed over CPUs: the
// steal column of /proc/stat, or 0 where it is not reported. Latency
// on a shared host rises with it.
func hostSteal() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * clockTick
}

// peakRSS returns the server's VmHWM in bytes.
func (s *server) peakRSS() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
