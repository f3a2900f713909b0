package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vicinity/internal/core"
	"vicinity/internal/qclient"
)

// sleepUntil blocks until start+due. It sleeps in the kernel with
// nanosleep(2) instead of time.Sleep: on small Linux hosts the Go timer
// overshoots sub-millisecond waits by about a millisecond, which would
// put a floor under every latency measured from a due time. nanosleep
// overshoots by tens of microseconds and spins no core.
func sleepUntil(start time.Time, due time.Duration) {
	for {
		d := due - time.Since(start)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

type opKind uint8

const (
	opLookup opKind = iota // single-target read (lookup and churn)
	opRank                 // one-to-many ranking
	opKPaths               // K-shortest-paths request
	opUpdate               // update batch posted to /v1/admin/update
)

// call is one scheduled operation and, after the phase, its outcome.
// Times are offsets from the phase start; a call is timed from due.
type call struct {
	kind opKind
	i    int // index into the workload's slice of that kind
	due  time.Duration

	sent, done time.Duration
	unsent     bool // the generator could not send it (in-flight cap)
	skipped    bool // not attempted: its ladder step had already failed
	err        error
	res        *qclient.QueryResult
	epoch      uint64 // acknowledged epoch of an update
}

func (c *call) failed() bool { return c.unsent || c.err != nil }

// latency is the time from due to answer; failures never meet a limit.
func (c *call) latency() time.Duration {
	if c.failed() {
		return maxDuration
	}
	return c.done - c.due
}

const maxDuration = time.Duration(1<<63 - 1)

// maxInFlight bounds the requests one phase keeps outstanding. Past it
// the generator counts an arrival as unsent rather than queue it, so a
// saturated server cannot grow the generator's memory without bound.
const maxInFlight = 8192

// sender sends a workload's operations to one server.
type sender struct {
	pool    *qclient.Pool
	httpURL string
	hc      *http.Client
	w       *workload

	// nextUpdate is the index of the next batch of w.updates to post;
	// batches are posted strictly in order, one at a time, so the
	// epoch a batch acknowledges is its index + 1.
	nextUpdate int
	updFailed  bool
}

// stream is one kind of call at one rate; first is the index of the
// phase's first request of that kind.
type stream struct {
	kind  opKind
	rate  float64
	first int
}

// schedule lays out the calls of one phase: each stream's calls evenly
// spaced at its rate, merged in due order.
func schedule(dur time.Duration, streams ...stream) []call {
	var out []call
	for _, st := range streams {
		if st.rate <= 0 {
			continue
		}
		gap := time.Duration(float64(time.Second) / st.rate)
		count := int(dur.Seconds() * st.rate)
		for k := 0; k < count; k++ {
			// Updates start half a gap in, so that the first does not
			// coincide with the first read.
			due := time.Duration(k) * gap
			if st.kind == opUpdate {
				due += gap / 2
			}
			out = append(out, call{kind: st.kind, i: st.first + k, due: due})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].due < out[b].due })
	return out
}

// phaseStats is what the generator saw of one phase.
type phaseStats struct {
	elapsed   time.Duration
	backlog   int64 // requests outstanding when the last one was sent
	aborted   bool  // stopped sending past its abortAt backlog
	cpuUser   time.Duration
	cpuSystem time.Duration
}

// run sends calls open loop: each leaves at its due time whatever the
// state of earlier ones, reads run concurrently over the pool's
// multiplexed connections, and updates go one at a time in order on
// their own goroutine. With abortAt > 0 the phase stops sending once
// more than abortAt reads are outstanding: its verdict is known, and
// the calls it did not send are marked skipped, not attempted. run
// returns once every sent call has finished.
func (d *sender) run(calls []call, traced *spanLog, abortAt int64) phaseStats {
	var (
		wg       sync.WaitGroup
		inFlight atomic.Int64
		ps       phaseStats
	)
	// A collection now keeps the generator's own garbage collector
	// from marking the records of earlier phases during this one.
	runtime.GC()
	updates := make(chan *call, len(calls))
	var updWG sync.WaitGroup
	updWG.Add(1)
	start := time.Now()
	go func() {
		defer updWG.Done()
		for c := range updates {
			d.post(c, start)
		}
	}()
	ru0 := rusage()
	for j := range calls {
		c := &calls[j]
		sleepUntil(start, c.due)
		if abortAt > 0 && inFlight.Load() > abortAt {
			for k := j; k < len(calls); k++ {
				calls[k].skipped = true
			}
			ps.aborted = true
			break
		}
		if c.kind == opUpdate {
			updates <- c
			continue
		}
		if inFlight.Load() >= maxInFlight {
			c.unsent = true
			continue
		}
		inFlight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inFlight.Add(-1)
			d.query(c, start, traced, layerLoadgen)
		}()
	}
	ps.backlog = inFlight.Load()
	close(updates)
	wg.Wait()
	updWG.Wait()
	ps.elapsed = time.Since(start)
	ru1 := rusage()
	ps.cpuUser, ps.cpuSystem = ru1.user-ru0.user, ru1.sys-ru0.sys
	return ps
}

// query sends one read and records its outcome; with spans set it
// records a span in layer ly around the client call.
func (d *sender) query(c *call, start time.Time, spans *spanLog, ly layer) {
	spec := d.w.spec(c.kind, c.i)
	c.sent = time.Since(start)
	var sp *span
	if spans != nil {
		sp = spans.begin(ly, c.kind, c.i)
	}
	c.res, c.err = d.pool.Query(context.Background(), spec)
	if sp != nil {
		spans.end(sp)
	}
	c.done = time.Since(start)
	if c.err != nil {
		return
	}
	for _, it := range c.res.Items {
		if it.Err != nil {
			c.err = it.Err // a ranking with a failed item is a failed ranking
			return
		}
	}
}

// runClosed sends calls one at a time, each due when the previous one
// has finished; reads record spans in layer ly when spans is set.
func (d *sender) runClosed(calls []call, spans *spanLog, ly layer) {
	start := time.Now()
	for j := range calls {
		c := &calls[j]
		c.due = time.Since(start)
		if c.kind == opUpdate {
			d.post(c, start)
		} else {
			d.query(c, start, spans, ly)
		}
	}
}

// post sends the next update batch and waits for its acknowledgement.
// After a failed batch the benchmark's copy of the graph no longer
// matches the server's, so every later batch is counted as unsent.
func (d *sender) post(c *call, start time.Time) {
	if d.updFailed || d.nextUpdate >= len(d.w.updates) {
		c.unsent = true
		return
	}
	c.i = d.nextUpdate
	d.nextUpdate++
	c.sent = time.Since(start)
	c.epoch, c.err = postUpdate(d.hc, d.httpURL, d.w.updates[c.i])
	c.done = time.Since(start)
	if c.err == nil && c.epoch != uint64(c.i+1) {
		c.err = fmt.Errorf("update %d acknowledged epoch %d, want %d", c.i, c.epoch, c.i+1)
	}
	if c.err != nil {
		d.updFailed = true
	}
}

func postUpdate(hc *http.Client, base string, u core.Update) (uint64, error) {
	body, err := json.Marshal(struct {
		Edges    [][2]uint32 `json:"edges"`
		DelEdges [][2]uint32 `json:"del_edges,omitempty"`
	}{u.Edges, u.DelEdges})
	if err != nil {
		return 0, err
	}
	resp, err := hc.Post(base+"/v1/admin/update", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("update refused: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	var ack struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(raw, &ack); err != nil {
		return 0, fmt.Errorf("update acknowledgement: %w", err)
	}
	return ack.Epoch, nil
}

type cpuTimes struct{ user, sys time.Duration }

func rusage() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}
	}
	return cpuTimes{
		user: time.Duration(ru.Utime.Nano()),
		sys:  time.Duration(ru.Stime.Nano()),
	}
}
