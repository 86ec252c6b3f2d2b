package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"websearchbench/internal/cluster"
)

// loadGen is the open-loop load generator: a fixed set of workers, one
// keep-alive connection each, takes arrivals in due order. A worker that
// is ahead of the schedule sleeps until the arrival is due (never spins,
// which would take one of the cores the stack runs on); one that is
// behind sends at once. Every latency is timed from the due time, so a
// stall is charged to every arrival it delays.
type loadGen struct {
	url    string
	conns  int
	client *http.Client
	// grace is how long past a window's end a backlog may still be
	// sent; arrivals later than that are dropped and counted.
	grace time.Duration
}

func newLoadGen(url string, conns int) *loadGen {
	return &loadGen{
		url:   url,
		conns: conns,
		client: &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		grace: time.Second,
	}
}

func (g *loadGen) close() { g.client.CloseIdleConnections() }

// result is what one arrival got.
type result struct {
	due     time.Time
	sent    time.Time
	done    time.Time
	ok      bool
	dropped bool
	// sampled marks a query whose answer is kept and checked.
	sampled bool
	errMsg  string
	resp    cluster.SearchResponse // queries; hits kept only when sampled
	mut     cluster.MutateResponse // writes
}

func (r *result) latency() time.Duration  { return r.done.Sub(r.due) }
func (r *result) lateness() time.Duration { return r.sent.Sub(r.due) }

// window is one stretch of the schedule at a fixed rate.
type window struct {
	name  string
	rate  float64
	dur   time.Duration
	ops   []op
	res   []result
	start time.Time
	end   time.Time
	// maxBacklog is the most arrivals seen due but not yet sent.
	maxBacklog int
	// sample marks the queries whose answers are kept for checking.
	sample func(i int) bool
}

// run drives w's schedule to completion and waits for every worker.
func (g *loadGen) run(w *window) {
	w.res = make([]result, len(w.ops))
	var next atomic.Int64
	var maxBacklog atomic.Int64
	w.start = time.Now().Add(time.Millisecond)
	deadline := w.start.Add(w.dur + g.grace)
	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.ops) {
					return
				}
				o := &w.ops[i]
				r := &w.res[i]
				r.due = w.start.Add(o.at)
				if wait := time.Until(r.due); wait > 0 {
					time.Sleep(wait)
				}
				now := time.Now()
				if now.After(deadline) {
					r.dropped = true
					r.sent = now
					r.done = now
					continue
				}
				elapsed := now.Sub(w.start)
				due := sort.Search(len(w.ops), func(j int) bool { return w.ops[j].at > elapsed })
				for b := int64(due - i - 1); ; {
					cur := maxBacklog.Load()
					if b <= cur || maxBacklog.CompareAndSwap(cur, b) {
						break
					}
				}
				r.sampled = o.write == nil && w.sample != nil && w.sample(i)
				g.do(o, r)
			}
		}()
	}
	wg.Wait()
	w.end = time.Now()
	w.maxBacklog = int(maxBacklog.Load())
}

// do sends one arrival and records its outcome.
func (g *loadGen) do(o *op, r *result) {
	r.sent = time.Now()
	resp, err := g.client.Post(g.url+o.path, "application/json", bytes.NewReader(o.body))
	if err != nil {
		r.done = time.Now()
		r.errMsg = err.Error()
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		r.done = time.Now()
		r.errMsg = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return
	}
	switch {
	case o.write != nil:
		err = json.NewDecoder(resp.Body).Decode(&r.mut)
	case r.sampled:
		err = json.NewDecoder(resp.Body).Decode(&r.resp)
	default:
		// Skip the hits: the generator shares the heap with the stack,
		// so its garbage would add collections to the measurement.
		var s struct {
			Degraded bool   `json:"degraded"`
			Node     string `json:"node"`
		}
		err = json.NewDecoder(resp.Body).Decode(&s)
		r.resp.Degraded, r.resp.Node = s.Degraded, s.Node
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	r.done = time.Now()
	switch {
	case err != nil:
		r.errMsg = err.Error()
	case o.write != nil && r.mut.Acked < 1:
		r.errMsg = "write not acknowledged"
	case o.write == nil && r.resp.Degraded:
		r.errMsg = "degraded"
	default:
		r.ok = true
	}
}
