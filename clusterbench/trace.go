package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"websearchbench/internal/blob"
	"websearchbench/internal/cluster"
)

// Span kinds. Spans are recorded only by the benchmark's own wraps
// around the stack's layers: the frontend handler, each node handler and
// each shard's blob store.
const (
	spanFrontend = "frontend"
	spanNode     = "node"
	spanBlobGet  = "blob_get"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's base. Node spans carry the service time the node reported and
// the bytes it wrote; blob spans carry the bytes fetched.
type span struct {
	Kind    string `json:"kind"`
	Shard   int    `json:"shard"`
	Path    string `json:"path"`
	Body    string `json:"body,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Service int64  `json:"service_ns,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
	// Parent is the index of the span this one nests in, set when the
	// trace is linked; -1 for roots.
	Parent int `json:"parent"`
	// ID is the request this span belongs to: the generator's arrival
	// number for linked spans, -1 otherwise.
	ID int `json:"id"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.base)) }

func (t *tracer) add(s span) {
	s.Parent, s.ID = -1, -1
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops spans recorded so far (set-up and warm-up traffic).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// frontendWrap is the middleware on Frontend.Handler().
func (t *tracer) frontendWrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		body, _ := io.ReadAll(r.Body) // a short read fails in the handler below
		r.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, r)
		t.add(span{Kind: spanFrontend, Shard: -1, Path: r.URL.Path, Body: string(body), Start: start, End: t.now()})
	})
}

// nodeWrap is the wrap passed to Node.StartWith for shard s. It reads
// the node's own service time (TookMicros) from the response it wrote.
func (t *tracer) nodeWrap(s int) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := t.now()
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			cw := &captureWriter{ResponseWriter: w}
			h.ServeHTTP(cw, r)
			end := t.now()
			sp := span{Kind: spanNode, Shard: s, Path: r.URL.Path, Body: string(body), Start: start, End: end, Bytes: cw.n}
			if r.URL.Path == "/search" {
				sp.Service = tookMicros(cw.buf.Bytes()) * int64(time.Microsecond)
			}
			t.add(sp)
		})
	}
}

// captureWriter counts and keeps the bytes a handler writes.
type captureWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
	n   int64
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.buf.Write(p)
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

var tookKey = []byte(`"tookMicros":`)

// tookMicros finds the service time in an encoded SearchResponse without
// decoding the hits.
func tookMicros(b []byte) int64 {
	i := bytes.Index(b, tookKey)
	if i < 0 {
		return 0
	}
	b = b[i+len(tookKey):]
	j := 0
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	v, _ := strconv.ParseInt(string(b[:j]), 10, 64)
	return v
}

// timedStore is the decorator around the blob.Store handed to
// NewCachedSegmentSource: it counts and times every ranged read.
type timedStore struct {
	blob.Store
	shard int
	tr    *tracer
}

func (s *timedStore) GetRange(key string, off, n int64) ([]byte, error) {
	start := s.tr.now()
	data, err := s.Store.GetRange(key, off, n)
	s.tr.add(span{Kind: spanBlobGet, Shard: s.shard, Start: start, End: s.tr.now(), Bytes: int64(len(data))})
	return data, err
}

func (t *tracer) hooks() hooks {
	return hooks{
		frontend: t.frontendWrap,
		node:     t.nodeWrap,
		store: func(s int, st blob.Store) blob.Store {
			return &timedStore{Store: st, shard: s, tr: t}
		},
	}
}

// searchKey is what links spans of one query: its text and mode, as
// the frontend and the nodes each received them.
func searchKey(body string) string {
	var req cluster.SearchRequest
	if json.Unmarshal([]byte(body), &req) != nil {
		return ""
	}
	return req.Mode + "\x00" + req.Query
}

// linked is one query's spans after linking.
type linked struct {
	win   int // index of the window the query arrived in
	res   *result
	fe    *span
	nodes []*span
}

// link attaches each generated query to the frontend span with the same
// query that lies inside its send/receive interval, and each node span
// to the frontend span with the same query that contains it. The
// frontend does not forward a request ID, so text plus time containment
// is the join; with at most conns requests in flight it is unambiguous
// but for repeats of one query on two connections at once, which are
// resolved by taking the earliest unclaimed match.
func (t *tracer) link(ws []*window) []linked {
	byKey := map[string][]int{}
	nodeByKey := map[string][]int{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Path != "/search" {
			continue
		}
		switch s.Kind {
		case spanFrontend:
			k := searchKey(s.Body)
			byKey[k] = append(byKey[k], i)
		case spanNode:
			k := searchKey(s.Body)
			nodeByKey[k] = append(nodeByKey[k], i)
		}
	}
	var out []linked
	id := 0
	for wi, w := range ws {
		for i := range w.res {
			r := &w.res[i]
			o := &w.ops[i]
			id++
			if o.write != nil || !r.ok {
				continue
			}
			k := searchKey(string(o.body))
			lo, hi := t.at(r.sent), t.at(r.done)
			l := linked{win: wi, res: r}
			fi := -1
			for _, si := range byKey[k] {
				s := &t.spans[si]
				if s.ID < 0 && s.Start >= lo && s.End <= hi {
					s.ID = id
					l.fe, fi = s, si
					break
				}
			}
			if l.fe != nil {
				for _, ni := range nodeByKey[k] {
					n := &t.spans[ni]
					if n.ID < 0 && n.Start >= l.fe.Start && n.End <= l.fe.End {
						n.ID = id
						n.Parent = fi
						l.nodes = append(l.nodes, n)
						if len(l.nodes) == numShards {
							break
						}
					}
				}
			}
			out = append(out, l)
		}
	}
	return out
}

// selfTime is a frontend span's duration minus the part of it its node
// spans cover.
func (l *linked) selfTime() time.Duration {
	return l.fe.dur() - union(l.nodes)
}

// union is the length of the union of the spans' intervals.
func union(spans []*span) time.Duration {
	var total, curStart, curEnd int64
	first := true
	sorted := append([]*span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	for _, s := range sorted {
		switch {
		case first:
			curStart, curEnd, first = s.Start, s.End, false
		case s.Start > curEnd:
			total += curEnd - curStart
			curStart, curEnd = s.Start, s.End
		case s.End > curEnd:
			curEnd = s.End
		}
	}
	if !first {
		total += curEnd - curStart
	}
	return time.Duration(total)
}

// write dumps the spans, one JSON object a line, after a header line
// holding the run metadata.
func (t *tracer) write(path string, meta map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(meta); err != nil {
		f.Close()
		return err
	}
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
