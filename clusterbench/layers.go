package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"websearchbench/internal/search/exec"
	"websearchbench/internal/workload"
)

// accountTolerance is how much of the median client latency may lie
// outside the spans: the client's own HTTP hop to the frontend (request
// encode, loopback, response decode), which no span covers. The traced
// run fails when lateness plus frontend, node and search self times
// account for less than 1-accountTolerance of it.
const accountTolerance = 0.35

// minLinked is the share of answered queries whose frontend and node
// spans must link; below it the trace does not nest and the run fails.
const minLinked = 0.99

// replayQueries caps how many distinct queries the per-layer replay runs.
const replayQueries = 400

// layerMetrics computes every per-layer metric of a traced run.
func layerMetrics(out *outcome, st *stack, tr *tracer, ws []*window,
	before, after counters, smp *sampler, setups []setupTimes) error {
	lo, hi := tr.at(ws[0].start), tr.at(after.at)
	inRange := func(s *span) bool { return s.Start >= lo && s.End <= hi }
	secs := after.at.Sub(before.at).Seconds()

	queries, degraded := 0, 0
	var late []float64
	backlog := 0
	for _, w := range ws {
		for i := range w.res {
			r := &w.res[i]
			if w.ops[i].write == nil {
				queries++
			}
			if r.errMsg == "degraded" {
				degraded++
			}
		}
		late = append(late, w.lateness()...)
		backlog = max(backlog, w.maxBacklog)
	}
	ops := float64(len(ws[0].ops) + len(ws[1].ops))

	// Frontend and node spans, linked per query.
	links := tr.link(ws)
	var feSpan, feSelf, skew, accounted, hop []float64
	linked := 0
	for _, l := range links {
		cacheHit := l.res.resp.Node == "frontend-cache"
		if l.fe == nil || (!cacheHit && len(l.nodes) != numShards) {
			continue
		}
		linked++
		feSpan = append(feSpan, us(l.fe.dur()))
		self := l.selfTime()
		feSelf = append(feSelf, us(self))
		lat := l.res.latency()
		hop = append(hop, us(l.res.done.Sub(l.res.sent)-l.fe.dur()))
		var critical time.Duration
		if len(l.nodes) == numShards {
			a, b := l.nodes[0], l.nodes[1]
			skew = append(skew, us(time.Duration(abs(a.End-b.End))))
			c := a
			if b.End > a.End {
				c = b
			}
			// node self (span - service) plus service is the span.
			critical = c.dur()
		}
		if l.win == 0 {
			accounted = append(accounted, float64(l.res.lateness()+self+critical)/float64(lat))
		}
	}
	linkedFrac := 0.0
	if len(links) > 0 {
		linkedFrac = float64(linked) / float64(len(links))
	}

	var nodeSpan, nodeSvc, nodeWire, respBytes, writeFanout, addSpan, getUs, getBytes []float64
	for i := range tr.spans {
		s := &tr.spans[i]
		if !inRange(s) {
			continue
		}
		switch {
		case s.Kind == spanNode && s.Path == "/search":
			nodeSpan = append(nodeSpan, us(s.dur()))
			nodeSvc = append(nodeSvc, us(time.Duration(s.Service)))
			nodeWire = append(nodeWire, us(s.dur()-time.Duration(s.Service)))
			respBytes = append(respBytes, float64(s.Bytes))
		case s.Kind == spanNode && s.Path == "/docs":
			addSpan = append(addSpan, us(s.dur()))
		case s.Kind == spanFrontend && s.Path != "/search":
			writeFanout = append(writeFanout, us(s.dur()))
		case s.Kind == spanBlobGet:
			getUs = append(getUs, us(s.dur()))
			getBytes = append(getBytes, float64(s.Bytes))
		}
	}

	out.add("frontend.span_p50_us", pct(feSpan, 50), "us")
	out.add("frontend.span_p99_us", pct(feSpan, 99), "us")
	out.add("frontend.self_p50_us", pct(feSelf, 50), "us")
	out.add("frontend.self_p99_us", pct(feSelf, 99), "us")
	out.add("frontend.fanout_skew_p99_us", pct(skew, 99), "us")
	out.add("frontend.hedges", float64(after.res.Hedges-before.res.Hedges), "count")
	out.add("frontend.retries", float64(after.res.Retries-before.res.Retries), "count")
	out.add("frontend.degraded", float64(degraded), "count")
	out.add("frontend.write_fanout_p99_us", pct(writeFanout, 99), "us")

	out.add("node.span_p50_us", pct(nodeSpan, 50), "us")
	out.add("node.span_p99_us", pct(nodeSpan, 99), "us")
	out.add("node.service_p50_us", pct(nodeSvc, 50), "us")
	out.add("node.service_p99_us", pct(nodeSvc, 99), "us")
	out.add("node.wire_p50_us", pct(nodeWire, 50), "us")
	out.add("node.wire_p99_us", pct(nodeWire, 99), "us")
	out.add("node.resp_bytes_per_query", mean(respBytes), "bytes")

	// Partition, search, textproc and index: replay, static and blob only.
	lr := &layerReplay{}
	if st.kind != kindLive {
		lr = replay(distinctQueries(ws[0], replayQueries), st.served, st.shards)
	}
	out.add("partition.critical_path_p50_us", pct(lr.critical, 50), "us")
	out.add("partition.critical_path_p99_us", pct(lr.critical, 99), "us")
	out.add("partition.total_work_p50_us", pct(lr.totalWork, 50), "us")
	out.add("partition.merge_p50_us", pct(lr.merge, 50), "us")
	out.add("partition.imbalance", mean(lr.imbalance), "ratio")
	submitted := 0.0
	if st.kind != kindLive && queries > 0 {
		submitted = float64(after.exec.Submitted-before.exec.Submitted) / float64(queries)
	}
	out.add("exec.submitted_per_query", submitted, "count")
	out.add("exec.queue_depth_max", float64(smp.queueMax), "count")

	perQuery := func(x float64) float64 {
		if lr.queries == 0 {
			return 0
		}
		return x / float64(lr.queries)
	}
	nsPerPosting := 0.0
	if lr.postings > 0 {
		nsPerPosting = lr.scoreNs / lr.postings
	}
	out.add("search.parse_p50_us", pct(lr.parse, 50), "us")
	out.add("textproc.analyze_p50_ns", pct(lr.analyze, 50), "ns")
	out.add("search.lookup_p50_us", pct(lr.lookup, 50), "us")
	out.add("search.score_p50_us", pct(lr.score, 50), "us")
	out.add("search.score_p99_us", pct(lr.score, 99), "us")
	out.add("search.merge_p50_us", pct(lr.segMerge, 50), "us")
	out.add("search.postings_per_query", perQuery(lr.postings), "count")
	out.add("search.matches_per_query", perQuery(lr.matches), "count")
	out.add("search.ns_per_posting", nsPerPosting, "ns")
	drift := 0.0
	if lr.compared > 0 {
		drift = float64(lr.drifted) / float64(lr.compared)
	}
	out.add("search.shared_pruning_drift", drift, "ratio")

	decode := 0.0
	if lr.decoded > 0 {
		decode = lr.decodeNs / lr.decoded
	}
	var postingsBytes int64
	for _, idx := range st.shards {
		for p := 0; p < idx.NumPartitions(); p++ {
			postingsBytes += idx.Segment(p).PostingsBytes()
		}
	}
	out.add("index.decode_ns_per_posting", decode, "ns")
	out.add("index.dict_lookup_ns", pct(lr.dictLookup, 50), "ns")
	out.add("index.postings_mb", float64(postingsBytes)/(1<<20), "MiB")
	out.add("index.build_s", median(pluck(setups, func(t setupTimes) float64 { return t.build })), "s")

	// Blob: cache and fetch counters over the measured windows.
	var hits, misses, evictions, retries, failures int64
	for s := range before.blob {
		b, a := before.blob[s], after.blob[s]
		hits += a.Hits - b.Hits
		misses += a.Misses - b.Misses
		evictions += a.Evictions - b.Evictions
		retries += a.FetchRetries - b.FetchRetries
		failures += a.FetchFailures - b.FetchFailures
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var totalGet float64
	for _, b := range getBytes {
		totalGet += b
	}
	out.add("blob.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	out.add("blob.cache_evictions_per_query", ratio(float64(evictions), float64(queries)), "count")
	out.add("blob.gets_per_query", ratio(float64(len(getUs)), float64(queries)), "count")
	out.add("blob.get_p50_us", pct(getUs, 50), "us")
	out.add("blob.get_p99_us", pct(getUs, 99), "us")
	out.add("blob.bytes_per_get", mean(getBytes), "bytes")
	out.add("blob.bytes_per_query", ratio(totalGet, float64(queries)), "bytes")
	out.add("blob.fetch_retries", float64(retries), "count")
	out.add("blob.fetch_failures", float64(failures), "count")
	out.add("blob.publish_s", median(pluck(setups, func(t setupTimes) float64 { return t.publish })), "s")
	out.add("blob.open_ms", 1000*median(pluck(setups, func(t setupTimes) float64 { return t.open })), "ms")

	// Live, result cache and ring balance.
	var liveSearch []float64
	if st.kind == kindLive {
		liveSearch = nodeSvc
	}
	var live, tombs int64
	var shardDocs []float64
	for _, li := range st.lives {
		s := li.Stats()
		live += s.LiveDocs
		tombs += int64(s.Tombstones)
		shardDocs = append(shardDocs, float64(s.LiveDocs))
	}
	for _, idx := range st.shards {
		shardDocs = append(shardDocs, float64(idx.NumDocs()))
	}
	cacheHit := 0.0
	if st.kind == kindLive {
		cacheHit = st.fe.CacheHitRate()
	}
	out.add("live.add_span_p50_us", pct(addSpan, 50), "us")
	out.add("live.add_span_p99_us", pct(addSpan, 99), "us")
	out.add("live.search_p50_us", pct(liveSearch, 50), "us")
	out.add("live.flushes_per_min", float64(after.flushes-before.flushes)*60/secs, "1/min")
	out.add("live.merges_per_min", float64(after.merges-before.merges)*60/secs, "1/min")
	out.add("live.segments_mean", mean(smp.segments), "count")
	out.add("live.segments_max", float64(smp.segmentsMax), "count")
	out.add("live.pending_flushes_max", float64(smp.pendingMax), "count")
	out.add("live.merge_backlog_max", float64(smp.backlogMax), "count")
	out.add("live.tombstone_ratio", ratio(float64(tombs), float64(live+tombs)), "ratio")
	out.add("qcache.hit_ratio", cacheHit, "ratio")
	out.add("balance.shard_doc_skew", ratio(maxOf(shardDocs), mean(shardDocs)), "ratio")

	// Go runtime over the measured windows.
	out.add("go.alloc_kb_per_op", ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1024, ops), "KiB")
	out.add("go.gc_cycles_per_kop", ratio(1000*float64(after.mem.NumGC-before.mem.NumGC), ops), "count")
	out.add("go.gc_pause_p99_us", 1e6*histPct(before.gcPauses, after.gcPauses, after.pauseEdge, 99), "us")
	out.add("go.goroutines_max", float64(smp.goroutinesMax), "count")

	// The generator: a floor under every latency, not a layer.
	out.add("gen.late_p50_ms", pct(late, 50), "ms")
	out.add("gen.late_p99_ms", pct(late, 99), "ms")
	out.add("gen.backlog_max", float64(backlog), "count")

	// Whether the trace nests and accounts for the client latency.
	acct := median(accounted)
	out.add("trace.linked_frac", linkedFrac, "ratio")
	out.add("trace.accounted_frac", acct, "ratio")
	out.add("trace.client_hop_p50_us", pct(hop, 50), "us")
	if linkedFrac < minLinked {
		out.traceFail("%.4f of answered queries linked to frontend and node spans, need %.2f", linkedFrac, minLinked)
	}
	if acct < 1-accountTolerance {
		out.traceFail("spans account for %.3f of the median client latency, need %.2f", acct, 1-accountTolerance)
	}
	return nil
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// distinctQueries returns up to n distinct queries of w, in arrival order.
func distinctQueries(w *window, n int) []workload.Query {
	seen := map[workload.Query]bool{}
	var qs []workload.Query
	for i := range w.ops {
		q := w.ops[i].query
		if w.ops[i].write != nil || seen[q] {
			continue
		}
		seen[q] = true
		qs = append(qs, q)
		if len(qs) == n {
			break
		}
	}
	return qs
}

// sampler polls gauges that have no counter over the measured windows:
// the resident set on every run and, on traced runs, goroutines,
// executor queue depth and the live index's shape.
type sampler struct {
	stopc         chan struct{}
	wg            sync.WaitGroup
	rssMax        float64
	goroutinesMax int
	queueMax      int
	segments      []float64
	segmentsMax   int
	pendingMax    int
	backlogMax    int
}

func startSampler(st *stack, traced bool) *sampler {
	s := &sampler{stopc: make(chan struct{}), rssMax: rssMB()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
			s.rssMax = max(s.rssMax, rssMB())
			if !traced {
				continue
			}
			s.goroutinesMax = max(s.goroutinesMax, runtime.NumGoroutine())
			if es, ok := exec.DefaultStats(); ok {
				s.queueMax = max(s.queueMax, es.QueueDepth)
			}
			for _, li := range st.lives {
				ls := li.Stats()
				s.segments = append(s.segments, float64(ls.Segments))
				s.segmentsMax = max(s.segmentsMax, ls.Segments)
				s.pendingMax = max(s.pendingMax, ls.PendingFlushes)
				s.backlogMax = max(s.backlogMax, ls.MergeBacklog)
			}
		}
	}()
	return s
}

// stop ends the sampler and waits for it; its fields are then stable.
func (s *sampler) stop() {
	close(s.stopc)
	s.wg.Wait()
}

const gcPauseMetric = "/sched/pauses/total/gc:seconds"

// gcPauseHist reads the runtime's cumulative GC pause histogram.
func gcPauseHist() ([]uint64, []float64) {
	smp := []metrics.Sample{{Name: gcPauseMetric}}
	metrics.Read(smp)
	if smp[0].Value.Kind() != metrics.KindFloat64Histogram {
		return nil, nil
	}
	h := smp[0].Value.Float64Histogram()
	return append([]uint64(nil), h.Counts...), h.Buckets
}

// histPct is the p-th percentile, in seconds, of the pauses between two
// readings of the histogram, read at each bucket's upper edge.
func histPct(before, after []uint64, edges []float64, p float64) float64 {
	if len(before) != len(after) || len(after) == 0 {
		return 0
	}
	var total uint64
	for i := range after {
		total += after[i] - before[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(float64(total)*p/100 + 0.999999)
	var seen uint64
	for i := range after {
		seen += after[i] - before[i]
		if seen >= want {
			return edges[i+1]
		}
	}
	return edges[len(edges)-1]
}

// rssMB is the process's resident set (VmRSS), in MiB.
func rssMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// sourceDigest hashes the Go sources and go.mod files under the working
// directory, identifying the code measured when no VCS stamp is present.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
