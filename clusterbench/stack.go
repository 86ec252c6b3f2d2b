package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"websearchbench/internal/blob"
	"websearchbench/internal/cluster"
	"websearchbench/internal/cluster/balance"
	"websearchbench/internal/corpus"
	"websearchbench/internal/index"
	"websearchbench/internal/live"
	"websearchbench/internal/partition"
	"websearchbench/internal/search"
)

// stack is one frontend over two shard nodes on 127.0.0.1, plus
// whatever the workload serves them from.
type stack struct {
	kind    stackKind
	fe      *cluster.Frontend
	feURL   string
	nodes   []*cluster.Node
	addrs   []string       // node listen addresses, by shard
	servers []*http.Server // frontend and blob servers
	// shards holds each shard's local partitioned index: what static
	// nodes serve, and the reference blob answers must equal.
	shards []*partition.Index
	// refs are sequential searchers over shards for the answer check.
	refs []*partition.Searcher
	// served are the indexes the nodes search: shards for static, the
	// lazily loaded blob segments for blob.
	served []*partition.Index
	srcs   []*blob.CachedSegmentSource
	lives  []*live.Index
	// seeded is each live shard's document count after seeding.
	seeded []int64
	ring   *balance.Ring

	coldStart time.Time
	times     setupTimes
}

// setupTimes are the phases of one set-up, in seconds.
type setupTimes struct {
	total   float64 // start until the frontend answers its first query
	build   float64 // index build, or live seeding
	publish float64 // blob only
	open    float64 // blob only: LoadSnapshot of both shards
	cold    float64 // blob only: new CachedSegmentSource to first answer
}

// hooks are the optional wraps a traced run or a test installs.
type hooks struct {
	frontend func(http.Handler) http.Handler
	node     func(shard int) func(http.Handler) http.Handler
	store    func(shard int, st blob.Store) blob.Store
}

// searchOptions is what every shard searcher serves with.
func searchOptions() search.Options { return search.DefaultOptions() }

// shardSearcher is the partition.Searcher a static or blob shard serves
// with, and the answer check's reference when parallel is false. Each
// partition prunes against its own top-k only. With cross-partition
// threshold sharing on, the order in which a document's term scores are
// summed depends on how far the other partitions have got, which is a
// matter of timing on the executor, so the same query can come back with
// scores that differ in the last bit, and the exact answer check fails
// on unmodified code. The replay reports how many answers sharing
// changes (search.shared_pruning_drift).
func shardSearcher(idx *partition.Index, parallel bool) *partition.Searcher {
	s := partition.NewSearcher(idx, searchOptions(), parallel)
	s.SetSharedPruning(false)
	return s
}

func setupStack(sp spec, docs []corpus.Document, h hooks) (*stack, error) {
	start := time.Now()
	st := &stack{kind: sp.kind}
	var err error
	switch sp.kind {
	case kindStatic:
		err = st.buildStatic(docs)
		st.served = st.shards
		if err == nil {
			for s, idx := range st.shards {
				if err = st.startNode(s, cluster.NewNodeFromSearcher(nodeName(s), shardSearcher(idx, true), topK), h); err != nil {
					break
				}
			}
		}
	case kindBlob:
		err = st.setupBlob(sp, docs, h)
	case kindLive:
		err = st.setupLive(docs, h)
	}
	if err == nil {
		err = st.startFrontend(sp, h)
	}
	if err == nil {
		for _, idx := range st.shards {
			st.refs = append(st.refs, shardSearcher(idx, false))
		}
		err = st.firstQuery(docs)
	}
	if err != nil {
		st.close()
		return nil, err
	}
	st.times.total = time.Since(start).Seconds()
	if sp.kind == kindBlob {
		st.times.cold = time.Since(st.coldStart).Seconds()
	}
	return st, nil
}

func nodeName(s int) string { return fmt.Sprintf("shard-%d", s) }

// buildStatic indexes the corpus round-robin into numShards shards of
// partsPerShard partitions, shards in parallel.
func (st *stack) buildStatic(docs []corpus.Document) error {
	t := time.Now()
	st.shards = make([]*partition.Index, numShards)
	errs := make([]error, numShards)
	var wg sync.WaitGroup
	for s := range st.shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			b, err := partition.NewBuilder(partsPerShard, partition.RoundRobin, len(docs)/numShards+1)
			if err != nil {
				errs[s] = err
				return
			}
			for i := s; i < len(docs); i += numShards {
				b.AddCorpusDoc(docs[i])
			}
			st.shards[s] = b.Finalize()
		}(s)
	}
	wg.Wait()
	st.times.build = time.Since(t).Seconds()
	return errors.Join(errs...)
}

// setupBlob builds the shards locally, publishes each to its own object
// server over HTTP, and serves every shard from a stateless searcher
// whose block cache is sp.cacheBytes.
func (st *stack) setupBlob(sp spec, docs []corpus.Document, h hooks) error {
	if err := st.buildStatic(docs); err != nil {
		return err
	}
	t := time.Now()
	urls := make([]string, numShards)
	for s, idx := range st.shards {
		url, err := st.serve(blob.NewServer(blob.NewMemStore()))
		if err != nil {
			return err
		}
		urls[s] = url
		pub := &blob.Publisher{Store: blob.NewHTTPStore(url), CreatedBy: "clusterbench"}
		var segs []blob.PubSegment
		for p := 0; p < idx.NumPartitions(); p++ {
			segs = append(segs, blob.PubSegment{ID: uint64(p + 1), Seg: idx.Segment(p)})
		}
		if _, err := pub.Publish(segs); err != nil {
			return fmt.Errorf("publish shard %d: %w", s, err)
		}
		// The reference keeps FromSegments' docID order, which decides
		// ties exactly as the blob searcher's does.
		st.shards[s] = partition.FromSegments(segments(idx))
	}
	st.times.publish = time.Since(t).Seconds()

	st.coldStart = time.Now()
	for s, url := range urls {
		var store blob.Store = blob.NewHTTPStore(url)
		if h.store != nil {
			store = h.store(s, store)
		}
		src := blob.NewCachedSegmentSource(store, blob.NewBlockCache(sp.cacheBytes))
		t := time.Now()
		snap, ok, err := src.LoadSnapshot()
		if err == nil && !ok {
			err = errors.New("no manifest")
		}
		if err != nil {
			return fmt.Errorf("open shard %d: %w", s, err)
		}
		st.times.open += time.Since(t).Seconds()
		st.srcs = append(st.srcs, src)
		served := partition.FromSegments(snap.Segments)
		st.served = append(st.served, served)
		if err := st.startNode(s, cluster.NewNodeFromSearcher(nodeName(s), shardSearcher(served, true), topK), h); err != nil {
			return err
		}
	}
	return nil
}

func segments(idx *partition.Index) []*index.Segment {
	segs := make([]*index.Segment, idx.NumPartitions())
	for p := range segs {
		segs[p] = idx.Segment(p)
	}
	return segs
}

// setupLive seeds two live shards, routing each document to the shard
// the frontend's ring assigns its key, as ingest through the frontend
// would. The seed is bulk-loaded: the routed documents are indexed into
// segments of liveSeedDocs, built on every core, and each shard opens
// its segments with NewRecoveredIndex, whose keys are the stored URLs.
func (st *stack) setupLive(docs []corpus.Document, h hooks) error {
	t := time.Now()
	st.ring = balance.NewRing(numShards, balance.DefaultVirtualNodes)
	type chunk struct {
		shard int
		docs  []corpus.Document
		seg   *index.Segment
	}
	var chunks []*chunk
	cur := make([]*chunk, numShards)
	for _, d := range docs {
		s := st.ring.Owner(d.URL)
		if cur[s] == nil || len(cur[s].docs) == liveSeedDocs {
			cur[s] = &chunk{shard: s}
			chunks = append(chunks, cur[s])
		}
		cur[s].docs = append(cur[s].docs, d)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(chunks); i = int(next.Add(1)) - 1 {
				b := index.NewBuilder()
				for _, d := range chunks[i].docs {
					b.AddCorpusDoc(d)
				}
				chunks[i].seg = b.Finalize()
			}
		}()
	}
	wg.Wait()
	segs := make([][]live.RecoveredSegment, numShards)
	for _, c := range chunks {
		segs[c.shard] = append(segs[c.shard], live.RecoveredSegment{ID: uint64(len(segs[c.shard]) + 1), Seg: c.seg})
	}
	for s := 0; s < numShards; s++ {
		li := live.NewRecoveredIndex(live.Config{MemtableMaxDocs: liveMemtable}, segs[s], 0)
		st.lives = append(st.lives, li)
		st.seeded = append(st.seeded, li.Stats().LiveDocs)
	}
	st.times.build = time.Since(t).Seconds()
	for s, li := range st.lives {
		if err := st.startNode(s, cluster.NewLiveNode(nodeName(s), li, topK), h); err != nil {
			return err
		}
	}
	return nil
}

func (st *stack) startNode(s int, n *cluster.Node, h hooks) error {
	var wrap func(http.Handler) http.Handler
	if h.node != nil {
		wrap = h.node(s)
	}
	addr, err := n.StartWith("127.0.0.1:0", wrap)
	if err != nil {
		return err
	}
	st.nodes = append(st.nodes, n)
	st.addrs = append(st.addrs, addr)
	return nil
}

func (st *stack) startFrontend(sp spec, h hooks) error {
	urls := make([]string, len(st.addrs))
	for s, addr := range st.addrs {
		urls[s] = "http://" + addr
	}
	fe, err := cluster.NewFrontend(urls, topK)
	if err != nil {
		return err
	}
	if sp.kind == kindLive {
		fe.EnableCache(resultCacheCap)
	}
	st.fe = fe
	var handler http.Handler = fe.Handler()
	if h.frontend != nil {
		handler = h.frontend(handler)
	}
	st.feURL, err = st.serve(handler)
	return err
}

// serve starts an HTTP server for h on a free loopback port.
func (st *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	st.servers = append(st.servers, srv)
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// firstQuery waits for the frontend to answer the corpus's first title.
func (st *stack) firstQuery(docs []corpus.Document) error {
	body, err := json.Marshal(cluster.SearchRequest{Query: docs[0].Title})
	if err != nil {
		return err
	}
	resp, err := http.Post(st.feURL+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("first query: %w", err)
	}
	defer resp.Body.Close()
	var sr cluster.SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return fmt.Errorf("first query: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK || len(sr.Hits) == 0 || sr.Degraded {
		return fmt.Errorf("first query: status %d, %d hits, degraded %v", resp.StatusCode, len(sr.Hits), sr.Degraded)
	}
	return nil
}

// close stops every server and background goroutine the stack started
// and waits for them.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, srv := range st.servers {
		if err := srv.Shutdown(ctx); err != nil {
			_ = srv.Close()
		}
	}
	for _, n := range st.nodes {
		_ = n.Close()
	}
	for _, li := range st.lives {
		li.Close()
	}
}
