package blob

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"websearchbench/internal/corpus"
	"websearchbench/internal/index"
	"websearchbench/internal/search"
	"websearchbench/internal/workload"
)

// corpusSegment builds a moderately sized corpus segment once per test
// binary: large enough that common terms cross the skip-list threshold,
// so the lazy path exercises real block-granular fetches.
var corpusSeg = func() func(t *testing.T) *index.Segment {
	var seg *index.Segment
	return func(t *testing.T) *index.Segment {
		t.Helper()
		if seg == nil {
			cfg := corpus.DefaultConfig()
			cfg.NumDocs = 2000
			s, err := index.BuildFromCorpus(cfg)
			if err != nil {
				t.Fatalf("corpus build: %v", err)
			}
			seg = s
		}
		return seg
	}
}()

// testQueries generates a mixed AND/OR stream with the standard
// workload generator.
func testQueries(t *testing.T, n int) []workload.Query {
	t.Helper()
	gen, err := workload.NewGenerator(workload.DefaultConfig(), corpus.NewVocabulary(corpus.DefaultConfig().VocabSize))
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	return gen.Generate(n)
}

func sameResults(t *testing.T, tag string, want, got search.Result) {
	t.Helper()
	if len(want.Hits) != len(got.Hits) {
		t.Fatalf("%s: %d hits, want %d", tag, len(got.Hits), len(want.Hits))
	}
	for i := range want.Hits {
		if want.Hits[i].Doc != got.Hits[i].Doc || want.Hits[i].Score != got.Hits[i].Score {
			t.Fatalf("%s: hit %d = {%d %v}, want {%d %v}", tag, i,
				got.Hits[i].Doc, got.Hits[i].Score, want.Hits[i].Doc, want.Hits[i].Score)
		}
	}
	if want.Matches != got.Matches {
		t.Fatalf("%s: matches = %d, want %d", tag, got.Matches, want.Matches)
	}
}

// TestRemoteTopKEquivalence is the subsystem's acceptance property: for
// every backend, pruning strategy, and query mode, the top-k served
// through a CachedSegmentSource — cold cache and warm cache — is
// identical to serving the same segment from local memory.
func TestRemoteTopKEquivalence(t *testing.T) {
	seg := corpusSeg(t)
	queries := testQueries(t, 120)

	srv := httptest.NewServer(NewServer(NewMemStore()))
	defer srv.Close()
	dirStore, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stores := []struct {
		name string
		st   Store
	}{
		{"mem", NewMemStore()},
		{"dir", dirStore},
		{"http", NewHTTPStore(srv.URL)},
	}
	strategies := []struct {
		name string
		opts func() search.Options
	}{
		{"maxscore", func() search.Options {
			o := search.DefaultOptions()
			o.DisableBlockMax = true
			return o
		}},
		{"blockmax", func() search.Options {
			return search.DefaultOptions()
		}},
	}

	for _, bk := range stores {
		pub := &Publisher{Store: bk.st, CreatedBy: "test"}
		if _, err := pub.Publish([]PubSegment{{ID: 1, Seg: seg}}); err != nil {
			t.Fatalf("%s: publish: %v", bk.name, err)
		}
		src := NewCachedSegmentSource(bk.st, NewBlockCache(32<<20))
		snap, ok, err := src.LoadSnapshot()
		if err != nil || !ok {
			t.Fatalf("%s: LoadSnapshot: ok=%v err=%v", bk.name, ok, err)
		}
		if len(snap.Segments) != 1 || !snap.Segments[0].IsLazy() {
			t.Fatalf("%s: snapshot = %d segments, lazy=%v", bk.name, len(snap.Segments), snap.Segments[0].IsLazy())
		}
		for _, strat := range strategies {
			local := search.NewSearcher(seg, strat.opts())
			remote := search.NewSearcher(snap.Segments[0], strat.opts())
			for pass, label := range []string{"cold", "warm"} {
				_ = pass
				for i, q := range queries {
					pq := search.ParseQuery(local.Options().Analyzer, q.Text, q.Mode)
					tag := fmt.Sprintf("%s/%s/%s/query %d %q mode %v", bk.name, strat.name, label, i, q.Text, q.Mode)
					sameResults(t, tag, local.Search(pq), remote.Search(pq))
				}
			}
		}
	}
}

// TestRemoteTopKEquivalenceUnderFaults injects a transient fault on
// every other ranged read: the source's retry loop must absorb them
// with no effect on results.
func TestRemoteTopKEquivalenceUnderFaults(t *testing.T) {
	seg := corpusSeg(t)
	queries := testQueries(t, 60)
	st := NewMemStore()
	pub := &Publisher{Store: st, CreatedBy: "test"}
	if _, err := pub.Publish([]PubSegment{{ID: 1, Seg: seg}}); err != nil {
		t.Fatal(err)
	}
	src := NewCachedSegmentSource(st, NewBlockCache(32<<20))
	snap, ok, err := src.LoadSnapshot()
	if err != nil || !ok {
		t.Fatalf("LoadSnapshot: ok=%v err=%v", ok, err)
	}

	var calls atomic.Int64
	st.SetFault(func(op, key string) error {
		if op == "getrange" && calls.Add(1)%2 == 1 {
			return fmt.Errorf("injected transient fault")
		}
		return nil
	})
	defer st.SetFault(nil)

	opts := search.DefaultOptions()
	local := search.NewSearcher(seg, opts)
	remote := search.NewSearcher(snap.Segments[0], opts)
	for i, q := range queries {
		pq := search.ParseQuery(local.Options().Analyzer, q.Text, q.Mode)
		sameResults(t, fmt.Sprintf("faulted query %d %q", i, q.Text), local.Search(pq), remote.Search(pq))
	}
	stats := src.Stats()
	if stats.FetchRetries == 0 {
		t.Fatal("fault injection fired but no retries were recorded")
	}
	if stats.FetchFailures != 0 {
		t.Fatalf("FetchFailures = %d, want 0 (every fault was transient)", stats.FetchFailures)
	}
}

// TestOldGenerationReaderSurvivesSwap pins satellite semantics: a
// snapshot opened at generation g keeps answering queries — including
// cache-missing block fetches — after generation g+1 is published,
// swept with retention, and the cache is invalidated to g+1's keys.
func TestOldGenerationReaderSurvivesSwap(t *testing.T) {
	seg := corpusSeg(t)
	queries := testQueries(t, 60)
	st := NewMemStore()
	pub := &Publisher{Store: st, CreatedBy: "test", Retain: 2}
	if _, err := pub.Publish([]PubSegment{{ID: 1, Seg: seg}}); err != nil {
		t.Fatal(err)
	}
	src := NewCachedSegmentSource(st, NewBlockCache(32<<20))
	oldSnap, ok, err := src.LoadSnapshot()
	if err != nil || !ok {
		t.Fatalf("LoadSnapshot: ok=%v err=%v", ok, err)
	}

	// A new generation with different content arrives and the poller
	// invalidates the cache down to its keys — evicting every block the
	// old snapshot had warmed.
	m2, err := pub.Publish([]PubSegment{{ID: 2, Seg: testSegment("next-gen", 50)}})
	if err != nil {
		t.Fatal(err)
	}
	if evicted := src.Cache().InvalidateExcept(m2.Keys()); evicted == 0 {
		t.Log("note: old generation had no cached blocks to evict")
	}

	opts := search.DefaultOptions()
	local := search.NewSearcher(seg, opts)
	remote := search.NewSearcher(oldSnap.Segments[0], opts)
	for i, q := range queries {
		pq := search.ParseQuery(local.Options().Analyzer, q.Text, q.Mode)
		sameResults(t, fmt.Sprintf("post-swap query %d %q", i, q.Text), local.Search(pq), remote.Search(pq))
	}
	if st := src.Stats(); st.FetchFailures != 0 {
		t.Fatalf("old-generation reads failed %d times", st.FetchFailures)
	}
}

// TestSourceTombstonesRoundTrip publishes a segment with deletes and
// checks the snapshot carries them.
func TestSourceTombstonesRoundTrip(t *testing.T) {
	st := NewMemStore()
	pub := &Publisher{Store: st, CreatedBy: "test"}
	tomb := []byte{0b00001010, 0, 0, 0, 0, 0, 0, 0} // docs 1 and 3
	if _, err := pub.Publish([]PubSegment{{ID: 1, Seg: testSegment("del", 10), Tomb: tomb}}); err != nil {
		t.Fatal(err)
	}
	src := NewCachedSegmentSource(st, NewBlockCache(1<<20))
	snap, ok, err := src.LoadSnapshot()
	if err != nil || !ok {
		t.Fatalf("LoadSnapshot: ok=%v err=%v", ok, err)
	}
	if len(snap.Tombs) != 1 || len(snap.Tombs[0]) == 0 {
		t.Fatalf("snapshot tombs = %v", snap.Tombs)
	}
}

// TestSourceMissingBlobFails ensures a manifest referencing a deleted
// blob surfaces a hard open error instead of a silent empty segment.
func TestSourceMissingBlobFails(t *testing.T) {
	st := NewMemStore()
	pub := &Publisher{Store: st, CreatedBy: "test"}
	m, err := pub.Publish([]PubSegment{{ID: 1, Seg: testSegment("gone", 10)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(m.Segments[0].Key); err != nil {
		t.Fatal(err)
	}
	src := NewCachedSegmentSource(st, NewBlockCache(1<<20))
	if _, _, err := src.LoadSnapshot(); err == nil {
		t.Fatal("LoadSnapshot succeeded with its segment blob deleted")
	}
}

// longestTerm returns the term of seg with the longest posting list and
// the number of skip-aligned blocks it is stored in.
func longestTerm(t *testing.T, seg *index.Segment) (string, int) {
	t.Helper()
	var best index.TermInfo
	var term string
	for _, tm := range seg.Terms() {
		if ti, _ := seg.Term(tm); ti.DocFreq > best.DocFreq {
			best, term = ti, tm
		}
	}
	const blockLen = 64 // postings per skip-aligned block
	if best.DocFreq < 2*blockLen {
		t.Fatalf("longest list has %d postings: too short for a skip table", best.DocFreq)
	}
	return term, int(best.DocFreq)/blockLen + 1
}

func scanDocs(seg *index.Segment, term string) []int32 {
	it, _ := seg.Postings(term)
	var docs []int32
	for it.Next() {
		docs = append(docs, it.Doc())
	}
	return docs
}

// TestRunFetchCount: a cold sequential scan of an N-block list costs at
// most ⌈N/MaxFetchRun⌉ ranged GETs, and a warm scan none.
func TestRunFetchCount(t *testing.T) {
	seg := corpusSeg(t)
	term, blocks := longestTerm(t, seg)
	st := NewMemStore()
	pub := &Publisher{Store: st, CreatedBy: "test"}
	if _, err := pub.Publish([]PubSegment{{ID: 1, Seg: seg}}); err != nil {
		t.Fatal(err)
	}
	src := NewCachedSegmentSource(st, NewBlockCache(32<<20))
	snap, ok, err := src.LoadSnapshot()
	if err != nil || !ok {
		t.Fatalf("LoadSnapshot: ok=%v err=%v", ok, err)
	}
	want := scanDocs(seg, term)
	for _, pass := range []struct {
		name    string
		maxGets int64
	}{
		{"cold", int64((blocks + index.MaxFetchRun - 1) / index.MaxFetchRun)},
		{"warm", 0},
	} {
		before, s0 := st.Counters().GetRanges, src.Stats()
		got := scanDocs(snap.Segments[0], term)
		gets, s1 := st.Counters().GetRanges-before, src.Stats()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s scan of %q: lazy docs differ from resident", pass.name, term)
		}
		if gets > pass.maxGets {
			t.Errorf("%s scan of a %d-block list made %d GetRange calls, want <= %d", pass.name, blocks, gets, pass.maxGets)
		}
		if f := s1.Fetches - s0.Fetches; f != gets {
			t.Errorf("%s scan: Fetches counted %d, store saw %d GetRange calls", pass.name, f, gets)
		}
		if pass.name == "cold" && s1.BlocksFetched-s0.BlocksFetched != int64(blocks) {
			t.Errorf("cold scan: BlocksFetched = %d, want %d", s1.BlocksFetched-s0.BlocksFetched, blocks)
		}
	}
}

// TestRunBlocksCachedSeparately: the blocks of one fetched run are
// cached as separate copies, so evicting one frees exactly its bytes,
// and the cache never holds more than its budget.
func TestRunBlocksCachedSeparately(t *testing.T) {
	const blockLen, nBlocks = 100, 8
	st := NewMemStore()
	obj := make([]byte, blockLen*nBlocks)
	for i := range obj {
		obj[i] = byte(i)
	}
	if err := st.Put("seg", obj); err != nil {
		t.Fatal(err)
	}
	bounds := make([]int64, nBlocks+1)
	for i := range bounds {
		bounds[i] = int64(i * blockLen)
	}

	const budget = blockCacheShards * 4 * blockLen
	c := NewBlockCache(budget)
	src := NewCachedSegmentSource(st, c)
	data, err := src.fetcher("seg", 0)(1, 0, bounds)
	if err != nil || len(data) != len(obj) {
		t.Fatalf("run fetch = %d bytes, err %v; want the whole %d-byte run", len(data), err, len(obj))
	}
	if gets := st.Counters().GetRanges; gets != 1 {
		t.Fatalf("run of %d uncached blocks took %d GetRange calls, want 1", nBlocks, gets)
	}
	for b := 0; b < nBlocks; b++ {
		got := c.Get("seg", 1, b)
		if !bytes.Equal(got, obj[b*blockLen:(b+1)*blockLen]) {
			t.Fatalf("cached block %d holds the wrong bytes", b)
		}
		if cap(got) != len(got) {
			t.Fatalf("cached block %d is a %d-byte view of a %d-byte buffer, not its own copy", b, len(got), cap(got))
		}
	}

	// Fill block 0's shard so exactly one more byte is needed: the LRU
	// victim is block 0 alone (the oldest entry there), and the cache's
	// bytes fall by exactly its length.
	sh := c.shard(blockKey{seg: "seg", term: 1, block: 0})
	other := int32(1000)
	for c.shard(blockKey{seg: "other", term: other}) != sh {
		other++
	}
	sh.mu.Lock()
	free := budget/blockCacheShards - sh.bytes
	sh.mu.Unlock()
	before := c.Stats().Bytes
	c.Put("other", other, 0, make([]byte, free+1))
	if c.Has("seg", 1, 0) {
		t.Fatal("block 0 survived an insert its shard had no room for")
	}
	for b := 1; b < nBlocks; b++ {
		if !c.Has("seg", 1, b) {
			t.Fatalf("evicting block 0 also dropped block %d of its run", b)
		}
	}
	if after := c.Stats().Bytes; after != before-blockLen+free+1 {
		t.Fatalf("cache bytes %d -> %d after evicting one %d-byte block for %d new bytes", before, after, blockLen, free+1)
	}

	// A scan of real lists through a budget far below the working set.
	seg := corpusSeg(t)
	pub := &Publisher{Store: st, CreatedBy: "test"}
	if _, err := pub.Publish([]PubSegment{{ID: 1, Seg: seg}}); err != nil {
		t.Fatal(err)
	}
	tiny := NewCachedSegmentSource(st, NewBlockCache(budget))
	snap, ok, err := tiny.LoadSnapshot()
	if err != nil || !ok {
		t.Fatalf("LoadSnapshot: ok=%v err=%v", ok, err)
	}
	for _, term := range seg.Terms()[:200] {
		if fmt.Sprint(scanDocs(snap.Segments[0], term)) != fmt.Sprint(scanDocs(seg, term)) {
			t.Fatalf("term %q: lazy docs differ from resident under a tiny cache", term)
		}
		if s := tiny.Stats(); s.Bytes > budget {
			t.Fatalf("cache holds %d bytes, budget %d", s.Bytes, budget)
		}
	}
	if tiny.Stats().Evictions == 0 {
		t.Fatal("a scan through a tiny cache evicted nothing")
	}
}

// TestConcurrentRunFetches: iterators on several goroutines race to
// fetch the same uncached runs — through a cache large enough to keep
// them and through one that evicts constantly — and every one still
// reads the resident list.
func TestConcurrentRunFetches(t *testing.T) {
	seg := corpusSeg(t)
	term, _ := longestTerm(t, seg)
	want := fmt.Sprint(scanDocs(seg, term))
	st := NewMemStore()
	pub := &Publisher{Store: st, CreatedBy: "test"}
	if _, err := pub.Publish([]PubSegment{{ID: 1, Seg: seg}}); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{32 << 20, 4 << 10} {
		src := NewCachedSegmentSource(st, NewBlockCache(budget))
		snap, ok, err := src.LoadSnapshot()
		if err != nil || !ok {
			t.Fatalf("LoadSnapshot: ok=%v err=%v", ok, err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := fmt.Sprint(scanDocs(snap.Segments[0], term)); got != want {
					t.Errorf("budget %d: a concurrent scan of %q read different docs", budget, term)
				}
			}()
		}
		wg.Wait()
		if s := src.Stats(); s.FetchFailures != 0 || s.Bytes > budget {
			t.Fatalf("budget %d: %d fetch failures, %d cached bytes", budget, s.FetchFailures, s.Bytes)
		}
	}
}
