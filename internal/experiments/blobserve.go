package experiments

import (
	"bytes"
	"fmt"
	"time"

	"websearchbench/internal/blob"
	"websearchbench/internal/index"
	"websearchbench/internal/search"
	"websearchbench/internal/stats"
)

// E25ColdStartRow compares two ways a fresh, stateless searcher reaches
// its first answered query from a published blob store.
type E25ColdStartRow struct {
	Name string
	// TTFQ is the time-to-first-query: open the published index and
	// answer one query, starting from nothing local.
	TTFQ time.Duration
	// BytesRead is what the start-up path pulled over the wire.
	BytesRead int64
}

// E25CacheRow is one block-cache size point: the measurement stream run
// twice (cold, then warm) through a CachedSegmentSource.
type E25CacheRow struct {
	CacheMB int
	// ColdHitRate and WarmHitRate are the block-cache hit rates of the
	// two passes.
	ColdHitRate float64
	WarmHitRate float64
	// ColdBytes and WarmBytes are the bytes fetched from the store per
	// pass; a cache large enough to hold the working set drives WarmBytes
	// to zero.
	ColdBytes int64
	WarmBytes int64
	// ColdFetches and WarmFetches are the ranged GETs the block path
	// issued per pass: one per run of uncached blocks.
	ColdFetches int64
	WarmFetches int64
	ColdP99     time.Duration
	WarmP99     time.Duration
}

// E25Result is the disaggregated-serving experiment.
type E25Result struct {
	SegmentBytes int64
	ColdStart    []E25ColdStartRow
	Cache        []E25CacheRow
}

// E25BlobServing measures the blob-serving tier: what disaggregating
// segment storage costs and what the block cache buys back. Part one is
// cold start — a stateless searcher answering its first query via the
// lazy open (footer + metadata + the blocks that one query touches)
// versus downloading and deserializing the whole segment. Part two
// sweeps the block-cache budget and runs the measurement stream cold
// and warm at each size, reporting hit rate, bytes over the wire, ranged
// GETs issued, and the cold-vs-warm tail.
func (c *Context) E25BlobServing() E25Result {
	seg := c.Segment()
	qs := c.Analyzed()

	// Publish once to an in-memory store with an injected per-operation
	// latency standing in for object-store round-trip time.
	const rtt = 100 * time.Microsecond
	st := blob.NewMemStore()
	pub := &blob.Publisher{Store: st, CreatedBy: "experiments"}
	m, err := pub.Publish([]blob.PubSegment{{ID: 1, Seg: seg}})
	if err != nil {
		panic(fmt.Sprintf("experiments: blob publish: %v", err))
	}
	res := E25Result{SegmentBytes: m.Segments[0].Size}

	// --- Part one: cold start, with simulated RTT on every store op.
	st.Latency = rtt
	firstQ := qs[0]

	start := time.Now()
	before := st.Counters().BytesRead
	src := blob.NewCachedSegmentSource(st, blob.NewBlockCache(64<<20))
	snap, ok, err := src.LoadSnapshot()
	if err != nil || !ok {
		panic(fmt.Sprintf("experiments: blob snapshot: ok=%v err=%v", ok, err))
	}
	search.NewSearcher(snap.Segments[0], search.DefaultOptions()).Search(firstQ)
	lazyRow := E25ColdStartRow{
		Name:      "lazy_open",
		TTFQ:      time.Since(start),
		BytesRead: st.Counters().BytesRead - before,
	}

	start = time.Now()
	before = st.Counters().BytesRead
	data, err := st.Get(m.Segments[0].Key)
	if err != nil {
		panic(fmt.Sprintf("experiments: blob get: %v", err))
	}
	full, err := index.ReadSegment(bytes.NewReader(data))
	if err != nil {
		panic(fmt.Sprintf("experiments: blob segment decode: %v", err))
	}
	search.NewSearcher(full, search.DefaultOptions()).Search(firstQ)
	fullRow := E25ColdStartRow{
		Name:      "full_download",
		TTFQ:      time.Since(start),
		BytesRead: st.Counters().BytesRead - before,
	}
	res.ColdStart = []E25ColdStartRow{lazyRow, fullRow}
	for _, r := range res.ColdStart {
		c.record("E25", r.Name, "ttfq_ns", float64(r.TTFQ.Nanoseconds()))
		c.record("E25", r.Name, "bytes_read", float64(r.BytesRead))
	}

	// --- Part two: cache-size sweep, no injected latency (hit rates and
	// bytes are latency-independent; the tail contrast comes from the
	// fetch path itself).
	st.Latency = 0
	for _, mb := range []int{1, 4, 16, 64} {
		row := c.runBlobCachePass(st, qs, mb)
		res.Cache = append(res.Cache, row)
		name := fmt.Sprintf("cache_%dmb", mb)
		c.record("E25", name, "cold_hit_rate_pct", 100*row.ColdHitRate)
		c.record("E25", name, "warm_hit_rate_pct", 100*row.WarmHitRate)
		c.record("E25", name, "cold_bytes_fetched", float64(row.ColdBytes))
		c.record("E25", name, "warm_bytes_fetched", float64(row.WarmBytes))
		c.record("E25", name, "cold_fetches", float64(row.ColdFetches))
		c.record("E25", name, "warm_fetches", float64(row.WarmFetches))
		c.record("E25", name, "cold_p99_ns", float64(row.ColdP99.Nanoseconds()))
		c.record("E25", name, "warm_p99_ns", float64(row.WarmP99.Nanoseconds()))
	}

	c.section("E25", "disaggregated serving: cold start and block-cache sweep")
	fmt.Fprintf(c.Out, "segment blob: %d bytes; store RTT %s (cold start only); %d queries per pass\n",
		res.SegmentBytes, rtt, len(qs))
	w := c.table()
	fmt.Fprintf(w, "cold_start\tttfq\tbytes_read\n")
	for _, r := range res.ColdStart {
		fmt.Fprintf(w, "%s\t%s\t%d\n", r.Name, ms(r.TTFQ), r.BytesRead)
	}
	w.Flush()
	w = c.table()
	fmt.Fprintf(w, "\ncache_mb\tcold_hit\twarm_hit\tcold_bytes\twarm_bytes\tcold_fetches\twarm_fetches\tcold_p99\twarm_p99\n")
	for _, r := range res.Cache {
		fmt.Fprintf(w, "%d\t%.1f%%\t%.1f%%\t%d\t%d\t%d\t%d\t%s\t%s\n",
			r.CacheMB, 100*r.ColdHitRate, 100*r.WarmHitRate, r.ColdBytes, r.WarmBytes,
			r.ColdFetches, r.WarmFetches, ms(r.ColdP99), ms(r.WarmP99))
	}
	w.Flush()
	return res
}

// runBlobCachePass opens a fresh source with a cacheMB-sized block
// cache and runs the query stream twice, measuring each pass.
func (c *Context) runBlobCachePass(st *blob.MemStore, qs []search.Query, cacheMB int) E25CacheRow {
	src := blob.NewCachedSegmentSource(st, blob.NewBlockCache(int64(cacheMB)<<20))
	snap, ok, err := src.LoadSnapshot()
	if err != nil || !ok {
		panic(fmt.Sprintf("experiments: blob snapshot: ok=%v err=%v", ok, err))
	}
	searcher := search.NewSearcher(snap.Segments[0], search.DefaultOptions())

	row := E25CacheRow{CacheMB: cacheMB}
	pass := func() (hitRate float64, bytes, fetches int64, p99 time.Duration) {
		s0 := src.Stats()
		lat := make([]float64, 0, len(qs))
		for _, q := range qs {
			start := time.Now()
			searcher.Search(q)
			lat = append(lat, time.Since(start).Seconds())
		}
		s1 := src.Stats()
		lookups := (s1.Hits - s0.Hits) + (s1.Misses - s0.Misses)
		if lookups > 0 {
			hitRate = float64(s1.Hits-s0.Hits) / float64(lookups)
		}
		p, err := stats.Percentile(lat, 99)
		if err != nil {
			panic(fmt.Sprintf("experiments: percentile: %v", err))
		}
		return hitRate, s1.BytesFetched - s0.BytesFetched, s1.Fetches - s0.Fetches, time.Duration(p * float64(time.Second))
	}
	row.ColdHitRate, row.ColdBytes, row.ColdFetches, row.ColdP99 = pass()
	row.WarmHitRate, row.WarmBytes, row.WarmFetches, row.WarmP99 = pass()
	return row
}
