package blob

import (
	"errors"
	"fmt"
	"sync/atomic"

	"websearchbench/internal/index"
)

// CachedSegmentSource opens manifests into lazily loaded segments. Per
// segment it fetches the fixed footer and the metadata prefix (header,
// doc store, dictionary with skip tables) eagerly — the parts every
// query touches — and wires the segment's posting reads through the
// shared BlockCache: a cache hit costs a map lookup, a miss becomes one
// ranged read of the run of uncached blocks starting at the missing one
// (at most index.MaxFetchRun blocks, ending before the first cached
// block or at the end of the list), each block then cached on its own.
// The source is shared across generations; because cache keys are
// content-addressed segment keys, snapshots of different generations
// coexist in it without interfering.
type CachedSegmentSource struct {
	store Store
	cache *BlockCache
	// MaxAttempts bounds fetch attempts per run of blocks (>=1).
	// Object-store reads fail transiently; a block fetch inside query
	// evaluation has no caller to bubble an error to (a missing block
	// degrades that one list to exhausted), so transient faults are
	// retried here.
	MaxAttempts int

	fetches  atomic.Int64
	blocks   atomic.Int64
	retries  atomic.Int64
	failures atomic.Int64
}

// SourceStats counts the fetch path's work and incidents, surfaced next
// to the cache counters on /metrics.
type SourceStats struct {
	CacheStats
	// Fetches counts the ranged GETs issued for posting-block runs, one
	// per run; retried attempts are counted in FetchRetries instead.
	Fetches int64 `json:"fetches"`
	// BlocksFetched counts the posting blocks those runs brought in.
	BlocksFetched int64 `json:"blocks_fetched"`
	FetchRetries  int64 `json:"fetch_retries"`
	FetchFailures int64 `json:"fetch_failures"`
}

// NewCachedSegmentSource returns a source reading from st through cache.
func NewCachedSegmentSource(st Store, cache *BlockCache) *CachedSegmentSource {
	return &CachedSegmentSource{store: st, cache: cache, MaxAttempts: 3}
}

// Stats returns cache and fetch-path counters.
func (src *CachedSegmentSource) Stats() SourceStats {
	return SourceStats{
		CacheStats:    src.cache.Stats(),
		Fetches:       src.fetches.Load(),
		BlocksFetched: src.blocks.Load(),
		FetchRetries:  src.retries.Load(),
		FetchFailures: src.failures.Load(),
	}
}

// Cache returns the underlying block cache (for generation invalidation).
func (src *CachedSegmentSource) Cache() *BlockCache { return src.cache }

// Snapshot is one opened manifest generation: lazy segments in manifest
// order plus their marshaled tombstone bitmaps (nil for segments with no
// deletes). A snapshot stays fully usable after newer generations are
// opened — its blocks re-fetch from the store on cache misses for as
// long as the publisher's sweep retention keeps its generation.
type Snapshot struct {
	Manifest Manifest
	Segments []*index.Segment
	Tombs    [][]byte
}

// Open materializes a manifest into a snapshot: per segment, two eager
// reads (footer, then metadata prefix) and no posting bytes at all.
func (src *CachedSegmentSource) Open(m Manifest) (*Snapshot, error) {
	snap := &Snapshot{Manifest: m}
	for _, ref := range m.Segments {
		seg, err := src.openSegment(ref)
		if err != nil {
			return nil, fmt.Errorf("blob: open segment %d (%s): %w", ref.ID, ref.Key, err)
		}
		var tomb []byte
		if ref.TombKey != "" {
			tomb, err = src.store.Get(ref.TombKey)
			if err != nil {
				return nil, fmt.Errorf("blob: open tombstones for segment %d: %w", ref.ID, err)
			}
		}
		snap.Segments = append(snap.Segments, seg)
		snap.Tombs = append(snap.Tombs, tomb)
	}
	return snap, nil
}

// LoadSnapshot reads the store's current manifest and opens it. ok is
// false when the store has never been published to.
func (src *CachedSegmentSource) LoadSnapshot() (*Snapshot, bool, error) {
	m, ok, err := LoadManifest(src.store)
	if err != nil || !ok {
		return nil, ok, err
	}
	snap, err := src.Open(m)
	if err != nil {
		return nil, true, err
	}
	return snap, true, nil
}

func (src *CachedSegmentSource) openSegment(ref SegmentRef) (*index.Segment, error) {
	if ref.Size < index.SegmentFooterLen {
		return nil, fmt.Errorf("blob: segment blob is %d bytes, shorter than the footer", ref.Size)
	}
	tail, err := src.getRetry(ref.Key, ref.Size-index.SegmentFooterLen, index.SegmentFooterLen)
	if err != nil {
		return nil, err
	}
	layout, err := index.ParseSegmentFooter(tail)
	if err != nil {
		return nil, err
	}
	if layout.FileSize != ref.Size {
		return nil, fmt.Errorf("blob: footer says %d bytes, blob is %d", layout.FileSize, ref.Size)
	}
	meta, err := src.getRetry(ref.Key, 0, layout.PostOff)
	if err != nil {
		return nil, err
	}
	return index.OpenLazySegment(meta, src.fetcher(ref.Key, layout.PostOff))
}

// fetcher returns the RunFetcher for one segment. A cached first block
// is returned alone; otherwise the run is cut at the first block already
// cached and read with one retried ranged GET, and each of its blocks is
// cached as its own copy, so evicting one frees exactly its bytes. bounds
// are relative to the postings section; postOff rebases them to the file.
func (src *CachedSegmentSource) fetcher(key string, postOff int64) index.RunFetcher {
	return func(term int32, first int, bounds []int64) ([]byte, error) {
		if data := src.cache.Get(key, term, first); int64(len(data)) == bounds[1]-bounds[0] {
			return data, nil
		}
		n := 1
		for n < len(bounds)-1 && !src.cache.Has(key, term, first+n) {
			n++
		}
		src.fetches.Add(1)
		data, err := src.getRetry(key, postOff+bounds[0], bounds[n]-bounds[0])
		if err != nil {
			src.failures.Add(1)
			return nil, err
		}
		src.blocks.Add(int64(n))
		for i := 0; i < n; i++ {
			block := make([]byte, bounds[i+1]-bounds[i])
			copy(block, data[bounds[i]-bounds[0]:])
			src.cache.Put(key, term, first+i, block)
		}
		return data, nil
	}
}

// getRetry is GetRange with up to MaxAttempts attempts. Not-found is
// terminal (retrying cannot conjure the object); other errors are
// treated as transient.
func (src *CachedSegmentSource) getRetry(key string, off, n int64) ([]byte, error) {
	attempts := src.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			src.retries.Add(1)
		}
		var data []byte
		data, err = src.store.GetRange(key, off, n)
		if err == nil {
			return data, nil
		}
		if errors.Is(err, ErrNotFound) {
			return nil, err
		}
	}
	return nil, err
}
