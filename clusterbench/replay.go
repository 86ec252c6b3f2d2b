package main

import (
	"math"
	"time"

	"websearchbench/internal/partition"
	"websearchbench/internal/search"
	"websearchbench/internal/textproc"
	"websearchbench/internal/workload"
)

// layerReplay holds the per-layer costs of search, exec, index and
// textproc, measured by replaying the traced run's queries directly
// against each shard's searchers after the load has stopped: a
// partition.Searcher with per-partition timing on, a search.Searcher per
// segment for phase timings, and the segments' postings for decode cost.
// It also compares each query's answer with and without cross-partition
// threshold sharing, which the served searchers leave off.
type layerReplay struct {
	critical, totalWork, merge []float64 // µs, one per (query, shard)
	imbalance                  []float64 // critical path / mean partition time
	parse, lookup, score       []float64 // µs, one per (query, segment)
	segMerge                   []float64
	analyze                    []float64 // ns, one per query
	dictLookup                 []float64 // ns, one per (term, segment)
	postings, matches          float64   // summed over segments, all queries
	scoreNs                    float64
	decodeNs, decoded          float64
	// drifted counts the (query, shard) answers in which threshold
	// sharing changes a document, its rank or its score bits.
	drifted, compared int
	queries           int
}

// replay runs qs against the shards. shards are the searchable indexes
// (for blob, the stateless ones, so block fetches are part of the cost);
// local are in-memory indexes for the decode and dictionary timings.
func replay(qs []workload.Query, shards, local []*partition.Index) *layerReplay {
	lr := &layerReplay{queries: len(qs)}
	an := textproc.NewAnalyzer()
	var psr []*partition.Searcher
	var ssr [][]*search.Searcher
	for _, idx := range shards {
		ps := shardSearcher(idx, true)
		ps.SetCollectPartTimes(true)
		psr = append(psr, ps)
		var row []*search.Searcher
		for p := 0; p < idx.NumPartitions(); p++ {
			row = append(row, search.NewSearcher(idx.Segment(p), searchOptions()))
		}
		ssr = append(ssr, row)
	}
	// Sequential searchers over the local shards, with and without
	// sharing, measure the pruning drift without timing in it.
	var indep, shared []*partition.Searcher
	for _, idx := range local {
		indep = append(indep, shardSearcher(idx, false))
		sh := partition.NewSearcher(idx, searchOptions(), false)
		sh.SetSharedPruning(true)
		shared = append(shared, sh)
	}
	for _, q := range qs {
		for s := range indep {
			lr.compared++
			if !sameScoredHits(indep[s].ParseAndSearch(q.Text, q.Mode).Hits, shared[s].ParseAndSearch(q.Text, q.Mode).Hits) {
				lr.drifted++
			}
		}
		t := time.Now()
		terms := an.AnalyzeQuery(q.Text)
		lr.analyze = append(lr.analyze, float64(time.Since(t).Nanoseconds()))
		for s, ps := range psr {
			res := ps.ParseAndSearch(q.Text, q.Mode)
			lr.critical = append(lr.critical, us(res.CriticalPath))
			lr.totalWork = append(lr.totalWork, us(res.TotalWork))
			lr.merge = append(lr.merge, us(res.MergeTime))
			if n := len(res.PartTimes); n > 0 && res.TotalWork > 0 {
				lr.imbalance = append(lr.imbalance, float64(res.CriticalPath)*float64(n)/float64(res.TotalWork))
			}
			for _, ss := range ssr[s] {
				r := ss.ParseAndSearch(q.Text, q.Mode)
				lr.parse = append(lr.parse, us(r.Phases.Parse))
				lr.lookup = append(lr.lookup, us(r.Phases.Lookup))
				lr.score = append(lr.score, us(r.Phases.Score))
				lr.segMerge = append(lr.segMerge, us(r.Phases.Merge))
				lr.postings += float64(r.PostingsScanned)
				lr.matches += float64(r.Matches)
				lr.scoreNs += float64(r.Phases.Score.Nanoseconds())
			}
		}
		for _, idx := range local {
			for p := 0; p < idx.NumPartitions(); p++ {
				seg := idx.Segment(p)
				for _, term := range terms {
					t := time.Now()
					_, ok := seg.Term(term)
					lr.dictLookup = append(lr.dictLookup, float64(time.Since(t).Nanoseconds()))
					if !ok {
						continue
					}
					t = time.Now()
					it, _ := seg.Postings(term)
					n := 0
					for it.Next() {
						n++
					}
					lr.decodeNs += float64(time.Since(t).Nanoseconds())
					lr.decoded += float64(n)
				}
			}
		}
	}
	return lr
}

func sameScoredHits(a, b []search.Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Doc != b[i].Doc || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
