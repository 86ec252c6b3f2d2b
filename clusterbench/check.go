package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"

	"websearchbench/internal/cluster"
)

// checkReport counts answer checks. Every mismatch fails the run.
type checkReport struct {
	checked int
	wrong   int
	first   string // the first mismatch, for the log
}

func (c *checkReport) fail(format string, args ...any) {
	c.wrong++
	if c.first == "" {
		c.first = fmt.Sprintf(format, args...)
	}
}

// checkQueries compares every sampled, answered query with an in-process
// merge of the shards' sequential partition.Searcher results over the
// local index: same URLs in the same order with the same score bits. An
// empty answer is checked like any other.
func (st *stack) checkQueries(ws []*window, c *checkReport) {
	for _, w := range ws {
		for i := range w.res {
			r := &w.res[i]
			o := &w.ops[i]
			if !r.sampled || !r.ok {
				continue
			}
			want := st.reference(o)
			c.checked++
			if !sameHits(r.resp.Hits, want) {
				c.fail("query %q (%v): got %s, want %s", o.query.Text, o.query.Mode, hitList(r.resp.Hits), hitList(want))
			}
		}
	}
}

// reference answers o in process, merging as the frontend does: score
// descending, then URL.
func (st *stack) reference(o *op) []cluster.WireHit {
	var merged []cluster.WireHit
	for s, rs := range st.refs {
		res := rs.ParseAndSearch(o.query.Text, o.query.Mode)
		hits := res.Hits
		if len(hits) > topK {
			hits = hits[:topK]
		}
		for _, h := range hits {
			d := st.shards[s].Doc(h.Doc)
			merged = append(merged, cluster.WireHit{URL: d.URL, Title: d.Title, Score: h.Score})
		}
	}
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].Score != merged[j].Score {
			return merged[i].Score > merged[j].Score
		}
		return merged[i].URL < merged[j].URL
	})
	if len(merged) > topK {
		merged = merged[:topK]
	}
	return merged
}

func sameHits(got, want []cluster.WireHit) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].URL != want[i].URL || got[i].Title != want[i].Title ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return false
		}
	}
	return true
}

func hitList(hs []cluster.WireHit) string {
	var b bytes.Buffer
	for i, h := range hs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s@%x", h.URL, math.Float64bits(h.Score))
	}
	return b.String()
}

// checkLive checks the acknowledged writes against the live shards:
// each shard holds exactly its seeded documents plus the new keys the
// ring gave it minus the keys deleted from it, and sampled written keys
// are found by their unique token with the written title.
func (st *stack) checkLive(ws []*window, c *checkReport) error {
	want := append([]int64(nil), st.seeded...)
	n := 0
	for _, w := range ws {
		for i := range w.res {
			r := &w.res[i]
			wr := w.ops[i].write
			if wr == nil || !r.ok {
				continue
			}
			owner := st.ring.Owner(wr.key)
			c.checked++
			if r.mut.Shard != owner {
				c.fail("write %s went to shard %d, ring owner is %d", wr.key, r.mut.Shard, owner)
			}
			switch wr.kind {
			case writeNew:
				want[owner]++
			case writeDelete:
				want[owner]--
				if !r.mut.Found {
					c.fail("delete of %s: key not found", wr.key)
				}
				continue
			}
			n++
			if n%checkEvery != 0 {
				continue
			}
			hits, err := searchFrontend(st.feURL, titleToken(wr.title))
			if err != nil {
				return err
			}
			c.checked++
			if len(hits) != 1 || hits[0].URL != wr.key || hits[0].Title != wr.title {
				c.fail("written key %s: search for its token returned %s", wr.key, hitList(hits))
			}
		}
	}
	for s, li := range st.lives {
		c.checked++
		if got := li.Stats().LiveDocs; got != want[s] {
			c.fail("shard %d holds %d live docs, acknowledged writes leave %d", s, got, want[s])
		}
	}
	return nil
}

// titleToken is the unique token nextWrite appended to a title.
func titleToken(title string) string {
	i := strings.LastIndexByte(title, ' ')
	return title[i+1:]
}

func searchFrontend(feURL, q string) ([]cluster.WireHit, error) {
	body, err := json.Marshal(cluster.SearchRequest{Query: q})
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(feURL+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("check query: %w", err)
	}
	defer resp.Body.Close()
	var sr cluster.SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, fmt.Errorf("check query: status %d: %w", resp.StatusCode, err)
	}
	return sr.Hits, nil
}
