package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"websearchbench/internal/cluster"
	"websearchbench/internal/corpus"
	"websearchbench/internal/search"
	"websearchbench/internal/workload"
)

// op is one arrival of the open-loop stream: a query, or a write when
// path is /docs or /delete.
type op struct {
	at    time.Duration // due time, from the window start
	path  string
	body  []byte
	query workload.Query
	write *writeOp
}

type writeKind int

const (
	writeUpsert writeKind = iota // new version of an existing key
	writeNew                     // a key the corpus does not have
	writeDelete
)

// writeOp is one live mutation. Every write touches a distinct key, so
// the acknowledged end state does not depend on the order in which the
// generator's connections happen to deliver them.
type writeOp struct {
	kind  writeKind
	key   string
	title string // carries a token unique to this write
}

// inputs is everything the benchmark feeds the stack, derived from the
// corpus size and the seed.
type inputs struct {
	// docs is the corpus; run drops it once set-up is done, so that it
	// does not inflate the heap the measured stack collects.
	docs []corpus.Document
	urls []string
	// pool is the query log; popularity draws the stream from it.
	pool       []workload.Query
	popularity *corpus.Zipf
	rng        *rand.Rand
	// live-write state: a permutation of corpus keys handed out once each.
	perm     []int
	nextPerm int
	nextNew  int
	gen      *corpus.Generator
}

func newInputs(numDocs int, seed int64) (*inputs, error) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = numDocs
	cfg.Seed = corpusSeed
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	// The query pool is fixed, like the corpus: a run's seed draws which
	// queries arrive, and when, from the same log, as
	// workload.Generator.Next draws from its pool.
	wcfg := workload.DefaultConfig()
	wcfg.UniqueQueries = queryPool
	wcfg.PopularityS = popularityS
	wcfg.AndFraction = andFraction
	qg, err := workload.NewGenerator(wcfg, gen.Vocabulary())
	if err != nil {
		return nil, fmt.Errorf("query generator: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	docs := gen.Generate()
	urls := make([]string, len(docs))
	for i, d := range docs {
		urls[i] = d.URL
	}
	return &inputs{
		docs:       docs,
		urls:       urls,
		pool:       qg.Pool(),
		popularity: corpus.NewZipf(rng, queryPool, popularityS),
		rng:        rng,
		perm:       rng.Perm(numDocs),
		gen:        gen,
	}, nil
}

// schedule draws a Poisson arrival stream at rate ops/s for d, mixing in
// writes at writeFrac.
func (in *inputs) schedule(rate float64, d time.Duration, writeFrac float64) ([]op, error) {
	var ops []op
	var t float64
	for {
		t += in.rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return ops, nil
		}
		var o op
		var err error
		if writeFrac > 0 && in.rng.Float64() < writeFrac {
			o, err = in.nextWrite()
		} else {
			o, err = queryOp(in.pool[in.popularity.Sample()])
		}
		if err != nil {
			return nil, err
		}
		o.at = at
		ops = append(ops, o)
	}
}

func queryOp(q workload.Query) (op, error) {
	req := cluster.SearchRequest{Query: q.Text}
	if q.Mode == search.ModeAnd {
		req.Mode = "AND"
	}
	body, err := json.Marshal(req)
	return op{path: "/search", body: body, query: q}, err
}

// nextWrite mixes upserts of existing keys (60%), new keys (30%) and
// deletes (10%). Titles carry a token no other document has, so a query
// for it finds exactly the written version.
func (in *inputs) nextWrite() (op, error) {
	n := in.nextPerm + in.nextNew
	token := uniqueToken(n)
	var w writeOp
	var req any
	r := in.rng.Float64()
	switch {
	case r < 0.6 || r >= 0.9:
		if in.nextPerm >= len(in.perm) {
			return op{}, fmt.Errorf("live writes exhausted the %d corpus keys", len(in.perm))
		}
		key := in.urls[in.perm[in.nextPerm]]
		in.nextPerm++
		if r >= 0.9 {
			w = writeOp{kind: writeDelete, key: key}
			req = cluster.DeleteDocRequest{Key: key}
			break
		}
		d := in.gen.GenerateDoc(len(in.urls) + n)
		w = writeOp{kind: writeUpsert, key: key, title: d.Title + " " + token}
		req = cluster.AddDocRequest{Key: key, Title: w.title, Body: d.Body, Quality: d.Quality}
	default:
		d := in.gen.GenerateDoc(len(in.urls) + n)
		in.nextNew++
		key := fmt.Sprintf("%s/new/%d", d.URL, n)
		w = writeOp{kind: writeNew, key: key, title: d.Title + " " + token}
		req = cluster.AddDocRequest{Key: key, Title: w.title, Body: d.Body, Quality: d.Quality}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return op{}, err
	}
	path := "/docs"
	if w.kind == writeDelete {
		path = "/delete"
	}
	return op{path: path, body: body, write: &w}, nil
}

// uniqueToken spells n in consonants only: the analyzer keeps such a
// word whole (no stemming rule applies to a vowel-free word), and the
// "zq" prefix keeps it out of the synthetic vocabulary.
func uniqueToken(n int) string {
	const letters = "bcdfghjkmpvwx"
	b := []byte("zq")
	for i := 0; i < 6; i++ {
		b = append(b, letters[n%len(letters)])
		n /= len(letters)
	}
	return string(b)
}
