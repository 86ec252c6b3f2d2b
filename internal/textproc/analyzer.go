package textproc

import "sync"

// Analyzer is the full text-analysis pipeline: tokenize, lowercase,
// optionally drop stopwords, optionally stem. The default configuration
// matches the standard analyzer of the Lucene-based index-serving stack
// the benchmark characterizes (lowercase + stopword removal; stemming is
// configurable because the benchmark's crawler profile enables it).
type Analyzer struct {
	// KeepStopwords disables stopword removal when true.
	KeepStopwords bool
	// DisableStemming disables the Porter stemmer when true.
	DisableStemming bool
}

// NewAnalyzer returns the default analyzer: lowercase, stopword removal,
// Porter stemming.
func NewAnalyzer() *Analyzer {
	return &Analyzer{}
}

// Analyze runs the pipeline over text and returns the resulting index
// terms in order.
func (a *Analyzer) Analyze(text string) []string {
	var terms []string
	a.AnalyzeFunc(text, func(term string) {
		terms = append(terms, term)
	})
	return terms
}

// stemScratchPool shares stemmer working buffers across AnalyzeFunc
// calls: one Get/Put per document (or query) instead of two allocations
// per stemmed token. The analyzer itself stays stateless and safe for
// concurrent use — each call owns its scratch for its duration only.
var stemScratchPool = sync.Pool{
	New: func() any { return &stemScratch{buf: make([]byte, 0, 64)} },
}

// AnalyzeFunc runs the pipeline over text, calling fn for each resulting
// term. It is the allocation-lean variant used on the indexing and query
// hot paths: stemmer scratch is pooled, and terms the stemmer leaves
// unchanged are passed through without copying.
func (a *Analyzer) AnalyzeFunc(text string, fn func(term string)) {
	var sc *stemScratch
	if !a.DisableStemming {
		sc = stemScratchPool.Get().(*stemScratch)
		defer stemScratchPool.Put(sc)
	}
	TokenizeFunc(text, func(token string) {
		if term := a.term(token, sc); term != "" {
			fn(term)
		}
	})
}

// Term runs the per-token step of the pipeline (lowercase, stopword
// removal, stemming) over one raw token as TokenizeFunc yields it, and
// returns its index term, or "" when the token is dropped. AnalyzeFunc
// emits exactly the non-empty Term of each token, so a caller that
// remembers Term per distinct token, as the index builder does, indexes
// the same terms. The result may share memory with token.
func (a *Analyzer) Term(token string) string {
	var sc *stemScratch
	if !a.DisableStemming {
		sc = stemScratchPool.Get().(*stemScratch)
		defer stemScratchPool.Put(sc)
	}
	return a.term(token, sc)
}

// term is Term with the caller's stemmer scratch (nil when stemming is
// off).
func (a *Analyzer) term(token string, sc *stemScratch) string {
	term := Lowercase(token)
	if !a.KeepStopwords && IsStopword(term) {
		return ""
	}
	if sc != nil {
		term = sc.stem(term)
	}
	return term
}

// AnalyzeQuery analyzes a free-text query using the same pipeline as
// indexing, so query terms match index terms.
func (a *Analyzer) AnalyzeQuery(query string) []string {
	return a.Analyze(query)
}
