package index

import (
	"sort"
	"strings"

	"websearchbench/internal/corpus"
	"websearchbench/internal/textproc"
)

// Builder accumulates documents and produces an immutable Segment.
// It is not safe for concurrent use.
type Builder struct {
	comp      Compression
	positions bool
	analyzer  *textproc.Analyzer
	bm25      BM25Params

	terms    map[string]*termAcc
	docLens  []int32
	docs     []StoredDoc
	totalLen int64

	// memo maps each distinct raw token AddDocument has seen to its
	// term's accumulator, or to nil when the analyzer drops the token,
	// so a token is lowercased, stopword-checked and stemmed once per
	// builder, not once per occurrence.
	memo    map[string]*termAcc
	touched []*termAcc // terms of the document being added, reused
}

type termAcc struct {
	enc      postingsEncoder
	collFreq int64

	// The document AddDocument is adding: doc is the ID of the last
	// document that touched the term (-1 before any), tf the term's
	// frequency in it and pos its positions (positional builders only;
	// the slice is reused).
	doc int32
	tf  int32
	pos []int32
}

// BuilderOption customizes a Builder.
type BuilderOption func(*Builder)

// WithCompression selects the posting-list encoding (default packed).
func WithCompression(c Compression) BuilderOption {
	return func(b *Builder) { b.comp = c }
}

// WithAnalyzer replaces the default analyzer.
func WithAnalyzer(a *textproc.Analyzer) BuilderOption {
	return func(b *Builder) { b.analyzer = a }
}

// WithBM25 replaces the default BM25 parameters baked into the segment.
func WithBM25(p BM25Params) BuilderOption {
	return func(b *Builder) { b.bm25 = p }
}

// WithPositions stores per-posting term positions, enabling phrase
// queries. Positional postings require varint compression; the option
// forces it.
func WithPositions() BuilderOption {
	return func(b *Builder) {
		b.positions = true
		b.comp = CompressionVarint
	}
}

// NewBuilder returns an empty Builder with the default analyzer,
// packed compression and standard BM25 parameters.
func NewBuilder(opts ...BuilderOption) *Builder {
	b := &Builder{
		comp:     CompressionPacked,
		analyzer: textproc.NewAnalyzer(),
		bm25:     DefaultBM25(),
		terms:    make(map[string]*termAcc),
		memo:     make(map[string]*termAcc),
	}
	for _, opt := range opts {
		opt(b)
	}
	if b.positions && b.comp != CompressionVarint {
		b.comp = CompressionVarint
	}
	return b
}

// snippetLen is how much of the body the doc store keeps for rendering.
const snippetLen = 160

// AddDocument indexes one document (title and body pass through the
// analyzer; title terms are indexed alongside body terms) and returns its
// docID within the segment under construction. The stored snippet and
// new dictionary keys are clones, not substrings of title or body, so a
// served segment does not pin the document's text.
func (b *Builder) AddDocument(title, body, url string, quality float64) int32 {
	docID := int32(len(b.docLens))
	var docLen int32
	count := func(token string) {
		acc, ok := b.memo[token]
		if !ok {
			if term := b.analyzer.Term(token); term != "" {
				acc = b.acc(term)
			}
			b.memo[strings.Clone(token)] = acc
		}
		if acc == nil {
			return
		}
		if acc.doc != docID {
			acc.doc, acc.tf, acc.pos = docID, 0, acc.pos[:0]
			b.touched = append(b.touched, acc)
		}
		acc.tf++
		if b.positions {
			acc.pos = append(acc.pos, docLen)
		}
		docLen++
	}
	textproc.TokenizeFunc(title, count)
	textproc.TokenizeFunc(body, count)

	// Each touched term's encoder gets this document once. The order
	// across terms is free: every term has its own posting list, each
	// still sees doc IDs in increasing order, and Finalize sorts the
	// dictionary, so the segment's bytes do not depend on it.
	for _, acc := range b.touched {
		if b.positions {
			acc.enc.addWithPositions(docID, acc.pos)
		} else {
			acc.enc.add(docID, acc.tf)
		}
		acc.collFreq += int64(acc.tf)
	}
	b.touched = b.touched[:0]

	snippet := body
	if len(snippet) > snippetLen {
		snippet = snippet[:snippetLen]
	}
	b.docLens = append(b.docLens, docLen)
	b.totalLen += int64(docLen)
	b.docs = append(b.docs, StoredDoc{
		URL:     url,
		Title:   title,
		Quality: float32(quality),
		Snippet: strings.Clone(snippet),
	})
	return docID
}

// acc returns term's accumulator, creating it on first sight under a
// cloned key, since term may be a substring of a document's text.
func (b *Builder) acc(term string) *termAcc {
	acc, ok := b.terms[term]
	if !ok {
		acc = &termAcc{enc: postingsEncoder{comp: b.comp}, doc: -1}
		b.terms[strings.Clone(term)] = acc
	}
	return acc
}

// AddCorpusDoc indexes a synthetic corpus document.
func (b *Builder) AddCorpusDoc(d corpus.Document) int32 {
	return b.AddDocument(d.Title, d.Body, d.URL, d.Quality)
}

// AddPreanalyzed indexes a document from already-analyzed term statistics:
// terms must be sorted lexicographically with freqs aligned, and the
// document length is the sum of the frequencies (every analyzed token
// counts, exactly as AddDocument tallies it). This is the flush path of
// the live index's memtable, which analyzed the document once at ingest
// and replays the frequencies here instead of re-tokenizing the text.
// Positional builders cannot accept pre-analyzed documents (the positions
// were not retained), so the call panics on one — a programmer error, not
// an input error.
func (b *Builder) AddPreanalyzed(stored StoredDoc, terms []string, freqs []int32) int32 {
	if b.positions {
		panic("index: AddPreanalyzed on a positional builder")
	}
	docID := int32(len(b.docLens))
	var docLen int32
	for i, t := range terms {
		f := freqs[i]
		acc := b.acc(t)
		acc.enc.add(docID, f)
		acc.collFreq += int64(f)
		docLen += f
	}
	b.docLens = append(b.docLens, docLen)
	b.totalLen += int64(docLen)
	b.docs = append(b.docs, stored)
	return docID
}

// NumDocs returns the number of documents added so far.
func (b *Builder) NumDocs() int { return len(b.docLens) }

// Finalize freezes the builder into an immutable Segment. The builder must
// not be used afterwards.
func (b *Builder) Finalize() *Segment {
	termList := make([]string, 0, len(b.terms))
	for t := range b.terms {
		termList = append(termList, t)
	}
	sort.Strings(termList)

	s := &Segment{
		comp:      b.comp,
		positions: b.positions,
		bm25:      b.bm25,
		terms:     make(map[string]int32, len(termList)),
		termList:  termList,
		postings:  make([][]byte, len(termList)),
		docFreqs:  make([]int32, len(termList)),
		collFreqs: make([]int64, len(termList)),
		maxScores: make([]float32, len(termList)),
		docLens:   b.docLens,
		totalLen:  b.totalLen,
		docs:      b.docs,
	}
	for id, t := range termList {
		acc := b.terms[t]
		acc.enc.finish()
		s.terms[t] = int32(id)
		s.postings[id] = acc.enc.buf
		s.docFreqs[id] = acc.enc.count
		s.collFreqs[id] = acc.collFreq
	}
	s.computeMaxScores()
	s.buildSkips()
	s.computeBlockMaxes()
	b.terms = nil
	b.memo = nil
	b.touched = nil
	b.docLens = nil
	b.docs = nil
	return s
}

// computeMaxScores walks every posting list once and records the exact
// maximum BM25 contribution of each term, the bound MaxScore pruning
// uses (quantized upward so the float32 never dips below the true max).
func (s *Segment) computeMaxScores() {
	n := int64(len(s.docLens))
	avg := s.AvgDocLen()
	for id := range s.termList {
		idf := IDF(n, int64(s.docFreqs[id]))
		it := s.PostingsByID(int32(id))
		var max float64
		for it.Next() {
			sc := s.bm25.Score(idf, it.Freq(), s.docLens[it.Doc()], avg)
			if sc > max {
				max = sc
			}
		}
		s.maxScores[id] = quantizeUp(max)
	}
}

// BuildFromCorpus is a convenience that generates the configured corpus and
// indexes all of it into a single segment.
func BuildFromCorpus(cfg corpus.Config, opts ...BuilderOption) (*Segment, error) {
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	b := NewBuilder(opts...)
	gen.GenerateFunc(func(d corpus.Document) { b.AddCorpusDoc(d) })
	return b.Finalize(), nil
}
