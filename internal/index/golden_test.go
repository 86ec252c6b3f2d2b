package index

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"

	"websearchbench/internal/corpus"
	"websearchbench/internal/textproc"
)

// goldenMixedTitle and goldenMixedBody exercise every analyzer branch in
// one document: mixed case, stopwords (also upper-case ones), digits,
// non-ASCII letters the stemmer passes through, and raw tokens that
// repeat or that fold to the same term ("Running", "running", "runs").
const (
	goldenMixedTitle = "The Running RUNNERS of Zürich 2024"
	goldenMixedBody  = "Café CAFÉ café the THE and And running Running runs run 42 42 x9 X9 " +
		"ΑΒΓ αβγ straße STRASSE naïve connections connected CONNECTING a an " +
		"is IS generalizations 7 007 e.g ok OK ok relational RELATIONAL"
)

// goldenDigests are the SHA-256 digests of WriteTo for segments built
// from a fixed 2,000-document corpus with the mixed document first and
// last, recorded from a builder that appended each document's postings
// in sorted term order. Any change to how the builder accumulates
// postings must reproduce them byte for byte.
var goldenDigests = map[string]string{
	"packed/default":     "a3ea5c74c9181888cf92661889f6f054465c266139dafde0d6fbb7be7fa94066",
	"packed/keepstop":    "41a55741184cb18408ab873f336f99ccd572abcafaa065971a752c1cad326f1d",
	"packed/nostem":      "a2e342217f78c7cf8c50f80b565d2de613652b9e79590e14caf12c80a02e0ef1",
	"varint/default":     "2fc4223fccd1e9e2231f949a51a1e291e69abf60b6dd4304deb04032c027178b",
	"varint/keepstop":    "09ea71decd98b5aee212903702d25068eb1fc4fbac385807fa48ae945db22a55",
	"varint/nostem":      "eac6dadb186285033672e8094fac3b71a84d8e758de62a65599817284d141b8d",
	"positions/default":  "058ff4971134b1e0d4072dd779cb89ca88356d1733a06fbf4b43300642930841",
	"positions/keepstop": "1998ffacdda7678782e71213d0e5383b5d85513975b84304776b032feb0e5d53",
	"positions/nostem":   "8289ba999340eed58357a6ec13bd38420a2fcc820b05a59d85eceb39f7a7d527",
	"mixed-entry":        "ebdb6fcc8989e2a8c528f3f52af900c3b95cce71510d8090a495c44d0701354e",
}

// goldenAnalyzers and goldenEncodings span the configurations the
// digests cover.
var goldenAnalyzers = []struct {
	name string
	a    textproc.Analyzer
}{
	{"default", textproc.Analyzer{}},
	{"keepstop", textproc.Analyzer{KeepStopwords: true}},
	{"nostem", textproc.Analyzer{DisableStemming: true}},
}

var goldenEncodings = []struct {
	name string
	opt  BuilderOption
}{
	{"packed", WithCompression(CompressionPacked)},
	{"varint", WithCompression(CompressionVarint)},
	{"positions", WithPositions()},
}

func goldenCorpus(t *testing.T) []corpus.Document {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 2000
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gen.Generate()
}

func segmentDigest(t *testing.T, s *Segment) string {
	t.Helper()
	h := sha256.New()
	if _, err := s.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenSegmentDigests pins the serialized bytes of built segments.
func TestGoldenSegmentDigests(t *testing.T) {
	docs := goldenCorpus(t)
	check := func(name string, s *Segment) {
		t.Helper()
		got := segmentDigest(t, s)
		if want := goldenDigests[name]; got != want {
			t.Errorf("%s: segment digest %s, want %s", name, got, want)
		}
	}
	for _, enc := range goldenEncodings {
		for _, an := range goldenAnalyzers {
			a := an.a
			b := NewBuilder(WithAnalyzer(&a), enc.opt)
			b.AddDocument(goldenMixedTitle, goldenMixedBody, "http://golden/first", 0.25)
			for _, d := range docs {
				b.AddCorpusDoc(d)
			}
			b.AddDocument(goldenMixedTitle, goldenMixedBody, "http://golden/last", 0.75)
			check(enc.name+"/"+an.name, b.Finalize())
		}
	}

	// A builder fed through both entry points, as a live flush would mix
	// them: every third document arrives pre-analyzed (its body terms
	// only, so the two paths give distinguishable postings).
	a := textproc.NewAnalyzer()
	b := NewBuilder(WithAnalyzer(a))
	b.AddDocument(goldenMixedTitle, goldenMixedBody, "http://golden/first", 0.25)
	for i, d := range docs {
		if i%3 != 0 {
			b.AddCorpusDoc(d)
			continue
		}
		terms, freqs := preanalyze(a, d.Body)
		b.AddPreanalyzed(StoredDoc{URL: d.URL, Title: d.Title, Quality: float32(d.Quality)}, terms, freqs)
	}
	terms, freqs := preanalyze(a, goldenMixedBody)
	b.AddPreanalyzed(StoredDoc{URL: "http://golden/last"}, terms, freqs)
	check("mixed-entry", b.Finalize())
}

// preanalyze returns text's sorted distinct terms and their frequencies,
// the shape AddPreanalyzed takes.
func preanalyze(a *textproc.Analyzer, text string) ([]string, []int32) {
	counts := map[string]int32{}
	for _, term := range a.Analyze(text) {
		counts[term]++
	}
	terms := make([]string, 0, len(counts))
	for term := range counts {
		terms = append(terms, term)
	}
	slices.Sort(terms)
	freqs := make([]int32, len(terms))
	for i, term := range terms {
		freqs[i] = counts[term]
	}
	return terms, freqs
}
