package textproc

import (
	"reflect"
	"testing"
)

func TestAnalyzerDefault(t *testing.T) {
	a := NewAnalyzer()
	got := a.Analyze("The quick brown foxes are jumping over the lazy dogs!")
	// "the"/"are"/"over"? "over" is not a stopword in the standard list.
	want := []string{"quick", "brown", "fox", "jump", "over", "lazi", "dog"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Analyze = %v, want %v", got, want)
	}
}

func TestAnalyzerKeepStopwords(t *testing.T) {
	a := &Analyzer{KeepStopwords: true, DisableStemming: true}
	got := a.Analyze("The cat and the hat")
	want := []string{"the", "cat", "and", "the", "hat"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Analyze = %v, want %v", got, want)
	}
}

func TestAnalyzerNoStemming(t *testing.T) {
	a := &Analyzer{DisableStemming: true}
	got := a.Analyze("running searches")
	want := []string{"running", "searches"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Analyze = %v, want %v", got, want)
	}
}

func TestAnalyzerEmpty(t *testing.T) {
	a := NewAnalyzer()
	if got := a.Analyze(""); got != nil {
		t.Errorf("Analyze(\"\") = %v, want nil", got)
	}
	if got := a.Analyze("the of and"); got != nil {
		t.Errorf("Analyze(stopwords only) = %v, want nil", got)
	}
}

func TestAnalyzeQueryMatchesIndexing(t *testing.T) {
	a := NewAnalyzer()
	doc := a.Analyze("Distributed web search engines partition their indexes.")
	q := a.AnalyzeQuery("partitioned INDEX")
	// Every query term should appear among the document terms.
	set := make(map[string]bool)
	for _, term := range doc {
		set[term] = true
	}
	for _, term := range q {
		if !set[term] {
			t.Errorf("query term %q does not match any indexed term %v", term, doc)
		}
	}
}

func TestAnalyzeFuncMatchesAnalyze(t *testing.T) {
	a := NewAnalyzer()
	text := "Characterization and Analysis of a Web Search Benchmark"
	want := a.Analyze(text)
	var got []string
	a.AnalyzeFunc(text, func(term string) { got = append(got, term) })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AnalyzeFunc = %v, want %v", got, want)
	}
}

// FuzzAnalyzeTerm checks that Analyze is exactly the non-empty Term of
// each token of Tokenize, for every analyzer configuration: the index
// builder caches Term per distinct token instead of calling Analyze, so
// the two paths must never drift.
func FuzzAnalyzeTerm(f *testing.F) {
	for _, s := range []string{
		"",
		"The quick brown foxes are jumping over the lazy dogs!",
		"Café CAFÉ the THE running Running runs 42 x9 ΑΒΓ straße naïve",
		"a an is IS generalizations connected 007 e.g.",
	} {
		f.Add(s)
	}
	analyzers := []*Analyzer{
		{},
		{KeepStopwords: true},
		{DisableStemming: true},
		{KeepStopwords: true, DisableStemming: true},
	}
	f.Fuzz(func(t *testing.T, text string) {
		for _, a := range analyzers {
			var want []string
			for _, tok := range Tokenize(text) {
				if term := a.Term(tok); term != "" {
					want = append(want, term)
				}
			}
			if got := a.Analyze(text); !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v: Analyze(%q) = %q, Term over Tokenize = %q", *a, text, got, want)
			}
		}
	})
}

func BenchmarkAnalyze(b *testing.B) {
	a := NewAnalyzer()
	text := "Web search runs on thousands of servers which perform search " +
		"on an index of billions of web pages with strict tail latency targets."
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.AnalyzeFunc(text, func(string) {})
	}
}
