package index

import (
	"testing"

	"websearchbench/internal/corpus"
)

// BenchmarkBuilderAddDoc locks in the per-document cost and allocation
// count of the analyze-and-accumulate hot path, the inner loop every
// parallel-pipeline worker runs. Each distinct raw token is analyzed once
// per builder and remembered; a document's terms are tallied on their
// accumulators and the touched-term list and the analyzer's pooled
// stemmer buffer are reused across documents. The builder is replaced
// every 512 documents, and each new builder starts with an empty token
// memo, so this benchmark pays the first-sight cost (analysis and cloned
// memo and dictionary keys) far more often than a full segment build
// does; BenchmarkBuildSegment shows the steady-state gain.
func BenchmarkBuilderAddDoc(b *testing.B) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 512
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	docs := gen.Generate()
	var total int64
	for _, d := range docs {
		total += int64(len(d.Title) + len(d.Body))
	}
	b.SetBytes(total / int64(len(docs)))
	b.ReportAllocs()
	b.ResetTimer()
	bl := NewBuilder()
	for i := 0; i < b.N; i++ {
		bl.AddCorpusDoc(docs[i%len(docs)])
		if bl.NumDocs() >= len(docs) {
			// Cap segment growth so long -benchtime runs measure steady
			// per-document cost, not an ever-larger accumulator.
			b.StopTimer()
			bl = NewBuilder()
			b.StartTimer()
		}
	}
}

// BenchmarkBuildSegment measures one whole segment build: 10,000 corpus
// documents, one clusterbench partition's worth, including Finalize. It
// is the cost a new or restarted shard waits for, and the number the
// token memo is meant to move, since the memo's hit rate grows with the
// number of documents one builder sees.
func BenchmarkBuildSegment(b *testing.B) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 10000
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	docs := gen.Generate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := NewBuilder()
		for _, d := range docs {
			bl.AddCorpusDoc(d)
		}
		bl.Finalize()
	}
}
