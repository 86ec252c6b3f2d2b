package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"websearchbench/internal/corpus"
)

// buildSkippy builds a corpus segment big enough that common terms
// cross the skip-list threshold, so lazy reads are genuinely
// block-granular.
func buildSkippy(t testing.TB, opts ...BuilderOption) *Segment {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 1200
	cfg.VocabSize = 2000
	cfg.MeanBodyTerms = 60
	s, err := BuildFromCorpus(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSegmentFooterLayout(t *testing.T) {
	s := buildSkippy(t)
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	layout, err := ParseSegmentFooter(data[len(data)-SegmentFooterLen:])
	if err != nil {
		t.Fatalf("ParseSegmentFooter: %v", err)
	}
	if layout.FileSize != n || layout.FileSize != int64(len(data)) {
		t.Fatalf("FileSize = %d, wrote %d", layout.FileSize, n)
	}
	if !(0 < layout.DocOff && layout.DocOff <= layout.DictOff &&
		layout.DictOff <= layout.PostOff && layout.PostOff <= layout.FileSize) {
		t.Fatalf("implausible section offsets: %+v", layout)
	}
}

func TestParseSegmentFooterRejectsGarbage(t *testing.T) {
	if _, err := ParseSegmentFooter(make([]byte, SegmentFooterLen-1)); err == nil {
		t.Error("short tail accepted")
	}
	if _, err := ParseSegmentFooter(make([]byte, SegmentFooterLen)); err == nil {
		t.Error("zeroed tail accepted")
	}
	s := buildTiny(t)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tail := append([]byte(nil), buf.Bytes()[buf.Len()-SegmentFooterLen:]...)
	tail[len(tail)-1] ^= 0xFF // corrupt the trailing magic
	if _, err := ParseSegmentFooter(tail); err == nil {
		t.Error("corrupted magic accepted")
	}
}

// TestLegacyFormatsStillLoad writes each still-supported prior format
// and round-trips it through ReadSegment.
func TestLegacyFormatsStillLoad(t *testing.T) {
	packed := buildSkippy(t)
	// v02/v03 predate packed compression; exercise them with a varint
	// segment.
	varint := buildTiny(t, WithCompression(CompressionVarint))
	writers := map[string]struct {
		seg   *Segment
		write func(*Segment, *bytes.Buffer) (int64, error)
	}{
		"v02": {varint, func(s *Segment, b *bytes.Buffer) (int64, error) { return s.WriteToLegacy(b) }},
		"v03": {varint, func(s *Segment, b *bytes.Buffer) (int64, error) { return s.WriteToV03(b) }},
		"v04": {packed, func(s *Segment, b *bytes.Buffer) (int64, error) { return s.WriteToV04(b) }},
	}
	for name, w := range writers {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := w.write(w.seg, &buf); err != nil {
				t.Fatalf("write: %v", err)
			}
			got, err := ReadSegment(&buf)
			if err != nil {
				t.Fatalf("ReadSegment: %v", err)
			}
			segmentsEquivalent(t, w.seg, got)
		})
	}
}

// lazyFromBytes opens a serialized v05 segment through the lazy path,
// with a fetcher that serves every requested run whole from the
// in-memory postings section. It returns the segment and a fetch counter.
func lazyFromBytes(t testing.TB, data []byte) (*Segment, *atomic.Int64) {
	t.Helper()
	var fetches atomic.Int64
	seg := openLazy(t, data, func(post []byte, term int32, first int, bounds []int64) ([]byte, error) {
		fetches.Add(1)
		return post[bounds[0]:bounds[len(bounds)-1]], nil
	})
	return seg, &fetches
}

// openLazy opens a serialized v05 segment through the lazy path. fetch
// sees the postings section next to each request; openLazy checks that
// every request is a well-formed run inside it.
func openLazy(t testing.TB, data []byte, fetch func(post []byte, term int32, first int, bounds []int64) ([]byte, error)) *Segment {
	t.Helper()
	layout, err := ParseSegmentFooter(data[len(data)-SegmentFooterLen:])
	if err != nil {
		t.Fatal(err)
	}
	post := data[layout.PostOff : layout.FileSize-SegmentFooterLen]
	seg, err := OpenLazySegment(data[:layout.PostOff], func(term int32, first int, bounds []int64) ([]byte, error) {
		if len(bounds) < 2 || len(bounds) > MaxFetchRun+1 || first < 0 || bounds[0] < 0 {
			return nil, fmt.Errorf("malformed run: term %d first %d bounds %v", term, first, bounds)
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] < bounds[i-1] || bounds[i] > int64(len(post)) {
				return nil, fmt.Errorf("run out of range: term %d first %d bounds %v", term, first, bounds)
			}
		}
		return fetch(post, term, first, bounds)
	})
	if err != nil {
		t.Fatalf("OpenLazySegment: %v", err)
	}
	return seg
}

func TestLazySegmentEquivalence(t *testing.T) {
	s := buildSkippy(t)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lazy, fetches := lazyFromBytes(t, buf.Bytes())
	if !lazy.IsLazy() {
		t.Fatal("segment not marked lazy")
	}
	segmentsEquivalent(t, s, lazy)
	if fetches.Load() == 0 {
		t.Fatal("equivalence walk issued no block fetches")
	}
	// Positions decode through the lazy whole-list path too.
	term := s.Terms()[0]
	wantIt, ok1 := s.PositionsOf(term)
	gotIt, ok2 := lazy.PositionsOf(term)
	if ok1 != ok2 {
		t.Fatalf("PositionsOf availability differs: %v vs %v", ok1, ok2)
	}
	if ok1 {
		for wantIt.Next() {
			if !gotIt.Next() {
				t.Fatal("lazy positions truncated")
			}
			if wantIt.Doc() != gotIt.Doc() {
				t.Fatal("lazy positions doc differs")
			}
		}
		if gotIt.Next() {
			t.Fatal("lazy positions has extra entries")
		}
	}
}

func TestLazySegmentTinyAndEmpty(t *testing.T) {
	for _, s := range []*Segment{buildTiny(t), NewBuilder().Finalize()} {
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		lazy, _ := lazyFromBytes(t, buf.Bytes())
		segmentsEquivalent(t, s, lazy)
	}
}

// iterStep is one observable outcome of an iterator operation.
type iterStep struct {
	ok        bool
	doc, freq int32
	blockMax  float64
}

// iterOp is Next (kind 0), SkipTo (1) or NextShallow followed by
// BlockMax (2), with its target.
type iterOp struct {
	kind   int
	target int32
}

// randomOps draws an operation sequence whose targets never decrease,
// as document-at-a-time evaluation guarantees.
func randomOps(rng *rand.Rand, n int, numDocs int) []iterOp {
	ops := make([]iterOp, n)
	target := int32(0)
	for i := range ops {
		target += int32(rng.Intn(max(numDocs/40, 1)))
		ops[i] = iterOp{kind: rng.Intn(3), target: target}
	}
	return ops
}

func runOps(it PostingsIterator, ops []iterOp) []iterStep {
	steps := make([]iterStep, len(ops))
	for i, op := range ops {
		var st iterStep
		switch op.kind {
		case 0:
			st.ok = it.Next()
		case 1:
			st.ok = it.SkipTo(op.target)
		case 2:
			st.ok = it.NextShallow(op.target)
			st.blockMax = it.BlockMax()
		}
		if op.kind != 2 && st.ok {
			st.doc = it.Doc()
			if !it.Exhausted() { // Freq is meaningless past the end
				st.freq = it.Freq()
			}
		}
		steps[i] = st
	}
	return steps
}

// TestLazyRandomRunsExact: whatever whole-block prefix of a run the
// fetcher delivers — a random number of blocks, or fewer when a run
// fails partway and only the blocks before the failure arrive — a lazy
// list yields exactly the resident list's docs and freqs under random
// Next/SkipTo/NextShallow sequences. A fetch that fails outright may cut
// a list short but never changes a posting.
func TestLazyRandomRunsExact(t *testing.T) {
	for i, tc := range []struct {
		name string
		opts []BuilderOption
	}{
		{"packed", []BuilderOption{WithCompression(CompressionPacked)}},
		{"varint", []BuilderOption{WithCompression(CompressionVarint)}},
		// Positional lists also take the phrase path, which reads whole
		// lists run by run.
		{"positional", []BuilderOption{WithCompression(CompressionVarint), WithPositions()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := buildSkippy(t, tc.opts...)
			var buf bytes.Buffer
			if _, err := s.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(i) + 1))
			var longest, partial int
			prefixes := openLazy(t, buf.Bytes(), func(post []byte, _ int32, _ int, bounds []int64) ([]byte, error) {
				asked := len(bounds) - 1
				longest = max(longest, asked)
				k := 1 + rng.Intn(asked)
				if k > 1 && rng.Intn(4) == 0 {
					k = 1 + rng.Intn(k-1) // the read failed at block k
					partial++
				}
				return post[bounds[0]:bounds[k]], nil
			})
			failing := openLazy(t, buf.Bytes(), func(post []byte, _ int32, _ int, bounds []int64) ([]byte, error) {
				if rng.Intn(8) == 0 {
					return nil, fmt.Errorf("injected fetch failure")
				}
				return post[bounds[0]:bounds[len(bounds)-1]], nil
			})

			for id, term := range s.Terms() {
				if s.docFreqs[id] < skipMinDocFreq && id%10 != 0 {
					continue // every long list, a sample of short ones
				}
				if want, ok := s.PositionsOf(term); ok {
					got, _ := prefixes.PositionsOf(term)
					for want.Next() {
						if !got.Next() || got.Doc() != want.Doc() || fmt.Sprint(got.Positions()) != fmt.Sprint(want.Positions()) {
							t.Fatalf("term %q: lazy positions differ from resident at doc %d", term, want.Doc())
						}
					}
					if got.Next() {
						t.Fatalf("term %q: lazy positions run past the resident list", term)
					}
				}
				for seq := 0; seq < 3; seq++ {
					ops := randomOps(rng, 120, s.NumDocs())
					want := runOps(s.PostingsByID(int32(id)), ops)
					got := runOps(prefixes.PostingsByID(int32(id)), ops)
					for i := range ops {
						if got[i] != want[i] {
							t.Fatalf("term %q seq %d op %d %+v: lazy %+v, resident %+v", term, seq, i, ops[i], got[i], want[i])
						}
					}
					got = runOps(failing.PostingsByID(int32(id)), ops)
					cut := false
					for i, op := range ops {
						// A list cut short reports !ok from Next, and ok at
						// exhaustedDoc from SkipTo.
						ended := !got[i].ok || got[i].doc == exhaustedDoc
						if op.kind != 2 && ended && want[i].ok && want[i].doc != exhaustedDoc {
							cut = true
						}
						if cut && op.kind != 2 {
							if !ended {
								t.Fatalf("term %q seq %d op %d: list resumed after a failed fetch", term, seq, i)
							}
							continue
						}
						if got[i] != want[i] {
							t.Fatalf("term %q seq %d op %d %+v after failures: lazy %+v, resident %+v", term, seq, i, op, got[i], want[i])
						}
					}
				}
			}
			if longest < MaxFetchRun || partial == 0 {
				t.Fatalf("longest run asked for = %d blocks, partial runs = %d: the lists are too short to exercise runs", longest, partial)
			}
		})
	}
}

// TestLazySegmentFetchFailure: a failing block fetch degrades that
// posting list to exhausted — queries lose recall on that term but
// never crash, which is the contract query evaluation needs (there is
// no error path out of an iterator).
func TestLazySegmentFetchFailure(t *testing.T) {
	s := buildSkippy(t)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lazy := openLazy(t, buf.Bytes(), func([]byte, int32, int, []int64) ([]byte, error) {
		return nil, fmt.Errorf("store unreachable")
	})
	for _, term := range s.Terms()[:min(20, len(s.Terms()))] {
		it, ok := lazy.Postings(term)
		if !ok {
			t.Fatalf("term %q missing from lazy dictionary", term)
		}
		for it.Next() {
			// Fully failed fetches should yield no postings at all, but any
			// that do appear must at least not panic; just drain.
		}
	}
}

func TestLazySegmentCannotSerialize(t *testing.T) {
	s := buildTiny(t)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lazy, _ := lazyFromBytes(t, buf.Bytes())
	if _, err := lazy.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteTo on a lazy segment should fail")
	}
	if _, err := lazy.WriteToV04(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteToV04 on a lazy segment should fail")
	}
}

// TestV05CorruptSkipTableRejected flips a byte inside the dictionary
// section and expects the whole-stream reader to reject the segment
// (either the envelope of derived-vs-serialized skip comparison or a
// decode error) rather than serve wrong postings.
func TestV05CorruptSkipTableRejected(t *testing.T) {
	s := buildSkippy(t)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	layout, err := ParseSegmentFooter(data[len(data)-SegmentFooterLen:])
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a handful of bytes spread across the dictionary section.
	for i := 0; i < 8; i++ {
		cp := append([]byte(nil), data...)
		pos := layout.DictOff + (layout.PostOff-layout.DictOff)*int64(i)/8
		cp[pos] ^= 0xA5
		if _, err := ReadSegment(bytes.NewReader(cp)); err == nil {
			// A flipped byte can land in a term string and decode cleanly;
			// that is not a correctness failure. Only require that decoding
			// never panics (reaching here at all is the assertion).
			t.Logf("corruption at %d decoded cleanly (landed in non-structural bytes)", pos)
		}
	}
}
