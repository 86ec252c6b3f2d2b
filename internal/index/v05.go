package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Format v05 restructures the segment file into independently
// addressable sections so a remote reader can open a segment without
// streaming the whole file:
//
//	[header]   magic "WSBIDX05", compression, flags, BM25 params, counts
//	[docs]     document lengths and stored fields
//	[dict]     per-term dictionary entries: term, docFreq, collFreq,
//	           maxScore, posting-list byte length, block-max bounds,
//	           and the serialized skip table (doc, byte pos, used)
//	[postings] the encoded posting lists, concatenated in term order
//	[footer]   fixed 40 bytes: docOff, dictOff, postOff, fileSize, magic
//
// The footer is the entry point for range readers: fetch the last
// SegmentFooterLen bytes, then the [0, postOff) prefix — everything a
// searcher needs except posting bytes — and demand-load runs of
// posting blocks with range reads. Serialized skip tables are what make
// that possible: their byte positions are exactly the packed/varint
// block boundaries, so block k of a term's list is the range between
// consecutive checkpoints and can be fetched without decoding anything
// before it. v02–v04 files still load through ReadSegment; only v05
// supports lazy opening.

// SegmentFooterLen is the size of the fixed v05 trailer.
const SegmentFooterLen = 40

var segmentMagicV05 = [8]byte{'W', 'S', 'B', 'I', 'D', 'X', '0', '5'}

// SegmentLayout is the section map carried by a v05 footer. Offsets are
// absolute file offsets; FileSize includes the footer itself.
type SegmentLayout struct {
	DocOff   int64
	DictOff  int64
	PostOff  int64
	FileSize int64
}

// ParseSegmentFooter decodes the trailing SegmentFooterLen bytes of a
// v05 segment file.
func ParseSegmentFooter(tail []byte) (SegmentLayout, error) {
	var l SegmentLayout
	if len(tail) != SegmentFooterLen {
		return l, fmt.Errorf("index: segment footer is %d bytes, want %d", len(tail), SegmentFooterLen)
	}
	if [8]byte(tail[32:]) != segmentMagicV05 {
		return l, fmt.Errorf("%w: bad footer magic %q", ErrBadFormat, tail[32:])
	}
	l.DocOff = int64(binary.LittleEndian.Uint64(tail[0:]))
	l.DictOff = int64(binary.LittleEndian.Uint64(tail[8:]))
	l.PostOff = int64(binary.LittleEndian.Uint64(tail[16:]))
	l.FileSize = int64(binary.LittleEndian.Uint64(tail[24:]))
	if l.DocOff <= 0 || l.DictOff < l.DocOff || l.PostOff < l.DictOff || l.FileSize < l.PostOff+SegmentFooterLen {
		return l, fmt.Errorf("%w: implausible footer offsets %+v", ErrBadFormat, l)
	}
	return l, nil
}

// writeToV05 serializes the segment in the sectioned v05 layout.
func (s *Segment) writeToV05(w io.Writer) (int64, error) {
	if s.lazy != nil {
		return 0, fmt.Errorf("index: cannot serialize a lazily-loaded segment")
	}
	cw := &countingWriter{w: bufio.NewWriter(w)}
	cw.write(segmentMagicV05[:])
	cw.u8(uint8(s.comp))
	flags := uint8(0)
	if s.positions {
		flags |= 1
	}
	cw.u8(flags)
	cw.f64(s.bm25.K1)
	cw.f64(s.bm25.B)
	cw.u32(uint32(len(s.docLens)))
	cw.u32(uint32(len(s.termList)))
	cw.u64(uint64(s.totalLen))

	docOff := cw.n
	for _, l := range s.docLens {
		cw.uvarint(uint64(l))
	}
	for _, d := range s.docs {
		cw.str(d.URL)
		cw.str(d.Title)
		cw.f32(d.Quality)
		cw.str(d.Snippet)
	}

	dictOff := cw.n
	for id, t := range s.termList {
		cw.str(t)
		cw.u32(uint32(s.docFreqs[id]))
		cw.u64(uint64(s.collFreqs[id]))
		cw.f32(s.maxScores[id])
		cw.uvarint(uint64(len(s.postings[id])))
		var blocks []float32
		if s.blockMaxes != nil {
			blocks = s.blockMaxes[id]
		}
		cw.uvarint(uint64(len(blocks)))
		for _, m := range blocks {
			cw.f32(m)
		}
		var table []skipEntry
		if s.skips != nil {
			table = s.skips[id]
		}
		cw.uvarint(uint64(len(table)))
		for _, e := range table {
			cw.uvarint(uint64(e.doc))
			cw.uvarint(uint64(e.pos))
			cw.uvarint(uint64(e.used))
		}
	}

	postOff := cw.n
	for id := range s.termList {
		cw.write(s.postings[id])
	}

	fileSize := cw.n + SegmentFooterLen
	cw.u64(uint64(docOff))
	cw.u64(uint64(dictOff))
	cw.u64(uint64(postOff))
	cw.u64(uint64(fileSize))
	cw.write(segmentMagicV05[:])
	if cw.err == nil {
		cw.err = cw.w.Flush()
	}
	return cw.n, cw.err
}

// segMeta is the decoded non-postings portion of a v05 segment: the
// segment itself (postings empty), the serialized skip tables, and the
// per-term posting-list byte lengths.
type segMeta struct {
	seg   *Segment
	skips [][]skipEntry
	plens []int64
}

// readSegMeta decodes a v05 header + doc section + dict section from rd.
func readSegMeta(rd *reader) (*segMeta, error) {
	s := &Segment{}
	s.comp = Compression(rd.u8())
	switch s.comp {
	case CompressionVarint, CompressionRaw, CompressionPacked:
	default:
		return nil, fmt.Errorf("index: unknown compression %d", s.comp)
	}
	flags := rd.u8()
	if flags&^uint8(1) != 0 {
		return nil, fmt.Errorf("index: unknown flags %#x", flags)
	}
	s.positions = flags&1 != 0
	if s.positions && s.comp != CompressionVarint {
		return nil, fmt.Errorf("index: positional segment with %v compression", s.comp)
	}
	s.bm25.K1 = rd.f64()
	s.bm25.B = rd.f64()
	numDocs := rd.u32()
	numTerms := rd.u32()
	s.totalLen = int64(rd.u64())
	if rd.err != nil {
		return nil, rd.err
	}
	const maxCount = 1 << 28
	if numDocs > maxCount || numTerms > maxCount {
		return nil, fmt.Errorf("index: implausible counts docs=%d terms=%d", numDocs, numTerms)
	}
	const maxPrealloc = 1 << 16
	prealloc := min(int(numDocs), maxPrealloc)
	s.docLens = make([]int32, 0, prealloc)
	for i := uint32(0); i < numDocs; i++ {
		s.docLens = append(s.docLens, int32(rd.uvarint()))
		if rd.err != nil {
			return nil, fmt.Errorf("index: doc lengths: %w", rd.err)
		}
	}
	s.docs = make([]StoredDoc, 0, prealloc)
	for i := uint32(0); i < numDocs; i++ {
		var d StoredDoc
		d.URL = rd.str()
		d.Title = rd.str()
		d.Quality = rd.f32()
		d.Snippet = rd.str()
		if rd.err != nil {
			return nil, fmt.Errorf("index: stored doc %d: %w", i, rd.err)
		}
		s.docs = append(s.docs, d)
	}

	prealloc = min(int(numTerms), maxPrealloc)
	s.terms = make(map[string]int32, prealloc)
	s.termList = make([]string, 0, prealloc)
	s.docFreqs = make([]int32, 0, prealloc)
	s.collFreqs = make([]int64, 0, prealloc)
	s.maxScores = make([]float32, 0, prealloc)
	if s.comp != CompressionRaw {
		s.blockMaxes = make([][]float32, 0, prealloc)
	}
	m := &segMeta{seg: s}
	m.skips = make([][]skipEntry, 0, prealloc)
	m.plens = make([]int64, 0, prealloc)
	for id := uint32(0); id < numTerms; id++ {
		t := rd.str()
		df := int32(rd.u32())
		cf := int64(rd.u64())
		maxScore := rd.f32()
		plen := rd.uvarint()
		if rd.err != nil {
			return nil, fmt.Errorf("index: term %d dictionary entry: %w", id, rd.err)
		}
		if df < 0 || uint32(df) > numDocs {
			return nil, fmt.Errorf("index: term %q doc freq %d exceeds %d documents", t, df, numDocs)
		}
		if plen > maxStringLen*16 {
			return nil, fmt.Errorf("index: posting list length %d exceeds limit", plen)
		}
		if s.comp == CompressionRaw && plen != uint64(df)*8 {
			return nil, fmt.Errorf("index: term %q raw posting list is %d bytes, want %d", t, plen, df*8)
		}
		nBlocks := rd.uvarint()
		want := 0
		if s.comp != CompressionRaw {
			want = numBlocksFor(df)
		}
		if rd.err == nil && int(nBlocks) != want {
			return nil, fmt.Errorf("index: term %q has %d block maxima, want %d", t, nBlocks, want)
		}
		var blocks []float32
		for j := 0; j < want; j++ {
			blocks = append(blocks, rd.f32())
		}
		nSkips := rd.uvarint()
		wantSkips := 0
		if s.comp != CompressionRaw && df >= skipMinDocFreq {
			wantSkips = int(df / skipInterval)
		}
		if rd.err == nil && int(nSkips) != wantSkips {
			return nil, fmt.Errorf("index: term %q has %d skip entries, want %d", t, nSkips, wantSkips)
		}
		var table []skipEntry
		prevDoc, prevPos := int64(-1), int64(0)
		for j := 0; j < wantSkips; j++ {
			doc := rd.uvarint()
			pos := rd.uvarint()
			used := rd.uvarint()
			if rd.err != nil {
				break
			}
			// Checkpoints must advance through the list: docIDs strictly
			// increasing within range, byte positions non-decreasing and
			// bounded by the list length, used counts exactly one
			// skipInterval apart. A publisher bug or bit flip here would
			// otherwise send block-granular reads to garbage offsets.
			if int64(doc) <= prevDoc || doc >= uint64(numDocs) ||
				int64(pos) < prevPos || pos > plen ||
				used != uint64(j+1)*skipInterval {
				return nil, fmt.Errorf("index: term %q skip entry %d (doc=%d pos=%d used=%d) is inconsistent", t, j, doc, pos, used)
			}
			prevDoc, prevPos = int64(doc), int64(pos)
			table = append(table, skipEntry{doc: int32(doc), pos: int32(pos), used: int32(used)})
		}
		if rd.err != nil {
			return nil, fmt.Errorf("index: term %q skip table: %w", t, rd.err)
		}
		s.termList = append(s.termList, t)
		s.terms[t] = int32(id)
		s.docFreqs = append(s.docFreqs, df)
		s.collFreqs = append(s.collFreqs, cf)
		s.maxScores = append(s.maxScores, maxScore)
		if s.comp != CompressionRaw {
			s.blockMaxes = append(s.blockMaxes, blocks)
		}
		m.skips = append(m.skips, table)
		m.plens = append(m.plens, int64(plen))
	}
	return m, nil
}

// readSegmentV05 finishes a whole-stream v05 load after the magic has
// been consumed: sections in order, then the footer, then the same
// validation pass every other format gets. The skip tables are rebuilt
// from the decoded postings and must match the serialized ones — a
// cheap end-to-end check that the block boundaries remote readers will
// trust are the ones the data actually has.
func readSegmentV05(rd *reader) (*Segment, error) {
	m, err := readSegMeta(rd)
	if err != nil {
		return nil, err
	}
	s := m.seg
	s.postings = make([][]byte, 0, len(m.plens))
	for id, plen := range m.plens {
		buf := make([]byte, plen)
		rd.read(buf)
		if rd.err != nil {
			return nil, fmt.Errorf("index: term %q postings: %w", s.termList[id], rd.err)
		}
		s.postings = append(s.postings, buf)
	}
	var tail [SegmentFooterLen]byte
	rd.read(tail[:])
	if rd.err != nil {
		return nil, fmt.Errorf("index: segment footer: %w", rd.err)
	}
	if _, err := ParseSegmentFooter(tail[:]); err != nil {
		return nil, err
	}
	if err := s.validatePostings(); err != nil {
		return nil, err
	}
	s.buildSkips()
	for id := range s.termList {
		var derived []skipEntry
		if s.skips != nil {
			derived = s.skips[id]
		}
		if len(derived) != len(m.skips[id]) {
			return nil, fmt.Errorf("index: term %q serialized skip table has %d entries, derived %d",
				s.termList[id], len(m.skips[id]), len(derived))
		}
		for j, e := range derived {
			if m.skips[id][j] != e {
				return nil, fmt.Errorf("index: term %q skip entry %d mismatch: serialized %+v, derived %+v",
					s.termList[id], j, m.skips[id][j], e)
			}
		}
	}
	return s, nil
}

// MaxFetchRun is the most posting blocks one lazy fetch asks for. A
// cache miss reads the run of uncached blocks that starts at the missing
// one in a single ranged request, so a cold sequential scan of an
// N-block list costs ⌈N/MaxFetchRun⌉ round trips, not N.
const MaxFetchRun = 8

// RunFetcher supplies encoded posting bytes to a lazily opened segment,
// a run of consecutive blocks at a time. bounds holds the run's block
// boundaries within the segment's postings section (the caller adds the
// file-level postings offset): block first+i of term's list spans
// [bounds[i], bounds[i+1]), and len(bounds)-1 blocks, at most
// MaxFetchRun, are asked for. The fetcher returns the bytes of the first
// k ≥ 1 of them — exactly bounds[k]-bounds[0] bytes, so it may stop
// short of the run, for example at a block it already holds — or an
// error. bounds is valid only for the duration of the call.
type RunFetcher func(term int32, first int, bounds []int64) ([]byte, error)

// lazyPostings is the demand-load state of a remotely opened segment.
type lazyPostings struct {
	fetch RunFetcher
	// offs[i] is term i's posting-list start within the postings
	// section; offs[len] is the section's total length.
	offs []int64
}

// OpenLazySegment opens a v05 segment from its metadata prefix — the
// file bytes [0, layout.PostOff), i.e. header, doc and dict sections —
// without its postings. Posting bytes are pulled through fetch on
// demand in runs of skip-aligned blocks: a short (or raw-encoded) list
// is a run of one block, a long varint/packed list is read up to
// MaxFetchRun blocks at a time from wherever its cursor lands. That is
// what makes a searcher over such a segment serve from a byte-budgeted
// block cache instead of resident posting data. The returned segment
// supports everything an in-memory segment does except re-serialization.
func OpenLazySegment(meta []byte, fetch RunFetcher) (*Segment, error) {
	if fetch == nil {
		return nil, fmt.Errorf("index: OpenLazySegment requires a fetcher")
	}
	rd := &reader{r: bufio.NewReader(newByteReader(meta))}
	var magic [8]byte
	rd.read(magic[:])
	if rd.err != nil {
		return nil, rd.err
	}
	if magic != segmentMagicV05 {
		return nil, fmt.Errorf("%w: lazy open requires format v05", ErrBadFormat)
	}
	m, err := readSegMeta(rd)
	if err != nil {
		return nil, err
	}
	s := m.seg
	s.skips = m.skips
	lz := &lazyPostings{fetch: fetch, offs: make([]int64, len(m.plens)+1)}
	for i, plen := range m.plens {
		lz.offs[i+1] = lz.offs[i] + plen
	}
	s.lazy = lz
	return s, nil
}

// lazyIterator builds an iterator over a demand-loaded posting list.
// Lists without a skip table (short lists and raw encoding) are a
// single block fetched up front; longer lists attach a window fetcher
// that maps a byte position to its skip-aligned block and pulls the run
// starting there, so pruned evaluation never fetches a run that starts
// in a block it skips. A window spanning several blocks needs nothing
// special from the decoders: no posting crosses a block boundary.
func (s *Segment) lazyIterator(id int32, withSkips bool) PostingsIterator {
	df := s.docFreqs[id]
	it := PostingsIterator{comp: s.comp, count: df, initCount: df, doc: -1}
	it.positional = s.positions
	table := s.skips[id]
	if withSkips {
		it.skips = table
		s.applyBlockMax(id, &it)
	}
	// The run bounds are built in per-iterator scratch: like the rest of
	// its state, an iterator is used by one goroutine at a time.
	var scratch [MaxFetchRun + 1]int64
	if len(table) == 0 {
		// A failed fetch leaves buf nil, which decodes as a truncated
		// list: exhausted, never wrong bytes.
		it.buf, _, _ = s.fetchRun(id, 0, scratch[:0])
		it.win = it.buf
		return it
	}
	plen := s.lazy.offs[id+1] - s.lazy.offs[id]
	it.fetch = func(pos int) ([]byte, int) {
		if int64(pos) >= plen {
			return nil, pos
		}
		data, lo, k := s.fetchRun(id, blockForPos(table, pos), scratch[:0])
		if k == 0 {
			return nil, pos
		}
		return data, int(lo)
	}
	return it
}

// fetchRun reads the run of up to MaxFetchRun blocks of term id's list
// that starts at block first. It returns the bytes, their offset within
// the list and the number of whole blocks they cover; a failed fetch,
// or one that does not end on a block boundary, covers 0 blocks. The
// run's bounds are built in scratch.
func (s *Segment) fetchRun(id int32, first int, scratch []int64) ([]byte, int64, int) {
	start, end := s.lazy.offs[id], s.lazy.offs[id+1]
	table := s.skips[id]
	bounds := scratch
	// Block b starts at table[b-1].pos (block 0 at 0); the list's end
	// closes its last block, block len(table).
	for b := first; b <= min(first+MaxFetchRun, len(table)+1); b++ {
		off := end
		if b == 0 {
			off = start
		} else if b <= len(table) {
			off = start + int64(table[b-1].pos)
		}
		bounds = append(bounds, off)
	}
	data, err := s.lazy.fetch(id, first, bounds)
	if err != nil {
		return nil, 0, 0
	}
	for k := 1; k < len(bounds); k++ {
		if int64(len(data)) == bounds[k]-bounds[0] {
			return data, bounds[0] - start, k
		}
	}
	return nil, 0, 0
}

// blockForPos returns the index of the block whose byte range contains
// pos: block b spans [table[b-1].pos, table[b].pos), with block 0
// starting at 0 and the final block running to the end of the list.
func blockForPos(table []skipEntry, pos int) int {
	lo, hi := 0, len(table)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(table[mid].pos) <= pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lazyListBytes materializes one full posting list of a lazy segment
// (the positional-iterator path, which needs random access to the whole
// list), run by run.
func (s *Segment) lazyListBytes(id int32) []byte {
	var scratch [MaxFetchRun + 1]int64
	out := make([]byte, 0, s.lazy.offs[id+1]-s.lazy.offs[id])
	for b := 0; b <= len(s.skips[id]); {
		data, _, k := s.fetchRun(id, b, scratch[:0])
		if k == 0 {
			return nil
		}
		out = append(out, data...)
		b += k
	}
	return out
}

// IsLazy reports whether the segment demand-loads posting blocks
// through a RunFetcher instead of holding them resident.
func (s *Segment) IsLazy() bool { return s.lazy != nil }

// byteReader is a minimal io.Reader over a byte slice (bytes.Reader
// without the import).
type byteReader struct {
	b []byte
}

func newByteReader(b []byte) *byteReader { return &byteReader{b} }

func (r *byteReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}
