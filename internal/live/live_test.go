package live

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
	"unsafe"

	"websearchbench/internal/search"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// hitKeys extracts the result keys in rank order.
func hitKeys(hits []Hit) []string {
	keys := make([]string, len(hits))
	for i, h := range hits {
		keys[i] = h.Key
	}
	return keys
}

func keySet(hits []Hit) map[string]bool {
	s := make(map[string]bool, len(hits))
	for _, h := range hits {
		s[h.Key] = true
	}
	return s
}

func TestLiveAddSearchDeleteUpdate(t *testing.T) {
	li := NewIndex(Config{})
	defer li.Close()

	li.Add("a", "tail latency", "measuring tail latency in search clusters", 0.5)
	li.Add("b", "throughput", "cluster throughput under synthetic load", 0.5)
	li.Add("c", "latency", "request latency distributions", 0.5)

	hits := li.Search("latency", search.ModeOr, 10)
	got := keySet(hits)
	if !got["a"] || !got["c"] || got["b"] {
		t.Fatalf("latency query returned %v", hitKeys(hits))
	}

	if ok, _ := li.Delete("c"); !ok {
		t.Fatal("Delete(c) = false for an existing key")
	}
	if ok, _ := li.Delete("c"); ok {
		t.Fatal("Delete(c) = true for a deleted key")
	}
	if got := keySet(li.Search("latency", search.ModeOr, 10)); got["c"] {
		t.Fatal("deleted document still matches")
	}

	// Update supersedes: "b" stops matching throughput, starts matching
	// caching.
	li.Update("b", "caching", "result cache hit rates", 0.5)
	if got := keySet(li.Search("throughput", search.ModeOr, 10)); got["b"] {
		t.Fatal("superseded version of b still matches its old terms")
	}
	if got := keySet(li.Search("caching", search.ModeOr, 10)); !got["b"] {
		t.Fatal("updated b does not match its new terms")
	}

	st := li.Stats()
	if st.LiveDocs != 2 {
		t.Fatalf("LiveDocs = %d, want 2", st.LiveDocs)
	}
}

// TestLiveFlushVisibility drives enough writes through a tiny memtable to
// force flushes and checks that every surviving key stays findable and
// every deleted key stays hidden, across the memtable/segment boundary.
func TestLiveFlushVisibility(t *testing.T) {
	li := NewIndex(Config{MemtableMaxDocs: 16, MaxSegments: 4})
	defer li.Close()

	alive := make(map[string]bool)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("doc%03d", i)
		li.Add(key, "shared corpus", fmt.Sprintf("shared body text plus unique token%03d", i), 0)
		alive[key] = true
		if i%3 == 2 {
			victim := fmt.Sprintf("doc%03d", rng.Intn(i+1))
			if ok, _ := li.Delete(victim); ok != alive[victim] {
				t.Fatalf("Delete(%s) disagreed with the model", victim)
			}
			delete(alive, victim)
		}
	}
	// Flushes are asynchronous: frozen memtables stay searchable while the
	// background flusher builds their segments, so the visibility checks
	// below hold throughout; wait only for the counter itself.
	waitFor(t, func() bool { return li.Stats().Flushes > 0 }, 5*time.Second)

	got := keySet(li.Search("shared", search.ModeOr, 1000))
	if len(got) != len(alive) {
		t.Fatalf("search found %d docs, model has %d", len(got), len(alive))
	}
	for key := range alive {
		if !got[key] {
			t.Fatalf("live key %s missing from results", key)
		}
	}

	// Unique-token probes cross the same boundary one document at a time.
	for i := 0; i < 300; i += 37 {
		key := fmt.Sprintf("doc%03d", i)
		hits := li.Search(fmt.Sprintf("token%03d", i), search.ModeOr, 10)
		if alive[key] && (len(hits) != 1 || hits[0].Key != key) {
			t.Fatalf("unique probe for live %s returned %v", key, hitKeys(hits))
		}
		if !alive[key] && len(hits) != 0 {
			t.Fatalf("unique probe for deleted %s returned %v", key, hitKeys(hits))
		}
	}
}

// TestLiveSegmentDoesNotPinText checks that a flushed segment holds
// copies of the document's snippet and terms, not substrings of the
// ingested body, so serving it does not keep the body alive.
func TestLiveSegmentDoesNotPinText(t *testing.T) {
	li := NewIndex(Config{})
	defer li.Close()
	var sb strings.Builder
	for i := 0; sb.Len() < 64<<10; i++ {
		fmt.Fprintf(&sb, "w%d alpha%d ", i, i%97)
	}
	body := sb.String()
	if err := li.Add("k", "title", body, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := li.Flush(); err != nil {
		t.Fatal(err)
	}
	seg := li.Segment()
	if seg == nil || seg.NumTerms() == 0 {
		t.Fatal("no flushed segment")
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(body)))
	aliases := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return s != "" && p < lo+uintptr(len(body)) && lo < p+uintptr(len(s))
	}
	if d := seg.Doc(0); aliases(d.Snippet) {
		t.Errorf("stored snippet aliases the body")
	}
	for _, term := range seg.Terms() {
		if aliases(term) {
			t.Fatalf("dictionary term %q aliases the body", term)
		}
	}
}

// TestLiveSnapshotPointInTime pins a snapshot, keeps mutating (through
// flushes and forced merges), and checks the snapshot still answers with
// exactly the documents that were visible at acquire time — the frozen
// copy being the result set captured the moment the snapshot was taken.
func TestLiveSnapshotPointInTime(t *testing.T) {
	li := NewIndex(Config{MemtableMaxDocs: 32, MaxSegments: 2})
	defer li.Close()

	for i := 0; i < 100; i++ {
		li.Add(fmt.Sprintf("old%03d", i), "anchor", fmt.Sprintf("anchor body %d", i), 0)
	}
	q := search.Query{Terms: []string{"anchor"}, Mode: search.ModeOr}

	snap := li.Acquire()
	defer snap.Release()
	frozen := snap.Search(q, 1000)

	// Heavy churn after the acquire: deletes of old docs, new docs with
	// the same term, updates, flushes, and merges.
	for i := 0; i < 100; i += 2 {
		li.Delete(fmt.Sprintf("old%03d", i))
	}
	for i := 0; i < 200; i++ {
		li.Add(fmt.Sprintf("new%03d", i), "anchor", fmt.Sprintf("anchor body new %d", i), 0)
	}
	li.Flush()
	waitFor(t, func() bool { return li.Stats().Merges >= 1 }, 5*time.Second)

	again := snap.Search(q, 1000)
	if len(again) != len(frozen) {
		t.Fatalf("snapshot drifted: %d hits vs %d at acquire", len(again), len(frozen))
	}
	for i := range frozen {
		if frozen[i].Key != again[i].Key || frozen[i].Score != again[i].Score {
			t.Fatalf("snapshot result %d drifted: %s/%g vs %s/%g",
				i, frozen[i].Key, frozen[i].Score, again[i].Key, again[i].Score)
		}
	}
	for _, h := range again {
		if len(h.Key) >= 3 && h.Key[:3] == "new" {
			t.Fatalf("snapshot surfaced %s, added after acquire", h.Key)
		}
	}

	// A fresh snapshot sees the churned state.
	now := keySet(li.Search("anchor", search.ModeOr, 1000))
	if len(now) != 250 { // 50 surviving old + 200 new
		t.Fatalf("current view has %d docs, want 250", len(now))
	}
	if now["old000"] || !now["old001"] || !now["new000"] {
		t.Fatal("current view disagrees with the mutation history")
	}
}

// TestLiveReclaimMerge deletes most of a flushed segment and checks the
// background scheduler rewrites it, dropping the tombstones.
func TestLiveReclaimMerge(t *testing.T) {
	li := NewIndex(Config{MemtableMaxDocs: 64, ReclaimFrac: 0.25})
	defer li.Close()

	for i := 0; i < 64; i++ {
		li.Add(fmt.Sprintf("r%02d", i), "reclaim", fmt.Sprintf("reclaim body %d", i), 0)
	}
	waitFor(t, func() bool {
		st := li.Stats()
		return st.Flushes >= 1 && st.Segments == 1
	}, 5*time.Second)
	for i := 0; i < 32; i++ {
		li.Delete(fmt.Sprintf("r%02d", i))
	}
	// Deletes alone don't wake the scheduler mid-stream; give it a nudge
	// the way a flush would.
	li.wakeMerger()
	waitFor(t, func() bool {
		st := li.Stats()
		return st.Merges >= 1 && st.Tombstones == 0
	}, 5*time.Second)

	st := li.Stats()
	if st.LiveDocs != 32 || st.Segments != 1 {
		t.Fatalf("after reclaim: %+v", st)
	}
	got := keySet(li.Search("reclaim", search.ModeOr, 100))
	if len(got) != 32 || got["r00"] || !got["r32"] {
		t.Fatalf("post-reclaim results wrong: %d docs", len(got))
	}
}

// TestLiveSegmentBudget checks size-tiered compaction keeps the segment
// count at the configured budget.
func TestLiveSegmentBudget(t *testing.T) {
	li := NewIndex(Config{MemtableMaxDocs: 8, MaxSegments: 3})
	defer li.Close()

	for i := 0; i < 200; i++ {
		li.Add(fmt.Sprintf("s%03d", i), "budget", fmt.Sprintf("budget body %d", i), 0)
	}
	waitFor(t, func() bool {
		st := li.Stats()
		return st.PendingFlushes == 0 && st.Flushes > 0 && st.Segments <= 3
	}, 5*time.Second)
	st := li.Stats()
	if st.Merges == 0 {
		t.Fatalf("segment budget met without merging: %+v", st)
	}
	if got := keySet(li.Search("budget", search.ModeOr, 1000)); len(got) != 200 {
		t.Fatalf("lost documents across merges: %d of 200", len(got))
	}
}

func TestLiveCompact(t *testing.T) {
	li := NewIndex(Config{MemtableMaxDocs: 16})
	defer li.Close()

	for i := 0; i < 50; i++ {
		li.Add(fmt.Sprintf("c%02d", i), "compact", fmt.Sprintf("compact body %d", i), 0)
	}
	for i := 0; i < 50; i += 5 {
		li.Delete(fmt.Sprintf("c%02d", i))
	}
	li.Compact()

	seg := li.Segment()
	if seg == nil {
		t.Fatal("Segment() = nil after Compact")
	}
	if seg.NumDocs() != 40 {
		t.Fatalf("compacted segment has %d docs, want 40", seg.NumDocs())
	}
	st := li.Stats()
	if st.Segments != 1 || st.Tombstones != 0 || st.MemtableDocs != 0 {
		t.Fatalf("post-compact stats: %+v", st)
	}
	if got := keySet(li.Search("compact", search.ModeOr, 100)); len(got) != 40 || got["c00"] {
		t.Fatalf("post-compact search wrong: %d docs", len(got))
	}
}

func TestTombstonesBasic(t *testing.T) {
	ts := NewTombstones()
	if ts.Has(5) || ts.Count() != 0 {
		t.Fatal("fresh set not empty")
	}
	if !ts.Set(5) || ts.Set(5) {
		t.Fatal("Set double-counted")
	}
	ts.Set(64)
	ts.Set(200)
	if ts.Count() != 3 || !ts.Has(5) || !ts.Has(64) || !ts.Has(200) || ts.Has(6) {
		t.Fatalf("set contents wrong: count=%d", ts.Count())
	}

	clone := ts.Clone()
	ts.Set(7)
	if clone.Has(7) || clone.Count() != 3 {
		t.Fatal("Clone shares state with the original")
	}

	var got []int32
	clone.Range(func(d int32) { got = append(got, d) })
	want := []int32{5, 64, 200}
	if len(got) != len(want) {
		t.Fatalf("Range visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range visited %v, want %v", got, want)
		}
	}

	rt, err := UnmarshalTombstones(ts.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if rt.Count() != ts.Count() || !rt.Has(5) || !rt.Has(7) || !rt.Has(200) {
		t.Fatal("marshal round-trip lost state")
	}
}
