package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync/atomic"
	"testing"

	"websearchbench/internal/cluster"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func tinyConfig(t *testing.T, name string, trace bool) config {
	t.Helper()
	sp, err := specByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return config{spec: sp, seed: 3, seconds: 2, trace: trace, docs: 2000, setups: 1, conns: runtime.NumCPU()}
}

// TestWorkloadsEmitEveryMetric runs every workload of BENCHMARK.json at
// a tiny scale, untraced and traced, and checks that each run reports
// exactly the metrics the file names, each with its unit, that no
// request failed, that every answer passes its check, and that every
// traced run's spans link and account for the client latency.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) == 0 || len(bf.EndToEnd) == 0 || len(bf.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json names no workloads or metrics")
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			list := bf.EndToEnd
			if trace {
				list = bf.PerLayer
			}
			for _, m := range list {
				want[m.Name] = m.Unit
			}
			out, err := run(tinyConfig(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if out.attempted < 1 {
				t.Errorf("%s trace=%v: nothing attempted", w.Name, trace)
			}
			t.Logf("%s trace=%v: correct=%v attempted=%d failed=%d checks=%d wrong=%d %s", w.Name, trace,
				out.correct, out.attempted, out.failed, out.checks.checked, out.checks.wrong, out.checks.first)
			if n := out.failed - out.checks.wrong; n != 0 {
				t.Errorf("%s trace=%v: %d requests failed", w.Name, trace, n)
			}
			if out.checks.checked == 0 {
				t.Errorf("%s trace=%v: no answer was checked", w.Name, trace)
			}
			if !out.correct || out.checks.wrong != 0 {
				t.Errorf("%s trace=%v: answer check failed: %s", w.Name, trace, out.checks.first)
			}
			for _, f := range out.traceFailures {
				t.Errorf("%s trace=%v: trace check failed: %s", w.Name, trace, f)
			}
			got := out.result()["metrics"].(map[string]any)
			for name, unit := range want {
				m, ok := got[name].(map[string]any)
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, name)
					continue
				}
				if m["unit"] != unit || unit == "" {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, trace, name, m["unit"], unit)
				}
			}
			for name := range got {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.Name, trace, name)
				}
			}
		}
	}
}

// TestTamperedAnswerFails puts a wrap on every node that swaps the
// documents of its top two hits, leaving the scores in place, so the
// frontend's merge cannot undo it: the answer check must catch it.
func TestTamperedAnswerFails(t *testing.T) {
	cfg := tinyConfig(t, "search_static", false)
	cfg.nodeWrap = func(int) func(http.Handler) http.Handler { return swapTopHits }
	out, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every sampled query with two hits of different scores is wrong.
	if out.correct || out.checks.checked == 0 || 2*out.checks.wrong < out.checks.checked {
		t.Fatalf("tampered answers passed the check: correct=%v, %d of %d checked answers wrong",
			out.correct, out.checks.wrong, out.checks.checked)
	}
}

// TestEmptyAnswerFails puts a wrap on every node that answers every
// search after set-up's first query with no hits: the answer check must
// count the empty answers as wrong, not skip them.
func TestEmptyAnswerFails(t *testing.T) {
	cfg := tinyConfig(t, "search_static", false)
	cfg.nodeWrap = func(int) func(http.Handler) http.Handler { return dropHits }
	out, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.correct || out.checks.checked == 0 || 2*out.checks.wrong < out.checks.checked {
		t.Fatalf("empty answers passed the check: correct=%v, %d of %d checked answers wrong",
			out.correct, out.checks.wrong, out.checks.checked)
	}
}

// tamper wraps h, rewriting each decoded /search answer with f.
func tamper(h http.Handler, f func(*cluster.SearchResponse)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var resp cluster.SearchResponse
		if r.URL.Path != "/search" || rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			w.WriteHeader(rec.Code)
			_, _ = w.Write(rec.Body.Bytes())
			return
		}
		f(&resp)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	})
}

func dropHits(h http.Handler) http.Handler {
	var n atomic.Int64
	return tamper(h, func(resp *cluster.SearchResponse) {
		if n.Add(1) > 1 {
			resp.Hits = []cluster.WireHit{}
		}
	})
}

func swapTopHits(h http.Handler) http.Handler {
	return tamper(h, func(resp *cluster.SearchResponse) {
		if len(resp.Hits) < 2 {
			return
		}
		a, b := &resp.Hits[0], &resp.Hits[1]
		a.URL, b.URL = b.URL, a.URL
		a.Title, b.Title = b.Title, a.Title
	})
}
