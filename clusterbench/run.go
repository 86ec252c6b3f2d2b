package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"websearchbench/internal/blob"
	"websearchbench/internal/cluster"
	"websearchbench/internal/search/exec"
)

// The measured -seconds are split evenly between the nominal and the
// peak window, each run as measureParts parts.
const measureParts = 5

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

type outcome struct {
	correct   bool
	attempted int
	failed    int
	checks    checkReport
	// traceFailures are the traced run's failed link and accounting
	// checks; any of them makes the run incorrect.
	traceFailures []string
	metrics       []metric
	summary       []string
	meta          map[string]any
}

func (o *outcome) add(name string, value float64, unit string) {
	o.metrics = append(o.metrics, metric{name, value, unit})
}

func (o *outcome) traceFail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	o.traceFailures = append(o.traceFailures, msg)
	o.correct = false
	o.logf("trace check failed: %s", msg)
}

func (o *outcome) logf(format string, args ...any) {
	o.summary = append(o.summary, fmt.Sprintf(format, args...))
}

// result is the last line's JSON object.
func (o *outcome) result() map[string]any {
	ms := map[string]any{}
	for _, m := range o.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return map[string]any{
		"correct":   o.correct,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   ms,
	}
}

func run(cfg config) (*outcome, error) {
	sp := cfg.spec
	out := &outcome{meta: runMeta(cfg)}
	in, err := newInputs(cfg.docs, cfg.seed)
	if err != nil {
		return nil, err
	}

	var tr *tracer
	var h hooks
	if cfg.trace {
		tr = newTracer()
		h = tr.hooks()
	}
	if cfg.nodeWrap != nil {
		h.node = cfg.nodeWrap
	}

	// Set up cfg.setups times from nothing; keep the last stack.
	var st *stack
	var setups []setupTimes
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			st.close()
			st = nil
			runtime.GC()
		}
		st, err = setupStack(sp, in.docs, h)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, st.times)
	}
	defer st.close()
	// Hand the set-ups' garbage back to the OS, so that the resident
	// set the sampler sees is the serving stack's, not the build's.
	in.docs = nil
	debug.FreeOSMemory()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	out.logf("live heap after set-up: %.1f MiB, resident %.1f MiB", float64(ms0.HeapAlloc)/(1<<20), rssMB())

	g := newLoadGen(st.feURL, cfg.conns)
	defer g.close()
	sample := func(i int) bool { return i%checkEvery == 0 }
	// part offers rate for secs. Every part starts from a collected
	// heap, as a Go benchmark does: a part is too short to fill the
	// heap's headroom at these rates, so collections, whose timing would
	// otherwise decide the tail, stay out of the latencies unless the
	// code allocates enough more to bring one in. Allocation and
	// collection costs are per-layer metrics.
	part := func(name string, rate, secs float64) (*window, error) {
		dur := time.Duration(secs * float64(time.Second))
		ops, err := in.schedule(rate, dur, sp.writeFrac)
		if err != nil {
			return nil, err
		}
		w := &window{name: name, rate: rate, dur: dur, ops: ops, sample: sample}
		runtime.GC()
		g.run(w)
		return w, nil
	}

	warm, err := part("warmup", sp.nominalQPS, sp.warmupSeconds)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.reset()
	}
	smp := startSampler(st, tr != nil)
	before := snapshotCounters(st)
	// Nominal and peak parts alternate, so that a slow spell of the
	// host falls on parts of both; each latency metric is the median
	// over its window's parts, which one slow part cannot move.
	var nomParts, peakParts []*window
	for i := 0; i < measureParts; i++ {
		n, err := part("nominal", sp.nominalQPS, cfg.seconds/2/measureParts)
		if err != nil {
			return nil, err
		}
		p, err := part("peak", sp.peakQPS, cfg.seconds/2/measureParts)
		if err != nil {
			return nil, err
		}
		nomParts = append(nomParts, n)
		peakParts = append(peakParts, p)
	}
	after := snapshotCounters(st)
	smp.stop()
	nominal, peak := joinWindows(nomParts), joinWindows(peakParts)
	measured := []*window{nominal, peak}

	// Answer checks, off the timed path.
	all := []*window{warm, nominal, peak}
	var chk checkReport
	if sp.kind == kindLive {
		if err := st.checkLive(all, &chk); err != nil {
			return nil, err
		}
	} else {
		st.checkQueries(all, &chk)
	}

	// Attempted and failed count every arrival of every window.
	for _, w := range all {
		for i := range w.res {
			out.attempted++
			if !w.res[i].ok {
				out.failed++
			}
		}
	}
	out.failed += chk.wrong
	out.correct = out.failed == 0
	out.checks = chk

	// End-to-end metrics. Only an untraced run reports them; the
	// summary lines carry them for a traced run too.
	setupS := median(pluck(setups, func(t setupTimes) float64 { return t.total }))
	writes := append(nominal.latencies(true), peak.latencies(true)...)
	coldMS := 1000 * median(pluck(setups, func(t setupTimes) float64 { return t.cold }))
	if !cfg.trace {
		out.add("setup_s", setupS, "s")
		out.add("query_p50_ms", partMedian(nomParts, 50), "ms")
		out.add("query_p50_ms_peak", partMedian(peakParts, 50), "ms")
		// The p99s are printed below but are not result metrics: on a
		// 2-CPU virtual machine their run-to-run spread is wider than
		// any bound the benchmark may set.
		out.add("peak_rss_mb", smp.rssMax, "MiB")
	} else {
		out.add("write_p50_ms", pct(writes, 50), "ms")
		out.add("write_p99_ms", pct(writes, 99), "ms")
		out.add("cold_start_ms", coldMS, "ms")
		if err := layerMetrics(out, st, tr, measured, before, after, smp, setups); err != nil {
			return nil, err
		}
		if cfg.traceFile() != "" {
			if err := tr.write(cfg.traceFile(), out.meta); err != nil {
				return nil, err
			}
		}
	}

	out.logf("workload %s seed %d: %d attempted, %d failed (failed_frac %.4f), %d answer checks, %d wrong",
		sp.name, cfg.seed, out.attempted, out.failed, float64(out.failed)/float64(out.attempted), chk.checked, chk.wrong)
	if chk.first != "" {
		out.logf("first wrong answer: %s", chk.first)
	}
	for _, w := range all {
		out.logf("  %-10s %7.1f/s %6.2fs %6d ops  p50 %7.3f ms  p99 %7.3f ms  late p99 %6.3f ms  backlog max %d  errors %d dropped %d",
			w.name, w.rate, w.dur.Seconds(), len(w.ops), pct(w.latencies(false), 50), pct(w.latencies(false), 99),
			pct(w.lateness(), 99), w.maxBacklog, w.errors(), w.drops())
	}
	out.logf("setup_s %.3f (runs %s)  query_p99_ms %.3f  query_p99_ms_peak %.3f  write_p50_ms %.3f  write_p99_ms %.3f  cold_start_ms %.2f",
		setupS, fmtList(pluck(setups, func(t setupTimes) float64 { return t.total })),
		partMedian(nomParts, 99), partMedian(peakParts, 99), pct(writes, 50), pct(writes, 99), coldMS)
	for _, ps := range [][]*window{nomParts, peakParts} {
		out.logf("  %-10s parts p50 %s ms", ps[0].name, fmtList(pluck(ps, func(w *window) float64 { return pct(w.latencies(false), 50) })))
	}
	for _, m := range out.metrics {
		out.logf("  %-32s %14.4f %s", m.name, m.value, m.unit)
	}
	return out, nil
}

// joinWindows pools the parts of one window.
func joinWindows(parts []*window) *window {
	w := *parts[0]
	w.ops = nil
	w.res = nil
	w.dur = 0
	w.maxBacklog = 0
	for _, p := range parts {
		w.ops = append(w.ops, p.ops...)
		w.res = append(w.res, p.res...)
		w.dur += p.dur
		w.maxBacklog = max(w.maxBacklog, p.maxBacklog)
		w.end = p.end
	}
	return &w
}

// partMedian is the median over parts of each part's p-th percentile
// query latency.
func partMedian(parts []*window, p float64) float64 {
	xs := make([]float64, len(parts))
	for i, w := range parts {
		xs[i] = pct(w.latencies(false), p)
	}
	return median(xs)
}

// latencies returns the answered queries' (or writes') latencies in ms,
// from their due times.
func (w *window) latencies(writes bool) []float64 {
	var xs []float64
	for i := range w.res {
		if w.res[i].ok && (w.ops[i].write != nil) == writes {
			xs = append(xs, ms(w.res[i].latency()))
		}
	}
	return xs
}

func (w *window) lateness() []float64 {
	var xs []float64
	for i := range w.res {
		if !w.res[i].dropped {
			xs = append(xs, ms(w.res[i].lateness()))
		}
	}
	return xs
}

func (w *window) errors() int {
	n := 0
	for i := range w.res {
		if !w.res[i].ok && !w.res[i].dropped {
			n++
		}
	}
	return n
}

func (w *window) drops() int {
	n := 0
	for i := range w.res {
		if w.res[i].dropped {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pct is the nearest-rank percentile of xs; 0 for no samples.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return pct(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func pluck[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func fmtList(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s
}

// runMeta stamps a result with the host and the run's parameters.
func runMeta(cfg config) map[string]any {
	sp := cfg.spec
	commit, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	host, _ := os.Hostname()
	return map[string]any{
		"workload":        sp.name,
		"seed":            cfg.seed,
		"seconds":         cfg.seconds,
		"trace":           cfg.trace,
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"goos_goarch":     runtime.GOOS + "/" + runtime.GOARCH,
		"host":            host,
		"commit":          commit,
		"commit_dirty":    modified,
		"source_digest":   sourceDigest(),
		"docs":            cfg.docs,
		"setups":          cfg.setups,
		"conns":           cfg.conns,
		"shards":          numShards,
		"parts_per_shard": partsPerShard,
		"query_pool":      queryPool,
		"popularity_s":    popularityS,
		"and_fraction":    andFraction,
		"nominal_qps":     sp.nominalQPS,
		"peak_qps":        sp.peakQPS,
		"write_frac":      sp.writeFrac,
		"cache_bytes":     sp.cacheBytes,
		"warmup_seconds":  sp.warmupSeconds,
	}
}

// counters are the stack's cumulative counters at one instant.
type counters struct {
	at        time.Time
	res       cluster.ResilienceStats
	blob      []blob.SourceStats
	flushes   int64
	merges    int64
	exec      exec.Stats
	mem       runtime.MemStats
	gcPauses  []uint64
	pauseEdge []float64
}

func snapshotCounters(st *stack) counters {
	c := counters{at: time.Now(), res: st.fe.ResilienceStats()}
	for _, src := range st.srcs {
		c.blob = append(c.blob, src.Stats())
	}
	for _, li := range st.lives {
		s := li.Stats()
		c.flushes += s.Flushes
		c.merges += s.Merges
	}
	c.exec, _ = exec.DefaultStats()
	runtime.ReadMemStats(&c.mem)
	c.gcPauses, c.pauseEdge = gcPauseHist()
	return c
}
