// Command clusterbench is the repository's end-to-end benchmark. It
// starts one frontend and two shard nodes on 127.0.0.1 in this process,
// drives them over HTTP with an open-loop generator, checks the answers,
// and prints every metric by name with its unit. With -trace 1 it wraps
// each layer and replays the queries against the shards' searchers to
// report per-layer metrics instead.
//
//	go build -o clusterbench . && ./clusterbench -workload search_static -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
)

type config struct {
	spec    spec
	seed    int64
	seconds float64
	trace   bool
	docs    int
	setups  int
	conns   int
	// traceDir receives the span file of a traced run; empty skips it.
	traceDir string
	// nodeWrap, when set, wraps every node handler (tests tamper with
	// answers through it).
	nodeWrap func(shard int) func(h http.Handler) http.Handler
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: search_static, blob_tight_cache or live_mixed")
		seed    = flag.Int64("seed", 1, "seed of the query, arrival and write streams")
		seconds = flag.Float64("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 traces each layer and reports per-layer metrics")
	)
	flag.Parse()
	sp, err := specByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clusterbench:", err)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "clusterbench: need -seconds > 0 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		spec:     sp,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		docs:     40000,
		setups:   3,
		conns:    runtime.NumCPU(),
		traceDir: ".bench_build",
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clusterbench:", err)
		os.Exit(1)
	}
	meta, _ := json.Marshal(out.meta)
	fmt.Printf("meta %s\n", meta)
	for _, line := range out.summary {
		fmt.Println(line)
	}
	last, err := json.Marshal(out.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "clusterbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(last))
}

func (cfg config) traceFile() string {
	if cfg.traceDir == "" {
		return ""
	}
	return filepath.Join(cfg.traceDir, fmt.Sprintf("trace-%s.jsonl", cfg.spec.name))
}
