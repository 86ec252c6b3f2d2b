package main

import (
	"fmt"
	"sort"
	"strings"
)

// spec fixes one workload: its stack, its traffic mix and the rates the
// end-to-end metrics are read at. Rates are constants, not measured per
// run, so two commits are compared at the same offered load.
type spec struct {
	name string
	// nominalQPS is a quarter (blob) to a third of capacity on a 2-CPU
	// host, peakQPS 40% to a half: at higher rates queueing magnifies
	// the host's swings in speed past what a bound can allow. Both
	// count every operation, writes included.
	nominalQPS float64
	peakQPS    float64
	// writeFrac is the share of operations that are writes (live only).
	writeFrac float64
	// cacheBytes is the per-shard block-cache budget (blob only).
	cacheBytes int64
	// warmupSeconds is how long the nominal rate runs before timing.
	// Blob needs the longest: its block cache holds about 15,000
	// 70-byte blocks and fills at about 2,000 a second, and until it
	// is full and evicting, each part meets fewer cached blocks than
	// the one before.
	warmupSeconds float64
	kind          stackKind
}

type stackKind int

const (
	kindStatic stackKind = iota
	kindBlob
	kindLive
)

var specs = []spec{
	{
		name:          "search_static",
		nominalQPS:    700,
		peakQPS:       1200,
		warmupSeconds: 1,
		kind:          kindStatic,
	},
	{
		name:          "blob_tight_cache",
		nominalQPS:    150,
		peakQPS:       230,
		cacheBytes:    1 << 20,
		warmupSeconds: 8,
		kind:          kindBlob,
	},
	{
		name:          "live_mixed",
		nominalQPS:    500,
		peakQPS:       680,
		writeFrac:     0.2,
		warmupSeconds: 1,
		kind:          kindLive,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	sort.Strings(names)
	return spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// Fixed shape of the stack and its inputs.
const (
	numShards      = 2
	partsPerShard  = 2
	topK           = 10
	queryPool      = 20000
	popularityS    = 0.85
	andFraction    = 0.2
	corpusSeed     = 1
	liveMemtable   = 128
	liveSeedDocs   = 5000
	resultCacheCap = 10000
	// checkEvery samples one query in this many for the answer check.
	checkEvery = 8
)
