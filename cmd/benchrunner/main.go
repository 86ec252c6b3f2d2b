// Command benchrunner regenerates every table and figure of the paper's
// reconstructed evaluation (E1..E25 plus the design ablations), printing
// each as a text table. See DESIGN.md for the experiment index and
// EXPERIMENTS.md for the recorded results.
//
// Usage:
//
//	benchrunner                    # full scale (~ a couple of minutes)
//	benchrunner -scale 0.1         # quick pass
//	benchrunner -only E7           # a single experiment
//	benchrunner -json results.json # also write machine-readable records
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"websearchbench/internal/experiments"
	"websearchbench/internal/search/exec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchrunner: ")

	var (
		scale   = flag.Float64("scale", 1.0, "scale factor for corpus/queries/sim durations")
		only    = flag.String("only", "", "run a single experiment (E1..E25, ABL-1..ABL-8)")
		jsonO   = flag.String("json", "", "write the run's measurements to this file as a JSON array of records (see experiments.Record for the schema)")
		workers = flag.Int("exec-workers", 0, "bounded search executor workers for the parallel-search experiments (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if *workers > 0 {
		exec.SetDefaultWorkers(*workers)
	}

	c := experiments.NewContext(os.Stdout, *scale)
	defer func() {
		if *jsonO == "" {
			return
		}
		if err := writeJSON(*jsonO, c.Records()); err != nil {
			log.Fatal(err)
		}
	}()
	if *only == "" {
		c.RunAll()
		return
	}
	for _, s := range experiments.Steps {
		if s.Name == *only {
			s.Run(c)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown experiment %q; valid:", *only)
	for _, s := range experiments.Steps {
		fmt.Fprintf(os.Stderr, " %s", s.Name)
	}
	fmt.Fprintln(os.Stderr)
	os.Exit(2)
}

// writeJSON writes records to path as an indented JSON array. An empty
// run writes "[]", not "null", so consumers always get an array.
func writeJSON(path string, records []experiments.Record) error {
	if records == nil {
		records = []experiments.Record{}
	}
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
