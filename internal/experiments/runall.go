package experiments

import "fmt"

// Step is one entry of the experiment registry: a name as benchrunner
// -only takes it, and the method that runs and prints it.
type Step struct {
	Name string
	Run  func(*Context)
}

// Steps lists every experiment and ablation in the order RunAll runs
// them. It is the one registry: RunAll and benchrunner -only both read
// it.
var Steps = []Step{
	{"E1", func(c *Context) { c.E1Characterization() }},
	{"E2", func(c *Context) { c.E2Workload() }},
	{"E3", func(c *Context) { c.E3PhaseBreakdown() }},
	{"E4", func(c *Context) { c.E4ServiceTimeAnatomy() }},
	{"E12", func(c *Context) { c.E12RealPartition() }}, // calibration before sims
	{"E5", func(c *Context) { c.E5LoadCurve() }},
	{"E6", func(c *Context) { c.E6Throughput() }},
	{"E7", func(c *Context) { c.E7PartitionTail() }},
	{"E8", func(c *Context) { c.E8PartitionThroughput() }},
	{"E9", func(c *Context) { c.E9CDF() }},
	{"E10", func(c *Context) { c.E10LowPower() }},
	{"E11", func(c *Context) { c.E11Energy() }},
	{"E13", func(c *Context) { c.E13Cluster() }},
	{"E14", func(c *Context) { c.E14ResultCache() }},
	{"E15", func(c *Context) { c.E15DVFS() }},
	{"E16", func(c *Context) { c.E16TailAtScale() }},
	{"E17", func(c *Context) { c.E17Diurnal() }},
	{"E18", func(c *Context) { c.E18Hedging() }},
	{"E19", func(c *Context) { c.E19LiveFaults() }},
	{"E20", func(c *Context) { c.E20LiveIngest() }},
	{"E21", func(c *Context) { c.E21Replication() }},
	{"E22", func(c *Context) { c.E22Durability() }},
	{"E23", func(c *Context) { c.E23ParallelIndexing() }},
	{"E24", func(c *Context) { c.E24SharedExec() }},
	{"E25", func(c *Context) { c.E25BlobServing() }},
	{"ABL-1", func(c *Context) { c.AblationMaxScore() }},
	{"ABL-2", func(c *Context) { c.AblationCompression() }},
	{"ABL-3", func(c *Context) { c.AblationAssignment() }},
	{"ABL-4", func(c *Context) { c.AblationTopK() }},
	{"ABL-5", func(c *Context) { c.AblationScheduling() }},
	{"ABL-6", func(c *Context) { c.AblationSkipLists() }},
	{"ABL-7", func(c *Context) { c.AblationBlockMax() }},
	{"ABL-8", func(c *Context) { c.AblationPackedCompression() }},
}

// RunAll executes every experiment and ablation in order, printing each
// table. It returns the names of the experiments run.
func (c *Context) RunAll() []string {
	names := make([]string, 0, len(Steps))
	for _, s := range Steps {
		s.Run(c)
		names = append(names, s.Name)
	}
	fmt.Fprintf(c.Out, "\nall %d experiments completed (scale=%.2f)\n", len(Steps), c.Scale)
	return names
}
