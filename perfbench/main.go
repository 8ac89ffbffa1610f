// Command perfbench is the repository's end-to-end benchmark. Each run
// executes one workload for a fixed host-time budget from a single process.
// A session of the workload is a DRL search through drl.New/Searcher.Run
// followed by cycle-accurate simulation through sim.Run; sessions run on
// inputs derived from --seed until the budget is spent. The benchmark
// checks every output, prints a report, and ends with one JSON line holding
// the correctness tally and the metrics:
//
//	bash perfbench/run.sh --workload search-8x8 --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off and scaled to a reference host speed, which a kernel of the
// benchmark's own measures between sessions (calib.go). With --trace 1
// untraced and traced sessions alternate: the traced ones pass an
// obs.Tracer, obs.Registry and debug obs.Logger through the drl.Config and
// sim.RunConfig hooks, and the metrics are the per-layer ones read back from
// those sinks, with the tracing overhead beside them.
//
// -record regenerates the default-seed reference outputs (reference.json)
// that later runs at that seed must reproduce bit for bit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", defaultSeed, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 20, "host seconds to measure for")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from traced runs")
	record := fs.String("record", "", "write the default-seed reference outputs of every workload to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordReference(*record, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive, got %v\n", *seconds)
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, ref)
	res.report(stdout)
	if err := writeSummary(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one named value of the summary line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func writeSummary(w io.Writer, r *runResult) error {
	s := summary{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	data, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("encode summary: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// sortedKeys returns m's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
