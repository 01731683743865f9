// Command perfbench is the repository benchmark. It runs one workload
// against the engine for a fixed time and prints, as the last line of its
// output, one JSON object: the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced run (--trace 1), with the number of
// statements attempted and failed and whether every output check passed.
//
//	perfbench --workload paper-cold-10x --seed 1 --seconds 10 --trace 0
//
// Workloads: paper-cold-10x, durable-update, shared-warm. Disk databases
// and span files live under .bench_build/perfbench in the working
// directory. See NOTES.md for the workloads, sizes and metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// config is one run's settings. The defaults are the benchmark's; the
// self-test shrinks the sizes.
type config struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	// work is the scratch directory for disk databases.
	work string
	// scale is paper-cold-10x's relation cardinality in units of 1024.
	scale int
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
	// epochStmts is the length of durable-update's seeded schedule.
	epochStmts int
	// recoveryReps is how many crash-image copies core.Open recovers.
	recoveryReps int
	// frames is shared-warm's pool size per relation.
	frames int
	// sharedStmts is the length of a shared-warm epoch per session.
	sharedStmts int
	// dropAck makes the durability and lost-update models forget one
	// acknowledged write, so their checks must fail (self-test only).
	dropAck bool
}

func defaultConfig() config {
	return config{
		scale:        10,
		setupReps:    5,
		epochStmts:   1200,
		recoveryReps: 5,
		frames:       1024,
		sharedStmts:  400,
	}
}

var workloads = map[string]func(config) (*report, error){
	"paper-cold-10x": runCold,
	"durable-update": runDurable,
	"shared-warm":    runShared,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: paper-cold-10x, durable-update or shared-warm")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: keys, DML mix and start query")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[cfg.workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (paper-cold-10x, durable-update, shared-warm), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg.dur = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace == 1
	base := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg.work = work

	rep, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if rep.tr != nil {
		path := filepath.Join(base, "spans-"+cfg.workload+".csv")
		if err := rep.tr.writeSpans(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		rep.notef("spans: %d written to %s", len(rep.tr.spans), path)
	}
	out, err := rep.outcome()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", cfg.workload, cfg.seed, cfg.dur.Seconds(), *trace)
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
