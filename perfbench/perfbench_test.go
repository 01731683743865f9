package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"sort"
	"testing"
	"time"
)

// tiny is a workload's configuration shrunk to run in well under a second.
func tiny(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.seed = 7
	cfg.dur = 50 * time.Millisecond
	cfg.trace = trace
	cfg.work = t.TempDir()
	cfg.scale = 1
	cfg.setupReps = 1
	cfg.epochStmts = 96
	cfg.recoveryReps = 1
	cfg.sharedStmts = 40
	cfg.frames = 512
	return cfg
}

type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// workloads and metrics, with their units, that the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	check := func(list string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, program reports %d", list, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d] = %s %s, program reports %s %s", list, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestWorkloadsReportEveryMetric runs each workload at a tiny size, plain
// and traced, and checks the result line: correct, and every metric named
// with its unit; every end-to-end metric nonzero.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for name, fn := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := fn(tiny(t, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			out, err := rep.outcome()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%v", name, trace, out.Correct, out.Attempted, out.Failed, rep.notes)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := out.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

// TestDroppedWriteIsCaught makes the durability and lost-update models
// forget one acknowledged write; the checks must report it.
func TestDroppedWriteIsCaught(t *testing.T) {
	for _, name := range []string{"durable-update", "shared-warm"} {
		cfg := tiny(t, name, false)
		cfg.dropAck = true
		rep, err := workloads[name](cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out, err := rep.outcome()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Correct || out.Failed == 0 {
			t.Errorf("%s: a forgotten acknowledged write went unnoticed (failed=%d)", name, out.Failed)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "shared-warm", "--trace", "2"},
		{"--workload", "shared-warm", "--seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
