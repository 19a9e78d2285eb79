// Command perfbench is hwstar's wall-clock benchmark. It runs one seeded
// workload against the public serving stack, checks every answer against an
// oracle computed from its own generated inputs, and prints one JSON result
// line: with -trace 0 the end-to-end metrics, with -trace 1 the per-layer
// metrics of a traced run. The metric names and units it prints are the ones
// BENCHMARK.json (in the working directory) declares; see README.md for the
// workloads and what each metric means.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hwstar"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload receives.
type env struct {
	seed    int64
	seconds time.Duration
	traced  bool
	dir     string // scratch directory inside the checkout
	m       *hwstar.Machine
	rec     *recorder // nil unless traced
}

// report is a workload's outcome: its operation counts and the metrics of
// the mode it ran in.
type report struct {
	attempted, failed, wrong int64
	metrics                  map[string]metric
}

func (r *report) add(t *tally) {
	r.attempted += t.attempted
	r.failed += t.failed
	r.wrong += t.wrong
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

var workloads = map[string]func(ctx context.Context, e *env) (*report, error){
	"v1-interactive": runV1,
	"scan-uniform":   runScanUniform,
	"scan-clustered": runScanClustered,
	"durable-churn":  runDurable,
}

// runLimit bounds one run, set-up and probes included.
const runLimit = 170 * time.Second

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	code := run(ctx)
	cancel()
	os.Exit(code)
}

func run(ctx context.Context) int {
	var (
		workload = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "measured seconds")
		traced   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		workdir  = flag.String("workdir", ".bench_build", "scratch directory")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %v), -seconds >= 1, -trace 0|1\n", names())
		return 2
	}
	decl, err := declaredMetrics("BENCHMARK.json", *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := selfTest(ctx, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: self-test: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *traced == 1, dir: dir, m: hwstar.Server2S()}
	if e.traced {
		e.rec = newRecorder()
	}
	rep, err := fn(ctx, e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if e.traced {
		path := filepath.Join(*workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := e.rec.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: trace file: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: trace written to %s\n", path)
	}

	out := result{Correct: rep.wrong == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, d := range decl {
		m, ok := rep.metrics[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *workload, d.Name)
			return 1
		}
		if m.Unit != d.Unit {
			fmt.Fprintf(os.Stderr, "perfbench: %s measured in %s, declared in %s\n", d.Name, m.Unit, d.Unit)
			return 1
		}
		out.Metrics[d.Name] = m
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct || out.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %d answers disagreed with the oracle\n", rep.wrong)
		return 1
	}
	return 0
}

func names() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declaredMetrics reads the metric list of one mode from BENCHMARK.json, so
// the result line always carries exactly the declared names and units.
func declaredMetrics(path string, traced bool) ([]declared, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read metric declarations: %w", err)
	}
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	out := spec.EndToEnd
	if traced {
		out = spec.PerLayer
	}
	if len(out) == 0 {
		return nil, errors.New(path + " declares no metrics for this mode")
	}
	return out, nil
}
