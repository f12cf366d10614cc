// Command perfbench is the repository benchmark. It runs one workload
// against the program's public entry points (faircache.Solver,
// AdaptiveSystem, server.New behind a loopback listener, the client
// package, /metrics and the explain reports), checks every output, and
// prints each metric with its unit and sample count. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1 they
// are the per-layer metrics, taken from a separate traced run. Every
// workload reports every metric of the mode (see manifest.go). Run it
// through run.sh from the repository root.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"time"
)

// metric is one reported number. Samples is how many observations it
// summarises (1 for a count or a deterministic quality figure).
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
}

// report collects a run's metrics and its operation accounting. Every
// public call the workload makes is an attempted operation; a call that
// errors or whose output fails a check is a failed one.
type report struct {
	attempted int
	failed    int
	metrics   []metric
	missing   []string // metrics that could not be computed
	problems  []string // first check failures, for the log
	notes     []string // run conditions, for the log
}

func (r *report) add(name string, v float64, unit string, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.missing = append(r.missing, fmt.Sprintf("%s (no value, %d samples)", name, samples))
		return
	}
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit, Samples: samples})
}

// pct adds the q-quantile of samples in milliseconds, or marks the metric
// missing when too few samples lie beyond it.
func (r *report) pct(name string, samples []float64, q float64) {
	v, ok := percentile(samples, q)
	if !ok {
		r.missing = append(r.missing, fmt.Sprintf("%s (%d samples)", name, len(samples)))
		return
	}
	r.add(name, v, "ms", len(samples))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and keeps the first few reasons.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// config is what every workload receives.
type config struct {
	seed    int64
	seconds time.Duration
	traced  bool
	out     string    // directory for WAL data and span dumps
	spans   *recorder // nil unless traced
}

// window bounds a workload's measuring loop: it runs for the configured
// seconds and, past that, until the workload has the samples its
// percentiles need, but never beyond a hard cap that keeps a run well
// inside its time limit.
type window struct {
	start    time.Time
	min, cap time.Duration
}

func newWindow(seconds time.Duration) window {
	capd := seconds + seconds/5
	if capd > 120*time.Second {
		capd = 120 * time.Second
	}
	return window{start: time.Now(), min: seconds, cap: capd}
}

func (w window) done(enough bool) bool {
	el := time.Since(w.start)
	return el >= w.cap || (el >= w.min && enough)
}

func main() {
	name := flag.String("workload", "", "workload name: solve-grid15, solve-grid15-partitioned, daemon-mixed or adapt-replay")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measuring time in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run, 0 the end-to-end run")
	out := flag.String("out", ".bench_build", "directory for WAL data and span dumps")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	outDir, err := filepath.Abs(*out)
	if err == nil {
		err = os.MkdirAll(outDir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *traced == 1, out: outDir}
	if cfg.traced {
		cfg.spans = newRecorder()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	meta := collectMeta(*seed, outDir)
	rep := &report{}
	if err := w.run(ctx, cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	rep.complete(cfg.traced, w.idle)
	if cfg.spans != nil {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed))
		if err := cfg.spans.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %d written to %s\n", cfg.spans.len(), path)
	}
	os.Exit(printResult(w.name, meta, rep))
}

// printResult prints the run metadata, one line per metric and the final
// JSON result line. It returns the exit code: 0 for a correct run, 1 when
// an operation failed, a metric is missing or nothing was attempted.
func printResult(name string, meta runMeta, rep *report) int {
	mj, err := json.Marshal(meta)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("workload: %s\nmeta: %s\n", name, mj)
	for _, n := range rep.notes {
		fmt.Printf("note: %s\n", n)
	}
	for _, m := range rep.metrics {
		fmt.Printf("  %-36s %16.6f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "check failed: %s\n", p)
	}
	for _, m := range rep.missing {
		fmt.Fprintf(os.Stderr, "metric missing: %s\n", m)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(rep.metrics))
	for _, m := range rep.metrics {
		metrics[m.Name] = value{Value: m.Value, Unit: m.Unit}
	}
	correct := rep.failed == 0 && len(rep.missing) == 0 && rep.attempted > 0
	attempted := rep.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   correct,
		Attempted: attempted,
		Failed:    rep.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}
