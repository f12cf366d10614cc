package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	faircache "repro"
)

func TestSameSeedSameOpsAndTrace(t *testing.T) {
	draw := func(seed int64, client int) []op {
		g, err := newOpGen(seed, client)
		if err != nil {
			t.Fatal(err)
		}
		ops := make([]op, 2000)
		for i := range ops {
			ops[i] = g.next()
		}
		return ops
	}
	a, b := draw(7, 1), draw(7, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and client gave different op sequences")
	}
	if reflect.DeepEqual(a, draw(8, 1)) || reflect.DeepEqual(a, draw(7, 0)) {
		t.Fatal("different seeds or clients gave the same op sequence")
	}
	var counts [numOps]int
	for _, o := range a {
		counts[o.kind]++
	}
	for k, c := range counts {
		if c == 0 {
			t.Errorf("op %s never drawn in 2000 ops", opNames[k])
		}
	}

	ta, err := replayTrace(7, 112)
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := replayTrace(7, 112)
	tc, _ := replayTrace(8, 112)
	if !reflect.DeepEqual(ta, tb) || reflect.DeepEqual(ta, tc) {
		t.Fatal("replay trace is not a function of the seed")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // reversed, so the helper must sort
		}
		return v
	}
	for _, tc := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}

	var rep report
	rep.pct("short_p50_ms", seq(19), 0.5)
	rep.pct("full_p50_ms", seq(20), 0.5)
	if len(rep.metrics) != 1 || rep.metrics[0].Samples != 20 {
		t.Fatalf("metrics = %+v, want one with 20 samples", rep.metrics)
	}
	if len(rep.missing) != 1 || !strings.Contains(rep.missing[0], "19 samples") {
		t.Fatalf("missing = %v, want the short metric with its count", rep.missing)
	}
}

func TestNames(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !valid.MatchString(name) || len(name) > 64 || seen[name] {
			t.Errorf("name %q is invalid or repeated", name)
		}
		seen[name] = true
	}
	for _, list := range []struct {
		json []struct{ Name, Unit string }
		code []metricSpec
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(list.json) != len(list.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, manifest.go %d", len(list.json), len(list.code))
		}
		for i, m := range list.json {
			check(m.Name)
			if m.Name != list.code[i].name || m.Unit != list.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json has %s in %s, manifest.go %s in %s", i, m.Name, m.Unit, list.code[i].name, list.code[i].unit)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the table %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		check(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the table %q", i, w.Name, workloads[i].name)
		}
	}
}

func TestIdleLayersNameMetricsAndLeaveSomeRun(t *testing.T) {
	runBy := map[string]int{}
	for _, w := range workloads {
		for _, p := range w.idle {
			matched := false
			for _, m := range perLayer {
				matched = matched || isIdle(m.name, []string{p})
			}
			if !matched {
				t.Errorf("%s: idle entry %q names no per-layer metric", w.name, p)
			}
		}
		for _, m := range perLayer {
			if !isIdle(m.name, w.idle) {
				runBy[m.name]++
			}
		}
	}
	for _, m := range perLayer {
		if runBy[m.name] == 0 {
			t.Errorf("%s is idle on every workload", m.name)
		}
	}
}

func TestCompleteHoldsTheReportToTheManifest(t *testing.T) {
	idle := []string{"server.", "pool.speedup"}
	var rep report
	for _, m := range perLayer {
		if !isIdle(m.name, idle) && m.name != "confl.ms" {
			rep.add(m.name, 1, m.unit, 1)
		}
	}
	rep.complete(true, idle)
	if len(rep.missing) != 1 || !strings.HasPrefix(rep.missing[0], "confl.ms ") {
		t.Errorf("missing = %v, want only confl.ms", rep.missing)
	}
	got := map[string]float64{}
	for _, m := range rep.metrics {
		got[m.Name] = m.Value
	}
	if v, ok := got["server.solve_mean_ms"]; !ok || v != 0 {
		t.Errorf("idle server.solve_mean_ms = %v, %v; want 0, true", v, ok)
	}
	if v, ok := got["pool.speedup"]; !ok || v != 0 {
		t.Errorf("idle pool.speedup = %v, %v; want 0, true", v, ok)
	}

	rep = report{}
	for _, m := range endToEnd {
		rep.add(m.name, 1, m.unit, 1)
	}
	rep.add("extra_ms", 1, "ms", 1)
	rep.complete(false, idle)
	if len(rep.missing) != 1 || !strings.HasPrefix(rep.missing[0], "extra_ms ") {
		t.Errorf("missing = %v, want only the unlisted extra_ms", rep.missing)
	}

	rep = report{}
	rep.add("server.solve_mean_ms", 1, "ms", 1)
	rep.complete(true, idle)
	if !slices.ContainsFunc(rep.missing, func(s string) bool { return strings.Contains(s, "idle layer") }) {
		t.Errorf("a metric of an idle layer was accepted: %v", rep.missing)
	}
}

func TestLayerSelfTimesSumToRoot(t *testing.T) {
	topo, err := faircache.Grid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	s, err := faircache.NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}
	spans := newRecorder()
	// The first solve includes the cold cost-model build, the second is
	// warm; both must attribute every millisecond exactly once.
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		res, err := s.Solve(context.Background(), faircache.Request{Producer: 9, Chunks: 5, Options: &faircache.Options{Explain: true}})
		t1 := time.Now()
		if err != nil {
			t.Fatal(err)
		}
		id := spans.record("Solver.Solve", 0, t0, t1)
		if _, err := spans.attach(id, res.Trace, solveTree); err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for name, v := range spans.selfTimes(id) {
			if v < 0 {
				t.Errorf("solve %d: %s self time %v < 0", i, name, v)
			}
			sum += v
		}
		if root := ms(t1.Sub(t0)); math.Abs(sum-root) > 1e-9*root {
			t.Errorf("solve %d: self times sum to %v ms, root span %v ms", i, sum, root)
		}
	}
}

func TestExplainHygiene(t *testing.T) {
	rep := &faircache.ExplainReport{Phases: []faircache.ExplainPhase{
		{Phase: "chunk", Counters: map[string]int64{"chunk": 2016}},
		{Phase: "confl", Counters: map[string]int64{"ticks": 40}},
	}}
	if got := counter(rep, "confl", "ticks"); got != 40 {
		t.Errorf("ticks = %d, want 40", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("reading the ID-valued chunk counter did not panic")
			}
		}()
		counter(rep, "chunk", "chunk")
	}()

	spans := newRecorder()
	id := spans.record("Solver.Solve", 0, time.Now(), time.Now())
	unknown := &faircache.ExplainReport{Phases: []faircache.ExplainPhase{{Phase: "solve"}, {Phase: "new.phase"}}}
	if _, err := spans.attach(id, unknown, solveTree); err == nil {
		t.Error("an explain phase outside the layer tree was accepted")
	}
}

func TestCalmKeepsQuietSamplesAndDropsStolenOnes(t *testing.T) {
	if got := calm([]float64{0, 0.005, 0, 0.01}, 0); len(got) != 4 {
		t.Errorf("quiet host: kept %v, want all 4 samples", got)
	}
	stolen := []float64{0.2, 0, 0.3, 0, 0.002}
	if got := calm(stolen, 0); !reflect.DeepEqual(got, []int{1, 3, 4}) {
		t.Errorf("stolen samples: kept %v, want [1 3 4]", got)
	}
	if got := calm(stolen, 4); !reflect.DeepEqual(got, []int{1, 3, 4, 0}) {
		t.Errorf("need 4: kept %v, want the 4 least stolen [1 3 4 0]", got)
	}
	if a, b := (cpuTicks{steal: 5, total: 100}), (cpuTicks{steal: 15, total: 200}); b.stealSince(a) != 0.1 {
		t.Errorf("stealSince = %v, want 0.1", b.stealSince(a))
	}
}

func TestCalmPerTraceWeighsTracesAlike(t *testing.T) {
	traceOf := []int{0, 1, 0, 1, 0, 1}
	if got := calmPerTrace([]float64{0, 0, 0.5, 0, 0, 0.3}, traceOf); !reflect.DeepEqual(got, []int{0, 4, 1, 3}) {
		t.Errorf("two calm replays per trace: got %v, want [0 4 1 3]", got)
	}
	if got := calmPerTrace([]float64{0, 0, 0.5, 0, 0.2, 0.3}, traceOf); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("one calm replay of trace 0: got %v, want one replay per trace [0 1]", got)
	}
}
