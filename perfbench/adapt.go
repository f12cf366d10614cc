package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	faircache "repro"

	"repro/internal/sim"
)

const (
	replayEvents    = 200_000
	replayBatch     = 1_000
	adaptEvery      = 20_000
	adaptCapacity   = 3
	adaptTopDelta   = 24
	adaptCopyBudget = 150
	// replayTraces is how many traces a run replays in turn. The quality
	// metrics are their means: one trace's hit rate moves by ±8% with
	// the seed, because the seed places the hot requesters and chunks.
	replayTraces = 8
)

func adaptOptions() *faircache.AdaptiveOptions {
	return &faircache.AdaptiveOptions{Capacity: adaptCapacity, TopDelta: adaptTopDelta, CopyBudget: adaptCopyBudget, Eviction: "cost"}
}

// replayTrace generates the seed's request trace: Zipf(0.9) chunk
// popularity whose ranking drifts every quarter of the replay.
func replayTrace(seed int64, producer int) ([]faircache.RequestEvent, error) {
	tr, err := sim.NewTrace(sim.TraceSpec{
		Nodes: gridSide * gridSide, Chunks: gridChunks, Seed: seed, ZipfS: 0.9,
		DriftEvery: replayEvents / 4, Exclude: producer,
	})
	if err != nil {
		return nil, err
	}
	ev := make([]faircache.RequestEvent, replayEvents)
	for i := range ev {
		r := tr.Next()
		ev[i] = faircache.RequestEvent{Node: r.Node, Chunk: r.Chunk}
	}
	return ev, nil
}

// adaptPhases are the phases of an adaptation pass's explain report.
var adaptPhases = [...]string{"score", "evict", "replace", "redundancy", "fill", "refresh"}

// adaptLayers accumulates the per-layer figures of traced adaptation
// passes.
type adaptLayers struct {
	passes                    int
	phaseMs                   [len(adaptPhases)]float64
	placed, evicted, replaced int
}

func (l *adaptLayers) add(a *faircache.AdaptationResult) {
	l.passes++
	for i, phase := range adaptPhases {
		l.phaseMs[i] += phaseMs(a.Trace, "adapt."+phase)
	}
	l.placed += a.Placed
	l.evicted += a.Evicted
	l.replaced += len(a.Replaced)
}

// report adds the adaptation metrics, each a mean per traced pass.
func (l *adaptLayers) report(rep *report) {
	n := float64(l.passes)
	for i, phase := range adaptPhases {
		rep.add("adapt."+phase+"_ms", l.phaseMs[i]/n, "ms", l.passes)
	}
	rep.add("adapt.placed", float64(l.placed)/n, "count", l.passes)
	rep.add("adapt.evicted", float64(l.evicted)/n, "count", l.passes)
	rep.add("adapt.replaced", float64(l.replaced)/n, "count", l.passes)
}

// replayLayers accumulates a traced replay run's per-layer figures.
type replayLayers struct {
	adaptLayers
	reportUs      []float64
	tracedPass    []float64
	spanVsExplain float64 // worst relative gap, %
}

func runAdaptReplay(ctx context.Context, cfg config, rep *report) error {
	topo, err := faircache.Grid(gridSide, gridSide)
	if err != nil {
		return err
	}
	producer := topo.CentralNode()
	var traces [replayTraces][]faircache.RequestEvent
	for j := range traces {
		if traces[j], err = replayTrace(cfg.seed*replayTraces+int64(j), producer); err != nil {
			return err
		}
	}

	// Each untraced replay's call rate, pass times, steal share and
	// trace.
	var setups, rates, steal []float64
	var passMs [][]float64
	var traceOf []int
	var rt rtStats
	var lay replayLayers
	// first holds each trace's statistics from its first replay; every
	// later replay of the trace must reproduce them.
	var first [replayTraces]*faircache.AdaptiveStats
	w := newWindow(cfg.seconds)
	enough := func() bool {
		if cfg.traced {
			return len(passMs) > 0 && len(lay.tracedPass) > 0
		}
		return first[replayTraces-1] != nil
	}
	for round := 0; !w.done(enough()); round++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// A traced run alternates untraced and traced replays.
		traced := cfg.traced && round%2 == 1

		// Set-up, once per replay so every replay starts from the same
		// seeded placement: topology, solver and the seeded adaptive
		// system (a cold cost-model build and a full 64-chunk placement).
		t0 := time.Now()
		topo, err := faircache.Grid(gridSide, gridSide)
		if err != nil {
			return err
		}
		solver, err := faircache.NewSolver(topo)
		if err != nil {
			return err
		}
		sys, err := solver.NewAdaptive(ctx, producer, gridChunks, adaptOptions())
		if err != nil {
			return fmt.Errorf("seeding: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		rep.attempted++
		checkCapacity(rep, "seeded placement", sys.Counts(), adaptCapacity)
		// The previous replay's system is garbage now; collecting it here,
		// untimed, keeps its collection out of this replay's timings.
		runtime.GC()

		if cfg.traced && !traced {
			rt.begin()
		}
		c0 := readTicks()
		j := round % replayTraces
		var passes []float64
		calls, busy := replay(ctx, rep, cfg.spans, sys, traces[j], traced, &lay, &passes)
		if cfg.traced && !traced {
			rt.end(replayEvents)
		}
		if !traced {
			rates, passMs = append(rates, float64(calls)/busy.Seconds()), append(passMs, passes)
			steal, traceOf = append(steal, readTicks().stealSince(c0)), append(traceOf, j)
		}
		st := sys.Stats()
		checkCapacity(rep, "final placement", sys.Counts(), adaptCapacity)
		st.Gini = sys.Gini()
		if f := first[j]; f == nil {
			first[j] = &st
		} else if st.CacheRate != f.CacheRate || st.MeanCost != f.MeanCost || st.Gini != f.Gini {
			rep.fail("replay %d of trace %d: cache rate %v mean cost %v gini %v, first replay %v %v %v",
				round, j, st.CacheRate, st.MeanCost, st.Gini, f.CacheRate, f.MeanCost, f.Gini)
		}
	}

	idx := calmPerTrace(steal, traceOf)
	var calmPasses []float64
	for _, i := range idx {
		calmPasses = append(calmPasses, passMs[i]...)
	}
	if !cfg.traced {
		rep.add("setup_s", median(setups), "s", len(setups))
		rep.add("ops_per_s", median(pick(rates, idx)), "1/s", len(idx))
		rep.pct("place_p50_ms", calmPasses, 0.5)
		rep.note("host steal %.1f%% of CPU time; timings from the %d calm of %d replays", 100*mean(steal), len(idx), len(steal))
		var hit, local, cost, gini []float64
		for _, f := range first {
			if f != nil {
				hit, local = append(hit, f.CacheRate), append(local, f.HitRate)
				cost, gini = append(cost, f.MeanCost), append(gini, f.Gini)
			}
		}
		if len(hit) < replayTraces {
			for _, name := range []string{"gini", "mean_hops", "hit_rate"} {
				rep.missing = append(rep.missing, fmt.Sprintf("%s (%d of %d traces replayed)", name, len(hit), replayTraces))
			}
			return nil
		}
		rep.add("gini", mean(gini), "ratio", replayTraces)
		rep.add("mean_hops", mean(cost), "hops", replayTraces*replayEvents)
		rep.add("hit_rate", mean(hit), "ratio", replayTraces*replayEvents)
		rep.note("%.4f of requests served within the hit radius", mean(local))
		return nil
	}
	rep.add("demand.report_us_per_1k", mean(lay.reportUs)*1000/replayBatch, "us", len(lay.reportUs))
	lay.report(rep)
	rep.add("trace.span_vs_explain_pct", lay.spanVsExplain, "%", lay.passes)
	addOverhead(rep, lay.tracedPass, calmPasses)
	rt.report(rep)
	return nil
}

// calmPerTrace returns the indices of the calm replays (see calm), the
// same number for every trace, so a run weighs its traces alike whatever
// the host stole: the median pass of one trace can take half as long
// again as that of another.
func calmPerTrace(steal []float64, traceOf []int) []int {
	var byTrace [replayTraces][]int
	for i, j := range traceOf {
		byTrace[j] = append(byTrace[j], i)
	}
	var chosen [replayTraces][]int
	k := len(steal)
	for j, replays := range byTrace {
		if len(replays) == 0 {
			continue
		}
		chosen[j] = calm(pick(steal, replays), 1)
		k = min(k, len(chosen[j]))
	}
	var idx []int
	for j, c := range chosen {
		for _, i := range c[:min(k, len(c))] {
			idx = append(idx, byTrace[j][i])
		}
	}
	return idx
}

// replay feeds events to sys in batches with an adaptation pass every
// adaptEvery events, checks capacity after every pass, and returns the
// number of calls it made and the time spent inside them. Untraced pass
// times go to passMs; traced rounds feed lay.
func replay(ctx context.Context, rep *report, spans *recorder, sys *faircache.AdaptiveSystem, events []faircache.RequestEvent, traced bool, lay *replayLayers, passMs *[]float64) (calls int, busy time.Duration) {
	for done := 0; done < len(events); {
		batch := events[done : done+replayBatch]
		t0 := time.Now()
		br, err := sys.Report(batch)
		t1 := time.Now()
		busy += t1.Sub(t0)
		calls++
		rep.attempted++
		if err != nil {
			rep.fail("report: %v", err)
		} else if br.Requests != replayBatch {
			rep.fail("report: %d of %d events ingested", br.Requests, replayBatch)
		}
		if traced {
			spans.record("AdaptiveSystem.Report", 0, t0, t1)
			lay.reportUs = append(lay.reportUs, float64(t1.Sub(t0).Microseconds()))
		}
		done += replayBatch
		if done%adaptEvery != 0 || done == len(events) {
			continue
		}
		t0 = time.Now()
		res, err := sys.AdaptWith(ctx, &faircache.AdaptRunOptions{Explain: traced})
		t1 = time.Now()
		busy += t1.Sub(t0)
		calls++
		rep.attempted++
		if err != nil {
			rep.fail("adapt: %v", err)
			continue
		}
		checkCapacity(rep, "adapt", sys.Counts(), adaptCapacity)
		if !traced {
			*passMs = append(*passMs, ms(t1.Sub(t0)))
			continue
		}
		root := ms(t1.Sub(t0))
		id := spans.record("AdaptiveSystem.AdaptWith", 0, t0, t1)
		if _, err := spans.attach(id, res.Trace, adaptTree); err != nil {
			rep.fail("adapt explain: %v", err)
			continue
		}
		lay.tracedPass = append(lay.tracedPass, root)
		lay.spanVsExplain = math.Max(lay.spanVsExplain, 100*math.Abs(root-res.Trace.TotalMs)/root)
		lay.add(res)
	}
	return calls, busy
}
