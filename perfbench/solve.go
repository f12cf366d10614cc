package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	faircache "repro"
)

const (
	gridSide     = 15
	gridChunks   = 64
	gridCapacity = 3
	gridRegions  = 9
	// setupRepeats is how many times a run builds its set-up; setup_s is
	// the median.
	setupRepeats = 5
	// minSolves gives each p50 ten samples beyond it.
	minSolves = 2 * minTail
)

// gridProducers are the producers the seed picks from: the four nodes two
// hops from the centre of the 15×15 grid along its axes. They are images
// of one another under the grid's symmetries, so every seed poses the
// same problem up to tie-breaking; their global placements share one load
// distribution (same Gini) and their costs differ by under 1%.
var gridProducers = []int{5*gridSide + 7, 7*gridSide + 5, 7*gridSide + 9, 9*gridSide + 7}

func gridProducer(seed int64) int {
	i := seed % int64(len(gridProducers))
	if i < 0 {
		i += int64(len(gridProducers))
	}
	return gridProducers[i]
}

// gridRequest is the solve workloads' request; partitioned adds the
// 9-region sharding, workers overrides the pool width (0 = default).
func gridRequest(producer, workers int, partitioned, explain bool) faircache.Request {
	o := &faircache.Options{Capacity: gridCapacity, Workers: workers, Explain: explain}
	if partitioned {
		o.Partition = &faircache.PartitionOptions{Regions: gridRegions}
	}
	return faircache.Request{Producer: producer, Chunks: gridChunks, Options: o}
}

// sampleLen is the least time one steal-tagged sample of solves lasts:
// one global solve, or about ten partitioned ones (see calm).
const sampleLen = 500 * time.Millisecond

// runSolve returns the run function of the in-process solve workload,
// global or partitioned: a closed loop with one caller that sends the
// same request to a long-lived solver.
func runSolve(partitioned bool) func(ctx context.Context, cfg config, rep *report) error {
	return func(ctx context.Context, cfg config, rep *report) error {
		return solveLoop(ctx, cfg, rep, partitioned)
	}
}

func solveLoop(ctx context.Context, cfg config, rep *report, partitioned bool) error {
	producer := gridProducer(cfg.seed)
	var lay solveLayers

	// Set-up: topology, solver, the cold cost-model build and one warm-up
	// solve (a partitioned one builds the region plans), so the loop
	// measures the steady state a long-lived solver serves.
	var setups []float64
	var solver *faircache.Solver
	var topo *faircache.Topology
	var warm []*faircache.Result
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		t, err := faircache.Grid(gridSide, gridSide)
		if err != nil {
			return err
		}
		s, err := faircache.NewSolver(t)
		if err != nil {
			return err
		}
		res, err := s.Solve(ctx, gridRequest(producer, 0, partitioned, cfg.traced))
		if err != nil {
			return fmt.Errorf("warm-up solve: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		rep.attempted++
		if cfg.traced {
			lay.buildMs = append(lay.buildMs, phaseMs(res.Trace, "costmodel.build"))
		}
		solver, topo, warm = s, t, append(warm, res)
	}

	// The Workers: 1 reference every placement must match.
	t0 := time.Now()
	ref, err := solver.Solve(ctx, gridRequest(producer, 1, partitioned, false))
	if err != nil {
		return fmt.Errorf("reference solve: %w", err)
	}
	seqMs := []float64{ms(time.Since(t0))}
	rep.attempted++
	checkCapacity(rep, "reference", ref.Counts, gridCapacity)
	for _, res := range warm {
		checkPlacement(rep, "warm-up", res, ref)
	}

	// Each untraced sample's solve times and the steal share over it.
	var samples [][]float64
	var steal []float64
	var tracedMs []float64
	var rt rtStats
	solves := 0
	w := newWindow(cfg.seconds)
	enough := func() bool {
		if cfg.traced {
			return solves > 0 && lay.solves > 0
		}
		return solves >= minSolves
	}
	for i := 0; !w.done(enough()); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// A traced run alternates untraced and traced samples, so the
		// tracing overhead is measured under the same conditions.
		traced := cfg.traced && i%2 == 1
		if cfg.traced && !traced {
			rt.begin()
		}
		c0, s0 := readTicks(), time.Now()
		var took []float64
		for n := 0; n == 0 || time.Since(s0) < sampleLen; n++ {
			t0 := time.Now()
			res, err := solver.Solve(ctx, gridRequest(producer, 0, partitioned, traced))
			t1 := time.Now()
			rep.attempted++
			if err != nil {
				rep.fail("solve: %v", err)
				continue
			}
			checkPlacement(rep, "solve", res, ref)
			if traced {
				lay.addTraced(rep, cfg.spans, res, t0, t1)
				tracedMs = append(tracedMs, ms(t1.Sub(t0)))
				continue
			}
			took = append(took, ms(t1.Sub(t0)))
		}
		if cfg.traced && !traced {
			rt.end(len(took))
		}
		if !traced {
			samples, steal = append(samples, took), append(steal, readTicks().stealSince(c0))
			solves += len(took)
		}
	}
	times := calmSolves(samples, steal)

	if !cfg.traced {
		total := 0.0
		for _, t := range times {
			total += t
		}
		rep.add("setup_s", median(setups), "s", len(setups))
		rep.add("ops_per_s", 1000*float64(len(times))/total, "1/s", len(times))
		rep.pct("place_p50_ms", times, 0.5)
		rep.note("host steal %.1f%% of CPU time; timings from %d of %d solves in the calmest samples", 100*mean(steal), len(times), solves)
		rep.add("gini", ref.Gini(), "ratio", 1)
		hops, hit, err := uniformAccess(topo, producer, ref.Holders)
		if err != nil {
			return err
		}
		rep.add("mean_hops", hops, "hops", topo.NumNodes()-1)
		rep.add("hit_rate", hit, "ratio", topo.NumNodes()-1)
		cost, err := ref.ContentionCost()
		if err != nil {
			return err
		}
		rep.note("contention cost %.0f of the reference placement", cost.Total())
		return nil
	}

	// pool.speedup compares the sequential reference path with the
	// default pool on the same request; two more sequential solves give
	// it a median.
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		res, err := solver.Solve(ctx, gridRequest(producer, 1, partitioned, false))
		rep.attempted++
		if err != nil {
			rep.fail("sequential solve: %v", err)
			continue
		}
		seqMs = append(seqMs, ms(time.Since(t0)))
		checkPlacement(rep, "sequential solve", res, ref)
	}
	rep.add("pool.speedup", median(seqMs)/median(times), "ratio", len(seqMs))
	lay.report(rep)
	if partitioned {
		lay.reportPartition(rep)
	}
	rep.add("trace.span_vs_explain_pct", lay.spanVsExplain, "%", lay.solves)
	addOverhead(rep, tracedMs, times)
	rt.report(rep)
	return nil
}

// calmSolves returns the solve times of the calm samples (see calm),
// topped up with the least disturbed others to at least minSolves.
func calmSolves(samples [][]float64, steal []float64) []float64 {
	var out []float64
	for _, i := range calm(steal, len(steal)) {
		if steal[i] > calmSteal && len(out) >= minSolves {
			break
		}
		out = append(out, samples[i]...)
	}
	return out
}

// uniformAccess serves every chunk to every node but the producer from
// its nearest copy, as the daemon's lookup does (a holder wins a tie with
// the producer), and returns the mean hop distance and the share of
// requests a cached copy serves.
func uniformAccess(topo *faircache.Topology, producer int, holders [][]int) (meanHops, hitRate float64, err error) {
	var hops, hits, n int
	for v := 0; v < topo.NumNodes(); v++ {
		if v == producer {
			continue
		}
		dist, err := topo.HopDistances(v)
		if err != nil {
			return 0, 0, err
		}
		for _, hs := range holders {
			best, cached := dist[producer], false
			for _, h := range hs {
				if dist[h] <= best {
					best, cached = dist[h], true
				}
			}
			n++
			hops += best
			if cached {
				hits++
			}
		}
	}
	return float64(hops) / float64(n), float64(hits) / float64(n), nil
}

// addTraced attributes one traced in-process solve to the layers: the
// benchmark span around Solver.Solve is the root, the explain phases its
// children. A global solve's layer self times must sum to the root span;
// a partitioned one's regions overlap in time, so its phases sum to more.
func (l *solveLayers) addTraced(rep *report, spans *recorder, res *faircache.Result, t0, t1 time.Time) {
	id := spans.record("Solver.Solve", 0, t0, t1)
	if _, err := spans.attach(id, res.Trace, solveTree); err != nil {
		rep.fail("explain: %v", err)
		return
	}
	root := ms(t1.Sub(t0))
	if res.Partition == nil {
		sum := 0.0
		for name, v := range spans.selfTimes(id) {
			if v < 0 {
				rep.fail("layer %s self time %.3f ms is negative", name, v)
			}
			sum += v
		}
		if math.Abs(sum-root) > 1e-6*root {
			rep.fail("layer self times sum to %.3f ms, root span is %.3f ms", sum, root)
		}
	}
	gap := 100 * math.Abs(root-res.Trace.TotalMs) / root
	if gap > 5 {
		rep.fail("Solver.Solve span %.3f ms and explain totalMs %.3f ms differ by %.1f%%", root, res.Trace.TotalMs, gap)
	}
	l.spanVsExplain = math.Max(l.spanVsExplain, gap)
	l.add(res.Trace, root, res.Partition)
}

// solveLayers accumulates the per-layer figures of traced solves.
type solveLayers struct {
	solves                            int
	solverSelf, chunkSelf, refresh    float64
	confl, steiner                    float64
	ticks, admitted, terminals, edges int64
	cellsRepaired, fullBuilds         int64
	regionMs, stitchMs                float64
	rebids, dropped                   int64
	matrixCells, fullMatrixCells      int
	spanVsExplain                     float64 // worst relative gap, %
	buildMs                           []float64
}

// add attributes one solve's explain report. rootMs is the benchmark span
// around an in-process Solver.Solve, or 0 for a solve over HTTP, whose
// span holds the transport too. part is the solve's partition report,
// nil for a global solve.
func (l *solveLayers) add(e *faircache.ExplainReport, rootMs float64, part *faircache.PartitionReport) {
	tot := map[string]float64{}
	for _, p := range e.Phases {
		tot[p.Phase] = p.TotalMs
	}
	outside := 0.0
	if rootMs > 0 {
		outside = rootMs - tot["solve"]
	}
	steiner := tot["steiner.connect"] + tot["steiner.improve"]
	l.solves++
	l.refresh += tot["costmodel.refresh"]
	l.confl += tot["confl"]
	l.steiner += steiner
	l.chunkSelf += tot["chunk"] - tot["confl"] - steiner - tot["costmodel.refresh"]
	l.ticks += counter(e, "confl", "ticks")
	l.admitted += counter(e, "confl", "admitted")
	l.terminals += counter(e, "steiner.connect", "terminals")
	l.edges += counter(e, "steiner.connect", "edges")
	l.cellsRepaired += counter(e, "costmodel.refresh", "cellsRepaired")
	l.fullBuilds += counter(e, "costmodel.refresh", "fullBuilds")
	if part == nil {
		// The façade outside the program's solve span, the solve span's
		// own remainder and the cost-model fork.
		l.solverSelf += outside + tot["solve"] - tot["costmodel.build"] - tot["chunk"]
		return
	}
	// The regions overlap the rest of the solve span, so its remainder
	// cannot be told apart; the façade's part is what lies outside it.
	l.solverSelf += outside + tot["costmodel.fork"]
	l.regionMs += tot["partition.region"]
	l.stitchMs += tot["partition.stitch"]
	l.rebids += counter(e, "partition.stitch", "rebids")
	l.dropped += counter(e, "partition.stitch", "dropped")
	l.matrixCells += part.MatrixCells
	l.fullMatrixCells += part.FullMatrixCells
}

// report adds the solve layers' metrics, each a mean per traced solve;
// costmodel.build_ms is the median cold build of the set-ups.
func (l *solveLayers) report(rep *report) {
	n := float64(l.solves)
	rep.add("solver.self_ms", l.solverSelf/n, "ms", l.solves)
	rep.add("costmodel.build_ms", median(l.buildMs), "ms", len(l.buildMs))
	rep.add("costmodel.refresh_ms", l.refresh/n, "ms", l.solves)
	rep.add("costmodel.cells_repaired", float64(l.cellsRepaired)/n, "count", l.solves)
	rep.add("costmodel.full_builds", float64(l.fullBuilds)/n, "count", l.solves)
	rep.add("confl.ms", l.confl/n, "ms", l.solves)
	rep.add("confl.ticks", float64(l.ticks)/n, "count", l.solves)
	rep.add("confl.ns_per_tick", l.confl*1e6/float64(l.ticks), "ns", l.solves)
	rep.add("confl.admitted", float64(l.admitted)/n, "count", l.solves)
	rep.add("steiner.connect_ms", l.steiner/n, "ms", l.solves)
	rep.add("steiner.terminals", float64(l.terminals)/n, "count", l.solves)
	rep.add("steiner.edges", float64(l.edges)/n, "count", l.solves)
	rep.add("core.chunk_self_ms", l.chunkSelf/n, "ms", l.solves)
}

// reportPartition adds the partition layer's metrics, each a mean per
// traced solve.
func (l *solveLayers) reportPartition(rep *report) {
	n := float64(l.solves)
	rep.add("partition.region_ms", l.regionMs/n, "ms", l.solves)
	rep.add("partition.stitch_ms", l.stitchMs/n, "ms", l.solves)
	rep.add("partition.rebids", float64(l.rebids)/n, "count", l.solves)
	rep.add("partition.dropped", float64(l.dropped)/n, "count", l.solves)
	rep.add("partition.matrix_cells_ratio", float64(l.matrixCells)/float64(l.fullMatrixCells), "ratio", l.solves)
}

// addOverhead reports the tracing overhead of the workload's main
// operation: traced minus untraced median latency.
func addOverhead(rep *report, traced, untraced []float64) {
	t, u := median(traced), median(untraced)
	rep.add("trace.overhead_ms", t-u, "ms", len(traced))
	rep.add("trace.overhead_pct", 100*(t-u)/u, "%", len(traced))
}

func phaseMs(rep *faircache.ExplainReport, phase string) float64 {
	if rep == nil {
		return math.NaN()
	}
	for _, p := range rep.Phases {
		if p.Phase == phase {
			return p.TotalMs
		}
	}
	return 0
}

// checkPlacement fails the operation unless res places exactly what want
// places, within capacity.
func checkPlacement(rep *report, what string, res, want *faircache.Result) {
	if !slices.EqualFunc(res.Holders, want.Holders, slices.Equal[[]int]) {
		rep.fail("%s: placement differs from the reference", what)
		return
	}
	checkCapacity(rep, what, res.Counts, gridCapacity)
}

func checkCapacity(rep *report, what string, counts []int, capacity int) {
	for v, c := range counts {
		if c > capacity {
			rep.fail("%s: node %d holds %d chunks, capacity %d", what, v, c, capacity)
			return
		}
	}
}
