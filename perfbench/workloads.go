package main

import "context"

// A workload is one set of inputs the benchmark drives the program
// with. Its seed is an argument to the benchmark; the program receives
// only the inputs generated from it.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, cfg config, rep *report) error
	// idle names the per-layer metrics of layers the workload does not
	// run, or whose time the program's reports do not separate from
	// another layer's; they read 0 (see isIdle for the form). Where one
	// workload runs a layer and another bypasses it, a change to that
	// layer should move the first and leave the second as it was.
	idle []string
}

// workloads is the benchmark's workload table. Each entry records why it
// was chosen; BENCHMARK.json carries the same names and one-line reasons.
//
// Left out on purpose: the Fig. 1 exact reference. Its benchmark spends
// 98% of its time in the Dreyfus–Wagner Steiner cost (steiner.ExactCost
// inside the exact solver's branch-and-bound), a reference oracle for the
// paper's figures and not the system under test, so it would only
// measure the oracle.
var workloads = []workload{
	{
		// The paper's large-grid regime (Algorithm 1 on 64 chunks, Fig. 5's
		// running time). confl is 87–93% of a global solve, and HTTP and
		// the WAL are absent, so a change to confl, costmodel, steiner or
		// pool shows here first. It bypasses partition.
		name: "solve-grid15",
		why:  "in-process Solver.Solve on a 15x15 grid, 64 chunks, capacity 3, one global solve per call: the paper's large-grid regime where confl dominates",
		run:  runSolve(false),
		idle: []string{"partition.", "demand.", "adapt.", "server.", "wal.", "coalesce.", "client."},
	},
	{
		// The same request sharded into nine regions solved side by side
		// and stitched: the partition layer's mechanism on the input
		// solve-grid15 solves whole, so a change to partition moves this
		// workload and not that one. Regions run concurrently, so its
		// layer times are busy times summed over the pool's workers.
		name: "solve-grid15-partitioned",
		why:  "the solve-grid15 request with Partition{Regions: 9}: nine regions solved concurrently and stitched, the partition layer on the same input",
		run:  runSolve(true),
		idle: []string{"demand.", "adapt.", "server.", "wal.", "coalesce.", "client."},
	},
	{
		// The request path of the durable daemon. Solves are small and 88%
		// of operations are snapshot reads, so HTTP, the topology worker,
		// the WAL fsync and the client carry most of the time and confl
		// little. Writes (solve, publish, adapt) run beside reads, so a
		// change that speeds one kind and slows the other shows, such as
		// unifying placement state or moving the fsync.
		//
		// A closed loop, not an open one: on the machine this benchmark
		// was built on, sleeps under 1 ms overshoot to about 1 ms (a 50 µs
		// sleep took 1.03 ms at p50) and a 1 ms ticker ran 0.9–1.5 ms late
		// at p50, more than ten times a lookup's 0.08 ms service time. An
		// open-loop rate sweep needs a host with sub-millisecond timers.
		//
		// Coalescing is recorded but not stressed: with nproc connections
		// at most nproc solves are in flight, so it can merge at most two
		// requests on a 2-CPU host.
		name: "daemon-mixed",
		why:  "durable daemon over loopback HTTP, nproc closed-loop clients, 85% lookups with reports, publishes, demand batches, small solves and adapts",
		run:  runDaemonMixed,
		// pool.speedup needs a Workers: 1 solve of the same request, which
		// the daemon does not take; partition is not used by a 5-chunk
		// global solve; demand ingestion runs inside the requests handler and is
		// measured as server.requests_mean_ms; a client span contains
		// HTTP, so it cannot be held against the explain total.
		idle: []string{"pool.", "partition.", "demand.", "trace.span_vs_explain_pct"},
	},
	{
		// The request-driven adaptive subsystem: demand estimation and the
		// cost model's delta updates (Commit, Evict, Refresh) on every
		// adaptation pass; confl runs only to re-place lost chunks. Hit
		// rate and mean retrieval cost guard the policy's quality next to
		// its speed.
		name: "adapt-replay",
		why:  "in-process adaptive caching on a 15x15 grid replaying eight drifting Zipf(0.9) request traces with an adaptation pass every 20,000 events",
		run:  runAdaptReplay,
		// The adaptation report splits a pass into its own phases only:
		// the cost-model repairs run inside adapt.refresh and the confl
		// and Steiner work of re-placing a lost chunk inside
		// adapt.replace. There is no daemon.
		idle: []string{"solver.", "costmodel.", "confl.", "steiner.", "core.", "pool.", "partition.", "server.", "wal.", "coalesce.", "client."},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
