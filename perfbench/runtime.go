package main

import "runtime"

// rtStats accumulates Go runtime counters over the untraced parts of a
// traced run, so the allocation and GC figures describe the program as
// the end-to-end runs see it.
type rtStats struct {
	mallocs, bytes, gcs, pauseNs uint64
	ops                          int
	before                       runtime.MemStats
}

// begin snapshots the counters; end adds the delta since begin for ops
// operations.
func (s *rtStats) begin() { runtime.ReadMemStats(&s.before) }

func (s *rtStats) end(ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	s.mallocs += after.Mallocs - s.before.Mallocs
	s.bytes += after.TotalAlloc - s.before.TotalAlloc
	s.gcs += uint64(after.NumGC - s.before.NumGC)
	s.pauseNs += after.PauseTotalNs - s.before.PauseTotalNs
	s.ops += ops
}

// report adds the runtime layer's metrics. An operation is the
// workload's unit of work: a Solve call, an HTTP request or a replayed
// event.
func (s *rtStats) report(rep *report) {
	n := float64(s.ops)
	rep.add("runtime.allocs_per_op", float64(s.mallocs)/n, "count", s.ops)
	rep.add("runtime.bytes_per_op", float64(s.bytes)/n, "B", s.ops)
	rep.add("runtime.gc_cycles", float64(s.gcs), "count", s.ops)
	rep.add("runtime.gc_pause_ms", float64(s.pauseNs)/1e6, "ms", s.ops)
}
