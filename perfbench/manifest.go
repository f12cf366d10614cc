package main

import (
	"fmt"
	"strings"
)

// metricSpec is one metric of BENCHMARK.json: its name and unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the metrics of every untraced run, in BENCHMARK.json's
// order. Every workload reports every one of them, so each metric means
// the same thing on every workload:
//
//   - setup_s: the median time to build the workload's set-up;
//   - ops_per_s: public calls completed per second of measured time;
//   - place_p50_ms: the median latency of a call that computes a
//     placement (a Solve, a daemon solve request, an adaptation pass);
//   - gini: the Gini coefficient of the caching load of the placement
//     the workload computes;
//   - mean_hops: the mean hop distance from a requester to the copy that
//     serves it;
//   - hit_rate: the share of requests served by a cached copy rather
//     than the producer.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"place_p50_ms", "ms"},
	{"gini", "ratio"},
	{"mean_hops", "hops"},
	{"hit_rate", "ratio"},
}

// perLayer lists the metrics of every traced run, in BENCHMARK.json's
// order. A workload reports each one its layer runs; the metrics of its
// idle layers (see workload.idle) read 0.
var perLayer = []metricSpec{
	{"solver.self_ms", "ms"},
	{"costmodel.build_ms", "ms"},
	{"costmodel.refresh_ms", "ms"},
	{"costmodel.cells_repaired", "count"},
	{"costmodel.full_builds", "count"},
	{"confl.ms", "ms"},
	{"confl.ticks", "count"},
	{"confl.ns_per_tick", "ns"},
	{"confl.admitted", "count"},
	{"steiner.connect_ms", "ms"},
	{"steiner.terminals", "count"},
	{"steiner.edges", "count"},
	{"core.chunk_self_ms", "ms"},
	{"pool.speedup", "ratio"},
	{"partition.region_ms", "ms"},
	{"partition.stitch_ms", "ms"},
	{"partition.rebids", "count"},
	{"partition.dropped", "count"},
	{"partition.matrix_cells_ratio", "ratio"},
	{"demand.report_us_per_1k", "us"},
	{"adapt.score_ms", "ms"},
	{"adapt.evict_ms", "ms"},
	{"adapt.replace_ms", "ms"},
	{"adapt.redundancy_ms", "ms"},
	{"adapt.fill_ms", "ms"},
	{"adapt.refresh_ms", "ms"},
	{"adapt.placed", "count"},
	{"adapt.evicted", "count"},
	{"adapt.replaced", "count"},
	{"server.lookup_mean_ms", "ms"},
	{"server.report_mean_ms", "ms"},
	{"server.publish_mean_ms", "ms"},
	{"server.requests_mean_ms", "ms"},
	{"server.solve_mean_ms", "ms"},
	{"server.adapt_mean_ms", "ms"},
	{"server.solve_worker_ms", "ms"},
	{"server.solve_outside_worker_ms", "ms"},
	{"wal.append_mean_ms", "ms"},
	{"wal.appends", "count"},
	{"coalesce.flights", "count"},
	{"coalesce.hits", "count"},
	{"coalesce.hit_ratio", "ratio"},
	{"client.overhead_lookup_ms", "ms"},
	{"client.overhead_report_ms", "ms"},
	{"client.overhead_publish_ms", "ms"},
	{"client.overhead_requests_ms", "ms"},
	{"client.overhead_solve_ms", "ms"},
	{"client.overhead_adapt_ms", "ms"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.span_vs_explain_pct", "%"},
}

// isIdle reports whether metric name belongs to one of idle's layers: an
// entry ending in "." names every metric of a layer, any other entry one
// metric.
func isIdle(name string, idle []string) bool {
	for _, p := range idle {
		if name == p || (strings.HasSuffix(p, ".") && strings.HasPrefix(name, p)) {
			return true
		}
	}
	return false
}

// complete holds rep to the manifest: every listed metric must be there
// in its unit, and no other. In a traced run the metrics of the
// workload's idle layers are added as 0; reporting one of them is an
// error, because the workload claims not to run that layer.
func (r *report) complete(traced bool, idle []string) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	got := make(map[string]metric, len(r.metrics))
	for _, m := range r.metrics {
		got[m.Name] = m
	}
	var errs []string
	for _, s := range specs {
		m, ok := got[s.name]
		delete(got, s.name)
		switch {
		case ok && traced && isIdle(s.name, idle):
			errs = append(errs, fmt.Sprintf("%s reported for an idle layer", s.name))
		case ok && m.Unit != s.unit:
			errs = append(errs, fmt.Sprintf("%s in %s, want %s", s.name, m.Unit, s.unit))
		case !ok && traced && isIdle(s.name, idle):
			r.metrics = append(r.metrics, metric{Name: s.name, Value: 0, Unit: s.unit})
		case !ok && !r.isMissing(s.name):
			errs = append(errs, fmt.Sprintf("%s (not reported)", s.name))
		}
	}
	for name := range got {
		errs = append(errs, fmt.Sprintf("%s (not in the manifest)", name))
	}
	r.missing = append(r.missing, errs...)
}

func (r *report) isMissing(name string) bool {
	for _, m := range r.missing {
		if m == name || strings.HasPrefix(m, name+" ") {
			return true
		}
	}
	return false
}
