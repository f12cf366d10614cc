package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	faircache "repro"
)

// spanRec is one benchmark-side span. A span with Count > 0 is an
// aggregated explain phase: Count program spans of that name, summed
// into EndMs−StartMs, placed under the span of the public call that
// returned the report. Its start is its parent's start; only its
// duration is measured.
type spanRec struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartMs float64 `json:"startMs"`
	EndMs   float64 `json:"endMs"`
	Count   int     `json:"count,omitempty"`
}

func (s spanRec) ms() float64 { return s.EndMs - s.StartMs }

// recorder keeps the traced run's spans in memory until the run ends.
// IDs start at 1; 0 means "no parent". A nil recorder records nothing,
// so untraced runs pay only a nil check.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []spanRec
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// record adds a span for a call that ran from start to end and returns
// its id.
func (r *recorder) record(name string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, spanRec{
		ID: id, Parent: parent, Name: name,
		StartMs: ms(start.Sub(r.epoch)), EndMs: ms(end.Sub(r.epoch)),
	})
	return id
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	buf, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// phaseTree gives, for each explain phase the benchmark knows, the
// phases that may contain it in the program's span tree, nearest first;
// "" is the public call's own span. A report naming a phase outside the
// tree is an error, so a new program phase cannot go unattributed.
type phaseTree map[string][]string

var solveTree = phaseTree{
	"solve":             {""},
	"costmodel.build":   {"solve"},
	"costmodel.fork":    {"solve"},
	"partition.bases":   {"solve"},
	"partition.region":  {"solve"},
	"partition.stitch":  {"solve"},
	"chunk":             {"partition.region", "solve"},
	"costmodel.refresh": {"chunk"},
	"confl":             {"chunk"},
	"steiner.connect":   {"chunk"},
	"steiner.improve":   {"chunk"},
}

var adaptTree = phaseTree{
	"adapt":            {""},
	"adapt.score":      {"adapt"},
	"adapt.evict":      {"adapt"},
	"adapt.replace":    {"adapt"},
	"adapt.redundancy": {"adapt"},
	"adapt.fill":       {"adapt"},
	"adapt.refresh":    {"adapt"},
}

// attach records rep's phases as aggregated child spans of the call span
// id, nested per tree, and returns the phase totals in milliseconds.
func (r *recorder) attach(id int, rep *faircache.ExplainReport, tree phaseTree) (map[string]float64, error) {
	if rep == nil {
		return nil, fmt.Errorf("traced call returned no explain report")
	}
	totals := make(map[string]float64, len(rep.Phases))
	counts := make(map[string]int, len(rep.Phases))
	for _, p := range rep.Phases {
		if _, ok := tree[p.Phase]; !ok {
			return nil, fmt.Errorf("explain phase %q has no place in the layer tree", p.Phase)
		}
		totals[p.Phase] = p.TotalMs
		counts[p.Phase] = p.Count
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	root := r.spans[id-1]
	ids := map[string]int{"": id}
	var place func(phase string) (int, error)
	place = func(phase string) (int, error) {
		if nid, ok := ids[phase]; ok {
			return nid, nil
		}
		for _, parent := range tree[phase] {
			if _, present := totals[parent]; !present && parent != "" {
				continue
			}
			pid, err := place(parent)
			if err != nil {
				return 0, err
			}
			nid := len(r.spans) + 1
			r.spans = append(r.spans, spanRec{
				ID: nid, Parent: pid, Name: phase,
				StartMs: root.StartMs, EndMs: root.StartMs + totals[phase], Count: counts[phase],
			})
			ids[phase] = nid
			return nid, nil
		}
		return 0, fmt.Errorf("explain phase %q: none of its parents %v is in the report", phase, tree[phase])
	}
	for _, p := range rep.Phases {
		if _, err := place(p.Phase); err != nil {
			return nil, err
		}
	}
	return totals, nil
}

// selfTimes returns, by span name, the self time of every span in the
// subtree rooted at id: its duration minus its children's. The values sum
// to the root's duration; a negative one means a phase was placed under a
// parent that does not contain it.
func (r *recorder) selfTimes(id int) map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	in := map[int]bool{id: true}
	self := map[string]float64{}
	// Children are always recorded after their parent.
	for i := id - 1; i < len(r.spans); i++ {
		s := r.spans[i]
		if i > id-1 && !in[s.Parent] {
			continue
		}
		in[s.ID] = true
		self[s.Name] += s.ms()
		if i > id-1 {
			self[r.spans[s.Parent-1].Name] -= s.ms()
		}
	}
	return self
}

// countValued lists the explain counters that count work. The others are
// IDs (chunk, producer, region) or flags, and summing them across spans,
// as explain reports do, gives meaningless totals.
var countValued = map[string]bool{
	"ticks": true, "admitted": true, "frozenRemote": true,
	"terminals": true, "edges": true,
	"cellsRepaired": true, "repairs": true, "fullBuilds": true,
	"rebids": true, "dropped": true, "haloNodes": true,
}

// counter reads the summed count-valued counter name of phase from rep.
// Reading an ID-valued counter is a programming error.
func counter(rep *faircache.ExplainReport, phase, name string) int64 {
	if !countValued[name] {
		panic(fmt.Sprintf("perfbench: explain counter %q is not count-valued", name))
	}
	for _, p := range rep.Phases {
		if p.Phase == phase {
			return p.Counters[name]
		}
	}
	return 0
}
