package server

import (
	"context"
	"errors"
	"maps"
	"net/http"
	"reflect"
	"strings"
	"testing"

	faircache "repro"

	"repro/internal/wal"
)

// engineAt builds an in-process engine for a registered grid and loads
// snap into it: the reference the daemon's one engine is checked against.
func engineAt(t *testing.T, rows, cols, producer, capacity int, snap *Snapshot) *faircache.AdaptiveSystem {
	t.Helper()
	topo, err := faircache.Grid(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := faircache.NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := solver.NewAdaptive(context.Background(), producer, 0, &faircache.AdaptiveOptions{Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(snap.engineState(0)); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestEngineLoadRejectsInvalidSnapshot: a logged snapshot the engine
// cannot hold fails the load with a bad-argument error instead of
// panicking or half-loading.
func TestEngineLoadRejectsInvalidSnapshot(t *testing.T) {
	eng := engineAt(t, 3, 3, 4, 2, &Snapshot{Chunks: 1, Holders: map[int][]int{0: {1}}})
	for _, bad := range []*faircache.OnlineSnapshot{
		{Published: -1},
		{Published: 1, Holders: map[int][]int{3: {1}}},
		{Published: 1, Holders: map[int][]int{0: {4}}},
		{Published: 3, Holders: map[int][]int{0: {1}, 1: {1}, 2: {1}}},
	} {
		if err := eng.Load(bad); !errors.Is(err, faircache.ErrBadArgument) {
			t.Errorf("Load(%+v) err = %v, want ErrBadArgument", bad, err)
		}
	}
	if got := eng.Snapshot().Holders; !reflect.DeepEqual(got, map[int][]int{0: {1}}) {
		t.Fatalf("rejected loads changed the placement: %v", got)
	}
}

// inProcessSolve is what faircache.Solver.Solve answers for a request on
// a fresh grid.
func inProcessSolve(t *testing.T, rows, cols, producer, capacity, chunks int) (*faircache.Result, float64) {
	t.Helper()
	topo, err := faircache.Grid(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := faircache.NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Solve(context.Background(), faircache.Request{Producer: producer, Chunks: chunks, Options: &faircache.Options{Capacity: capacity}})
	if err != nil {
		t.Fatal(err)
	}
	cost, err := res.ContentionCost()
	if err != nil {
		t.Fatal(err)
	}
	return res, cost.Total()
}

// without returns holders minus chunk k.
func without(holders map[int][]int, k int) map[int][]int {
	out := maps.Clone(holders)
	delete(out, k)
	return out
}

// TestSolvePublishAdaptRestartInterleaving drives every mutation kind
// against one topology and demands each step build on the last:
// register → solve 5 chunks → publish → requests + adapt → restart →
// publish → solve.
func TestSolvePublishAdaptRestartInterleaving(t *testing.T) {
	const rows, cols, producer, capacity = 5, 5, 12, 5
	opts := durableOpts(t, "always")
	c1, s1 := newTestClient(t, opts)
	reg := c1.registerGrid(rows, cols, producer)
	path := "/v1/topologies/" + reg.ID

	var solve SolveResponse
	c1.doJSON("POST", path+"/solve", SolveRequest{Chunks: 5}, &solve, http.StatusOK)

	// The publication adds chunk 5 and keeps the solve's copies exactly.
	var pub PublishResponse
	c1.doJSON("POST", path+"/publish", nil, &pub, http.StatusOK)
	if pub.Published != 6 || pub.Clock != 1 || pub.Publications[0].Chunk != 5 {
		t.Fatalf("publish: published %d clock %d chunk %d, want 6/1/5", pub.Published, pub.Clock, pub.Publications[0].Chunk)
	}
	for k, hs := range solve.Holders {
		if !reflect.DeepEqual(pub.Holders[k], hs) {
			t.Errorf("chunk %d: holders %v after publish, solve placed %v", k, pub.Holders[k], hs)
		}
	}
	if got := pub.Holders[5]; len(got) == 0 || !reflect.DeepEqual(got, pub.Publications[0].CacheNodes) {
		t.Errorf("chunk 5 holders %v, placement said %v", got, pub.Publications[0].CacheNodes)
	}

	// Requests and adaptation run on the committed placement: an engine
	// loaded with it and fed the same events adapts identically.
	committed := reportOf(c1, reg.ID).Snapshot
	events := demandEvents(t, rows*cols, 6, 2000, producer)
	c1.doJSON("POST", path+"/requests", RequestsRequest{Events: events, Init: &DemandInit{}}, nil, http.StatusOK)
	var ar AdaptResponse
	c1.doJSON("POST", path+"/adapt", nil, &ar, http.StatusOK)
	ref := engineAt(t, rows, cols, producer, capacity, committed)
	if _, err := ref.Report(events); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Adapt(context.Background()); err != nil {
		t.Fatal(err)
	}
	if want := ref.Snapshot(); !reflect.DeepEqual(ar.Holders, want.Holders) || !reflect.DeepEqual(ar.Counts, want.Counts) {
		t.Fatalf("adapt did not start from the committed placement:\n daemon %v\n loaded %v", ar.Holders, want.Holders)
	}

	// A restart recovers the report and lookups exactly.
	before := reportOf(c1, reg.ID)
	before.Solver, before.Coalesce = faircache.SolverStats{}, CoalesceInfo{}
	var beforeLookup LookupResponse
	c1.doJSON("GET", path+"/lookup?chunk=5&node=0", nil, &beforeLookup, http.StatusOK)
	c1.srv.Close()
	s1.Close()

	c2, _ := newTestClient(t, opts)
	after := reportOf(c2, reg.ID)
	after.Solver, after.Coalesce = faircache.SolverStats{}, CoalesceInfo{}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("report diverges across the restart:\n before %+v\n after  %+v", before, after)
	}
	var afterLookup LookupResponse
	c2.doJSON("GET", path+"/lookup?chunk=5&node=0", nil, &afterLookup, http.StatusOK)
	if !reflect.DeepEqual(beforeLookup, afterLookup) {
		t.Fatalf("lookup diverges across the restart: %+v vs %+v", beforeLookup, afterLookup)
	}

	// The next publication continues the version, the clock and the
	// chunk id, and leaves every other copy where the adaptation put it.
	var pub2 PublishResponse
	c2.doJSON("POST", path+"/publish", nil, &pub2, http.StatusOK)
	snap := before.Snapshot
	if pub2.Version != snap.Version+1 || pub2.Clock != snap.Clock+1 || pub2.Publications[0].Chunk != snap.Chunks {
		t.Fatalf("post-restart publish v%d clock %d chunk %d, want v%d clock %d chunk %d",
			pub2.Version, pub2.Clock, pub2.Publications[0].Chunk, snap.Version+1, snap.Clock+1, snap.Chunks)
	}
	if !reflect.DeepEqual(without(pub2.Holders, snap.Chunks), snap.Holders) {
		t.Fatalf("publish moved existing copies:\n before %v\n after  %v", snap.Holders, pub2.Holders)
	}

	// After publishes and an adaptation, a solve is still exactly the
	// in-process answer, and the chunk-id space never shrinks.
	var solve2 SolveResponse
	c2.doJSON("POST", path+"/solve", SolveRequest{Chunks: 5}, &solve2, http.StatusOK)
	res, cost := inProcessSolve(t, rows, cols, producer, capacity, 5)
	if !reflect.DeepEqual(solve2.Holders, res.Holders) || solve2.TotalCost != cost || solve2.Gini != res.Gini() {
		t.Fatalf("daemon solve %v cost %v gini %v, in-process %v cost %v gini %v",
			solve2.Holders, solve2.TotalCost, solve2.Gini, res.Holders, cost, res.Gini())
	}
	if rep := reportOf(c2, reg.ID); rep.Snapshot.Chunks != snap.Chunks+1 {
		t.Fatalf("solve of 5 shrank the chunk-id space to %d, want %d", rep.Snapshot.Chunks, snap.Chunks+1)
	}
}

// TestExpiryRemovesEveryCopy: a published chunk's TTL removes every copy,
// including the ones adaptation added, no later adaptation re-places it,
// and chunk ids keep counting up across solves.
func TestExpiryRemovesEveryCopy(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	producer := 12
	var reg RegisterResponse
	c.doJSON("POST", "/v1/topologies", RegisterRequest{
		Kind: "grid", Rows: 5, Cols: 5, Producer: &producer, Capacity: 2, ChunkTTL: 1,
	}, &reg, http.StatusCreated)
	path := "/v1/topologies/" + reg.ID

	var p1 PublishResponse
	c.doJSON("POST", path+"/publish", nil, &p1, http.StatusOK)
	hot := make([]faircache.RequestEvent, 500)
	for i := range hot {
		hot[i] = faircache.RequestEvent{Node: i % 25, Chunk: 0}
	}
	c.doJSON("POST", path+"/requests", RequestsRequest{Events: hot, Init: &DemandInit{}}, nil, http.StatusOK)
	var ar1 AdaptResponse
	c.doJSON("POST", path+"/adapt", nil, &ar1, http.StatusOK)
	if len(ar1.Holders[0]) <= len(p1.Holders[0]) {
		t.Fatalf("adaptation added no copies of the hot chunk: %v -> %v", p1.Holders[0], ar1.Holders[0])
	}

	var p2 PublishResponse
	c.doJSON("POST", path+"/publish", nil, &p2, http.StatusOK)
	if !reflect.DeepEqual(p2.Publications[0].Expired, []int{0}) {
		t.Fatalf("expired = %v, want [0]", p2.Publications[0].Expired)
	}
	if hs, ok := p2.Holders[0]; ok {
		t.Fatalf("expired chunk 0 still held by %v", hs)
	}
	c.doJSON("POST", path+"/requests", RequestsRequest{Events: hot}, nil, http.StatusOK)
	var ar2 AdaptResponse
	c.doJSON("POST", path+"/adapt", nil, &ar2, http.StatusOK)
	if hs, ok := ar2.Holders[0]; ok {
		t.Fatalf("adaptation re-placed expired chunk 0 on %v", hs)
	}

	// A solve of one chunk re-places id 0 but keeps the id space at 2,
	// so the next publication takes id 2.
	var solve SolveResponse
	c.doJSON("POST", path+"/solve", SolveRequest{Chunks: 1}, &solve, http.StatusOK)
	rep := reportOf(c, reg.ID)
	if rep.Snapshot.Chunks != 2 || rep.Snapshot.ExpiredTo != 0 {
		t.Fatalf("after solve: chunks %d expired [%d,%d), want 2 and none", rep.Snapshot.Chunks, rep.Snapshot.ExpiredFrom, rep.Snapshot.ExpiredTo)
	}
	var p3 PublishResponse
	c.doJSON("POST", path+"/publish", nil, &p3, http.StatusOK)
	if p3.Publications[0].Chunk != 2 || !reflect.DeepEqual(p3.Publications[0].Expired, []int{1}) {
		t.Fatalf("publish after solve: chunk %d expired %v, want 2 and [1]", p3.Publications[0].Chunk, p3.Publications[0].Expired)
	}
	if !reflect.DeepEqual(p3.Holders[0], solve.Holders[0]) {
		t.Fatalf("solved chunk 0 lost copies: %v, solve placed %v", p3.Holders[0], solve.Holders[0])
	}
}

// TestWALAppendFailureRollsBack injects a failing WAL under solve,
// publish and adapt: each answers a typed 5xx, nothing commits, and the
// next successful mutation builds on the last committed state.
func TestWALAppendFailureRollsBack(t *testing.T) {
	const rows, cols, producer, capacity = 4, 4, 5, 5
	opts := durableOpts(t, "always")
	c, s := newTestClient(t, opts)
	reg := c.registerGrid(rows, cols, producer)
	path := "/v1/topologies/" + reg.ID
	c.doJSON("POST", path+"/solve", SolveRequest{Chunks: 3}, nil, http.StatusOK)
	c.doJSON("POST", path+"/publish", nil, nil, http.StatusOK)
	c.doJSON("POST", path+"/requests", RequestsRequest{Events: demandEvents(t, rows*cols, 4, 500, producer), Init: &DemandInit{}}, nil, http.StatusOK)
	before := reportOf(c, reg.ID).Snapshot

	if err := s.journal.log.Close(); err != nil {
		t.Fatal(err)
	}
	c.wantError("POST", path+"/solve", SolveRequest{Chunks: 4}, http.StatusInternalServerError, CodeInternal)
	c.wantError("POST", path+"/publish", nil, http.StatusInternalServerError, CodeInternal)
	c.wantError("POST", path+"/adapt", nil, http.StatusInternalServerError, CodeInternal)
	if got := reportOf(c, reg.ID).Snapshot; !reflect.DeepEqual(got, before) {
		t.Fatalf("failed appends changed the committed snapshot:\n before %+v\n after  %+v", before, got)
	}
	if got := scrape(c)["faircached_wal_append_errors_total"]; got != 3 {
		t.Errorf("wal append errors = %v, want 3", got)
	}

	log, _, err := wal.Open(wal.Options{Dir: opts.DataDir})
	if err != nil {
		t.Fatal(err)
	}
	s.journal.mu.Lock()
	s.journal.log = log
	s.journal.mu.Unlock()
	var pub PublishResponse
	c.doJSON("POST", path+"/publish", nil, &pub, http.StatusOK)
	if pub.Version != before.Version+1 || pub.Clock != before.Clock+1 || pub.Publications[0].Chunk != before.Chunks {
		t.Fatalf("publish after recovery: v%d clock %d chunk %d, want v%d clock %d chunk %d",
			pub.Version, pub.Clock, pub.Publications[0].Chunk, before.Version+1, before.Clock+1, before.Chunks)
	}
	ref := engineAt(t, rows, cols, producer, capacity, before)
	if _, err := ref.Publish(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if want := ref.Snapshot().Holders; !reflect.DeepEqual(pub.Holders, want) {
		t.Fatalf("publish did not build on the committed state:\n daemon %v\n loaded %v", pub.Holders, want)
	}
}

// TestWorkerPanicContained injects a command that mutates the engine and
// then panics: the command gets a typed 500 carrying its trace id, the
// panic is counted, and the topology keeps serving from the committed
// snapshot.
func TestWorkerPanicContained(t *testing.T) {
	c, s := newTestClient(t, Options{})
	reg := c.registerGrid(4, 4, 5)
	path := "/v1/topologies/" + reg.ID
	var p1 PublishResponse
	c.doJSON("POST", path+"/publish", nil, &p1, http.StatusOK)
	tp, terr := s.lookupTopology(reg.ID)
	if terr != nil {
		t.Fatal(terr)
	}

	ctx := withTraceID(context.Background(), "4bf92f3577b34da6a3ce929d0e0e4736")
	_, err := tp.do(ctx, func(cctx context.Context) (any, error) {
		eng, err := tp.engineFor(cctx)
		if err != nil {
			return nil, err
		}
		if _, err := eng.Publish(cctx, tp.chunkTTL); err != nil {
			return nil, err
		}
		panic("injected fault")
	})
	var e *Error
	if !errors.As(err, &e) || e.Status != http.StatusInternalServerError || e.Code != CodeInternal ||
		!strings.Contains(e.Message, "4bf92f3577b34da6a3ce929d0e0e4736") {
		t.Fatalf("panicking command answered %v, want a typed 500 carrying the trace id", err)
	}
	if got := scrape(c)["faircached_worker_panics_total"]; got != 1 {
		t.Errorf("worker panics = %v, want 1", got)
	}

	// The half-applied publication is gone: the next one takes chunk 1
	// at clock 2 on top of the committed chunk 0.
	var p2 PublishResponse
	c.doJSON("POST", path+"/publish", nil, &p2, http.StatusOK)
	if p2.Version != p1.Version+1 || p2.Clock != 2 || p2.Publications[0].Chunk != 1 {
		t.Fatalf("publish after panic: v%d clock %d chunk %d, want v%d clock 2 chunk 1",
			p2.Version, p2.Clock, p2.Publications[0].Chunk, p1.Version+1)
	}
	if !reflect.DeepEqual(p2.Holders[0], p1.Holders[0]) {
		t.Fatalf("committed chunk 0 moved: %v -> %v", p1.Holders[0], p2.Holders[0])
	}
}
