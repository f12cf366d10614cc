package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	faircache "repro"

	"repro/internal/coalesce"
)

// Snapshot is the immutable committed state of one registered topology.
// Workers build a fresh Snapshot after every mutation and swap it in
// atomically; readers load the pointer and never see a half-applied
// mutation. A Snapshot must never be modified after it is stored. It is
// also the one shape the topology's placement engine is loaded from.
type Snapshot struct {
	// Version increases by one per committed mutation, starting at 1 for
	// the registration commit.
	Version int `json:"version"`
	// Source records what committed this snapshot: "register",
	// "solve:<algorithm>", "publish" or "adapt".
	Source string `json:"source"`
	// Producer is the topology's producer node.
	Producer int `json:"producer"`
	// Chunks is the number of known chunk ids; ids in [0, Chunks) are
	// valid lookup targets even when they hold no copy (the producer
	// always serves them). A solve of n chunks raises it to at least n; a
	// publication takes id Chunks. Ids are never reused.
	Chunks int `json:"chunks"`
	// Holders maps each chunk id holding a copy to the nodes caching it.
	Holders map[int][]int `json:"holders"`
	// Counts is the per-node cached-chunk count.
	Counts []int `json:"counts"`
	// Clock is the publication count.
	Clock int `json:"clock"`
	// Expiry maps each live published chunk to the publication clock at
	// which it expires.
	Expiry map[int]int `json:"expiry,omitempty"`
	// ExpiredFrom and ExpiredTo bound the published chunk ids whose
	// lifetime has ended, [ExpiredFrom, ExpiredTo): they hold no copy and
	// adaptation never re-places them.
	ExpiredFrom int `json:"expiredFrom,omitempty"`
	ExpiredTo   int `json:"expiredTo,omitempty"`
	// Solves and Publications count committed mutations by kind.
	Solves       int `json:"solves"`
	Publications int `json:"publications"`
}

// engineState is the placement state the snapshot commits, in the shape
// the engine loads; the chunk-id space is at least chunks.
func (snap *Snapshot) engineState(chunks int) *faircache.OnlineSnapshot {
	return &faircache.OnlineSnapshot{
		Clock:       snap.Clock,
		Published:   max(snap.Chunks, chunks),
		Holders:     snap.Holders,
		Expiry:      snap.Expiry,
		ExpiredFrom: snap.ExpiredFrom,
		ExpiredTo:   snap.ExpiredTo,
	}
}

// command is one serialized mutation handed to a topology's worker. apply
// receives the request context so the engine underneath can abort
// mid-solve when the client disconnects or the deadline passes — not just
// have its finished result discarded.
type command struct {
	ctx   context.Context
	apply func(ctx context.Context) (any, error)
	reply chan cmdResult
}

type cmdResult struct {
	value any
	err   error
}

// topology is one registered topology: an immutable network, a
// single-writer worker goroutine that owns all mutable state, and an
// atomically swapped snapshot that read endpoints consume lock-free.
type topology struct {
	id       string
	kind     string
	topo     *faircache.Topology
	producer int
	capacity int
	chunkTTL int // RegisterRequest.ChunkTTL: lifetime of published chunks

	cmds     chan *command
	quit     chan struct{}
	quitOnce sync.Once
	wg       sync.WaitGroup
	snap     atomic.Pointer[Snapshot]
	solver   *faircache.Solver

	// queued counts mutations submitted to the worker and not yet
	// answered — the worker queue depth the metrics gauge sums.
	queued atomic.Int64

	// solveG and reportG coalesce concurrent identical solve and report
	// requests onto shared flights; their per-topology dedup counters are
	// exposed in the report response.
	solveG  coalesce.Group
	reportG coalesce.Group

	// demand is the last demand-subsystem snapshot, stored by the worker
	// after each requests/adapt mutation and read lock-free by the list
	// and get handlers. Nil until the first requests batch.
	demand atomic.Pointer[DemandInfo]

	// onPanic observes a panic contained in the worker (set by the server
	// before the topology is shared).
	onPanic func(ctx context.Context, p any)

	// Worker-owned state below: only the run() goroutine touches it.
	//
	// engine is the topology's one placement engine, a warm fork of the
	// solver's topology model that publish, requests and adapt mutate
	// and that a committed solve is loaded into. It is built from the
	// committed snapshot on first use, so a topology that only ever
	// solves never builds one. Between commands it always holds the
	// committed snapshot's placement.
	engine     *faircache.AdaptiveSystem
	engineOpts faircache.AdaptiveOptions
	// demandOn records that requests have been reported (the demand
	// subsystem is initialized); initChunks is the chunk-id space a
	// requests init asked for, kept until an adapt commits it.
	demandOn   bool
	initChunks int
	version    int
}

// newTopology builds a topology and starts its worker. snap restores
// recovered state; nil is a fresh registration (version 1, empty register
// snapshot).
func newTopology(id, kind string, topo *faircache.Topology, solver *faircache.Solver, spec *RegisterRequest, producer, capacity int, snap *Snapshot) *topology {
	tp := &topology{
		id:       id,
		kind:     kind,
		topo:     topo,
		producer: producer,
		capacity: capacity,
		chunkTTL: spec.ChunkTTL,
		cmds:     make(chan *command),
		quit:     make(chan struct{}),
		solver:   solver,
		engineOpts: faircache.AdaptiveOptions{
			Capacity:       capacity,
			FairnessWeight: spec.FairnessWeight,
		},
	}
	if snap == nil {
		snap = &Snapshot{
			Version:  1,
			Source:   "register",
			Producer: producer,
			Holders:  map[int][]int{},
			Counts:   make([]int, topo.NumNodes()),
		}
	}
	tp.version = snap.Version
	tp.snap.Store(snap)
	tp.wg.Add(1)
	go tp.run()
	return tp
}

// run is the topology's single-writer loop: mutations are applied one at
// a time, each ending in an atomic snapshot swap. Requests whose context
// expired while queued are skipped without running.
func (tp *topology) run() {
	defer tp.wg.Done()
	for {
		select {
		case <-tp.quit:
			return
		case cmd := <-tp.cmds:
			// A request that expired while queued is skipped outright —
			// starting a solve whose client is already gone is pure waste.
			if err := cmd.ctx.Err(); err != nil {
				cmd.reply <- cmdResult{err: timeoutf("request expired before the %s worker ran it: %v", tp.id, err)}
				continue
			}
			v, err := tp.execute(cmd)
			cmd.reply <- cmdResult{value: v, err: err}
		}
	}
}

// execute runs one command with a panic contained to it: the command is
// answered with a typed internal error carrying its trace id, and the
// engine — possibly left half-mutated — is dropped, so the next mutation
// rebuilds it from the committed snapshot. Other commands, topologies and
// the daemon keep serving.
func (tp *topology) execute(cmd *command) (v any, err error) {
	defer func() {
		if p := recover(); p != nil {
			tp.engine = nil
			if tp.onPanic != nil {
				tp.onPanic(cmd.ctx, p)
			}
			v, err = nil, &Error{Status: http.StatusInternalServerError, Code: CodeInternal,
				Message: fmt.Sprintf("topology %s worker panicked (trace %s): %v", tp.id, traceIDFrom(cmd.ctx), p)}
		}
	}()
	return cmd.apply(cmd.ctx)
}

// do submits a mutation to the worker and waits for its result, the
// request deadline, or topology shutdown — whichever comes first. The
// reply channel is buffered so an abandoned command never blocks the
// worker.
func (tp *topology) do(ctx context.Context, apply func(ctx context.Context) (any, error)) (any, error) {
	tp.queued.Add(1)
	defer tp.queued.Add(-1)
	cmd := &command{ctx: ctx, apply: apply, reply: make(chan cmdResult, 1)}
	select {
	case tp.cmds <- cmd:
	case <-tp.quit:
		return nil, gonef("topology %s is shut down", tp.id)
	case <-ctx.Done():
		return nil, timeoutf("request expired while waiting for the %s worker: %v", tp.id, ctx.Err())
	}
	select {
	case res := <-cmd.reply:
		return res.value, res.err
	case <-tp.quit:
		return nil, gonef("topology %s shut down mid-request", tp.id)
	case <-ctx.Done():
		return nil, timeoutf("request deadline passed while the %s worker was busy: %v", tp.id, ctx.Err())
	}
}

// engineFor returns the topology's placement engine, building it on
// first use: a warm fork of the solver's topology model loaded with the
// committed snapshot. Worker goroutine only.
func (tp *topology) engineFor(ctx context.Context) (*faircache.AdaptiveSystem, error) {
	if tp.engine != nil {
		return tp.engine, nil
	}
	eng, err := tp.solver.NewAdaptive(ctx, tp.producer, 0, &tp.engineOpts)
	if err != nil {
		return nil, err
	}
	if err := eng.Load(tp.snap.Load().engineState(tp.initChunks)); err != nil {
		return nil, err
	}
	tp.engine = eng
	return eng, nil
}

// reload sets the engine back to the committed snapshot: after a solve
// commits, and after a mutation that did not commit. An engine that
// cannot load is dropped and rebuilt on next use. Worker goroutine only.
func (tp *topology) reload() {
	if tp.engine != nil && tp.engine.Load(tp.snap.Load().engineState(tp.initChunks)) != nil {
		tp.engine = nil
	}
}

// stage builds the next snapshot from the engine's current placement,
// carrying the mutation counters forward from the committed snapshot.
// Worker goroutine only.
func (tp *topology) stage(source string, solves, publications int) *Snapshot {
	es := tp.engine.Snapshot()
	return &Snapshot{
		Version:      tp.version + 1,
		Source:       source,
		Producer:     tp.producer,
		Chunks:       es.Published,
		Holders:      es.Holders,
		Counts:       es.Counts,
		Clock:        es.Clock,
		Expiry:       es.Expiry,
		ExpiredFrom:  es.ExpiredFrom,
		ExpiredTo:    es.ExpiredTo,
		Solves:       solves,
		Publications: publications,
	}
}

// commitLogged appends snap's WAL record and, once it is durable, swaps
// the snapshot in. When the append fails nothing commits and the engine
// reloads the committed snapshot, so the next mutation builds on the last
// committed state. Worker goroutine only.
func (tp *topology) commitLogged(ctx context.Context, j *journal, recType string, snap *Snapshot) error {
	if err := j.append(ctx, &WALRecord{Type: recType, ID: tp.id, Snap: snap}, func() { tp.commit(snap) }); err != nil {
		tp.reload()
		return err
	}
	return nil
}

// commit assigns the next version and publishes the snapshot. Worker
// goroutine only.
func (tp *topology) commit(snap *Snapshot) *Snapshot {
	tp.version++
	snap.Version = tp.version
	snap.Producer = tp.producer
	tp.snap.Store(snap)
	return snap
}

// stop signals the worker to exit after its current mutation. Safe to
// call more than once and from any goroutine.
func (tp *topology) stop() {
	tp.quitOnce.Do(func() { close(tp.quit) })
}
