package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	faircache "repro"

	"repro/client"
	"repro/internal/server"
	"repro/internal/sim"
)

const (
	daemonSide     = 6
	daemonNodes    = daemonSide * daemonSide
	daemonProducer = 9
	daemonCapacity = 5
	daemonChunks   = 5
	demandBatch    = 256
	daemonSetups   = 60
	daemonWarmUp   = 3 * time.Second
	// daemonPhaseLen is the length of one measured phase: 50 clock
	// ticks on two CPUs, so a single stolen tick marks it.
	daemonPhaseLen = 250 * time.Millisecond
	// minPhases is how many phases the metrics pool, at least: ten
	// seconds, enough for every p99 and p50 on a slow host.
	minPhases = 40
	// minTailOps gives a p99 ten samples beyond it.
	minTailOps = 100 * minTail
)

type opKind int

const (
	opLookup opKind = iota
	opReport
	opPublish
	opRequests
	opSolve
	opAdapt
	numOps
)

// opNames are also the server's endpoint labels on /metrics.
var opNames = [numOps]string{"lookup", "report", "publish", "requests", "solve", "adapt"}

// opMix is the fixed operation mix in percent, indexed by opKind:
// 85/3/4/4/2/2 lookup/report/publish/requests/solve/adapt. It is a chosen
// mix, not one measured from real traffic; none has been recorded for the
// daemon. Its snapshot-read share (88%) is close to that of the daemon's
// own load generator (internal/server/loadgen.Run: 88% lookups, 2%
// reports, 10% publishes). Publishes give up six points to make room for
// the writes that generator does not issue: demand batches, solves and
// adapts, so every write path with a WAL append runs beside the reads.
var opMix = [numOps]int{85, 3, 4, 4, 2, 2}

// latency classes of the logged read, write and solve percentiles.
func opClass(k opKind) string {
	switch k {
	case opLookup, opReport:
		return "read"
	case opSolve:
		return "solve"
	}
	return "write"
}

type op struct {
	kind        opKind
	chunk, node int
	events      []faircache.RequestEvent
}

// opGen draws one client's operation sequence from the workload seed:
// the same seed and client index always give the same sequence, demand
// events included.
type opGen struct {
	rng   *rand.Rand
	trace *sim.Trace
}

func newOpGen(seed int64, clientIdx int) (*opGen, error) {
	s := seed*1009 + int64(clientIdx)
	tr, err := sim.NewTrace(sim.TraceSpec{
		Nodes: daemonNodes, Chunks: daemonChunks, Seed: s, ZipfS: 0.9, Exclude: daemonProducer,
	})
	if err != nil {
		return nil, err
	}
	return &opGen{rng: rand.New(rand.NewSource(s)), trace: tr}, nil
}

func (g *opGen) next() op {
	r := g.rng.Intn(100)
	k := opKind(0)
	for ; r >= opMix[k]; k++ {
		r -= opMix[k]
	}
	o := op{kind: k}
	switch k {
	case opLookup:
		o.chunk, o.node = g.rng.Intn(daemonChunks), g.rng.Intn(daemonNodes)
	case opRequests:
		o.events = g.events(demandBatch)
	}
	return o
}

func (g *opGen) events(n int) []faircache.RequestEvent {
	ev := make([]faircache.RequestEvent, n)
	for i := range ev {
		r := g.trace.Next()
		ev[i] = faircache.RequestEvent{Node: r.Node, Chunk: r.Chunk}
	}
	return ev
}

// daemon is one durable server on a loopback listener.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	dir    string
	base   string
	id     string
	served chan error
	first  *server.SolveResponse // the set-up's solve
}

// startDaemon starts a durable server (fsync always) with its WAL in dir,
// registers the workload's topology, runs the first solve, publishes
// daemonChunks chunks and initialises the demand subsystem with one batch
// of events. After the publications every snapshot the daemon commits
// knows all daemonChunks chunks (a publish snapshot knows as many as have
// been published), so no later lookup may answer not_found. explain asks
// for the first solve's explain report, which holds the cold cost-model
// build.
func startDaemon(ctx context.Context, dir string, init []faircache.RequestEvent, explain bool) (*daemon, error) {
	srv, err := server.New(server.Options{DataDir: dir, Fsync: "always"})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv}, dir: dir, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := client.New(d.base, client.WithHTTPClient(&http.Client{Transport: tr, Timeout: 30 * time.Second}))
	producer := daemonProducer
	reg, err := c.Register(ctx, &server.RegisterRequest{Kind: "grid", Rows: daemonSide, Cols: daemonSide, Producer: &producer, Capacity: daemonCapacity})
	if err == nil {
		d.id = reg.ID
		d.first, err = c.Solve(ctx, d.id, solveRequest(explain))
	}
	if err == nil {
		_, err = c.Publish(ctx, d.id, daemonChunks)
	}
	if err == nil {
		_, err = c.Requests(ctx, d.id, &server.RequestsRequest{Events: init, Init: &server.DemandInit{}})
	}
	if err != nil {
		return nil, errors.Join(err, d.stop())
	}
	return d, nil
}

func solveRequest(explain bool) *server.SolveRequest {
	return &server.SolveRequest{Chunks: daemonChunks, Options: &server.SolveOptions{Algorithm: "appx", Explain: explain}}
}

// stop shuts the listener down, waits for the serving goroutine, stops
// the topology workers and removes the WAL directory.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	d.srv.Close()
	return errors.Join(err, os.RemoveAll(d.dir))
}

// daemonRef is what every daemon output is checked against.
type daemonRef struct {
	holders [][]int
	cost    float64
	gini    float64
	dist    [][]int // hop distances by requester
}

func newDaemonRef(ctx context.Context) (*daemonRef, error) {
	topo, err := faircache.Grid(daemonSide, daemonSide)
	if err != nil {
		return nil, err
	}
	s, err := faircache.NewSolver(topo)
	if err != nil {
		return nil, err
	}
	res, err := s.Solve(ctx, faircache.Request{Producer: daemonProducer, Chunks: daemonChunks, Options: &faircache.Options{Capacity: daemonCapacity}})
	if err != nil {
		return nil, err
	}
	cost, err := res.ContentionCost()
	if err != nil {
		return nil, err
	}
	ref := &daemonRef{holders: res.Holders, cost: cost.Total(), gini: res.Gini()}
	for v := 0; v < daemonNodes; v++ {
		d, err := topo.HopDistances(v)
		if err != nil {
			return nil, err
		}
		ref.dist = append(ref.dist, d)
	}
	return ref, nil
}

// clientRun is one closed-loop client's tally for one phase.
type clientRun struct {
	lat       [numOps][]float64 // ms
	attempted int
	failed    int
	problems  []string
	// lookups answered, their summed hops and how many a cached copy
	// served
	lookups, hops, cached int
	gini                  float64 // of the last solve response
	// traced phase only
	solveExplains []*faircache.ExplainReport
	adaptResults  []*faircache.AdaptationResult
	workerMs      []float64
}

func (c *clientRun) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 3 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// daemonClient is one closed-loop client with its own keep-alive
// connection.
type daemonClient struct {
	gen *opGen
	c   *client.Client
}

func runDaemonMixed(ctx context.Context, cfg config, rep *report) error {
	ref, err := newDaemonRef(ctx)
	if err != nil {
		return err
	}
	initGen, err := newOpGen(cfg.seed, -1)
	if err != nil {
		return err
	}
	initEvents := initGen.events(demandBatch)

	// Set-up: server start with a fresh WAL, register, first solve and
	// demand init. The last set-up's daemon serves the measured loop.
	var setups, buildMs []float64
	var d *daemon
	for i := 0; i < daemonSetups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		dir, err := os.MkdirTemp(cfg.out, "wal-")
		if err != nil {
			return err
		}
		t0 := time.Now()
		d, err = startDaemon(ctx, dir, initEvents, cfg.traced)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		rep.attempted += 4
		if cfg.traced {
			buildMs = append(buildMs, phaseMs(d.first.Trace, "costmodel.build"))
		}
	}
	defer func() {
		if err := d.stop(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: stopping daemon: %v\n", err)
		}
	}()

	n := runtime.NumCPU()
	clients := make([]*daemonClient, n)
	for i := range clients {
		gen, err := newOpGen(cfg.seed, i)
		if err != nil {
			return err
		}
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
		defer tr.CloseIdleConnections()
		clients[i] = &daemonClient{gen: gen, c: client.New(d.base, client.WithHTTPClient(&http.Client{Transport: tr, Timeout: 30 * time.Second}))}
	}

	if !cfg.traced {
		// The first seconds run slower while the heap, the WAL file and
		// the connections grow to their steady size; they are checked but
		// not timed.
		tally(rep, runClients(ctx, d, ref, clients, cfg, false, daemonWarmUp))

		// The measured loop runs in short phases, each tagged with the
		// steal share the host took during it, and the metrics pool the
		// calm phases (see calm). Steal comes in bursts, and short phases
		// keep the gaps between them.
		var phases [][]*clientRun
		var elapsed []time.Duration
		var steal []float64
		calmRuns := func() (runs [][]*clientRun, took time.Duration) {
			for _, i := range calm(steal, minPhases) {
				runs, took = append(runs, phases[i]), took+elapsed[i]
			}
			return runs, took
		}
		enough := func(phases [][]*clientRun) bool {
			var reads, writes, solves int
			for _, runs := range phases {
				for _, r := range runs {
					reads += len(r.lat[opLookup]) + len(r.lat[opReport])
					writes += len(r.lat[opPublish]) + len(r.lat[opRequests]) + len(r.lat[opAdapt])
					solves += len(r.lat[opSolve])
				}
			}
			return reads >= minTailOps && writes >= minTailOps && solves >= minSolves
		}
		w := newWindow(cfg.seconds)
		for {
			c0, t0 := readTicks(), time.Now()
			runs := runClients(ctx, d, ref, clients, cfg, false, daemonPhaseLen)
			phases, elapsed = append(phases, runs), append(elapsed, time.Since(t0))
			steal = append(steal, readTicks().stealSince(c0))
			tally(rep, runs)
			if sel, _ := calmRuns(); w.done(enough(sel)) {
				break
			}
		}
		sel, took := calmRuns()
		var selRuns []*clientRun
		for _, runs := range sel {
			selRuns = append(selRuns, runs...)
		}
		class := classLatencies(selRuns)
		total := len(class["read"]) + len(class["write"]) + len(class["solve"])
		rep.add("setup_s", median(setups), "s", len(setups))
		rep.add("ops_per_s", float64(total)/took.Seconds(), "1/s", total)
		rep.note("host steal %.1f%% of CPU time over %d phases; metrics from the %d calm ones (%.1f s)",
			100*mean(steal), len(phases), len(sel), took.Seconds())
		for _, c := range []string{"read", "write"} {
			p50, _ := percentile(class[c], 0.5)
			p99, _ := percentile(class[c], 0.99)
			rep.note("%s p50 %.3f ms, p99 %.3f ms over %d requests", c, p50, p99, len(class[c]))
		}
		rep.pct("place_p50_ms", class["solve"], 0.5)
		var lookups, hops, cached int
		gini := math.NaN()
		for _, r := range selRuns {
			lookups, hops, cached = lookups+r.lookups, hops+r.hops, cached+r.cached
			if len(r.lat[opSolve]) > 0 {
				gini = r.gini
			}
		}
		rep.add("gini", gini, "ratio", len(class["solve"]))
		rep.add("mean_hops", float64(hops)/float64(lookups), "hops", lookups)
		rep.add("hit_rate", float64(cached)/float64(lookups), "ratio", lookups)
		return nil
	}

	// Traced run: an untraced half, then a traced half with explain on
	// every solve and adapt, bracketed by /metrics scrapes.
	half := cfg.seconds / 2
	var rt rtStats
	rt.begin()
	plain := runClients(ctx, d, ref, clients, cfg, false, half)
	rt.end(tally(rep, plain))
	before, err := scrape(ctx, clients[0].c)
	if err != nil {
		return err
	}
	traced := runClients(ctx, d, ref, clients, cfg, true, half)
	after, err := scrape(ctx, clients[0].c)
	if err != nil {
		return err
	}
	tally(rep, traced)
	daemonLayers(rep, before, after, traced, buildMs)
	addOverhead(rep, classLatencies(traced)["solve"], classLatencies(plain)["solve"])
	rt.report(rep)
	return nil
}

// runClients runs every client's closed loop for dur and returns their
// tallies.
func runClients(ctx context.Context, d *daemon, ref *daemonRef, clients []*daemonClient, cfg config, traced bool, dur time.Duration) []*clientRun {
	ctx, cancel := context.WithTimeout(ctx, dur)
	defer cancel()
	runs := make([]*clientRun, len(clients))
	var wg sync.WaitGroup
	for i, dc := range clients {
		runs[i] = &clientRun{}
		wg.Add(1)
		go func(dc *daemonClient, run *clientRun) {
			defer wg.Done()
			for ctx.Err() == nil {
				dc.do(context.Background(), d, ref, cfg.spans, dc.gen.next(), traced, run)
			}
		}(dc, runs[i])
	}
	wg.Wait()
	return runs
}

// do runs and checks one operation. It uses its own context, not the
// phase's, so the phase deadline never cancels a request mid-flight.
func (dc *daemonClient) do(ctx context.Context, d *daemon, ref *daemonRef, spans *recorder, o op, traced bool, run *clientRun) {
	run.attempted++
	c, id := dc.c, d.id
	t0 := time.Now()
	var err error
	var check func(sid int)
	switch o.kind {
	case opLookup:
		var res *server.LookupResponse
		res, err = c.Lookup(ctx, id, o.chunk, o.node)
		check = func(sid int) {
			checkLookup(run, ref, o, res)
			run.lookups++
			run.hops += res.Hops
			if res.ServedBy != daemonProducer {
				run.cached++
			}
		}
	case opReport:
		var res *server.ReportResponse
		res, err = c.Report(ctx, id)
		check = func(sid int) {
			if res.Nodes != daemonNodes || res.Snapshot == nil {
				run.fail("report: %d nodes, snapshot %v", res.Nodes, res.Snapshot != nil)
			}
		}
	case opPublish:
		var res *server.PublishResponse
		res, err = c.Publish(ctx, id, 1)
		check = func(sid int) {
			if len(res.Publications) != 1 || overCapacity(res.Counts) {
				run.fail("publish: %d publications, counts %v", len(res.Publications), res.Counts)
			}
		}
	case opRequests:
		var res *server.RequestsResponse
		res, err = c.Requests(ctx, id, &server.RequestsRequest{Events: o.events})
		check = func(sid int) {
			if res.Batch.Requests != demandBatch {
				run.fail("requests: %d of %d events ingested", res.Batch.Requests, demandBatch)
			}
		}
	case opSolve:
		var res *server.SolveResponse
		res, err = c.Solve(ctx, id, solveRequest(traced))
		check = func(sid int) {
			if !slices.EqualFunc(res.Holders, ref.holders, slices.Equal[[]int]) || res.TotalCost != ref.cost || res.Gini != ref.gini {
				run.fail("solve: holders %v cost %v gini %v, in-process %v cost %v gini %v", res.Holders, res.TotalCost, res.Gini, ref.holders, ref.cost, ref.gini)
			}
			run.gini = res.Gini
			if traced {
				run.workerMs = append(run.workerMs, res.ElapsedMs)
				if res.Trace == nil {
					run.fail("solve: explain requested, no trace returned")
				} else if _, err := spans.attach(sid, res.Trace, solveTree); err != nil {
					run.fail("solve: %v", err)
				} else {
					run.solveExplains = append(run.solveExplains, res.Trace)
				}
			}
		}
	case opAdapt:
		var res *server.AdaptResponse
		if traced {
			res, err = c.AdaptWith(ctx, id, &server.AdaptRequest{Explain: true})
		} else {
			res, err = c.Adapt(ctx, id)
		}
		check = func(sid int) {
			if overCapacity(res.Counts) {
				run.fail("adapt: counts %v exceed capacity", res.Counts)
			}
			if traced {
				if res.Adaptation.Trace == nil {
					run.fail("adapt: explain requested, no trace returned")
				} else if _, err := spans.attach(sid, res.Adaptation.Trace, adaptTree); err != nil {
					run.fail("adapt: %v", err)
				} else {
					run.adaptResults = append(run.adaptResults, res.Adaptation)
				}
			}
		}
	}
	t1 := time.Now()
	if err != nil {
		run.fail("%s: %v", opNames[o.kind], err)
		return
	}
	run.lat[o.kind] = append(run.lat[o.kind], ms(t1.Sub(t0)))
	sid := 0
	if traced {
		sid = spans.record("client."+opNames[o.kind], 0, t0, t1)
	}
	if check != nil {
		check(sid)
	}
}

// checkLookup verifies a lookup answer against the topology's hop
// distances: the server is a holder or the producer, at the minimum hop
// distance over both.
func checkLookup(run *clientRun, ref *daemonRef, o op, res *server.LookupResponse) {
	dist := ref.dist[o.node]
	best := dist[daemonProducer]
	for _, h := range res.Holders {
		best = min(best, dist[h])
	}
	servedOK := res.ServedBy == daemonProducer || slices.Contains(res.Holders, res.ServedBy)
	if res.Chunk != o.chunk || res.Node != o.node || !servedOK || res.Hops != dist[res.ServedBy] || res.Hops != best {
		run.fail("lookup chunk %d node %d: served by %d at %d hops, holders %v, nearest %d hops", o.chunk, o.node, res.ServedBy, res.Hops, res.Holders, best)
	}
}

func overCapacity(counts []int) bool {
	return slices.ContainsFunc(counts, func(c int) bool { return c > daemonCapacity })
}

// tally adds the runs' operation accounting to rep and returns the number
// of operations completed.
func tally(rep *report, runs []*clientRun) int {
	done := 0
	for _, r := range runs {
		rep.attempted += r.attempted
		for _, p := range r.problems {
			if len(rep.problems) < 10 {
				rep.problems = append(rep.problems, p)
			}
		}
		rep.failed += r.failed
		for k := range r.lat {
			done += len(r.lat[k])
		}
	}
	return done
}

func classLatencies(runs []*clientRun) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range runs {
		for k := opKind(0); k < numOps; k++ {
			out[opClass(k)] = append(out[opClass(k)], r.lat[k]...)
		}
	}
	return out
}

// promSample maps a series ("name{labels}") to its value.
type promSample map[string]float64

func scrape(ctx context.Context, c *client.Client) (promSample, error) {
	text, err := c.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	out := promSample{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape /metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// daemonLayers adds the per-layer metrics of the traced half from the
// /metrics deltas, the responses' elapsedMs and explain reports, and the
// client-side latencies. buildMs holds the set-ups' cold cost-model builds.
func daemonLayers(rep *report, before, after promSample, runs []*clientRun, buildMs []float64) {
	delta := func(series string) float64 { return after[series] - before[series] }
	serverMean := map[string]float64{}
	for k := opKind(0); k < numOps; k++ {
		name := opNames[k]
		label := `{endpoint="` + name + `"}`
		cnt := delta("faircached_request_duration_seconds_count" + label)
		sm := 1000 * delta("faircached_request_duration_seconds_sum"+label) / cnt
		serverMean[name] = sm
		rep.add("server."+name+"_mean_ms", sm, "ms", int(cnt))
		var lat []float64
		for _, r := range runs {
			lat = append(lat, r.lat[k]...)
		}
		rep.add("client.overhead_"+name+"_ms", mean(lat)-sm, "ms", len(lat))
	}

	var worker []float64
	lay := solveLayers{buildMs: buildMs}
	var adapts []*faircache.AdaptationResult
	for _, r := range runs {
		worker = append(worker, r.workerMs...)
		for _, e := range r.solveExplains {
			lay.add(e, 0, nil)
		}
		adapts = append(adapts, r.adaptResults...)
	}
	rep.add("server.solve_worker_ms", mean(worker), "ms", len(worker))
	rep.add("server.solve_outside_worker_ms", serverMean["solve"]-mean(worker), "ms", len(worker))

	appends := delta("faircached_wal_append_duration_seconds_count")
	rep.add("wal.append_mean_ms", 1000*delta("faircached_wal_append_duration_seconds_sum")/appends, "ms", int(appends))
	rep.add("wal.appends", appends, "count", 1)

	var flights, hits float64
	for _, ep := range []string{"solve", "report"} {
		label := `{endpoint="` + ep + `"}`
		flights += delta("faircached_coalesce_flights_total" + label)
		hits += delta("faircached_coalesced_requests_total" + label)
	}
	rep.add("coalesce.flights", flights, "count", 1)
	rep.add("coalesce.hits", hits, "count", 1)
	rep.add("coalesce.hit_ratio", hits/(flights+hits), "ratio", int(flights+hits))

	// solver.self_ms here leaves out the façade outside the program's
	// solve span: the benchmark's span around the call holds HTTP too.
	lay.report(rep)
	var al adaptLayers
	for _, a := range adapts {
		al.add(a)
	}
	al.report(rep)
}
