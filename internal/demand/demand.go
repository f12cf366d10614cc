// Package demand is the placement engine behind every mutable cache
// allocation: one cost model, one cache state and the per-chunk holder
// lists, mutated in place by three kinds of step.
//
//   - Publication (the paper's Sec. VI online direction): the next chunk
//     id arrives, published chunks whose lifetime has passed expire —
//     every copy goes, whoever placed it — and one fair-caching
//     iteration places the arrival against the current state. Eviction
//     lowers the fairness cost of loaded nodes, so storage is recycled
//     fairly over long horizons instead of filling up once.
//   - Requests and adaptation: a live request stream feeds popularity
//     estimates (sliding window + EWMA, Tracker), and adaptation passes
//     re-place the most mispositioned chunks, following the adaptation
//     loop of Ioannidis & Yeh (Adaptive Caching Networks with Optimality
//     Guarantees) and the demand-weighted diversity/redundancy tradeoff
//     of Wang et al.
//   - Load: the engine takes a committed state (holders, publication
//     clock, expiry of live published chunks) — how a serving layer
//     installs a solve, recovers from its log or rolls back a mutation
//     it could not make durable.
//
// Every step flows through the incremental cost model (Commit/Evict delta
// updates), never a full rebuild.
//
// A System is not safe for concurrent use; callers (the server's
// per-topology worker, the eval replayer) serialize mutations. Stats
// alone may be read concurrently.
package demand

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/pool"
)

// Errors returned by the demand system.
var ErrBadInput = errors.New("demand: invalid input")

// Options tunes serving and adaptation. Zero values select the
// documented defaults.
type Options struct {
	// Eviction selects the replacement strategy consulted when the
	// adaptation loop frees capacity; nil selects the cost-aware strategy
	// backed by the system's demand-weighted marginal-cost estimate.
	Eviction cache.EvictionStrategy
	// HitRadius is the hop distance within which a cache copy counts as a
	// local hit (default 2, the paper's K-hop neighborhood).
	HitRadius int
	// TopDelta bounds how many top-demand chunks one adaptation pass
	// re-examines (default 8).
	TopDelta int
	// CopyBudget bounds how many existing copies one adaptation pass may
	// displace: pressure-eviction frees at most this many occupied slots
	// (default 3×TopDelta). Free capacity is always eligible for filling
	// — the redundancy phase places into every free slot with a positive
	// demand-weighted gain, so the network's storage is actually used.
	CopyBudget int
	// FairnessBias scales the storage-fairness penalty inside the
	// redundancy greedy, trading hit-rate against Gini (default 0.02).
	// Negative disables the penalty.
	FairnessBias float64
	// WindowBuckets and BucketSize shape the popularity tracker's sliding
	// window (defaults 8 buckets × 2048 requests); Alpha is its EWMA
	// weight (default 0.3).
	WindowBuckets int
	BucketSize    int
	Alpha         float64
}

func (o Options) withDefaults() Options {
	if o.HitRadius == 0 {
		o.HitRadius = 2
	}
	if o.TopDelta == 0 {
		o.TopDelta = 8
	}
	if o.CopyBudget == 0 {
		o.CopyBudget = 3 * o.TopDelta
	}
	if o.FairnessBias == 0 {
		o.FairnessBias = 0.02
	} else if o.FairnessBias < 0 {
		o.FairnessBias = 0
	}
	if o.WindowBuckets == 0 {
		o.WindowBuckets = 8
	}
	if o.BucketSize == 0 {
		o.BucketSize = 2048
	}
	if o.Alpha == 0 {
		o.Alpha = 0.3
	}
	return o
}

// Stats is a snapshot of the system's request/adaptation counters.
type Stats struct {
	// Requests counts observed request events.
	Requests int64
	// LocalHits counts requests served by a cache copy within HitRadius
	// hops; CacheHits counts requests served by any cache copy;
	// ProducerServed counts requests that fell through to the producer.
	LocalHits      int64
	CacheHits      int64
	ProducerServed int64
	// Evictions, Adaptations and CopiesPlaced count the adaptation loop's
	// work (seeding does not count toward CopiesPlaced).
	Evictions    int64
	Adaptations  int64
	CopiesPlaced int64
	// CostSum totals the hop-distance retrieval cost over all requests.
	CostSum float64
}

// HitRate returns the fraction of requests served within HitRadius.
func (s Stats) HitRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.LocalHits) / float64(s.Requests)
}

// CacheRate returns the fraction of requests served by any cache copy.
func (s Stats) CacheRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.Requests)
}

// MeanCost returns the mean hop-distance retrieval cost per request.
func (s Stats) MeanCost() float64 {
	if s.Requests == 0 {
		return 0
	}
	return s.CostSum / float64(s.Requests)
}

// System is one placement engine: a live cost model, the current
// placement, the publication bookkeeping, a popularity tracker, and an
// eviction strategy.
type System struct {
	g        *graph.Graph
	producer int
	chunks   int
	opts     Options
	coreOpts core.Options

	solver  *core.Solver
	model   *costmodel.Model
	st      *cache.State
	strat   cache.EvictionStrategy
	tracker *Tracker

	hop     [][]int // all-pairs hop distances
	holders [][]int // per-chunk holder lists, sorted

	clock int64 // request clock: recency for the eviction strategy

	// Publication bookkeeping: pubs counts publications; expiry maps each
	// live published chunk to the publication time it expires at; and
	// [expiredFrom, expiredTo) holds the published ids whose lifetime has
	// ended. Publications take consecutive ids and expire in publication
	// order, so the expired ids always form one range.
	pubs                   int
	expiry                 map[int]int
	expiredFrom, expiredTo int

	// oracle state for the built-in cost-aware strategy: per-copy
	// demand-weighted marginal retrieval costs, rebuilt each eviction pass.
	costOracle map[int64]float64

	statsMu sync.Mutex
	stats   Stats
	hist    []int64 // request count by retrieval hop distance
}

// New builds an engine over a caller-owned cost model with an empty
// state — in practice a warm fork of a Solver's topology model. The
// producer holds every chunk locally and never caches; chunk ids are
// [0, chunks). coreOpts tunes the engine's placements; its weights and
// path cache are taken from m.
func New(m *costmodel.Model, producer, chunks int, coreOpts core.Options, opts Options) (*System, error) {
	opts = opts.withDefaults()
	if m == nil || m.Graph().NumNodes() < 2 {
		return nil, fmt.Errorf("%w: nil model or trivial topology", ErrBadInput)
	}
	g := m.Graph()
	if producer < 0 || producer >= g.NumNodes() {
		return nil, fmt.Errorf("%w: producer %d", ErrBadInput, producer)
	}
	if chunks < 0 {
		return nil, fmt.Errorf("%w: chunks %d", ErrBadInput, chunks)
	}
	if m.State().TotalStored() != 0 {
		return nil, fmt.Errorf("%w: model state is not empty", ErrBadInput)
	}
	mo := m.Options()
	coreOpts.FairnessWeight = mo.FairnessWeight
	coreOpts.BatteryWeight = mo.BatteryWeight
	coreOpts.PathCache = m.PathCache()
	solver, err := core.New(g, coreOpts)
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	s := &System{
		g:        g,
		producer: producer,
		chunks:   chunks,
		opts:     opts,
		coreOpts: coreOpts,
		solver:   solver,
		model:    m,
		st:       m.State(),
		tracker:  NewTracker(chunks, n, opts.WindowBuckets, opts.BucketSize, opts.Alpha),
		holders:  make([][]int, chunks),
		expiry:   make(map[int]int),
	}
	s.setHops()
	s.strat = opts.Eviction
	if s.strat == nil {
		s.costOracle = make(map[int64]float64)
		s.strat = cache.NewCostAware(func(node, chunk int) float64 {
			return s.costOracle[copyID(node, chunk)]
		})
	}
	return s, nil
}

// setHops (re)derives the all-pairs hop matrix from the model's path
// cache and widens the retrieval-cost histogram to the new diameter.
func (s *System) setHops() {
	pc := s.model.PathCache()
	n := s.g.NumNodes()
	s.hop = make([][]int, n)
	for i := 0; i < n; i++ {
		s.hop[i] = append([]int(nil), pc.HopDistances(i)...)
	}
	s.statsMu.Lock()
	if need := maxHop(s.hop) + 2; need > len(s.hist) {
		s.hist = append(s.hist, make([]int64, need-len(s.hist))...)
	}
	s.statsMu.Unlock()
}

func maxHop(hop [][]int) int {
	m := 0
	for _, row := range hop {
		for _, h := range row {
			if h > m {
				m = h
			}
		}
	}
	return m
}

// copyID packs a (node, chunk) pair into one map key.
func copyID(node, chunk int) int64 { return int64(node)<<32 | int64(uint32(chunk)) }

// SeedCtx runs the fair-caching approximation once over all chunks
// against the empty state — the static initial placement the adaptation
// loop then refines. It must be called exactly once, before any request.
func (s *System) SeedCtx(ctx context.Context) error {
	if s.clock != 0 || s.st.TotalStored() != 0 {
		return fmt.Errorf("%w: seed on a non-empty system", ErrBadInput)
	}
	p, err := s.solver.PlaceModelCtx(ctx, s.producer, s.chunks, s.model)
	if err != nil {
		return err
	}
	for _, cr := range p.Chunks {
		s.holders[cr.Chunk] = append([]int(nil), cr.CacheNodes...)
		for _, v := range cr.CacheNodes {
			s.strat.OnStore(v, cr.Chunk, s.clock)
		}
	}
	return nil
}

// Producer returns the producer node.
func (s *System) Producer() int { return s.producer }

// Chunks returns the chunk-id space size.
func (s *System) Chunks() int { return s.chunks }

// Publications returns the publication clock: the number of publications
// so far.
func (s *System) Publications() int { return s.pubs }

// Expiry returns a copy of the live published chunks' expiry times.
func (s *System) Expiry() map[int]int { return maps.Clone(s.expiry) }

// Expired returns the range [from, to) of published chunk ids whose
// lifetime has ended.
func (s *System) Expired() (from, to int) { return s.expiredFrom, s.expiredTo }

// expired reports whether chunk k is a published chunk whose lifetime has
// ended: it holds no copies and adaptation never re-places it.
func (s *System) expired(k int) bool { return k >= s.expiredFrom && k < s.expiredTo }

// State returns the live cache state (read-only for callers).
func (s *System) State() *cache.State { return s.st }

// Model returns the live cost model, the hook for verification tests.
func (s *System) Model() *costmodel.Model { return s.model }

// Strategy returns the eviction strategy in use.
func (s *System) Strategy() cache.EvictionStrategy { return s.strat }

// Tracker returns the popularity tracker.
func (s *System) Tracker() *Tracker { return s.tracker }

// Holders returns the nodes currently caching chunk k, sorted.
func (s *System) Holders(k int) []int {
	if k < 0 || k >= s.chunks {
		return nil
	}
	return append([]int(nil), s.holders[k]...)
}

// Placement returns a copy of every chunk's holder list.
func (s *System) Placement() [][]int {
	out := make([][]int, s.chunks)
	for k := range s.holders {
		out[k] = append([]int(nil), s.holders[k]...)
	}
	return out
}

// Gini returns the Gini coefficient of the per-node cached-chunk counts.
func (s *System) Gini() float64 { return metrics.Gini(s.st.Counts()) }

// Stats returns a snapshot of the counters. Safe to call concurrently
// with Observe/Adapt from the owning goroutine's perspective (the
// counters are mutex-guarded; the placement itself is not).
func (s *System) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// P99Cost returns the 99th-percentile hop-distance retrieval cost.
func (s *System) P99Cost() float64 { return s.PercentileCost(0.99) }

// PercentileCost returns the q-quantile (q in (0,1]) of the retrieval
// cost distribution, from the exact hop histogram.
func (s *System) PercentileCost(q float64) float64 {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	if s.stats.Requests == 0 {
		return 0
	}
	need := int64(q * float64(s.stats.Requests))
	if need < 1 {
		need = 1
	}
	var cum int64
	for h, c := range s.hist {
		cum += c
		if cum >= need {
			return float64(h)
		}
	}
	return float64(len(s.hist) - 1)
}

// nearestServer returns the serving node and hop distance for a request
// (j, k): the closest current holder of k, falling back to the producer.
// Ties prefer a cache copy over the producer, then the lowest node id
// (holder lists are sorted), so serving is deterministic.
func (s *System) nearestServer(j, k int) (server, hops int) {
	best, bestD := s.producer, s.hop[j][s.producer]
	if bestD == graph.Unreachable {
		bestD = int(^uint(0) >> 1) // unreachable producer: any holder wins
	}
	fromCache := false
	for _, v := range s.holders[k] {
		if d := s.hop[j][v]; d != graph.Unreachable && (d < bestD || (d == bestD && !fromCache)) {
			best, bestD, fromCache = v, d, true
		}
	}
	return best, bestD
}

// Observe serves one request event: node asks for chunk. It updates the
// popularity tracker, the hit/miss accounting and the eviction
// strategy's recency/frequency state, and returns the serving node and
// its hop distance.
func (s *System) Observe(node, chunk int) (server, hops int, err error) {
	if node < 0 || node >= s.g.NumNodes() {
		return 0, 0, fmt.Errorf("%w: node %d", ErrBadInput, node)
	}
	if chunk < 0 || chunk >= s.chunks {
		return 0, 0, fmt.Errorf("%w: chunk %d", ErrBadInput, chunk)
	}
	server, hops = s.nearestServer(node, chunk)
	s.clock++
	if server != s.producer {
		s.strat.OnAccess(server, chunk, s.clock)
	}
	s.tracker.Observe(node, chunk)

	s.statsMu.Lock()
	s.stats.Requests++
	s.stats.CostSum += float64(hops)
	if server != s.producer {
		s.stats.CacheHits++
		if hops <= s.opts.HitRadius {
			s.stats.LocalHits++
		}
	} else {
		s.stats.ProducerServed++
	}
	if hops >= 0 && hops < len(s.hist) {
		s.hist[hops]++
	} else {
		s.hist[len(s.hist)-1]++
	}
	s.statsMu.Unlock()
	return server, hops, nil
}

// holdersAdd inserts v into chunk k's sorted holder list.
func (s *System) holdersAdd(k, v int) {
	h := s.holders[k]
	i, _ := slices.BinarySearch(h, v)
	if i < len(h) && h[i] == v {
		return
	}
	h = append(h, 0)
	copy(h[i+1:], h[i:])
	h[i] = v
	s.holders[k] = h
}

// holdersRemove deletes v from chunk k's holder list.
func (s *System) holdersRemove(k, v int) {
	h := s.holders[k]
	i, _ := slices.BinarySearch(h, v)
	if i < len(h) && h[i] == v {
		s.holders[k] = append(h[:i], h[i+1:]...)
	}
}

// commit stores chunk k on node v through the model and syncs the holder
// list and strategy.
func (s *System) commit(v, k int) error {
	if err := s.model.Commit(v, k); err != nil {
		return err
	}
	s.holdersAdd(k, v)
	s.strat.OnStore(v, k, s.clock)
	return nil
}

// uncache removes chunk k from node v through the model and syncs the
// holder list and strategy, reporting whether a copy was removed.
func (s *System) uncache(v, k int) bool {
	if !s.model.Evict(v, k) {
		return false
	}
	s.holdersRemove(k, v)
	s.strat.OnEvict(v, k)
	return true
}

// evict is uncache counted as an adaptation eviction.
func (s *System) evict(v, k int) bool {
	if !s.uncache(v, k) {
		return false
	}
	s.statsMu.Lock()
	s.stats.Evictions++
	s.statsMu.Unlock()
	return true
}

// newPool returns the worker pool adaptation passes fan out over.
func (s *System) newPool() *pool.Pool { return pool.New(pool.Normalize(s.coreOpts.Workers)) }

// resize sets the chunk-id space to chunks. Growing extends the holder
// lists and the popularity tracker; shrinking drops the holder lists of
// ids past the end, which the caller has already emptied.
func (s *System) resize(chunks int) {
	for len(s.holders) < chunks {
		s.holders = append(s.holders, nil)
	}
	s.holders = s.holders[:chunks]
	s.tracker.grow(chunks)
	s.chunks = chunks
}

// Load sets the engine to a committed state: holders[k] lists chunk k's
// copies (the chunk-id space becomes len(holders)), pubs is the
// publication clock, expiry maps each live published chunk to the
// publication time it expires at, and [expiredFrom, expiredTo) are the
// published ids whose lifetime has ended. The placement moves by
// difference through the cost model, so copies present in both states
// keep their eviction-strategy history; the popularity tracker and the
// counters carry over. The state is validated before anything changes:
// on error the engine is untouched.
func (s *System) Load(holders [][]int, pubs int, expiry map[int]int, expiredFrom, expiredTo int) error {
	n := s.st.NumNodes()
	load := make([]int, n)
	for k, hs := range holders {
		for i, v := range hs {
			if v < 0 || v >= n || v == s.producer || slices.Contains(hs[:i], v) {
				return fmt.Errorf("%w: chunk %d cannot be held by node %d", ErrBadInput, k, v)
			}
			load[v]++
		}
	}
	for v, c := range load {
		if c > s.st.Capacity(v) {
			return fmt.Errorf("%w: node %d holds %d chunks, capacity %d", ErrBadInput, v, c, s.st.Capacity(v))
		}
	}
	if pubs < 0 || expiredFrom > expiredTo {
		return fmt.Errorf("%w: publication clock %d, expired range [%d,%d)", ErrBadInput, pubs, expiredFrom, expiredTo)
	}
	for k, hs := range s.holders {
		var keep []int
		if k < len(holders) {
			keep = holders[k]
		}
		for _, v := range slices.Clone(hs) {
			if !slices.Contains(keep, v) {
				s.uncache(v, k)
			}
		}
	}
	s.resize(len(holders))
	for k, hs := range holders {
		for _, v := range hs {
			if s.st.Has(v, k) {
				continue
			}
			if err := s.commit(v, k); err != nil {
				return err // validated above: unreachable
			}
		}
	}
	s.pubs = pubs
	s.expiry = maps.Clone(expiry)
	if s.expiry == nil {
		s.expiry = make(map[int]int)
	}
	s.expiredFrom, s.expiredTo = expiredFrom, expiredTo
	return nil
}

// PublishCtx publishes the next chunk id: the publication clock ticks,
// published chunks whose lifetime has passed lose every copy, and one
// fair-caching iteration places the arrival against the current state.
// A positive ttl makes the arrival expire ttl publications later; ttl <= 0
// never expires it. It returns the placement and the expired chunk ids,
// sorted.
//
// ctx is checked before the clock ticks (a pre-cancelled context leaves
// the engine untouched) and throughout the placement. A cancelled
// placement returns an error satisfying errors.Is with ctx.Err(); the
// chunk id, the clock tick and the expiries stand — they reflect time
// passing, not the abandoned placement.
func (s *System) PublishCtx(ctx context.Context, ttl int) (*core.ChunkResult, []int, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("demand: publish: %w", err)
	}
	s.pubs++
	id := s.chunks
	s.resize(id + 1)
	var stale []int
	for k, exp := range s.expiry {
		if exp <= s.pubs {
			stale = append(stale, k)
		}
	}
	slices.Sort(stale)
	for _, k := range stale {
		for _, v := range slices.Clone(s.holders[k]) {
			s.uncache(v, k)
		}
		delete(s.expiry, k)
		if s.expiredFrom == s.expiredTo || k != s.expiredTo {
			s.expiredFrom = k
		}
		s.expiredTo = k + 1
	}
	if !s.hasRoom() {
		// Every facility cost is +Inf on a full network, so the dual
		// growth could only confirm that no node takes a copy.
		return &core.ChunkResult{Chunk: id}, stale, nil
	}
	res, err := s.solver.PlaceOneModelCtx(ctx, s.producer, id, s.model)
	if err != nil {
		return nil, stale, fmt.Errorf("demand: publish chunk %d: %w", id, err)
	}
	for _, v := range res.CacheNodes {
		s.holdersAdd(id, v)
		s.strat.OnStore(v, id, s.clock)
	}
	if ttl > 0 {
		s.expiry[id] = s.pubs + ttl
	}
	return res, stale, nil
}

// hasRoom reports whether any node other than the producer has a free
// slot.
func (s *System) hasRoom() bool {
	for v := 0; v < s.st.NumNodes(); v++ {
		if v != s.producer && s.st.Free(v) > 0 {
			return true
		}
	}
	return false
}

// SetTopology swaps the network topology (device mobility): later
// placements and request serving use the new connectivity while the
// placement and the publication bookkeeping carry over. The node set must
// stay the same size and the topology connected. The model's path cache
// is reset to the new graph — entries for the old connectivity are
// dropped, not accumulated across swaps — so the engine must own it: no
// other solver may share it.
func (s *System) SetTopology(g *graph.Graph) error {
	if g == nil || g.NumNodes() != s.g.NumNodes() {
		return fmt.Errorf("%w: topology must keep the %d-node set", ErrBadInput, s.g.NumNodes())
	}
	// Validate before touching any state: core.New rejects disconnected
	// graphs without reading the path cache.
	solver, err := core.New(g, s.coreOpts)
	if err != nil {
		return err
	}
	if err := s.model.SwapTopology(g); err != nil {
		return fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	s.g = g
	s.solver = solver
	s.setHops()
	return nil
}
