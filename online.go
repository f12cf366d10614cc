package faircache

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/demand"
)

// Publication records one online chunk placement.
type Publication struct {
	// Chunk is the published chunk's id (assigned sequentially).
	Chunk int
	// Time is the publication index, starting at 1.
	Time int
	// CacheNodes lists the nodes now caching the chunk.
	CacheNodes []int
	// Expired lists chunk ids whose lifetime ended before this
	// publication (their copies were evicted — cache replacement).
	Expired []int
}

// OnlineSystem is the online variant of the fair-caching algorithm (the
// paper's future-work direction, Sec. VI): chunks are published over
// time, stale chunks expire and are evicted, and each arrival is placed by
// one fair-caching iteration against the live storage state. Storage is
// recycled fairly over unbounded horizons. It is the publication view of
// the placement engine an AdaptiveSystem runs.
type OnlineSystem struct {
	a        *AdaptiveSystem
	chunkTTL int
}

// NewOnline builds an online system on a topology. Options.Capacity sets
// per-node storage and Options.ChunkTTL the chunk lifetime in subsequent
// publications: 0 keeps the default of one capacity-worth, any positive
// value is used verbatim (ChunkTTL = 1 evicts a chunk at the very next
// publication), and any negative value means chunks never expire.
func NewOnline(t *Topology, producer int, opts *Options) (*OnlineSystem, error) {
	if opts != nil && opts.Capacity < 0 {
		return nil, fmt.Errorf("%w: negative capacity %d", ErrBadArgument, opts.Capacity)
	}
	o := opts.withDefaults()
	s, err := NewSolver(t)
	if err != nil {
		return nil, err
	}
	co := core.DefaultOptions()
	if o.AlphaStep > 0 {
		co.ConFL.AlphaStep = o.AlphaStep
	}
	if o.GammaStep > 0 {
		co.ConFL.GammaStep = o.GammaStep
	}
	if o.SpanQuorum > 0 {
		co.ConFL.SpanQuorum = o.SpanQuorum
	}
	co.Workers = o.Workers
	a, err := s.newAdaptive(context.Background(), producer, 0, o.Capacity,
		costmodel.Options{FairnessWeight: o.FairnessWeight, BatteryWeight: o.BatteryWeight}, co, demand.Options{})
	if err != nil {
		return nil, err
	}
	return &OnlineSystem{a: a, chunkTTL: o.ChunkTTL}, nil
}

// Publish places the next chunk, evicting expired ones first. It is
// PublishCtx with a background context.
func (o *OnlineSystem) Publish() (*Publication, error) {
	return o.PublishCtx(context.Background())
}

// PublishCtx places the next chunk, evicting expired ones first. The
// context governs the placement iteration: cancellation or deadline expiry
// stops it mid-solve and surfaces as an error satisfying errors.Is with
// ctx.Err(). A cancelled publication is not committed, but the clock tick
// (and any TTL evictions it triggered) stands — time passed even though
// the placement was abandoned.
func (o *OnlineSystem) PublishCtx(ctx context.Context) (*Publication, error) {
	return o.a.Publish(ctx, o.chunkTTL)
}

// Holders returns the nodes currently caching the given chunk.
func (o *OnlineSystem) Holders(chunk int) []int { return o.a.Holders(chunk) }

// OnlineSnapshot is an immutable copy of a placement engine's state,
// taken between mutations. It is the export hook a serving layer needs —
// answer reads from the snapshot while the next mutation is prepared
// against the live system — and the state AdaptiveSystem.Load installs.
type OnlineSnapshot struct {
	// Clock is the number of publications so far.
	Clock int
	// Published is the size of the chunk-id space; ids in [0, Published)
	// are known to the system even if they hold no copy.
	Published int
	// Holders maps each chunk id holding a copy to the nodes caching it.
	Holders map[int][]int
	// Counts is the per-node cached-chunk count.
	Counts []int
	// Expiry maps each live published chunk to the publication clock at
	// which it expires.
	Expiry map[int]int
	// ExpiredFrom and ExpiredTo bound the published chunk ids whose
	// lifetime has ended, [ExpiredFrom, ExpiredTo): they hold no copy and
	// adaptation never re-places them.
	ExpiredFrom, ExpiredTo int
}

// Snapshot returns a deep-copied snapshot of the current state. The
// caller may retain and read it concurrently with later publications.
func (o *OnlineSystem) Snapshot() *OnlineSnapshot { return o.a.Snapshot() }

// Live returns the ids of chunks currently cached somewhere, sorted.
func (o *OnlineSystem) Live() []int {
	var out []int
	for k, hs := range o.a.Placement() {
		if len(hs) > 0 {
			out = append(out, k)
		}
	}
	return out
}

// Counts returns the current per-node cached-chunk counts.
func (o *OnlineSystem) Counts() []int { return o.a.Counts() }

// Gini returns the Gini coefficient of the current caching load.
func (o *OnlineSystem) Gini() float64 { return o.a.Gini() }

// Clock returns the number of publications so far.
func (o *OnlineSystem) Clock() int { return o.a.sys.Publications() }

// SetTopology swaps the network topology (device mobility): subsequent
// publications place against the new connectivity while cached chunks and
// their expiry clocks carry over. The node count must stay the same.
func (o *OnlineSystem) SetTopology(t *Topology) error {
	if err := o.a.sys.SetTopology(t.g); err != nil {
		return fmt.Errorf("faircache: %w", err)
	}
	o.a.topo = t
	return nil
}
