package demand

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// buildEngine builds a System over a cold cost model of g with uniform
// per-node capacity: the package tests' stand-in for the warm fork the
// root Solver hands the engine.
func buildEngine(g *graph.Graph, producer, chunks, capacity, workers int, opts Options) (*System, error) {
	m, err := costmodel.New(g, nil, cache.NewState(g.NumNodes(), capacity), costmodel.Options{FairnessWeight: 1})
	if err != nil {
		return nil, err
	}
	co := core.DefaultOptions()
	co.Workers = workers
	return New(m, producer, chunks, co, opts)
}

func newEngine(t testing.TB, g *graph.Graph, producer, chunks, capacity, workers int, opts Options) *System {
	t.Helper()
	s, err := buildEngine(g, producer, chunks, capacity, workers, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// publish runs one publication and fails the test on error.
func publish(t *testing.T, s *System, ttl int) (*core.ChunkResult, []int) {
	t.Helper()
	res, expired, err := s.PublishCtx(context.Background(), ttl)
	if err != nil {
		t.Fatal(err)
	}
	return res, expired
}

// live returns the chunk ids holding at least one copy.
func live(s *System) []int {
	var out []int
	for k := 0; k < s.Chunks(); k++ {
		if len(s.holders[k]) > 0 {
			out = append(out, k)
		}
	}
	return out
}

func TestPublishPlacesAndTracks(t *testing.T) {
	s := newEngine(t, graph.NewGrid(6, 6), 9, 0, 5, 0, Options{})
	res, expired := publish(t, s, 5)
	if res.Chunk != 0 || s.Publications() != 1 || len(expired) != 0 {
		t.Errorf("first publication: chunk %d clock %d expired %v", res.Chunk, s.Publications(), expired)
	}
	if len(res.CacheNodes) == 0 {
		t.Error("first chunk not cached anywhere")
	}
	if got := s.Holders(0); !reflect.DeepEqual(got, res.CacheNodes) {
		t.Errorf("Holders(0) = %v, placement said %v", got, res.CacheNodes)
	}
	if s.Chunks() != 1 || !reflect.DeepEqual(s.Expiry(), map[int]int{0: 6}) {
		t.Errorf("chunks %d expiry %v, want 1 and {0:6}", s.Chunks(), s.Expiry())
	}
	checkHoldersSync(t, s)
}

func TestPublishExpiresOldChunks(t *testing.T) {
	s := newEngine(t, graph.NewGrid(4, 4), 5, 0, 5, 0, Options{})
	publish(t, s, 2) // chunk 0, expires before t=3
	publish(t, s, 2) // chunk 1
	_, expired := publish(t, s, 2)
	if !reflect.DeepEqual(expired, []int{0}) {
		t.Errorf("expired = %v, want [0]", expired)
	}
	if got := s.Holders(0); len(got) != 0 {
		t.Errorf("expired chunk still held by %v", got)
	}
	if from, to := s.Expired(); from != 0 || to != 1 {
		t.Errorf("expired range [%d,%d), want [0,1)", from, to)
	}
}

func TestTTLOneEvictsAtNextPublication(t *testing.T) {
	s := newEngine(t, graph.NewGrid(4, 4), 0, 0, 5, 0, Options{})
	first, _ := publish(t, s, 1)
	if len(first.CacheNodes) == 0 {
		t.Fatal("first publication placed nothing")
	}
	if _, expired := publish(t, s, 1); !reflect.DeepEqual(expired, []int{first.Chunk}) {
		t.Fatalf("second publication expired %v, want [%d]", expired, first.Chunk)
	}
	if hs := s.Holders(first.Chunk); len(hs) != 0 {
		t.Fatalf("chunk %d still held by %v after TTL=1 expiry", first.Chunk, hs)
	}
}

// TestTTLNeverExpires pins a negative ttl (the public ChunkTTL = -1
// "never expire" value, passed through verbatim): no chunk is ever
// evicted, storage only grows until the network is full.
func TestTTLNeverExpires(t *testing.T) {
	s := newEngine(t, graph.NewGrid(4, 4), 0, 0, 2, 0, Options{})
	prev, placed := 0, 0
	for i := 0; i < 12; i++ {
		res, expired := publish(t, s, -1)
		if len(expired) != 0 {
			t.Fatalf("publication %d expired %v under ttl -1", i, expired)
		}
		if len(res.CacheNodes) > 0 {
			placed++
		}
		if total := s.State().TotalStored(); total < prev {
			t.Fatalf("publication %d: stored copies shrank %d -> %d without expiry", i, prev, total)
		} else {
			prev = total
		}
	}
	if got := len(live(s)); got != placed {
		t.Fatalf("live %d != placed %d under never-expire", got, placed)
	}
}

// TestTTLZeroNeverExpires pins the engine's ttl 0: the arrival gets no
// expiry entry, so nothing published ever expires. (The public default
// ChunkTTL = 0 is mapped to the capacity before it reaches the engine.)
func TestTTLZeroNeverExpires(t *testing.T) {
	s := newEngine(t, graph.NewGrid(4, 4), 5, 0, 2, 0, Options{})
	for i := 0; i < 6; i++ {
		if _, expired := publish(t, s, 0); len(expired) != 0 {
			t.Errorf("publication %d expired %v despite ttl 0", i, expired)
		}
	}
	if exp := s.Expiry(); len(exp) != 0 {
		t.Errorf("expiry = %v, want none under ttl 0", exp)
	}
}

// TestPublishSustainsLongHorizon: with TTL = capacity an endless
// publication stream never deadlocks, because expiry recycles storage.
func TestPublishSustainsLongHorizon(t *testing.T) {
	s := newEngine(t, graph.NewGrid(6, 6), 9, 0, 3, 0, Options{})
	cached := 0
	for i := 0; i < 40; i++ {
		res, _ := publish(t, s, 3)
		cached += len(res.CacheNodes)
	}
	if cached == 0 {
		t.Fatal("nothing was ever cached over the horizon")
	}
	for i, c := range s.State().Counts() {
		if c > 3 {
			t.Errorf("node %d holds %d > capacity", i, c)
		}
		if i == 9 && c != 0 {
			t.Error("producer cached data")
		}
	}
	if got := len(live(s)); got > 3 {
		t.Errorf("%d live chunks exceed the TTL window 3", got)
	}
	checkHoldersSync(t, s)
}

// TestPublishLongRunLoadIsFair: cumulative caching assignments over a
// long run stay spread across the nodes.
func TestPublishLongRunLoadIsFair(t *testing.T) {
	s := newEngine(t, graph.NewGrid(6, 6), 9, 0, 5, 0, Options{})
	tally := make([]int, 36)
	for i := 0; i < 30; i++ {
		res, _ := publish(t, s, 5)
		for _, v := range res.CacheNodes {
			tally[v]++
		}
	}
	if g := metrics.Gini(tally); g >= 0.5 {
		t.Errorf("long-run assignment gini = %.3f, want the fair regime (< 0.5)", g)
	}
}

// TestLoadRoundTripAndRollback: loading an exported state reproduces it
// exactly, and loading an earlier state undoes later publications, the
// way a serving layer rolls back a mutation it could not log.
func TestLoadRoundTripAndRollback(t *testing.T) {
	s := newEngine(t, graph.NewGrid(5, 5), 12, 0, 3, 0, Options{})
	for i := 0; i < 4; i++ {
		publish(t, s, 2)
	}
	holders, pubs, expiry := s.Placement(), s.Publications(), s.Expiry()
	from, to := s.Expired()
	counts := s.State().Counts()
	publish(t, s, 2)
	publish(t, s, 2)
	if err := s.Load(holders, pubs, expiry, from, to); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Placement(), holders) || s.Publications() != pubs || !reflect.DeepEqual(s.Expiry(), expiry) {
		t.Fatalf("rollback: placement %v clock %d expiry %v, want %v %d %v", s.Placement(), s.Publications(), s.Expiry(), holders, pubs, expiry)
	}
	if f, e := s.Expired(); f != from || e != to || !reflect.DeepEqual(s.State().Counts(), counts) {
		t.Fatalf("rollback: expired [%d,%d) counts %v, want [%d,%d) %v", f, e, s.State().Counts(), from, to, counts)
	}
	if err := s.Model().Verify(context.Background(), s.newPool()); err != nil {
		t.Fatalf("model drifted across Load: %v", err)
	}
	// The next publication continues from the loaded state, exactly as a
	// fresh engine loaded with the same state would.
	fresh := newEngine(t, graph.NewGrid(5, 5), 12, 0, 3, 0, Options{})
	if err := fresh.Load(holders, pubs, expiry, from, to); err != nil {
		t.Fatal(err)
	}
	a, ea := publish(t, s, 2)
	b, eb := publish(t, fresh, 2)
	if a.Chunk != pubs || !reflect.DeepEqual(a.CacheNodes, b.CacheNodes) || !reflect.DeepEqual(ea, eb) {
		t.Fatalf("post-load publication diverges: %d %v %v vs %d %v %v", a.Chunk, a.CacheNodes, ea, b.Chunk, b.CacheNodes, eb)
	}
	// Invalid states are rejected without touching the engine.
	before := s.Placement()
	over := [][]int{{1}, {1}, {1}, {1}}
	for _, bad := range [][][]int{{{12}}, {{99}}, {{1, 1}}, over} {
		if err := s.Load(bad, 0, nil, 0, 0); !errors.Is(err, ErrBadInput) {
			t.Errorf("Load(%v) err = %v, want ErrBadInput", bad, err)
		}
	}
	if !reflect.DeepEqual(s.Placement(), before) {
		t.Fatal("a rejected Load changed the placement")
	}
}

// TestAdaptNeverReplacesExpiredChunk: an expired chunk keeps no copies
// even when it is the only chunk in demand.
func TestAdaptNeverReplacesExpiredChunk(t *testing.T) {
	s := newEngine(t, graph.NewGrid(5, 5), 12, 0, 2, 0, Options{TopDelta: 4})
	publish(t, s, 1)
	publish(t, s, 1) // chunk 0 expires
	publish(t, s, 1) // chunk 1 expires
	for i := 0; i < 500; i++ {
		if _, _, err := s.Observe(i%25, i%2); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.AdaptCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Placed {
		if c.Chunk < 2 {
			t.Fatalf("adaptation re-placed expired chunk %d on node %d", c.Chunk, c.Node)
		}
	}
	if len(s.Holders(0)) != 0 || len(s.Holders(1)) != 0 {
		t.Fatalf("expired chunks hold copies: %v %v", s.Holders(0), s.Holders(1))
	}
	checkHoldersSync(t, s)
}

func TestSetTopologyMobility(t *testing.T) {
	s := newEngine(t, graph.NewGrid(4, 4), 5, 0, 5, 0, Options{})
	publish(t, s, 5)
	// Devices move: the mesh becomes a ring of the same 16 nodes.
	if err := s.SetTopology(graph.NewRing(16)); err != nil {
		t.Fatalf("SetTopology: %v", err)
	}
	if res, _ := publish(t, s, 5); len(res.CacheNodes) == 0 {
		t.Error("nothing cached after the topology change")
	}
	if len(s.Holders(0)) == 0 {
		t.Error("pre-move chunk lost")
	}
	if err := s.SetTopology(graph.NewGrid(3, 3)); err == nil {
		t.Error("mismatched topology accepted")
	}
	disc := graph.New(16)
	if err := disc.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(disc); err == nil {
		t.Error("disconnected topology accepted")
	}
}

// TestSetTopologyDropsPathCache is the PathCache growth audit: the memoised
// per-source entries built for one topology are dropped on a swap, not
// accumulated epoch over epoch.
func TestSetTopologyDropsPathCache(t *testing.T) {
	s := newEngine(t, graph.NewGrid(4, 4), 5, 0, 5, 0, Options{})
	pc := s.Model().PathCache()
	publish(t, s, 5)
	if pc.Cached() == 0 {
		t.Fatal("publication built no path-cache entries")
	}
	for epoch := 0; epoch < 3; epoch++ {
		if err := s.SetTopology(graph.NewRing(16)); err != nil {
			t.Fatalf("epoch %d: SetTopology: %v", epoch, err)
		}
		// The hop matrix is rebuilt from the swapped cache at once, so
		// entries for the new topology are present but bounded.
		if got := pc.Cached(); got > 16 {
			t.Fatalf("epoch %d: %d path-cache entries after the swap", epoch, got)
		}
		publish(t, s, 5)
		if got := pc.Cached(); got == 0 || got > 16 {
			t.Fatalf("epoch %d: Cached() = %d, want within (0,16]", epoch, got)
		}
	}
}
