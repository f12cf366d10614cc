package demand

// Tracker maintains online popularity estimates from the request stream:
// a sliding window of exact per-chunk and per-node counts (ring of
// fixed-size buckets, so memory is O(buckets·(Q+N)) regardless of trace
// length) blended with a per-chunk EWMA of bucket shares. The window
// reacts quickly to drift; the EWMA remembers enough history to keep
// estimates stable between adaptations.
type Tracker struct {
	chunks, nodes int
	alpha         float64
	bucketSize    int

	chunkBuckets [][]int32 // [bucket][chunk]
	nodeBuckets  [][]int32 // [bucket][node]
	chunkWin     []int64   // window totals per chunk
	nodeWin      []int64   // window totals per node
	winTotal     int64

	ewma     []float64 // per-chunk EWMA of bucket shares
	ewmaInit bool

	cur      int // current bucket index
	curCount int // observations in the current bucket
	total    int64
}

// NewTracker returns a tracker over chunk ids [0, chunks) and node ids
// [0, nodes) with a window of buckets×bucketSize requests and EWMA
// weight alpha in (0, 1].
func NewTracker(chunks, nodes, buckets, bucketSize int, alpha float64) *Tracker {
	if buckets < 1 {
		buckets = 1
	}
	if bucketSize < 1 {
		bucketSize = 1
	}
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	t := &Tracker{
		chunks:       chunks,
		nodes:        nodes,
		alpha:        alpha,
		bucketSize:   bucketSize,
		chunkBuckets: make([][]int32, buckets),
		nodeBuckets:  make([][]int32, buckets),
		chunkWin:     make([]int64, chunks),
		nodeWin:      make([]int64, nodes),
		ewma:         make([]float64, chunks),
	}
	for b := range t.chunkBuckets {
		t.chunkBuckets[b] = make([]int32, chunks)
		t.nodeBuckets[b] = make([]int32, nodes)
	}
	return t
}

// grow widens the chunk-id space to chunks (never narrows it); new ids
// start with no demand history.
func (t *Tracker) grow(chunks int) {
	if chunks <= t.chunks {
		return
	}
	extra := chunks - t.chunks
	for b := range t.chunkBuckets {
		t.chunkBuckets[b] = append(t.chunkBuckets[b], make([]int32, extra)...)
	}
	t.chunkWin = append(t.chunkWin, make([]int64, extra)...)
	t.ewma = append(t.ewma, make([]float64, extra)...)
	t.chunks = chunks
}

// Observe records one request event.
func (t *Tracker) Observe(node, chunk int) {
	if t.curCount >= t.bucketSize {
		t.rotate()
	}
	t.chunkBuckets[t.cur][chunk]++
	t.nodeBuckets[t.cur][node]++
	t.chunkWin[chunk]++
	t.nodeWin[node]++
	t.winTotal++
	t.curCount++
	t.total++
}

// rotate folds the full current bucket into the EWMA and reopens the
// oldest bucket, dropping its counts from the window.
func (t *Tracker) rotate() {
	full := t.chunkBuckets[t.cur]
	if t.curCount > 0 {
		inv := 1 / float64(t.curCount)
		if !t.ewmaInit {
			for k, c := range full {
				t.ewma[k] = float64(c) * inv
			}
			t.ewmaInit = true
		} else {
			a := t.alpha
			for k, c := range full {
				t.ewma[k] = (1-a)*t.ewma[k] + a*float64(c)*inv
			}
		}
	}
	t.cur = (t.cur + 1) % len(t.chunkBuckets)
	for k, c := range t.chunkBuckets[t.cur] {
		if c != 0 {
			t.chunkWin[k] -= int64(c)
			t.winTotal -= int64(c)
			t.chunkBuckets[t.cur][k] = 0
		}
	}
	for v, c := range t.nodeBuckets[t.cur] {
		if c != 0 {
			t.nodeWin[v] -= int64(c)
			t.nodeBuckets[t.cur][v] = 0
		}
	}
	t.curCount = 0
}

// Shares returns the estimated chunk demand distribution: an equal
// blend of the sliding-window share and the EWMA share, normalized to
// sum to 1. Before any observation it is uniform.
func (t *Tracker) Shares() []float64 {
	out := make([]float64, t.chunks)
	if t.total == 0 {
		for k := range out {
			out[k] = 1 / float64(t.chunks)
		}
		return out
	}
	sum := 0.0
	for k := range out {
		s := 0.0
		if t.winTotal > 0 {
			s = float64(t.chunkWin[k]) / float64(t.winTotal)
		}
		if t.ewmaInit {
			s = 0.5*s + 0.5*t.ewma[k]
		}
		out[k] = s
		sum += s
	}
	if sum > 0 {
		for k := range out {
			out[k] /= sum
		}
	}
	return out
}

// NodeWeights returns the per-node request-rate shares over the sliding
// window, normalized to sum to 1; uniform before any observation.
func (t *Tracker) NodeWeights() []float64 {
	out := make([]float64, t.nodes)
	if t.winTotal == 0 {
		for v := range out {
			out[v] = 1 / float64(t.nodes)
		}
		return out
	}
	inv := 1 / float64(t.winTotal)
	for v := range out {
		out[v] = float64(t.nodeWin[v]) * inv
	}
	return out
}

// Total returns the number of observations so far.
func (t *Tracker) Total() int64 { return t.total }

// WindowCount returns the exact request count for one chunk inside the
// sliding window.
func (t *Tracker) WindowCount(chunk int) int64 { return t.chunkWin[chunk] }
