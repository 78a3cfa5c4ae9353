package ml

import (
	"math/rand"
	"sync"
	"sync/atomic"
)

// Seeded streams. A math/rand source is a pure function of its seed, but
// seeding one fills a 607-word table, which costs about as much as
// training a small SMO machine. One-vs-one training seeds a source per
// machine, and across the thousands of machines of a refined-DA attack
// those seeds take only a few hundred distinct values. The memo below
// keeps each seed's output prefix, extended on demand, and seededSource
// replays it, so a machine pays for seeding only the first time its seed
// is seen.
//
// The memo is bounded: it holds at most streamMemoSeeds seeds and
// streamMemoValues values in total, and starts over from empty when a new
// seed would pass either bound. A replay that outruns what the memo may
// hold continues on a private source, so the bounds never change a
// stream's values.
const (
	streamMemoSeeds  = 4096
	streamMemoValues = 1 << 20 // 8 MiB of uint64
	// streamMemoChunk is the smallest extension of a memoized prefix.
	streamMemoChunk = 64
)

// seedStream is the memoized output prefix of rand.NewSource(seed).
type seedStream struct {
	seed int64
	mu   sync.Mutex
	src  rand.Source64 // positioned after vals; nil until first extended
	vals []uint64
}

type streamMemo struct {
	mu      sync.Mutex
	streams map[int64]*seedStream
	values  atomic.Int64 // values held by streams created since the last reset
}

var seededStreams = streamMemo{streams: map[int64]*seedStream{}}

// stream returns the memoized stream of seed, creating it (and first
// emptying the memo when it is full) if needed.
func (m *streamMemo) stream(seed int64) *seedStream {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.streams[seed]; ok {
		return s
	}
	if len(m.streams) >= streamMemoSeeds || m.values.Load() >= streamMemoValues {
		m.streams = map[int64]*seedStream{}
		m.values.Store(0)
	}
	s := &seedStream{seed: seed}
	m.streams[seed] = s
	return s
}

// prefix returns the stream's memoized values, first extending them to at
// least n values unless the memo is full. Values below the returned
// length never change, so the caller may read its slice without holding
// the lock while later calls append past it.
func (s *seedStream) prefix(n int) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= len(s.vals) || seededStreams.values.Load() >= streamMemoValues {
		return s.vals
	}
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	}
	grow := max(n-len(s.vals), len(s.vals), streamMemoChunk)
	for range grow {
		s.vals = append(s.vals, s.src.Uint64())
	}
	seededStreams.values.Add(int64(grow))
	return s.vals
}

// replaySource is a rand.Source64 that yields exactly the values of
// rand.NewSource(seed), read from the shared memo. It is owned by one
// goroutine, like the source it stands in for.
type replaySource struct {
	stream *seedStream
	vals   []uint64 // snapshot of stream.vals
	pos    int
	// tail continues the stream privately once the memo stops growing.
	tail rand.Source64
}

// seededSource returns a source equivalent to rand.NewSource(seed).
func seededSource(seed int64) *replaySource {
	return &replaySource{stream: seededStreams.stream(seed)}
}

// Uint64 returns the next value of the stream.
func (r *replaySource) Uint64() uint64 {
	if r.pos < len(r.vals) {
		v := r.vals[r.pos]
		r.pos++
		return v
	}
	return r.next()
}

// next refills the snapshot from the memo or, when the memo is full,
// moves the replay onto a private source fast-forwarded to pos.
func (r *replaySource) next() uint64 {
	if r.tail == nil {
		r.vals = r.stream.prefix(r.pos + 1)
		if r.pos < len(r.vals) {
			v := r.vals[r.pos]
			r.pos++
			return v
		}
		r.tail = rand.NewSource(r.stream.seed).(rand.Source64)
		for range r.pos {
			r.tail.Uint64()
		}
	}
	r.pos++
	return r.tail.Uint64()
}

// Int63 returns the next value with its top bit cleared, exactly as the
// standard source derives Int63 from its 64-bit output.
func (r *replaySource) Int63() int64 { return int64(r.Uint64() & (1<<63 - 1)) }

// Seed restarts the replay on the stream of seed.
func (r *replaySource) Seed(seed int64) {
	*r = replaySource{stream: seededStreams.stream(seed)}
}
