package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share req; parent links a span to the span that caused it.
// The servers carry no instrumentation, so a child span can be a replay
// of the same work one layer down, timed right after its parent (for
// example an in-process QueryUser for the user an HTTP query asked
// about): self time is then the parent minus its replayed children.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced phases run the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs f inside a span and returns the span's id.
func (t *tracer) do(name string, parent, req int64, f func()) int64 {
	if t == nil {
		f()
		return 0
	}
	start := time.Since(t.t0)
	f()
	end := time.Since(t.t0)
	return t.add(span{Parent: parent, Req: req, Name: name, Start: start, End: end})
}

// record adds a span whose times were measured by the caller.
func (t *tracer) record(name string, parent, req int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	return t.add(span{Parent: parent, Req: req, Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
}

func (t *tracer) add(s span) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = int64(len(t.spans)) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// durations returns the durations of every span called name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfTimes returns, for every span called name, its duration minus its
// children's. With maxChild the children are taken as parallel calls and
// only the slowest one is subtracted (a scatter-gather parent).
func (t *tracer) selfTimes(name string, maxChild bool) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.dur())
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		var sub time.Duration
		for _, d := range children[s.ID] {
			if maxChild {
				sub = max(sub, d)
			} else {
				sub += d
			}
		}
		out = append(out, float64(s.dur()-sub))
	}
	return out
}

// dur returns the duration of span id.
func (t *tracer) dur(id int64) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].dur()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile of xs (nearest rank on sorted data);
// 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

const (
	msPerNs = 1e-6
	usPerNs = 1e-3
)
