package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Request kinds of a load plan.
const (
	kindQuery = iota
	kindIngest
	numKinds
)

var kindSpan = [numKinds]string{"loadgen.query", "loadgen.ingest"}

// loopResult is what one closed or open loop observed.
type loopResult struct {
	attempted, failed, wrong int64
	elapsed                  time.Duration
	// lat holds per-kind latencies in ns (open loop: from the scheduled
	// send time). A failed request enters as the deadline, so it misses
	// any latency limit.
	lat  [numKinds][]float64
	late []float64 // ns each open-loop send ran behind its schedule
	// done holds each successful closed-loop query's completion time,
	// from the loop's start.
	done []time.Duration
}

// recorder collects outcomes from the loop's workers.
type recorder struct {
	mu  sync.Mutex
	res loopResult
}

func (rc *recorder) outcome(kind int, err error, lat, late time.Duration) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.res.attempted++
	if err == nil && lat > deadline {
		err = errTimeout
	}
	if err != nil {
		rc.res.failed++
		if errors.Is(err, errWrong) {
			rc.res.wrong++
		}
		lat = deadline
	}
	rc.res.lat[kind] = append(rc.res.lat[kind], float64(lat))
	if late >= 0 {
		rc.res.late = append(rc.res.late, float64(late))
	}
}

var errTimeout = errors.New("missed the deadline")

// closedLoop runs clients workers that each send request i, wait for the
// reply, then send the next, until dur has passed. Only queries run
// closed-loop.
func closedLoop(clients int, dur time.Duration, tr *tracer, reqBase int64, do func(i int) error) loopResult {
	var rc recorder
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	stop := t0.Add(dur)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				i := int(next.Add(1) - 1)
				start := time.Now()
				err := do(i)
				end := time.Now()
				tr.record(kindSpan[kindQuery], 0, reqBase+int64(i), start, end)
				rc.outcome(kindQuery, err, end.Sub(start), -1)
				if err == nil {
					rc.mu.Lock()
					rc.res.done = append(rc.res.done, end.Sub(t0))
					rc.mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	rc.res.elapsed = time.Since(t0)
	return rc.res
}

// schedule returns the send offsets of a fixed-rate open loop over dur:
// request i is due at i/rate whatever the replies do.
func schedule(rate float64, dur time.Duration) []time.Duration {
	n := int(rate * dur.Seconds())
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// openLoop sends request i at t0 + sched[i] whatever the replies do.
// workers bounds the requests in flight; a request whose workers are all
// busy waits, and its latency still counts from its scheduled time. A
// request already past the deadline when a worker frees up is counted as
// failed without being sent, so a rate the server cannot sustain shows as
// failures and tail latency, never as a lower send rate.
func openLoop(sched []time.Duration, workers int, plan []int, tr *tracer, reqBase int64, do func(i int) error) loopResult {
	var rc recorder
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now().Add(5 * time.Millisecond)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				kind := plan[i%len(plan)]
				due := t0.Add(sched[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				start := time.Now()
				if start.Sub(due) > deadline {
					rc.outcome(kind, errTimeout, deadline, start.Sub(due))
					continue
				}
				err := do(i)
				end := time.Now()
				tr.record(kindSpan[kind], 0, reqBase+int64(i), start, end)
				rc.outcome(kind, err, end.Sub(due), start.Sub(due))
			}
		}()
	}
	wg.Wait()
	rc.res.elapsed = time.Since(t0)
	return rc.res
}

// serving is the outcome of a serving workload's two timed phases.
type serving struct {
	a, b loopResult
}

// qpsWindows is how many equal windows Phase A's throughput is taken
// over; the median window discounts a stall that hits one of them.
const qpsWindows = 10

// qps is Phase A's successful queries per second: the median over equal
// windows of the closed loop's measured time.
func (s serving) qps() float64 {
	width := s.a.elapsed / qpsWindows
	var counts [qpsWindows]float64
	for _, d := range s.a.done {
		counts[min(int(d/width), qpsWindows-1)]++
	}
	return median(counts[:]) / width.Seconds()
}

func (s serving) attempted() int64 { return s.a.attempted + s.b.attempted }
func (s serving) failed() int64    { return s.a.failed + s.b.failed }
func (s serving) wrong() int64     { return s.a.wrong + s.b.wrong }

func (s serving) failedFrac() float64 {
	return float64(s.failed()) / float64(max(s.attempted(), 1))
}
