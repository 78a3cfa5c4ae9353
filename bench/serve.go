package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"dehealth"
)

// servingOptions are dehealthd's cold-boot defaults with -shards 2.
func servingOptions() dehealth.Options {
	opt := dehealth.DefaultOptions()
	opt.MaxBigrams = maxBigrams
	opt.Shards = shards
	return opt
}

// runForumServe drives one dehealthd, cold-booted from the generated
// datasets in exact mode, with closed-loop queries (Phase A) and an open
// loop of queries plus a small share of ingests (Phase B).
func runForumServe(e *env) (*report, error) {
	rep := newReport()
	in, err := makeInputs(e.seed, forumServeUsers, e.dir)
	if err != nil {
		return nil, err
	}
	sp := in.split
	nAnon := sp.Anon.NumUsers()
	rep.note("inputs: %d anonymized x %d auxiliary users, %d overlapping, digest %s", nAnon, sp.Aux.NumUsers(), len(sp.TrueMapping), in.digest)

	// The in-process reference: the same datasets prepared through the
	// public API with the server's configuration.
	opt := servingOptions()
	pw := dehealth.PrepareWorld(sp.Anon, sp.Aux, opt)
	want := make([][]dehealth.Candidate, nAnon)
	for u := range want {
		if want[u], err = pw.QueryUser(u, topK, opt); err != nil {
			return nil, err
		}
	}

	c := newClient(runtime.NumCPU())
	defer c.close()
	probe := sample(e.seed+2, nAnon, 1)[0]
	var setups []float64
	var srv *proc
	var base string
	for r := 0; r < reps(e); r++ {
		if srv != nil {
			e.fleet.stop(srv)
		}
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		base = "http://" + addr
		srv, err = e.fleet.start(fmt.Sprintf("dehealthd-%d", r), "dehealthd",
			"-addr", addr, "-aux", in.auxPath, "-anon", in.anonPath, "-shards", fmt.Sprint(shards))
		if err != nil {
			return nil, err
		}
		first, err := waitFor(srv, func() bool {
			got, err := c.query(base, probe, false)
			return err == nil && sameCandidates(got.Candidates, want[probe])
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, first.Sub(srv.start).Seconds())
	}
	rep.e2e["setup_s"] = median(setups)

	// Answer gate: every anonymized user over HTTP, bit for bit.
	served := make([][]wireCandidate, nAnon)
	if err := fanout(nAnon, runtime.NumCPU(), func(u int) error {
		got, err := c.query(base, u, false)
		if err != nil {
			return fmt.Errorf("gate: user %d: %w", u, err)
		}
		if !sameCandidates(got.Candidates, want[u]) {
			return fmt.Errorf("gate: user %d: HTTP answer differs from PreparedWorld.QueryUser", u)
		}
		served[u] = got.Candidates
		return nil
	}); err != nil {
		return nil, err
	}
	rep.e2e["topk_success"] = topkSuccess(sp, served)
	rep.e2e["recall_at_10"] = recallAt10(served, want)

	// Timed phases. Queries are checked against the reference; an
	// ingest must come back with a fresh id.
	queries := userSequence(e.seed+3, allUsers(nAnon), 1<<16)
	plan := ingestPlan(e.seed+4, 1<<16)
	queryOp := func(i int) error {
		u := queries[i%len(queries)]
		got, err := c.query(base, u, false)
		if err == nil && !sameCandidates(got.Candidates, want[u]) {
			err = errWrong
		}
		return err
	}
	mixedOp := func(i int) error {
		if plan[i%len(plan)] == kindQuery {
			return queryOp(i)
		}
		u := in.ingest[i%len(in.ingest)]
		u.Name = fmt.Sprintf("%s-%d", u.Name, i)
		id, err := c.ingest(base, u)
		if err == nil && id < nAnon {
			err = errWrong
		}
		return err
	}
	phases := func(scale float64, tr *tracer, reqBase int64) (serving, error) {
		a, b := phaseDurations(e, scale)
		s := serving{a: closedLoop(runtime.NumCPU(), a, tr, reqBase, queryOp)}
		err := e.awake(func() {
			s.b = openLoop(schedule(serveRate, b), runtime.NumCPU(), plan, tr, reqBase+1<<32, mixedOp)
		})
		return s, err
	}
	var s0, s1 serveStats
	if err := c.get(base+"/v1/stats", &s0); err != nil {
		return nil, err
	}
	scale := 1.0
	if e.trace {
		scale = 0.5
	}
	run, err := phases(scale, nil, 0)
	if err != nil {
		return nil, err
	}
	if err := c.get(base+"/v1/stats", &s1); err != nil {
		return nil, err
	}
	servingMetrics(rep, run, serveRate)
	if mem, err := srv.peakRSSMB(); err == nil {
		rep.e2e["mem_mb"] = mem
	} else {
		return nil, err
	}
	if e.trace {
		traced, err := phases(scale, e.tr, 1<<40)
		if err != nil {
			return nil, err
		}
		traceOverhead(rep, run, traced)
		rep.layers["serve.mean_batch"] = meanBatch(s0, s1)
		rep.layers["loadgen.late_p99_ms"] = quantile(run.b.late, 0.99) * msPerNs
		if err := serveLayers(e, rep, in, pw, opt, c, base); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// reps is how many set-ups a run times: several for the median, one in
// the traced run, which does not report setup_s.
func reps(e *env) int {
	if e.trace {
		return 1
	}
	return setupReps
}

// phaseDurations splits the run's measured time: a quarter closed loop,
// three quarters open loop (which needs the samples for its tail).
func phaseDurations(e *env, scale float64) (a, b time.Duration) {
	total := time.Duration(float64(e.seconds) * scale)
	return total / 4, total - total/4
}

// ingestPlan marks each open-loop request as a query or an ingest.
func ingestPlan(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	plan := make([]int, n)
	for i := range plan {
		if rng.Float64() < ingestShare {
			plan[i] = kindIngest
		}
	}
	return plan
}

// servingMetrics fills the serving end-to-end metrics from the phases.
func servingMetrics(rep *report, s serving, rate float64) {
	rep.e2e["qps"] = s.qps()
	rep.e2e["p50_ms"] = quantile(s.b.lat[kindQuery], 0.50) * msPerNs
	rep.e2e["p90_ms"] = quantile(s.b.lat[kindQuery], 0.90) * msPerNs
	rep.e2e["p99_ms"] = quantile(s.b.lat[kindQuery], 0.99) * msPerNs
	if n := len(s.b.lat[kindIngest]); n > 0 {
		rep.e2e["ingest_p50_ms"] = quantile(s.b.lat[kindIngest], 0.50) * msPerNs
		rep.e2e["ingest_p99_ms"] = quantile(s.b.lat[kindIngest], 0.99) * msPerNs
	}
	rep.e2e["failed_frac"] = s.failedFrac()
	rep.attempted += s.attempted()
	rep.failed += s.failed()
	rep.wrong += s.wrong()
	rep.note("phase A: closed loop, %d clients, %d queries in %.2fs, qps is the median over %d windows", runtime.NumCPU(), s.a.attempted, s.a.elapsed.Seconds(), qpsWindows)
	rep.note("phase B: open loop at %.0f/s, %d queries + %d ingests, p99 over %d query samples, late p99 %.3fms",
		rate, len(s.b.lat[kindQuery]), len(s.b.lat[kindIngest]), len(s.b.lat[kindQuery]), quantile(s.b.late, 0.99)*msPerNs)
	rep.note("failed %d of %d attempted (%d wrong answers)", s.failed(), s.attempted(), s.wrong())
}

// traceOverhead reports the traced phases beside the untraced ones.
func traceOverhead(rep *report, untraced, traced serving) {
	rep.layers["trace.untraced_qps"] = untraced.qps()
	rep.layers["trace.traced_qps"] = traced.qps()
	rep.layers["trace.untraced_p99_ms"] = quantile(untraced.b.lat[kindQuery], 0.99) * msPerNs
	rep.layers["trace.traced_p99_ms"] = quantile(traced.b.lat[kindQuery], 0.99) * msPerNs
	rep.layers["trace.overhead_frac"] = 1 - traced.qps()/untraced.qps()
	rep.attempted += traced.attempted()
	rep.failed += traced.failed()
	rep.wrong += traced.wrong()
}

// meanBatch is the dispatcher's mean flush width between two stats reads.
func meanBatch(s0, s1 serveStats) float64 {
	if s1.Batches == s0.Batches {
		return 0
	}
	return (s1.MeanBatchSize*float64(s1.Batches) - s0.MeanBatchSize*float64(s0.Batches)) / float64(s1.Batches-s0.Batches)
}

// topkSuccess is the share of overlapping users whose true auxiliary
// account is among their served candidates (paper Fig. 3).
func topkSuccess(sp *dehealth.Split, answers [][]wireCandidate) float64 {
	hit, n := 0, 0
	for u, truth := range sp.TrueMapping {
		if answers[u] == nil {
			continue
		}
		n++
		for _, c := range answers[u] {
			if c.User == truth {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(max(n, 1))
}

// recallAt10 is the mean overlap of answers with the exact top-10.
func recallAt10(answers [][]wireCandidate, exact [][]dehealth.Candidate) float64 {
	sum, n := 0.0, 0
	for u, a := range answers {
		if a == nil || exact[u] == nil {
			continue
		}
		sum += float64(overlap(a, exact[u])) / float64(len(exact[u]))
		n++
	}
	return sum / float64(max(n, 1))
}
