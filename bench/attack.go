package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"dehealth"
)

// attackOptions are the paper defaults: SMO refined DA over Top-10
// direct selection, closed world, unsharded.
func attackOptions() dehealth.Options {
	opt := dehealth.DefaultOptions()
	opt.MaxBigrams = maxBigrams
	opt.K = topK
	return opt
}

// runForumAttack runs the offline two-phase attack in process through
// the public PrepareWorld + AttackWithTruth on the forum-serve world.
func runForumAttack(e *env) (*report, error) {
	rep := newReport()
	in, err := makeInputs(e.seed, forumServeUsers, e.dir)
	if err != nil {
		return nil, err
	}
	sp := in.split
	nAnon := sp.Anon.NumUsers()
	rep.note("inputs: %d anonymized x %d auxiliary users, %d overlapping, digest %s", nAnon, sp.Aux.NumUsers(), len(sp.TrueMapping), in.digest)

	opt := attackOptions()
	var setups []float64
	var pw *dehealth.PreparedWorld
	for r := 0; r < reps(e); r++ {
		pw = nil
		runtime.GC()
		start := time.Now()
		pw = dehealth.PrepareWorld(sp.Anon, sp.Aux, opt)
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.e2e["setup_s"] = median(setups)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.e2e["mem_mb"] = float64(ms.HeapInuse) / (1 << 20)

	// Answer gate: two attacks give the same mapping. The first also
	// builds the world's similarity pipeline, which later attacks reuse.
	ref, err := pw.AttackWithTruth(opt, sp.TrueMapping)
	if err != nil {
		return nil, err
	}
	again, err := pw.AttackWithTruth(opt, sp.TrueMapping)
	if err != nil {
		return nil, err
	}
	if !slices.Equal(ref.Mapping, again.Mapping) {
		return nil, fmt.Errorf("gate: two attacks on one world gave different mappings")
	}
	rep.e2e["topk_success"], rep.e2e["refined_accuracy"] = attackQuality(sp, ref)
	// The offline Top-K phase and the online query path agree.
	exact := make([][]dehealth.Candidate, nAnon)
	topk := make([][]wireCandidate, nAnon)
	for u := range exact {
		if exact[u], err = pw.QueryUser(u, topK, opt); err != nil {
			return nil, err
		}
		for _, c := range ref.TopK.Candidates[u] {
			topk[u] = append(topk[u], wireCandidate{User: c.User, Score: c.Score})
		}
	}
	rep.e2e["recall_at_10"] = recallAt10(topk, exact)

	// Timed attacks: keep starting one while it is expected to finish
	// within the run's measured time (at least one).
	attack := func(tr *tracer, budget time.Duration) []float64 {
		var times []float64
		var spent time.Duration
		for len(times) == 0 || spent+spent/time.Duration(len(times)) <= budget {
			var res *dehealth.Result
			var err error
			start := time.Now()
			tr.do("dehealth.AttackWithTruth", 0, int64(len(times)), func() {
				res, err = pw.AttackWithTruth(opt, sp.TrueMapping)
			})
			d := time.Since(start)
			spent += d
			times = append(times, float64(d))
			rep.attempted++
			if err != nil || !slices.Equal(res.Mapping, ref.Mapping) {
				rep.failed++
				rep.wrong++
			}
		}
		return times
	}
	budget := e.seconds
	if e.trace {
		budget = 0 // one untraced and one traced attack
	}
	times := attack(nil, budget)
	sum := 0.0
	for _, t := range times {
		sum += t
	}
	perSec := float64(nAnon*len(times)) / (sum / 1e9)
	rep.e2e["qps"] = perSec
	rep.e2e["attack_users_per_s"] = perSec
	rep.e2e["p50_ms"] = median(times) * msPerNs
	rep.e2e["p90_ms"] = quantile(times, 0.90) * msPerNs
	rep.e2e["p99_ms"] = quantile(times, 0.99) * msPerNs
	rep.e2e["failed_frac"] = float64(rep.failed) / float64(rep.attempted)
	rep.note("timed %d attacks of %d anonymized users; p50_ms, p90_ms and p99_ms are quantiles of the whole-attack times", len(times), nAnon)
	if e.trace {
		traced := attack(e.tr, 0)
		untracedQPS := perSec
		tracedQPS := float64(nAnon) / (traced[0] / 1e9)
		rep.layers["trace.untraced_qps"] = untracedQPS
		rep.layers["trace.traced_qps"] = tracedQPS
		rep.layers["trace.untraced_p99_ms"] = rep.e2e["p99_ms"]
		rep.layers["trace.traced_p99_ms"] = traced[0] * msPerNs
		rep.layers["trace.overhead_frac"] = 1 - tracedQPS/untracedQPS
		if err := attackLayers(e, rep, in, ref); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// attackQuality scores an attack against the split's ground truth: the
// share of overlapping users whose true account is in their Top-K (paper
// Fig. 3) and the share refined DA maps to it (paper Fig. 4).
func attackQuality(sp *dehealth.Split, res *dehealth.Result) (topkSuccess, refinedAccuracy float64) {
	hit, correct := 0, 0
	for u, truth := range sp.TrueMapping {
		if r := res.TopK.TrueRank[u]; r > 0 && r <= topK {
			hit++
		}
		if res.Mapping[u] == truth {
			correct++
		}
	}
	n := float64(len(sp.TrueMapping))
	return float64(hit) / n, float64(correct) / n
}
