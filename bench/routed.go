package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"dehealth"
)

// routedOptions are the routed fleet's preparation options: dehealthd
// -approx -approx-theta 1.3 -shards 2.
func routedOptions() dehealth.Options {
	opt := servingOptions()
	opt.Approx = dehealth.ApproxConfig{Enabled: true, Theta: approxTheta}
	return opt
}

// topology is one routed deployment: two slice-booted shard servers
// behind one router.
type topology struct {
	slices  []*proc
	bases   []string // shard server base URLs, in shard order
	router  *proc
	base    string // router base URL
	paths   []string
	bootMax float64 // slowest slice's start-to-first-correct-answer, s
}

func (t *topology) stop(f *fleet) {
	for _, p := range append(t.slices, t.router) {
		if p != nil {
			f.stop(p)
		}
	}
}

// runRoutedApprox prepares a larger world with the approximate tier, cuts
// it into slices, warm-boots one shard server per slice behind
// dehealth-router, and drives approximate queries through the router.
func runRoutedApprox(e *env) (*report, error) {
	rep := newReport()
	in, err := makeInputs(e.seed, routedUsers, e.dir)
	if err != nil {
		return nil, err
	}
	sp := in.split
	nAnon, nAux := sp.Anon.NumUsers(), sp.Aux.NumUsers()
	rep.note("inputs: %d anonymized x %d auxiliary users, %d overlapping, digest %s", nAnon, nAux, len(sp.TrueMapping), in.digest)

	opt := routedOptions()
	exactOpt := opt
	exactOpt.Approx.Enabled = false
	pw := dehealth.PrepareWorld(sp.Anon, sp.Aux, opt)
	users := sample(e.seed+2, nAnon, routedSample)
	wantExact := make([][]dehealth.Candidate, nAnon)
	wantApprox := make([][]dehealth.Candidate, nAnon)
	for _, u := range users {
		if wantExact[u], err = pw.QueryUser(u, topK, exactOpt); err != nil {
			return nil, err
		}
		if wantApprox[u], err = pw.QueryUser(u, topK, opt); err != nil {
			return nil, err
		}
	}
	// Each slice's first correct answer is the exact top-k of its own
	// auxiliary window: the full ranking cut to [lo, hi).
	probe := users[0]
	full, err := pw.QueryUser(probe, nAux, exactOpt)
	if err != nil {
		return nil, err
	}
	var windows [][]dehealth.Candidate
	lo := 0
	for _, s := range pw.ShardSizes() {
		hi := lo + s.AuxUsers
		var w []dehealth.Candidate
		for _, c := range full {
			if c.User >= lo && c.User < hi && len(w) < topK {
				w = append(w, c)
			}
		}
		windows = append(windows, w)
		lo = hi
	}

	c := newClient(runtime.NumCPU())
	defer c.close()
	var setups, boots []float64
	var topo *topology
	for r := 0; r < reps(e); r++ {
		if topo != nil {
			topo.stop(e.fleet)
		}
		start := time.Now()
		topo, err = deploy(e, c, in, r, probe, windows, wantExact[probe])
		if err != nil {
			if topo != nil {
				topo.stop(e.fleet)
			}
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		boots = append(boots, topo.bootMax)
	}
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["warm_boot_s"] = median(boots)

	// Answer gate: the router with approx off equals the single-process
	// world bit for bit; with approx on it equals the in-process tier.
	approx := make([][]wireCandidate, nAnon)
	if err := fanout(len(users), runtime.NumCPU(), func(i int) error {
		u := users[i]
		got, err := c.query(topo.base, u, false)
		if err != nil {
			return fmt.Errorf("gate: user %d: %w", u, err)
		}
		if !sameCandidates(got.Candidates, wantExact[u]) {
			return fmt.Errorf("gate: user %d: routed exact answer differs from the single-process world", u)
		}
		got, err = c.query(topo.base, u, true)
		if err != nil {
			return fmt.Errorf("gate: user %d: %w", u, err)
		}
		if !sameCandidates(got.Candidates, wantApprox[u]) {
			return fmt.Errorf("gate: user %d: routed approx answer differs from the in-process approx tier", u)
		}
		approx[u] = got.Candidates
		return nil
	}); err != nil {
		return nil, err
	}
	rep.e2e["recall_at_10"] = recallAt10(approx, wantExact)
	// Top-K success of the approximate answers over every overlapping user.
	rest := []int{}
	for _, u := range overlapping(sp) {
		if approx[u] == nil {
			rest = append(rest, u)
		}
	}
	if err := fanout(len(rest), runtime.NumCPU(), func(i int) error {
		got, err := c.query(topo.base, rest[i], true)
		approx[rest[i]] = got.Candidates
		return err
	}); err != nil {
		return nil, fmt.Errorf("top-k pass: %w", err)
	}
	rep.e2e["topk_success"] = topkSuccess(sp, approx)

	queries := userSequence(e.seed+3, users, 1<<16)
	queryOp := func(i int) error {
		u := queries[i%len(queries)]
		got, err := c.query(topo.base, u, true)
		if err == nil && !sameCandidates(got.Candidates, wantApprox[u]) {
			err = errWrong
		}
		return err
	}
	phases := func(scale float64, tr *tracer, reqBase int64) (serving, error) {
		a, b := phaseDurations(e, scale)
		s := serving{a: closedLoop(runtime.NumCPU(), a, tr, reqBase, queryOp)}
		err := e.awake(func() {
			s.b = openLoop(schedule(routedRate, b), runtime.NumCPU(), []int{kindQuery}, tr, reqBase+1<<32, queryOp)
		})
		return s, err
	}
	var r0, r1 routerStats
	s0 := make([]serveStats, len(topo.bases))
	s1 := make([]serveStats, len(topo.bases))
	if err := fleetStats(c, topo, &r0, s0); err != nil {
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
	if err := fleetStats(c, topo, &r1, s1); err != nil {
		return nil, err
	}
	servingMetrics(rep, run, routedRate)
	mem := 0.0
	for _, p := range append(topo.slices, topo.router) {
		m, err := p.peakRSSMB()
		if err != nil {
			return nil, err
		}
		mem += m
	}
	rep.e2e["mem_mb"] = mem
	rep.note("router: hedge after %v, %d hedges, %d hedge wins, %d retries, %d partials over %d queries",
		hedgeDelay, r1.Hedges-r0.Hedges, r1.HedgeWins-r0.HedgeWins, r1.Retries-r0.Retries, r1.Partials-r0.Partials, r1.Queries-r0.Queries)
	if e.trace {
		traced, err := phases(scale, e.tr, 1<<40)
		if err != nil {
			return nil, err
		}
		traceOverhead(rep, run, traced)
		routerCounters(rep, r0, r1)
		shardCounters(rep, s0, s1)
		rep.layers["loadgen.late_p99_ms"] = quantile(run.b.late, 0.99) * msPerNs
		if err := routedLayers(e, rep, in, pw, opt, c, topo, users); err != nil {
			return nil, err
		}
	}
	topo.stop(e.fleet)
	return rep, nil
}

// deploy prepares and slices the world with dehealthd -write-slices,
// boots one shard server per slice and the router in front, and returns
// once the router gives its first correct answer.
func deploy(e *env, c *client, in *inputs, rep, probe int, windows [][]dehealth.Candidate, want []dehealth.Candidate) (*topology, error) {
	prefix := fmt.Sprintf("%s/world-%d", e.dir, rep)
	if err := e.fleet.run(fmt.Sprintf("write-slices-%d", rep), "dehealthd",
		"-aux", in.auxPath, "-anon", in.anonPath, "-approx", "-approx-theta", fmt.Sprint(approxTheta),
		"-shards", fmt.Sprint(shards), "-write-slices", prefix); err != nil {
		return nil, err
	}
	t := &topology{}
	for i := 0; i < shards; i++ {
		path := fmt.Sprintf("%s.slice-%d-of-%d.snap", prefix, i, shards)
		addr, err := freeAddr()
		if err != nil {
			return t, err
		}
		p, err := e.fleet.start(fmt.Sprintf("slice-%d-%d", i, rep), "dehealthd",
			"-addr", addr, "-snapshot", path, "-approx", "-approx-theta", fmt.Sprint(approxTheta))
		if err != nil {
			return t, err
		}
		t.slices = append(t.slices, p)
		t.bases = append(t.bases, "http://"+addr)
		t.paths = append(t.paths, path)
	}
	for i, p := range t.slices {
		first, err := waitFor(p, func() bool {
			got, err := c.internalQuery(t.bases[i], probe, false)
			return err == nil && sameCandidates(got, windows[i])
		})
		if err != nil {
			return t, err
		}
		t.bootMax = max(t.bootMax, first.Sub(p.start).Seconds())
	}
	addr, err := freeAddr()
	if err != nil {
		return t, err
	}
	args := []string{"-addr", addr, "-hedge-ms", fmt.Sprint(hedgeDelay.Milliseconds())}
	for _, b := range t.bases {
		args = append(args, "-shard", b)
	}
	if t.router, err = e.fleet.start(fmt.Sprintf("router-%d", rep), "dehealth-router", args...); err != nil {
		return t, err
	}
	t.base = "http://" + addr
	_, err = waitFor(t.router, func() bool {
		got, err := c.query(t.base, probe, false)
		return err == nil && sameCandidates(got.Candidates, want)
	})
	return t, err
}

func fleetStats(c *client, t *topology, r *routerStats, s []serveStats) error {
	if err := c.get(t.base+"/v1/stats", r); err != nil {
		return err
	}
	for i, b := range t.bases {
		if err := c.get(b+"/v1/stats", &s[i]); err != nil {
			return err
		}
		if s[i].Approx == nil {
			return fmt.Errorf("shard server %s reports no approx counters", b)
		}
	}
	return nil
}

// routerCounters turns the router's counter deltas into per-query rates.
func routerCounters(rep *report, r0, r1 routerStats) {
	q := float64(max(r1.Queries-r0.Queries, 1))
	hedges := r1.Hedges - r0.Hedges
	rep.layers["router.hedges_per_query"] = float64(hedges) / q
	if hedges > 0 {
		rep.layers["router.hedge_win_frac"] = float64(r1.HedgeWins-r0.HedgeWins) / float64(hedges)
	}
	rep.layers["router.retries_per_query"] = float64(r1.Retries-r0.Retries) / q
	rep.layers["router.partial_frac"] = float64(r1.Partials-r0.Partials) / q
}

// shardCounters turns the shard servers' approx counter deltas into
// per-shard-query rates.
func shardCounters(rep *report, s0, s1 []serveStats) {
	var q, cursors, rescored, checked, skipped, demoted, batched, batches float64
	for i := range s0 {
		a0, a1 := s0[i].Approx, s1[i].Approx
		q += float64(a1.Queries - a0.Queries)
		cursors += float64(a1.CursorsOpened - a0.CursorsOpened)
		rescored += float64(a1.Rescored - a0.Rescored)
		checked += float64(a1.BlocksChecked - a0.BlocksChecked)
		skipped += float64(a1.BlocksSkipped - a0.BlocksSkipped)
		demoted += float64(a1.CursorsDemoted - a0.CursorsDemoted)
		batched += s1[i].MeanBatchSize*float64(s1[i].Batches) - s0[i].MeanBatchSize*float64(s0[i].Batches)
		batches += float64(s1[i].Batches - s0[i].Batches)
	}
	if q == 0 {
		return
	}
	rep.layers["index.cursors_per_query"] = cursors / q
	rep.layers["index.cursors_demoted_per_query"] = demoted / q
	if checked > 0 {
		rep.layers["index.blocks_skipped_frac"] = skipped / checked
	}
	rep.layers["shard.rescored_per_query"] = rescored / q
	if rescored > 0 {
		rep.layers["shard.rescore_yield"] = topK / (rescored / q)
	}
	if batches > 0 {
		rep.layers["serve.mean_batch"] = batched / batches
	}
}

// sliceMB is the size of the largest slice file.
func sliceMB(paths []string) (float64, error) {
	mb := 0.0
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		mb = max(mb, float64(fi.Size())/(1<<20))
	}
	return mb, nil
}
