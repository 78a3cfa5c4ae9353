package main

// Per-layer probes of the traced run. They time calls into each module
// from outside, on the workload's own generated world, and record every
// call as a span. This is the only file that imports internal packages:
// the end-to-end numbers rest on the public dehealth package, the
// binaries' flags and the HTTP wire alone.

import (
	"fmt"
	"runtime"
	"slices"

	"dehealth"
	"dehealth/internal/core"
	"dehealth/internal/features"
	"dehealth/internal/index"
	"dehealth/internal/ml"
	"dehealth/internal/shard"
	"dehealth/internal/similarity"
	"dehealth/internal/snapshot"
)

// probeUsers is how many sampled users each per-query probe times.
const probeUsers = 64

// flushWidth is dehealthd's default micro-batch size (-batch 32), the
// width its flush hands the batched kernel.
const flushWidth = 32

// built is the workload's world rebuilt through the internal layers.
type built struct {
	anon, aux *features.Store
	p         *core.Pipeline
	w         *shard.World
	ap        index.ApproxParams
	approx    bool
}

// build times feature extraction and pipeline construction, then derives
// a shard world equivalent to the pipeline's own for the shard probes.
func build(e *env, rep *report, sp *dehealth.Split, opt dehealth.Options) *built {
	b := &built{approx: opt.Approx.Enabled, ap: index.ApproxParams{Theta: opt.Approx.Theta}}
	var st index.ApproxStats
	rep.layers["features.build_s"] = e.tr.dur(e.tr.do("features.BuildPair", 0, 0, func() {
		b.anon, b.aux = features.BuildPair(sp.Anon, sp.Aux, opt.MaxBigrams, features.Options{Workers: opt.Workers})
	})).Seconds()
	simCfg := similarity.Config{C1: opt.C1, C2: opt.C2, C3: opt.C3, Landmarks: opt.Landmarks}
	n := max(opt.Shards, 1)
	rep.layers["core.pipeline_build_s"] = e.tr.dur(e.tr.do("core.NewShardedPipelineFromStore", 0, 0, func() {
		b.p = core.NewShardedPipelineFromStore(b.anon, b.aux, simCfg, n)
		if b.approx {
			b.p = b.p.Approx(index.Config{}, &st)
		}
	})).Seconds()
	b.w = shard.New(b.p.Scorer, b.p.G2, b.aux, n)
	if b.approx {
		b.w = b.w.WithApprox(index.Config{}, &index.ApproxStats{})
	}
	return b
}

func (b *built) coreQuery(u int) []shard.Candidate {
	if b.approx {
		return b.p.QueryUserApprox(u, topK, b.ap)
	}
	return b.p.QueryUser(u, topK)
}

func (b *built) shardQuery(u int) []shard.Candidate {
	if b.approx {
		return b.w.QueryUserApprox(u, topK, b.ap)
	}
	return b.w.QueryUser(u, topK)
}

func (b *built) shardTopK(sh *shard.Shard, u int) []shard.Candidate {
	if b.approx {
		return sh.TopKApprox(u, topK, index.Config{}, b.ap, &index.ApproxStats{})
	}
	return sh.TopK(u, topK)
}

// allocs measures heap allocations and bytes per call of f over users.
func allocs(users []int, f func(u int)) (perCall, bytesPerCall float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, u := range users {
		f(u)
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(users))
	return float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n
}

// coreShardLayers times the pipeline, shard and merge layers.
func coreShardLayers(e *env, rep *report, b *built, users []int) {
	tr := e.tr
	for i, u := range users {
		req := int64(i)
		var parent int64
		parent = tr.do("core.QueryUser", 0, req, func() { b.coreQuery(u) })
		tr.do("shard.QueryUser.replay", parent, req, func() { b.shardQuery(u) })
	}
	rep.layers["core.self_us"] = median(tr.selfTimes("core.QueryUser", false)) * usPerNs
	for i, u := range users {
		tr.do("shard.QueryUser", 0, int64(i), func() { b.shardQuery(u) })
	}
	rep.layers["shard.query_us"] = median(tr.durations("shard.QueryUser")) * usPerNs
	const merges = 100
	for i, u := range users {
		var parts [][]shard.Candidate
		for _, sh := range b.w.Shards() {
			parts = append(parts, b.shardTopK(sh, u))
		}
		tr.do("shard.MergeTopK", 0, int64(i), func() {
			for j := 0; j < merges; j++ {
				shard.MergeTopK(parts, topK)
			}
		})
	}
	rep.layers["shard.merge_us"] = median(tr.durations("shard.MergeTopK")) * usPerNs / merges
	rep.layers["shard.allocs_per_query"], rep.layers["shard.bytes_per_query"] = allocs(users, func(u int) { b.shardQuery(u) })
}

// similarityLayers times the flat kernel over the whole auxiliary side,
// one query at a time and batched at the serve flush width.
func similarityLayers(e *env, rep *report, b *built, users []int) {
	tr := e.tr
	sc := b.p.Scorer
	n := sc.AuxUsers()
	out := make([]float64, n)
	var prof similarity.QueryProfile
	for i, u := range users[:16] {
		tr.do("similarity.ScoreRange", 0, int64(i), func() {
			sc.PrepareQuery(u, &prof)
			sc.ScoreRange(&prof, 0, n, out)
		})
	}
	rep.layers["similarity.ns_per_pair"] = median(tr.durations("similarity.ScoreRange")) / float64(n)
	outs := make([][]float64, flushWidth)
	for i := range outs {
		outs[i] = make([]float64, n)
	}
	var bp similarity.BatchProfile
	for r := 0; r < 4; r++ {
		lo := (r * flushWidth) % (len(users) - flushWidth + 1)
		tr.do("similarity.ScoreRangeBatch", 0, int64(r), func() {
			sc.PrepareBatch(users[lo:lo+flushWidth], &bp)
			sc.ScoreRangeBatch(&bp, 0, n, outs)
		})
	}
	rep.layers["similarity.batch_ns_per_pair"] = median(tr.durations("similarity.ScoreRangeBatch")) / float64(n*flushWidth)
	// Bytes the kernel streams per scored pair: the auxiliary side's
	// structure-of-arrays caches plus its attribute sets, per user.
	p := sc.Parts()
	words := len(p.AuxDeg) + len(p.AuxWdeg) + len(p.AuxNCS) + len(p.AuxNCSOff) + len(p.AuxNCSNorm) +
		len(p.AuxClose) + len(p.AuxCloseNorm) + len(p.AuxWcl) + len(p.AuxWclNorm)
	for _, a := range b.aux.Attrs() {
		words += len(a.Idx) + len(a.Weight) + 1 // +1: the cached total weight
	}
	rep.layers["similarity.bytes_per_pair"] = float64(8*words) / float64(n)
}

// publicLayers times the public PreparedWorld query calls.
func publicLayers(e *env, rep *report, pw *dehealth.PreparedWorld, opt dehealth.Options, users []int) error {
	tr := e.tr
	var qerr error
	for i, u := range users {
		tr.do("dehealth.QueryUser", 0, int64(i), func() {
			if _, err := pw.QueryUser(u, topK, opt); err != nil {
				qerr = err
			}
		})
	}
	rep.layers["dehealth.query_us"] = median(tr.durations("dehealth.QueryUser")) * usPerNs
	for r := 0; r < 4; r++ {
		lo := (r * flushWidth) % (len(users) - flushWidth + 1)
		tr.do("dehealth.QueryBatch", 0, int64(r), func() {
			if _, err := pw.QueryBatch(users[lo:lo+flushWidth], topK, opt); err != nil {
				qerr = err
			}
		})
	}
	rep.layers["dehealth.batch_us_per_query"] = median(tr.durations("dehealth.QueryBatch")) * usPerNs / flushWidth
	rep.layers["dehealth.allocs_per_query"], rep.layers["dehealth.bytes_per_query"] = allocs(users, func(u int) {
		if _, err := pw.QueryUser(u, topK, opt); err != nil {
			qerr = err
		}
	})
	return qerr
}

// serveLayers probes the forum-serve stack from dehealthd down.
func serveLayers(e *env, rep *report, in *inputs, pw *dehealth.PreparedWorld, opt dehealth.Options, c *client, base string) error {
	tr := e.tr
	users := sample(e.seed+5, in.split.Anon.NumUsers(), probeUsers)
	// HTTP query minus the public call for the same user.
	for i, u := range users {
		req := int64(i)
		var herr, qerr error
		parent := tr.do("serve.http_query", 0, req, func() { _, herr = c.query(base, u, false) })
		tr.do("dehealth.QueryUser.replay", parent, req, func() { _, qerr = pw.QueryUser(u, topK, opt) })
		if herr != nil || qerr != nil {
			return fmt.Errorf("serve probe: %v %v", herr, qerr)
		}
	}
	rep.layers["serve.self_p50_ms"] = median(tr.selfTimes("serve.http_query", false)) * msPerNs
	if err := publicLayers(e, rep, pw, opt, users); err != nil {
		return err
	}
	b := build(e, rep, in.split, opt)
	coreShardLayers(e, rep, b, users)
	similarityLayers(e, rep, b, users)
	// Ingest last: it grows the in-process world.
	for i := 0; i < 16; i++ {
		u := in.ingest[(len(in.ingest)-1-i)%len(in.ingest)]
		u.Name = fmt.Sprintf("%s-probe-%d", u.Name, i)
		posts := make([]dehealth.IngestPost, len(u.Posts))
		for j, p := range u.Posts {
			posts[j] = dehealth.IngestPost{Thread: dehealth.NewThread, Text: p.Text}
		}
		req := int64(i)
		var herr, ierr error
		parent := tr.do("serve.http_ingest", 0, req, func() { _, herr = c.ingest(base, u) })
		tr.do("dehealth.IngestUser", parent, req, func() { _, ierr = pw.IngestUser(u.Name, posts) })
		if herr != nil || ierr != nil {
			return fmt.Errorf("ingest probe: %v %v", herr, ierr)
		}
	}
	rep.layers["serve.ingest_self_p50_ms"] = median(tr.selfTimes("serve.http_ingest", false)) * msPerNs
	rep.layers["dehealth.ingest_ms"] = median(tr.durations("dehealth.IngestUser")) * msPerNs
	return nil
}

// routedLayers probes the routed stack: router, shard servers, the
// slices' snapshot load, and the approximate tier in process.
func routedLayers(e *env, rep *report, in *inputs, pw *dehealth.PreparedWorld, opt dehealth.Options, c *client, t *topology, sampleUsers []int) error {
	tr := e.tr
	users := sampleUsers[:probeUsers]
	// Each slice in process, booted from its snapshot file like the servers.
	loads := make([][]float64, len(t.paths))
	var sliceWorlds []*dehealth.PreparedWorld
	for i, path := range t.paths {
		for r := 0; r < 3; r++ {
			var err error
			id := tr.do("snapshot.Load", 0, int64(i), func() { _, err = snapshot.Load(path, snapshot.Options{}) })
			if err != nil {
				return err
			}
			loads[i] = append(loads[i], float64(tr.dur(id)))
		}
		w, err := dehealth.LoadWorld(path, dehealth.LoadOptions{})
		if err != nil {
			return err
		}
		sliceWorlds = append(sliceWorlds, w)
	}
	for _, l := range loads {
		rep.layers["snapshot.load_ms"] = max(rep.layers["snapshot.load_ms"], median(l)*msPerNs)
	}
	mb, err := sliceMB(t.paths)
	if err != nil {
		return err
	}
	rep.layers["snapshot.slice_mb"] = mb

	// Router query minus its slowest shard call; each shard call minus
	// the slice world's public query for the same user.
	for i, u := range users {
		req := int64(i)
		var rerr error
		parent := tr.do("router.http_query", 0, req, func() { _, rerr = c.query(t.base, u, true) })
		if rerr != nil {
			return fmt.Errorf("router probe: %w", rerr)
		}
		for s, base := range t.bases {
			var serr, qerr error
			child := tr.do("serve.http_internal_query", parent, req, func() { _, serr = c.internalQuery(base, u, true) })
			sopt := sliceWorlds[s].PreparedOptions()
			sopt.Approx.Enabled, sopt.Approx.Theta = true, approxTheta
			tr.do("dehealth.QueryUser.replay", child, req, func() { _, qerr = sliceWorlds[s].QueryUser(u, topK, sopt) })
			if serr != nil || qerr != nil {
				return fmt.Errorf("shard probe: %v %v", serr, qerr)
			}
		}
	}
	rep.layers["router.self_p50_ms"] = median(tr.selfTimes("router.http_query", true)) * msPerNs
	rep.layers["serve.self_p50_ms"] = median(tr.selfTimes("serve.http_internal_query", false)) * msPerNs

	if err := publicLayers(e, rep, pw, opt, users); err != nil {
		return err
	}
	b := build(e, rep, in.split, opt)
	coreShardLayers(e, rep, b, users)
	similarityLayers(e, rep, b, users)
	// Postings the cursor walk skipped, over every posting its cursors
	// opened on: the wire has no total, so both come from one in-process
	// pass over the probe users.
	var st index.ApproxStats
	total := 0
	for _, sh := range b.w.Shards() {
		for _, u := range users {
			sh.TopKApprox(u, topK, index.Config{}, b.ap, &st)
			for _, a := range sh.Scorer.AnonAttrs(u).Idx {
				total += len(sh.Index.Postings(a))
			}
		}
	}
	if total > 0 {
		rep.layers["index.postings_skipped_frac"] = float64(st.Snapshot().PostingsSkipped) / float64(total)
	}
	return nil
}

// attackLayers times the attack's phases in process: feature extraction,
// pipeline build, Top-K selection and refined DA, plus the kernel.
func attackLayers(e *env, rep *report, in *inputs, ref *dehealth.Result) error {
	tr := e.tr
	opt := attackOptions()
	b := build(e, rep, in.split, opt)
	var tk *core.TopKResult
	rep.layers["core.topk_s"] = tr.dur(tr.do("core.TopK", 0, 0, func() {
		tk = b.p.TopK(topK, core.DirectSelection, in.split.TrueMapping)
	})).Seconds()
	var res *core.DAResult
	var err error
	rep.layers["core.refine_s"] = tr.dur(tr.do("core.RefinedDA", 0, 0, func() {
		res, err = b.p.RefinedDA(tk, core.RefineOptions{
			NewClassifier:   func() ml.Classifier { return ml.NewSMO(ml.SMOConfig{C: 1, Seed: opt.Seed}) },
			Scheme:          core.ClosedWorld,
			R:               opt.R,
			Sigma:           1.0,
			CosineThreshold: 0.98,
			Seed:            opt.Seed,
		})
	})).Seconds()
	if err != nil {
		return err
	}
	if !slices.Equal(res.Mapping, ref.Mapping) {
		rep.failed++
		rep.wrong++
		rep.note("traced refined DA differs from the public attack's mapping")
	}
	users := sample(e.seed+5, in.split.Anon.NumUsers(), probeUsers)
	similarityLayers(e, rep, b, users)
	return nil
}
