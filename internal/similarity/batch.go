// The multi-query batched scoring kernel. ScoreRange walks the aux-side
// flat arrays once per query; under the serving dispatcher's micro-batches
// that means Q full passes over the same SoA blocks. ScoreRangeBatch
// inverts the loop nest: it walks each aux row once and evaluates all Q
// prepared queries against it while the row's closeness/NCS/attribute data
// is hot in cache.
//
// The attribute term reads the same bit planes as ScoreWith (planes.go):
// each query's dense planes, viewed from the scorer's caches by
// PrepareQuery, against the aux row's stored plane words — four popcounts
// per 64-id word plus a merge of two short residual lists — so preparing
// a batch is just preparing its Q profiles.
//
// Bit-identity with ScoreSlow (and hence with ScoreWith/ScoreRange) holds
// because the restructuring never touches a floating-point operation:
//
//   - the loop interchange reorders which (u, v) pair is evaluated when,
//     never the operations within a pair — each pair still computes the
//     exact expression ScoreWith computes, operand for operand;
//   - the bit planes only reorganise *integer* arithmetic: the level-1
//     popcounts sum to |A∩B|, and the per-level popcounts plus the
//     residual excess sum to Σmin(w) by the identity
//     min(wa, wb) = Σₜ [wa ≥ t][wb ≥ t] (integer addition is associative
//     and exact), so the final float64 divisions see identical numerators
//     and denominators.
//
// The parity tests (batch_test.go) and the inline assertion in
// BenchmarkScoreKernelBatch pin the equivalence on randomized worlds,
// mixed batch widths, shard windows, weights above attrLevels and nodes
// appended after SyncAnon.

package similarity

// BatchProfile is the prepared state of Q query users: one QueryProfile
// per user. Prepare it with PrepareBatch; a profile holds views into the
// scorer's caches and stays valid until the next SyncAnon. The struct is
// caller-owned and reusable: preparing a new batch into it reuses the
// previous batch's allocation, so a steady-state consumer (the shard
// scan's pooled scratch) allocates nothing per batch.
type BatchProfile struct {
	profs []QueryProfile
}

// Len returns the batch width Q.
func (b *BatchProfile) Len() int { return len(b.profs) }

// User returns the anonymized user the q-th profile was prepared for.
func (b *BatchProfile) User(q int) int {
	if uint(q) >= uint(len(b.profs)) {
		panic("similarity: BatchProfile.User index out of range")
	}
	return b.profs[q].u
}

// PrepareBatch fills b with the prepared profiles of users, each entry
// PrepareQuery's state. b is caller-owned; reuse amortizes its one
// allocation away.
func (s *Scorer) PrepareBatch(users []int, b *BatchProfile) {
	if cap(b.profs) < len(users) {
		b.profs = make([]QueryProfile, len(users))
	}
	profs := b.profs[:len(users)]
	b.profs = profs
	users = users[:len(profs)]
	for i, u := range users {
		s.PrepareQuery(u, &profs[i])
	}
}

// ScoreRangeBatch evaluates Score(b.User(q), v) for every q in [0, b.Len())
// and v in [lo, hi) into out: out[q][v-lo] receives query q's score of aux
// row v (len(out) >= b.Len(), len(out[q]) >= hi-lo). It is the blocked
// multi-query kernel: the outer loop streams aux rows, hoisting each row's
// vector and plane views and norms once, and the inner loop scores all Q
// queries against the hot row. Zero allocations; bit-identical to
// ScoreSlow (see the file comment). The inner loops compile without bounds
// checks (scripts/check_bce.sh pins this).
func (s *Scorer) ScoreRangeBatch(b *BatchProfile, lo, hi int, out [][]float64) {
	profs := b.profs
	if len(profs) == 0 || hi <= lo {
		return
	}
	n := hi - lo
	out = out[:len(profs)]
	for q := range out {
		_ = out[q][:n] // fail fast on short rows; the kernel's guarded writes never mask this
	}
	ax := s.ax
	h := ax.hbar2
	c1, c2, c3 := s.cfg.C1, s.cfg.C2, s.cfg.C3
	// Window-local views of the row-streamed arrays, every sibling resliced
	// to len(deg): the compiler proves all per-row indexing in-bounds from
	// the one range induction variable (scripts/check_bce.sh pins this).
	deg := ax.deg[lo:hi]
	wdeg := ax.wdeg[lo:hi][:len(deg)]
	attrs := ax.attrs[lo:hi][:len(deg)]
	attrTotW := ax.attrTotW[lo:hi][:len(deg)]
	ncsNorm := ax.ncsNorm[lo:hi][:len(deg)]
	closeNorm := ax.closeNorm[lo:hi][:len(deg)]
	wclNorm := ax.wclNorm[lo:hi][:len(deg)]
	// Ragged rows (NCS vector, stored plane words, residual list) are
	// streamed as running offset cursors over each row's end offset.
	ncsOff := ax.ncsOff[lo : hi+1][:len(deg)+1]
	wordOff := ax.wordOff[lo : hi+1][:len(ncsOff)]
	heavyOff := ax.heavyOff[lo : hi+1][:len(ncsOff)]
	ncsAt, wordAt, heavyAt := ncsOff[0], wordOff[0], heavyOff[0]
	closeM := ax.close[lo*h : hi*h]
	wclM := ax.wcl[lo*h : hi*h][:len(closeM)]
	for i := range deg {
		ncsTo, wordTo, heavyTo := ncsAt, wordAt, heavyAt
		if j := i + 1; uint(j) < uint(len(ncsOff)) { // always true: len(ncsOff) = len(deg)+1
			ncsTo, wordTo, heavyTo = ncsOff[j], wordOff[j], heavyOff[j]
		}
		ncsV := ax.ncs[ncsAt:ncsTo]
		wordsV := ax.words[wordAt:wordTo]
		heavyV := ax.heavy[heavyAt:heavyTo]
		ncsAt, wordAt, heavyAt = ncsTo, wordTo, heavyTo
		ncsNormV := ncsNorm[i]
		closeV := closeM[i*h : (i+1)*h]
		wclV := wclM[i*h : (i+1)*h]
		closeNormV := closeNorm[i]
		wclNormV := wclNorm[i]
		degV, wdegV := deg[i], wdeg[i]
		nV, attrTotV := len(attrs[i].Idx), attrTotW[i]
		for q := range profs {
			p := &profs[q]
			d := ratioSim(p.deg, degV) + ratioSim(p.wdeg, wdegV) +
				cosinePre(p.ncs, p.ncsNorm, ncsV, ncsNormV)
			ds := cosinePre(p.close, p.closeNorm, closeV, closeNormV) +
				cosinePre(p.wcl, p.wclNorm, wclV, wclNormV)
			inter, winter := attrOverlap(p.planes, p.heavy, wordsV, heavyV)
			a := attrSimCounts(len(p.attrs.Idx), p.attrTotW, nV, attrTotV, inter, winter)
			row := out[q]
			if uint(i) < uint(len(row)) { // always true (validated above); keeps the store check-free
				row[i] = c1*d + c2*ds + c3*a
			}
		}
	}
}
