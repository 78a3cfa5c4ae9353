// Attribute bit planes: the one attribute layout every scoring kernel
// reads. The attribute term s^a is Jaccard plus weighted Jaccard, so per
// pair it needs two exact integers, |A∩B| and Σmin(wa, wb). On
// paper-shaped worlds the sets are dense (hundreds of attributes in an id
// space about a thousand wide) and the weights small (post counts, mostly
// at most four), so the layout stores each set as weight-level bit
// planes: plane t holds the attributes whose weight is >= t, for
// t = 1..attrLevels, and weights above attrLevels keep their excess in a
// short sorted residual list. Then
//
//	|A∩B|       = Σ popcount(A₁ & B₁)
//	Σmin(wa,wb) = Σₜ popcount(Aₜ & Bₜ) + Σ_{id heavy on both sides} (min(wa, wb) − attrLevels)
//
// by the identity min(wa, wb) = Σ_{t≥1} [wa ≥ t][wb ≥ t]: the planes count
// the terms t <= attrLevels, and the terms above attrLevels are non-zero
// only where both weights exceed it, i.e. on ids in both residual lists.
// Only integer arithmetic is reorganised, so the final float divisions
// (attrSimCounts) see the numerators and denominators the sorted merge of
// ScoreSlow sees, and every score stays bit-identical to it.
//
// The anonymized side keeps dense planes (scorerCaches), one row of
// attrWords words per user, built at construction and extended by
// SyncAnon; PrepareQuery takes views of them. The auxiliary side keeps,
// per user, only the words where plane 1 is non-zero — every plane is a
// subset of plane 1, so these are all the words where any plane is
// non-zero — with the words of all attrLevels planes stored together, in
// one flat CSR array with absolute offsets, so shard windows are slice
// views. The inner loop (attrOverlap) compiles without element bounds
// checks; scripts/check_bce.sh pins that.

package similarity

import (
	"math/bits"

	"dehealth/internal/stylometry"
)

// attrLevels is the number of weight-level bit planes per attribute set.
// Weights above it go to the residual list.
const attrLevels = 4

// attrOverlap sums exactly four planes per word; this fails to compile if
// attrLevels changes without it.
var _ = [1]struct{}{}[attrLevels-4]

// attrPlanes is one 64-id word of every weight-level plane: bit i of
// planes[t] is set when the attribute with id 64·k+i (k the word index)
// has weight >= t+1.
type attrPlanes [attrLevels]uint64

// auxWord is one stored word of an auxiliary user's planes: the word
// index k and the planes' 64 bits at that index.
type auxWord struct {
	k      uint32
	planes attrPlanes
}

// heavyAttr is one residual entry: an attribute whose weight exceeds
// attrLevels. Residual lists are sorted by id.
type heavyAttr struct{ id, w int }

// setPlanes ORs set's attributes into the zeroed dense planes dst and
// appends its attributes heavier than attrLevels to heavy, in id order.
// Weights are >= 1 (stylometry.AttrSet), so plane 1 holds every attribute.
// Ids at or beyond 64·len(dst) are skipped: no auxiliary set holds them,
// so they cannot add to an overlap.
func setPlanes(dst []attrPlanes, set stylometry.AttrSet, heavy []heavyAttr) []heavyAttr {
	wts := set.Weight[:len(set.Idx)]
	for k, id := range set.Idx {
		if uint(id>>6) >= uint(len(dst)) {
			continue
		}
		w, word, bit := wts[k], &dst[id>>6], uint64(1)<<(uint(id)&63)
		for t := 0; t < attrLevels && t < w; t++ {
			word[t] |= bit
		}
		if w > attrLevels {
			heavy = append(heavy, heavyAttr{id: id, w: w})
		}
	}
	return heavy
}

// appendAttrs extends the anonymized-side dense planes and residual
// lists over attrs, one row of c.attrWords words per user.
func (c *scorerCaches) appendAttrs(attrs []stylometry.AttrSet) {
	if len(c.heavyOff1) == 0 {
		c.heavyOff1 = []int{0}
	}
	for _, set := range attrs {
		n := len(c.planes1)
		c.planes1 = append(c.planes1, make([]attrPlanes, c.attrWords)...)
		c.heavy1 = setPlanes(c.planes1[n:], set, c.heavy1)
		c.heavyOff1 = append(c.heavyOff1, len(c.heavy1))
	}
}

// setAttrs installs attrs as the auxiliary side's attribute state: the
// sets themselves, their total weights and the sparse planes with their
// residual lists. It returns the plane width in words, which the
// anonymized side's dense planes must share. NewScorer and
// NewScorerFromParts both derive the state here, from the graph.
func (ax *auxWindow) setAttrs(attrs []stylometry.AttrSet) int {
	attrW := 0
	for _, set := range attrs {
		if idx := set.Idx; len(idx) > 0 && idx[len(idx)-1]+1 > attrW {
			attrW = idx[len(idx)-1] + 1 // Idx is sorted: the last entry is the max
		}
	}
	words := (attrW + 63) / 64 // 64-bit words per plane over ids [0, attrW)
	ax.attrs = attrs
	ax.attrTotW = make([]int, 0, len(attrs))
	ax.wordOff = make([]int, 1, len(attrs)+1)
	ax.heavyOff = make([]int, 1, len(attrs)+1)
	ax.words, ax.heavy = nil, nil
	dense := make([]attrPlanes, words)
	for _, set := range attrs {
		ax.attrTotW = append(ax.attrTotW, set.TotalWeight())
		ax.heavy = setPlanes(dense, set, ax.heavy)
		for k := range dense {
			if dense[k][0] != 0 {
				ax.words = append(ax.words, auxWord{k: uint32(k), planes: dense[k]})
				dense[k] = attrPlanes{}
			}
		}
		ax.wordOff = append(ax.wordOff, len(ax.words))
		ax.heavyOff = append(ax.heavyOff, len(ax.heavy))
	}
	return words
}

// attrOverlap returns |A∩B| and Σmin(wa, wb) for a query's dense planes q
// and residual qh against an auxiliary user's stored words and residual
// bh (see the file comment). Every word index in row is below len(q):
// both sides are sized to the auxiliary id space.
func attrOverlap(q []attrPlanes, qh []heavyAttr, row []auxWord, bh []heavyAttr) (inter, winter int) {
	for i := range row {
		r := &row[i]
		if uint(r.k) < uint(len(q)) { // always true; keeps the load check-free
			a := &q[r.k]
			l1 := bits.OnesCount64(a[0] & r.planes[0])
			inter += l1
			winter += l1 + bits.OnesCount64(a[1]&r.planes[1]) +
				bits.OnesCount64(a[2]&r.planes[2]) + bits.OnesCount64(a[3]&r.planes[3])
		}
	}
	for len(qh) > 0 && len(bh) > 0 {
		x, y := qh[0], bh[0]
		if x.id == y.id {
			winter += min(x.w, y.w) - attrLevels
		}
		if x.id <= y.id {
			qh = qh[1:]
		}
		if y.id <= x.id {
			bh = bh[1:]
		}
	}
	return inter, winter
}

// attrSimCounts is s^a from the exact overlap counts: |A∩B|/|A∪B| +
// Σmin/Σmax, with the unions taken from the set sizes na, nb and total
// weights atot, btot by the integer identities |A∪B| = |A|+|B|−|A∩B| and
// Σmax = ΣwA+ΣwB−Σmin. Both quotients are the ones ScoreSlow divides.
func attrSimCounts(na, atot, nb, btot, inter, winter int) float64 {
	var sim float64
	if union := na + nb - inter; union > 0 {
		sim = float64(inter) / float64(union)
	}
	if wunion := atot + btot - winter; wunion > 0 {
		sim += float64(winter) / float64(wunion)
	}
	return sim
}
