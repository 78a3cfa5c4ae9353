package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dehealth/internal/shard"
)

// randomTopK builds a synthetic TopKResult with arbitrary score layouts.
func randomTopK(rng *rand.Rand) *TopKResult {
	n1 := 1 + rng.Intn(8)
	k := 1 + rng.Intn(6)
	tk := &TopKResult{
		K:          k,
		Candidates: make([][]Candidate, n1),
		TrueRank:   make([]int, n1),
		MeanScore:  make([]float64, n1),
		RowMin:     make([]float64, n1),
	}
	mx, mn := -1e18, 1e18
	for u := 0; u < n1; u++ {
		cs := make([]Candidate, k)
		score := rng.Float64() * 2
		for i := range cs {
			cs[i] = Candidate{User: i, Score: score}
			if score > mx {
				mx = score
			}
			if score < mn {
				mn = score
			}
			score -= rng.Float64() * 0.3 // decreasing
		}
		tk.Candidates[u] = cs
		tk.MeanScore[u] = meanScore(cs)
		tk.RowMin[u] = cs[len(cs)-1].Score
	}
	tk.MaxScore, tk.MinScore = mx, mn
	return tk
}

// Property: Algorithm 2 never drops the best-scoring candidate of a
// surviving user, always yields either nil (⊥) or a non-empty subset, and
// never reorders candidates.
func TestFilterProperties(t *testing.T) {
	p := &Pipeline{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tk := randomTopK(rng)
		before := make([][]Candidate, len(tk.Candidates))
		for u, cs := range tk.Candidates {
			before[u] = append([]Candidate(nil), cs...)
		}
		eps := rng.Float64() * 0.05
		l := 2 + rng.Intn(10)
		p.Filter(tk, FilterConfig{Epsilon: eps, L: l})
		for u, cs := range tk.Candidates {
			if cs == nil {
				continue // rejected is fine
			}
			if len(cs) == 0 {
				return false // must be nil or non-empty
			}
			// Subset of the originals, same relative order.
			j := 0
			for _, c := range cs {
				found := false
				for ; j < len(before[u]); j++ {
					if before[u][j] == c {
						found = true
						j++
						break
					}
				}
				if !found {
					return false
				}
			}
			// The surviving set contains the original best candidate.
			if cs[0] != before[u][0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: verifyMean is monotone in the score — raising s_uv never flips
// accept to reject — and r = 0 accepts any score at or above the mean.
func TestVerifyMeanProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rowMin := rng.NormFloat64()
		mean := rowMin + rng.Float64()
		r := rng.Float64() * 2
		s1 := rowMin + rng.Float64()*2
		s2 := s1 + rng.Float64() // s2 >= s1
		if verifyMean(s1, mean, rowMin, r) && !verifyMean(s2, mean, rowMin, r) {
			return false
		}
		if s1 >= mean && !verifyMean(s1, mean, rowMin, 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: shard.SelectTopK, direct selection's per-row step, returns
// exactly the first k entries of the fully sorted row (score descending,
// ties to the smaller index). Rows are drawn both with continuous scores
// and tie-heavy (a handful of distinct values), where only the id
// tie-break decides membership and order.
func TestTopCandidatesProperty(t *testing.T) {
	f := func(seed int64, ties bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		row := randomRow(rng, n, ties)
		k := 1 + rng.Intn(n)
		cs := shard.SelectTopK(row, k)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			if row[idx[a]] != row[idx[b]] {
				return row[idx[a]] > row[idx[b]]
			}
			return idx[a] < idx[b]
		})
		if len(cs) != k {
			return false
		}
		for i, c := range cs {
			if c.User != idx[i] || c.Score != row[idx[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// randomRow draws a score row of n entries: continuous scores, or, when
// ties is set, tie-heavy ones (three distinct values), where only the id
// tie-break decides membership and order.
func randomRow(rng *rand.Rand, n int, ties bool) []float64 {
	row := make([]float64, n)
	for i := range row {
		if ties {
			row[i] = float64(rng.Intn(3))
		} else {
			row[i] = rng.NormFloat64()
		}
	}
	return row
}

// Property: shard.MergeTopK of per-window top-k lists is the global top-k
// (shard.SelectTopK of the whole row), and it is a set merge — shuffling
// the parts, re-merging the merged list, merging it with itself, or
// merging every part twice gives the same list. Rows are drawn with
// randomRow, tie-heavy half the time; windows may be empty.
func TestMergeTopKProperty(t *testing.T) {
	same := func(a, b []shard.Candidate) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	f := func(seed int64, ties bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		row := randomRow(rng, n, ties)
		k := 1 + rng.Intn(n+2) // k past n clamps
		cuts := []int{0, n}
		for i := rng.Intn(5); i > 0; i-- {
			cuts = append(cuts, rng.Intn(n+1))
		}
		sort.Ints(cuts)
		var parts [][]shard.Candidate
		for i := 1; i < len(cuts); i++ {
			lo, hi := cuts[i-1], cuts[i]
			part := shard.SelectTopK(row[lo:hi], k)
			for j := range part {
				part[j].User += lo // window-local id to global, as the router does
			}
			parts = append(parts, part)
		}
		want := shard.SelectTopK(row, k)
		got := shard.MergeTopK(parts, k)
		if !same(got, want) {
			return false
		}
		rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		return same(shard.MergeTopK(parts, k), want) &&
			same(shard.MergeTopK([][]shard.Candidate{got}, k), want) &&
			same(shard.MergeTopK([][]shard.Candidate{got, got}, k), want) &&
			same(shard.MergeTopK(append(parts, parts...), k), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: rankOf is consistent with shard.SelectTopK — the candidate at
// position i has rank i+1.
func TestRankOfProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		row := make([]float64, n)
		for i := range row {
			row[i] = float64(rng.Intn(5)) // ties likely
		}
		cs := shard.SelectTopK(row, n)
		for i, c := range cs {
			if rankOf(row, c.User) != i+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
