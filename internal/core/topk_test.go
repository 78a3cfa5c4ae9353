package core

import (
	"sort"
	"testing"

	"dehealth/internal/corpus"
	"dehealth/internal/features"
	"dehealth/internal/similarity"
)

// slowTopK is the reference direct selection: every row scored pair by
// pair with ScoreSlow, fully sorted, and each TopKResult field derived
// from the sorted row.
func slowTopK(p *Pipeline, k int, trueMapping map[int]int) *TopKResult {
	n1, n2 := p.G1.NumNodes(), p.G2.NumNodes()
	res := &TopKResult{
		K:          k,
		Candidates: make([][]Candidate, n1),
		TrueRank:   make([]int, n1),
		MeanScore:  make([]float64, n1),
		RowMin:     make([]float64, n1),
	}
	for u := 0; u < n1; u++ {
		row := make([]Candidate, n2)
		for v := range row {
			row[v] = Candidate{User: v, Score: p.Scorer.ScoreSlow(u, v)}
		}
		sort.Slice(row, func(a, b int) bool {
			if row[a].Score != row[b].Score {
				return row[a].Score > row[b].Score
			}
			return row[a].User < row[b].User
		})
		res.Candidates[u] = append([]Candidate(nil), row[:min(k, n2)]...)
		res.MeanScore[u] = meanScore(res.Candidates[u])
		res.RowMin[u] = row[n2-1].Score
		if tv, ok := trueMapping[u]; ok {
			for i, c := range row {
				if c.User == tv {
					res.TrueRank[u] = i + 1
				}
			}
		}
		if u == 0 || row[0].Score > res.MaxScore {
			res.MaxScore = row[0].Score
		}
		if u == 0 || row[n2-1].Score < res.MinScore {
			res.MinScore = row[n2-1].Score
		}
	}
	return res
}

// TestTopKDirectMatchesScoreSlow pins the batched direct-selection scan to
// the per-pair reference on every TopKResult field: an anonymized side
// that is not a multiple of the batch width, one narrower than a single
// batch, and one grown by ingest after the pipeline was built.
func TestTopKDirectMatchesScoreSlow(t *testing.T) {
	cfg := similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5}
	for _, tc := range []struct {
		name           string
		split          *corpus.Split
		narrow, ingest bool
	}{
		{"ragged", world(t, 60, 6, 0.5, 51), false, false},
		{"narrow", world(t, 10, 6, 0.5, 52), true, false},
		{"ingested", world(t, 40, 6, 0.5, 53), false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			anonS, auxS := features.BuildPair(tc.split.Anon, tc.split.Aux, 50, features.Options{})
			p := NewPipelineFromStore(anonS, auxS, cfg)
			if tc.ingest {
				if _, err := anonS.Append([]features.UserPosts{
					{User: corpus.User{Name: "replier", TrueIdentity: -1}, Posts: []features.IncomingPost{
						{Thread: 0, Text: tc.split.Aux.Posts[0].Text},
						{Thread: 1, Text: tc.split.Aux.Posts[1].Text},
					}},
					{User: corpus.User{Name: "starter", TrueIdentity: -1}, Posts: []features.IncomingPost{
						{Thread: features.NewThread, Text: tc.split.Aux.Posts[2].Text},
					}},
				}); err != nil {
					t.Fatal(err)
				}
				if added := p.SyncAppended(); added != 2 {
					t.Fatalf("SyncAppended added %d, want 2", added)
				}
			}
			n1 := p.G1.NumNodes()
			if tc.narrow && n1 >= topKBlock {
				t.Fatalf("%d anonymized users fill a whole block of %d", n1, topKBlock)
			}
			if !tc.narrow && (n1 <= topKBlock || n1%topKBlock == 0) {
				t.Fatalf("%d anonymized users do not leave a ragged last block of %d", n1, topKBlock)
			}
			if len(tc.split.TrueMapping) == 0 {
				t.Fatal("split has no ground truth to rank")
			}
			for _, k := range []int{1, 4, p.G2.NumNodes() + 3} {
				got := p.TopK(k, DirectSelection, tc.split.TrueMapping)
				want := slowTopK(p, k, tc.split.TrueMapping)
				if got.K != want.K {
					t.Fatalf("k=%d: K %d, want %d", k, got.K, want.K)
				}
				assertTopKEqual(t, got, want)
			}
		})
	}
}
