package shard

import (
	"testing"
)

// TestTopKBatchParity pins the batched shard scan's bit-identity contract:
// TopKBatch(users, k) must equal one TopK(u, k) per user — same candidates,
// same scores, same order — across batch widths (including repeats, Q=1,
// and batches wider than the shard), k values, and shard windows.
func TestTopKBatchParity(t *testing.T) {
	auxS, auxUDA, base, anonN := testWorld(t, 24, 6, 17)
	auxN := auxUDA.NumNodes()
	for _, shards := range []int{1, 3} {
		w := New(base, auxUDA, auxS, shards)
		for _, sh := range w.Shards() {
			for _, k := range []int{0, 1, 3, auxN + 5} {
				for _, users := range [][]int{
					{},
					{0},
					{3, 3, 3},
					{1, 0, anonN - 1, 2, 1, 5, 7, 4, 6, 0},
				} {
					got := sh.TopKBatch(users, k)
					if len(got) != len(users) {
						t.Fatalf("TopKBatch returned %d results for %d users", len(got), len(users))
					}
					for qi, u := range users {
						want := sh.TopK(u, k)
						if len(got[qi]) != len(want) {
							t.Fatalf("shards=%d k=%d Q=%d u=%d: batch len %d, TopK len %d",
								shards, k, len(users), u, len(got[qi]), len(want))
						}
						for j := range want {
							if got[qi][j] != want[j] {
								t.Fatalf("shards=%d k=%d u=%d pos %d: batch %+v, TopK %+v",
									shards, k, u, j, got[qi][j], want[j])
							}
						}
					}
				}
			}
		}
	}
}

// TestQueryBatchWorkerCounts checks QueryBatch against QueryUser at worker
// counts that force every chunking shape — sequential, one chunk per
// worker, and more chunks than workers — on multi-shard worlds.
func TestQueryBatchWorkerCounts(t *testing.T) {
	auxS, auxUDA, base, anonN := testWorld(t, 24, 6, 19)
	users := make([]int, 2*anonN+3)
	for i := range users {
		users[i] = i % anonN
	}
	for _, shards := range []int{1, 4} {
		w := New(base, auxUDA, auxS, shards)
		want := make([][]Candidate, len(users))
		for i, u := range users {
			want[i] = w.QueryUser(u, 5)
		}
		for _, workers := range []int{0, 1, 2, 7, len(users) + 9} {
			got := w.QueryBatch(users, 5, workers)
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("shards=%d workers=%d u=%d: batch len %d, want %d",
						shards, workers, users[i], len(got[i]), len(want[i]))
				}
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("shards=%d workers=%d u=%d pos %d: %+v, want %+v",
							shards, workers, users[i], j, got[i][j], want[i][j])
					}
				}
			}
		}
	}
}

// TestTopKBatchAllocs pins the pooled scratch: a steady-state TopKBatch
// allocates only its result slices (and the final sorts), independent of
// how many scoreBlock passes the shard scan makes.
func TestTopKBatchAllocs(t *testing.T) {
	auxS, auxUDA, base, anonN := testWorld(t, 24, 6, 23)
	w := New(base, auxUDA, auxS, 1)
	sh := w.Shards()[0]
	const q, k = 8, 5
	users := make([]int, q)
	sh.TopKBatch(users, k) // warm the pool and lazy scorer state
	off := 0
	allocs := testing.AllocsPerRun(50, func() {
		for i := range users {
			users[i] = (off + i) % anonN
		}
		off++
		sh.TopKBatch(users, k)
	})
	// Result slices: 1 outer + q inner + q sorted copies; sortCandidates'
	// sort.Slice adds a bounded per-call overhead. Anything scaling with
	// the scan (per-block buffers, profiles) would blow past this.
	if max := float64(4*q + 4); allocs > max {
		t.Fatalf("TopKBatch allocates %v times per batch, want <= %v", allocs, max)
	}
}
