package similarity

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"dehealth/internal/graph"
	"dehealth/internal/stylometry"
	"dehealth/internal/synth"
)

// attrWorlds lists the attribute-set variants every parity world is
// scored under: the synthetic sets as generated (-1; weights 1–3, so no
// residual), then withEdgeAttrs at auxiliary id spaces 0 (every auxiliary
// set empty, so planes have no words), 128 (a multiple of 64) and 131
// (not one).
var attrWorlds = []int{-1, 0, 128, 131}

// withEdgeAttrs replaces the attribute sets of g1 (anonymized) and g2
// (auxiliary) with sets that reach every corner of the bit-plane layout
// when attrW >= 0: auxiliary ids span exactly [0, attrW), several sets
// hold ids 0, 63, 64 and attrW-1, weights run well above attrLevels (so
// ids are heavy on one side only and on both sides), some sets on both
// sides are empty, and some anonymized sets hold ids at and beyond attrW.
// attrW < 0 leaves the synthetic sets in place. It returns attrW's name
// for failure messages.
func withEdgeAttrs(g1, g2 *graph.UDA, attrW int, seed int64) string {
	if attrW < 0 {
		return "synthetic attrs"
	}
	rng := rand.New(rand.NewSource(seed))
	corners := []int{0, 63, 64, attrW - 1}
	for v := range g2.Attrs {
		switch {
		case attrW == 0 || v%7 == 0:
			g2.Attrs[v] = stylometry.AttrSet{}
		case v%7 == 1 || v == len(g2.Attrs)-1: // the last user pins attrW-1 too
			g2.Attrs[v] = edgeAttrSet(rng, attrW, corners...)
		default:
			g2.Attrs[v] = edgeAttrSet(rng, attrW)
		}
	}
	for u := range g1.Attrs {
		switch u % 5 {
		case 0:
			g1.Attrs[u] = stylometry.AttrSet{}
		case 1:
			g1.Attrs[u] = edgeAttrSet(rng, attrW, 0, 63, 64, attrW-1, attrW, attrW+1, attrW+100)
		default:
			g1.Attrs[u] = edgeAttrSet(rng, attrW+8)
		}
	}
	return fmt.Sprintf("edge attrs, attrW %d", attrW)
}

// edgeAttrSet draws a random attribute set over ids [0, hi) plus the
// non-negative ids in must, with a third of the weights above attrLevels.
func edgeAttrSet(rng *rand.Rand, hi int, must ...int) stylometry.AttrSet {
	picked := map[int]bool{}
	for _, id := range must {
		if id >= 0 {
			picked[id] = true
		}
	}
	if hi > 0 {
		for n := rng.Intn(hi/2 + 1); n > 0; n-- {
			picked[rng.Intn(hi)] = true
		}
	}
	var set stylometry.AttrSet
	for id := range picked {
		set.Idx = append(set.Idx, id)
	}
	sort.Ints(set.Idx)
	for range set.Idx {
		w := 1 + rng.Intn(attrLevels)
		if rng.Intn(3) == 0 {
			w = attrLevels + 1 + rng.Intn(3*attrLevels)
		}
		set.Weight = append(set.Weight, w)
	}
	return set
}

// heavyAppendAttrs is the attribute set of the i-th node the SyncAnon
// parity tests append: corner ids with weights above attrLevels.
func heavyAppendAttrs(i int) stylometry.AttrSet {
	return stylometry.AttrSet{Idx: []int{i, 50 + i, 63, 64}, Weight: []int{1 + i, 2, attrLevels + 5, attrLevels + 1 + i}}
}

// TestRatioSim pins the edge cases of the min/max ratio term: both zero
// (isolated nodes are identical), equal nonzero, one zero, and plain
// ratios in both argument orders.
func TestRatioSim(t *testing.T) {
	tests := []struct {
		a, b, want float64
	}{
		{0, 0, 1},   // both isolated
		{3, 3, 1},   // equal nonzero
		{0, 5, 0},   // one isolated
		{5, 0, 0},   // symmetric
		{2, 4, 0.5}, // plain ratio
		{4, 2, 0.5}, // order-independent
	}
	for _, tc := range tests {
		if got := ratioSim(tc.a, tc.b); got != tc.want {
			t.Errorf("ratioSim(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestFlatKernelParityRandomWorlds is the tentpole bit-identity guarantee:
// on randomized synthetic worlds, Score, ScoreWith and ScoreRange (the
// flat kernel) must equal the retained naive reference ScoreSlow exactly —
// not approximately — for every pair, per component, and across several
// similarity configurations, with the attribute sets of every variant in
// attrWorlds.
func TestFlatKernelParityRandomWorlds(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, attrW := range attrWorlds {
			g1 := synth.SparseAttrUDA(40, 8, 200, seed)
			g2 := synth.SparseAttrUDA(55, 8, 200, seed+100)
			name := withEdgeAttrs(g1, g2, attrW, seed)
			flatKernelParity(t, name, seed, g1, g2)
		}
	}
}

func flatKernelParity(t *testing.T, name string, seed int64, g1, g2 *graph.UDA) {
	t.Helper()
	for _, cfg := range []Config{
		{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5},
		{C1: 1, C2: 0, C3: 0, Landmarks: 3},
		{C1: 0.3, C2: 0.3, C3: 0.4, Landmarks: 7},
	} {
		s := NewScorer(g1, g2, cfg)
		n1, n2 := g1.NumNodes(), g2.NumNodes()
		row := make([]float64, n2)
		var p QueryProfile
		for u := 0; u < n1; u++ {
			s.PrepareQuery(u, &p)
			s.ScoreRange(&p, 0, n2, row)
			for v := 0; v < n2; v++ {
				want := s.ScoreSlow(u, v)
				if got := s.Score(u, v); got != want {
					t.Fatalf("%s seed %d cfg %+v: Score(%d,%d) = %v, ScoreSlow = %v", name, seed, cfg, u, v, got, want)
				}
				if row[v] != want {
					t.Fatalf("%s seed %d cfg %+v: ScoreRange[%d][%d] = %v, ScoreSlow = %v", name, seed, cfg, u, v, row[v], want)
				}
				if got := s.DegreeSim(u, v); got != s.degreeSimSlow(u, v) {
					t.Fatalf("DegreeSim(%d,%d) drifted from slow reference", u, v)
				}
				if got := s.DistanceSim(u, v); got != s.distanceSimSlow(u, v) {
					t.Fatalf("DistanceSim(%d,%d) drifted from slow reference", u, v)
				}
				if got := s.AttrSim(u, v); got != s.attrSimSlow(u, v) {
					t.Fatalf("%s seed %d: AttrSim(%d,%d) drifted from slow reference", name, seed, u, v)
				}
			}
		}
	}
}

// TestFlatKernelParityAppended extends a world through AppendNode +
// SyncAnon — the serving-path ingestion shape — and checks the appended
// nodes — holding weights above attrLevels — score bit-identically to
// ScoreSlow through the flat kernel, on the base scorer and through a
// shard window, for every attribute variant in attrWorlds.
func TestFlatKernelParityAppended(t *testing.T) {
	for _, attrW := range attrWorlds {
		g1 := synth.SparseAttrUDA(30, 6, 150, 9)
		g2 := synth.SparseAttrUDA(30, 6, 150, 10)
		flatKernelParityAppended(t, withEdgeAttrs(g1, g2, attrW, 9), g1, g2)
	}
}

func flatKernelParityAppended(t *testing.T, name string, g1, g2 *graph.UDA) {
	t.Helper()
	s := NewScorer(g1, g2, Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4})
	lo, hi := 10, 25
	w := s.Shard(g2.InducedRange(lo, hi), lo, hi)

	rng := rand.New(rand.NewSource(11))
	n0 := g1.NumNodes()
	for i := 0; i < 3; i++ {
		u := g1.AppendNode(heavyAppendAttrs(i), [][]float64{{1}})
		for e := 0; e < 1+i; e++ {
			g1.AddEdge(u, rng.Intn(n0), 1+float64(rng.Intn(3)))
		}
	}
	if added := s.SyncAnon(); added != 3 {
		t.Fatalf("SyncAnon added %d, want 3", added)
	}

	var p QueryProfile
	for u := n0; u < g1.NumNodes(); u++ {
		s.PrepareQuery(u, &p)
		for v := 0; v < g2.NumNodes(); v++ {
			if got, want := s.ScoreWith(&p, v), s.ScoreSlow(u, v); got != want {
				t.Fatalf("%s: appended node %d: ScoreWith(%d) = %v, ScoreSlow = %v", name, u, v, got, want)
			}
		}
		for j := 0; j < hi-lo; j++ {
			if got, want := w.Score(u, j), s.Score(u, lo+j); got != want {
				t.Fatalf("%s: appended node %d through window: Score(%d) = %v, base = %v", name, u, j, got, want)
			}
		}
	}
}

// TestScoreRangeWindowParity checks the row kernel through a shard window
// starting mid-array equals the base scorer's scores on the window's
// global range, for every attribute variant in attrWorlds.
func TestScoreRangeWindowParity(t *testing.T) {
	for _, attrW := range attrWorlds {
		g1 := synth.SparseAttrUDA(20, 5, 120, 21)
		g2 := synth.SparseAttrUDA(33, 5, 120, 22)
		name := withEdgeAttrs(g1, g2, attrW, 21)
		s := NewScorer(g1, g2, Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4})
		lo, hi := 7, 29
		w := s.Shard(g2.InducedRange(lo, hi), lo, hi)
		out := make([]float64, hi-lo)
		var p QueryProfile
		for u := 0; u < g1.NumNodes(); u++ {
			w.PrepareQuery(u, &p)
			w.ScoreRange(&p, 0, hi-lo, out)
			for j, got := range out {
				if want := s.ScoreSlow(u, lo+j); got != want {
					t.Fatalf("%s: window ScoreRange(%d)[%d] = %v, base ScoreSlow = %v", name, u, j, got, want)
				}
			}
		}
	}
}

// TestScoreRangeZeroAllocs is the kernel's allocation contract: preparing
// a query and streaming a full row through ScoreRange must allocate
// nothing — the shard scan path's per-row cost is pure arithmetic over
// the flat caches.
func TestScoreRangeZeroAllocs(t *testing.T) {
	g1 := synth.SparseAttrUDA(25, 5, 150, 31)
	g2 := synth.SparseAttrUDA(40, 5, 150, 32)
	s := NewScorer(g1, g2, Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4})
	n2 := g2.NumNodes()
	out := make([]float64, n2)
	var p QueryProfile
	u := 0
	s.PrepareQuery(u, &p) // warm lazy graph state (Freeze)
	allocs := testing.AllocsPerRun(200, func() {
		s.PrepareQuery(u, &p)
		s.ScoreRange(&p, 0, n2, out)
		u = (u + 1) % g1.NumNodes()
	})
	if allocs != 0 {
		t.Fatalf("PrepareQuery+ScoreRange allocates %v times per row, want 0", allocs)
	}
}
