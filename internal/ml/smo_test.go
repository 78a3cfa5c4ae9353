package ml

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestSeededSourceReplaysNewSource checks that replaying sources yield
// exactly rand.NewSource(seed)'s Int63 and Uint64 sequences while many
// goroutines read the same few seeds at different speeds, so snapshots,
// memo extensions and fresh streams all interleave (run under -race).
func TestSeededSourceReplaysNewSource(t *testing.T) {
	seeds := []int64{-3, 0, 7, 1 << 40}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seed := seeds[g%len(seeds)]
			n := 1 + g*97 // some readers stop early, others extend the memo
			got := seededSource(seed)
			want := rand.NewSource(seed).(rand.Source64)
			for i := range n {
				var g64, w64 uint64
				if i%3 == 0 {
					g64, w64 = uint64(got.Int63()), uint64(want.Int63())
				} else {
					g64, w64 = got.Uint64(), want.Uint64()
				}
				if g64 != w64 {
					errs <- "seed diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestSeededSourceRand checks the replay through rand.Rand's derived
// methods, reseeding, and a replay longer than the whole memo may hold,
// which has to continue on a private source without a seam.
func TestSeededSourceRand(t *testing.T) {
	got, want := rand.New(seededSource(11)), rand.New(rand.NewSource(11))
	for i := range 500 {
		if a, b := got.Intn(37+i), want.Intn(37+i); a != b {
			t.Fatalf("draw %d: Intn %d, want %d", i, a, b)
		}
		if a, b := got.Float64(), want.Float64(); a != b {
			t.Fatalf("draw %d: Float64 %v, want %v", i, a, b)
		}
		if a, b := got.Uint64(), want.Uint64(); a != b {
			t.Fatalf("draw %d: Uint64 %d, want %d", i, a, b)
		}
	}
	got.Seed(12)
	want.Seed(12)
	if a, b := got.Perm(50), want.Perm(50); !equalInts(a, b) {
		t.Fatalf("reseeded Perm %v, want %v", a, b)
	}

	long, ref := seededSource(13), rand.NewSource(13).(rand.Source64)
	for i := range streamMemoValues + 3*streamMemoChunk {
		if a, b := long.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("value %d past the memo bound: %d, want %d", i, a, b)
		}
	}
	if long.tail == nil {
		t.Fatal("a replay longer than the memo bound never left the memo")
	}
	if n := len(seededStreams.stream(14).prefix(1)); n == 0 {
		t.Fatal("a full memo did not start over for a new seed")
	}
}

func equalInts(a, b []int) bool {
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

// fitPerMachineGram is the reference SMO.Fit: each one-vs-one machine
// computes its whole kernel matrix itself, with no shared blocks.
func fitPerMachineGram(c *SMO, X [][]float64, y []int) {
	classes, err := validate(X, y)
	if err != nil {
		panic(err)
	}
	c.classes = classes
	c.std = FitStandardizer(X)
	Xs := c.std.TransformAll(X)
	c.machines = nil
	for a := 0; a < classes; a++ {
		for b := a + 1; b < classes; b++ {
			var px [][]float64
			var py []float64
			for _, want := range []struct {
				class int
				label float64
			}{{a, 1}, {b, -1}} {
				for i, cl := range y {
					if cl == want.class {
						px = append(px, Xs[i])
						py = append(py, want.label)
					}
				}
			}
			if len(px) == 0 || py[0] != 1 || py[len(py)-1] != -1 {
				continue // one of the classes has no rows
			}
			cfg := c.Config
			cfg.Seed += int64(a*classes + b)
			c.machines = append(c.machines, ovoMachine{a: a, b: b, svm: trainBinarySMO(px, py, cfg.gramMatrix(px), cfg)})
		}
	}
}

// TestSMOSharedBlocksMatchPerMachineGram checks that building machine
// matrices from shared within-class blocks changes nothing: every machine
// has the same support vectors and bias, and Scores agree bit for bit,
// under the linear and the RBF kernel. The classes overlap and differ in
// size, and one label is unused.
func TestSMOSharedBlocksMatchPerMachineGram(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var X [][]float64
	var y []int
	for c, n := range []int{7, 3, 0, 12, 1, 9} {
		for range n {
			row := make([]float64, 6)
			for j := range row {
				row[j] = float64(c%3) + 1.5*rng.NormFloat64()
			}
			X = append(X, row)
			y = append(y, c)
		}
	}
	for _, tc := range []struct {
		name   string
		kernel Kernel
	}{{"linear", nil}, {"rbf", RBFKernel(0.3)}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := SMOConfig{C: 1, Seed: 5, Kernel: tc.kernel}
			shared, ref := NewSMO(cfg), NewSMO(cfg)
			if err := shared.Fit(X, y); err != nil {
				t.Fatal(err)
			}
			fitPerMachineGram(ref, X, y)
			if len(shared.machines) != len(ref.machines) {
				t.Fatalf("%d machines, want %d", len(shared.machines), len(ref.machines))
			}
			for i, m := range shared.machines {
				r := ref.machines[i]
				if m.a != r.a || m.b != r.b || m.svm.b != r.svm.b || !equalFloats(m.svm.alpha, r.svm.alpha) {
					t.Fatalf("machine %d (%d vs %d) differs from the per-machine reference", i, m.a, m.b)
				}
			}
			for i := range 40 {
				q := make([]float64, 6)
				for j := range q {
					q[j] = 2 * rng.NormFloat64()
				}
				if i < len(X) {
					q = X[i]
				}
				if got, want := shared.Scores(q), ref.Scores(q); !equalFloats(got, want) {
					t.Fatalf("query %d: Scores %v, want %v", i, got, want)
				}
			}
		})
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
