package ml

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// Kernel is a Mercer kernel over feature vectors.
type Kernel func(a, b []float64) float64

// LinearKernel is the inner-product kernel.
func LinearKernel(a, b []float64) float64 { return Dot(a, b) }

// RBFKernel returns a Gaussian kernel with bandwidth parameter gamma.
func RBFKernel(gamma float64) Kernel {
	return func(a, b []float64) float64 { return math.Exp(-gamma * SqDist(a, b)) }
}

// SMOConfig parametrizes the SMO trainer.
type SMOConfig struct {
	// C is the soft-margin penalty (default 1).
	C float64
	// Tol is the KKT violation tolerance (default 1e-3).
	Tol float64
	// MaxPasses is the number of full passes without changes before
	// convergence is declared (default 3).
	MaxPasses int
	// MaxIter caps total optimization sweeps (default 200).
	MaxIter int
	// Kernel defaults to LinearKernel.
	Kernel Kernel
	// Seed drives the deterministic second-choice heuristic.
	Seed int64
}

func (c *SMOConfig) fill() {
	if c.C <= 0 {
		c.C = 1
	}
	if c.Tol <= 0 {
		c.Tol = 1e-3
	}
	if c.MaxPasses <= 0 {
		c.MaxPasses = 3
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 200
	}
	// A nil Kernel means linear; trained machines then collapse to an
	// explicit weight vector for O(d) prediction.
}

// kernel evaluates the configured kernel (nil = linear).
func (c *SMOConfig) kernel(a, b []float64) float64 {
	if c.Kernel == nil {
		return Dot(a, b)
	}
	return c.Kernel(a, b)
}

// binarySMO is a two-class SVM trained with Platt's SMO (simplified
// variant). Labels are -1/+1.
type binarySMO struct {
	cfg   SMOConfig
	x     [][]float64
	y     []float64 // -1 / +1
	alpha []float64
	b     float64
	// w is the collapsed primal weight vector, available for the linear
	// kernel only; decision() then costs O(d) instead of O(sv·d).
	w []float64
}

// trainBinarySMO fits a binary SVM on x with labels y in {-1,+1}. K is
// the m×m kernel matrix of x, row-major: K[i*m+j] = kernel(x[i], x[j])
// for j <= i, mirrored above the diagonal (see gramMatrix).
func trainBinarySMO(x [][]float64, y []float64, K []float64, cfg SMOConfig) *binarySMO {
	cfg.fill()
	m := len(x)
	s := &binarySMO{cfg: cfg, x: x, y: y, alpha: make([]float64, m)}
	rng := rand.New(seededSource(cfg.Seed + int64(m)))

	f := func(i int) float64 {
		var s2 float64
		for j, kij := range K[i*m : (i+1)*m] {
			if s.alpha[j] != 0 {
				s2 += s.alpha[j] * y[j] * kij
			}
		}
		return s2 + s.b
	}

	passes, iter := 0, 0
	for passes < cfg.MaxPasses && iter < cfg.MaxIter {
		iter++
		changed := 0
		for i := 0; i < m; i++ {
			Ei := f(i) - y[i]
			if !((y[i]*Ei < -cfg.Tol && s.alpha[i] < cfg.C) || (y[i]*Ei > cfg.Tol && s.alpha[i] > 0)) {
				continue
			}
			j := rng.Intn(m - 1)
			if j >= i {
				j++
			}
			Ej := f(j) - y[j]
			ai, aj := s.alpha[i], s.alpha[j]
			var L, H float64
			if y[i] != y[j] {
				L = math.Max(0, aj-ai)
				H = math.Min(cfg.C, cfg.C+aj-ai)
			} else {
				L = math.Max(0, ai+aj-cfg.C)
				H = math.Min(cfg.C, ai+aj)
			}
			if L == H {
				continue
			}
			eta := 2*K[i*m+j] - K[i*m+i] - K[j*m+j]
			if eta >= 0 {
				continue
			}
			newAj := aj - y[j]*(Ei-Ej)/eta
			if newAj > H {
				newAj = H
			} else if newAj < L {
				newAj = L
			}
			if math.Abs(newAj-aj) < 1e-5 {
				continue
			}
			newAi := ai + y[i]*y[j]*(aj-newAj)
			b1 := s.b - Ei - y[i]*(newAi-ai)*K[i*m+i] - y[j]*(newAj-aj)*K[i*m+j]
			b2 := s.b - Ej - y[i]*(newAi-ai)*K[i*m+j] - y[j]*(newAj-aj)*K[j*m+j]
			s.alpha[i], s.alpha[j] = newAi, newAj
			switch {
			case newAi > 0 && newAi < cfg.C:
				s.b = b1
			case newAj > 0 && newAj < cfg.C:
				s.b = b2
			default:
				s.b = (b1 + b2) / 2
			}
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}
	if cfg.Kernel == nil && m > 0 {
		s.w = make([]float64, len(x[0]))
		for i, a := range s.alpha {
			if a == 0 {
				continue
			}
			ay := a * y[i]
			for j, xj := range x[i] {
				s.w[j] += ay * xj
			}
		}
	}
	return s
}

// decision returns the signed decision value for q.
func (s *binarySMO) decision(q []float64) float64 {
	if s.w != nil {
		return Dot(s.w, q) + s.b
	}
	var out float64
	for i, a := range s.alpha {
		if a != 0 {
			out += a * s.y[i] * s.cfg.kernel(s.x[i], q)
		}
	}
	return out + s.b
}

// SMO is a multiclass SVM using one-vs-one binary SMO machines with voting,
// the multiclass scheme of Weka's SMO that the paper's evaluation uses.
type SMO struct {
	Config SMOConfig

	std      *Standardizer
	machines []ovoMachine
	classes  int
}

type ovoMachine struct {
	a, b int // classes: decision > 0 votes a, else b
	svm  *binarySMO
}

// NewSMO returns an SMO classifier with the given configuration.
func NewSMO(cfg SMOConfig) *SMO { return &SMO{Config: cfg} }

// Fit trains C(C-1)/2 pairwise machines on the standardized data. Machines
// are independent, so they train in parallel across GOMAXPROCS workers.
//
// Every machine of class a needs the kernel values among a's own rows, so
// each class's within-class block is computed once and shared: a machine
// computes only its cross block. That cuts the kernel evaluations of a
// fit from Σ(n_a+n_b)²/2 over the pairs to N²/2 over the rows, while the
// shared blocks hold only Σn_a² values. Every entry is the same kernel
// call with the same arguments as a per-machine matrix would make, so the
// trained machines are unchanged.
func (c *SMO) Fit(X [][]float64, y []int) error {
	classes, err := validate(X, y)
	if err != nil {
		return err
	}
	c.classes = classes
	c.std = FitStandardizer(X)
	Xs := c.std.TransformAll(X)

	byClass := make([][][]float64, classes)
	for i, cl := range y {
		byClass[cl] = append(byClass[cl], Xs[i])
	}
	type pair struct{ a, b int }
	var pairs []pair
	for a := 0; a < classes; a++ {
		for b := a + 1; b < classes; b++ {
			if len(byClass[a]) > 0 && len(byClass[b]) > 0 {
				pairs = append(pairs, pair{a, b})
			}
		}
	}
	c.machines = make([]ovoMachine, len(pairs))

	blocks := make([][]float64, classes)
	parallelFor(classes, func(a int) { blocks[a] = c.Config.gramMatrix(byClass[a]) })
	parallelFor(len(pairs), func(pi int) {
		a, b := pairs[pi].a, pairs[pi].b
		xa, xb := byClass[a], byClass[b]
		px := make([][]float64, 0, len(xa)+len(xb))
		px = append(append(px, xa...), xb...)
		py := make([]float64, len(px))
		for i := range py {
			if i < len(xa) {
				py[i] = 1
			} else {
				py[i] = -1
			}
		}
		cfg := c.Config
		cfg.Seed += int64(a*classes + b)
		K := cfg.pairGram(xa, xb, blocks[a], blocks[b])
		c.machines[pi] = ovoMachine{a: a, b: b, svm: trainBinarySMO(px, py, K, cfg)}
	})
	return nil
}

// gramMatrix returns the row-major kernel matrix of x: entry (i, j) is
// kernel(x[i], x[j]) for j <= i, mirrored above the diagonal.
func (c *SMOConfig) gramMatrix(x [][]float64) []float64 {
	m := len(x)
	K := make([]float64, m*m)
	for i := range x {
		for j := 0; j <= i; j++ {
			K[i*m+j] = c.kernel(x[i], x[j])
			K[j*m+i] = K[i*m+j]
		}
	}
	return K
}

// pairGram returns gramMatrix of xa's rows followed by xb's, given the
// within-class blocks ka = gramMatrix(xa) and kb = gramMatrix(xb). Only
// the cross block is computed, as kernel(xb[i], xa[j]): the argument
// order gramMatrix uses below the diagonal.
func (c *SMOConfig) pairGram(xa, xb [][]float64, ka, kb []float64) []float64 {
	na, nb := len(xa), len(xb)
	m := na + nb
	K := make([]float64, m*m)
	for i := range na {
		copy(K[i*m:i*m+na], ka[i*na:(i+1)*na])
	}
	for i, xi := range xb {
		row := K[(na+i)*m : (na+i+1)*m]
		for j, xj := range xa {
			v := c.kernel(xi, xj)
			row[j] = v
			K[j*m+na+i] = v
		}
		copy(row[na:], kb[i*nb:(i+1)*nb])
	}
	return K
}

// parallelFor runs fn(i) for every i in [0, n) across at most GOMAXPROCS
// goroutines.
func parallelFor(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	jobs := make(chan int)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := range n {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// Scores returns per-class one-vs-one votes, each weighted by the absolute
// decision margin squashed to (0,1) so that confident machines count more.
func (c *SMO) Scores(x []float64) []float64 {
	if c.std == nil {
		panic("ml: SMO.Scores before Fit")
	}
	q := c.std.Transform(x)
	votes := make([]float64, c.classes)
	for _, m := range c.machines {
		d := m.svm.decision(q)
		w := 1 / (1 + math.Exp(-math.Abs(d))) // in [0.5, 1)
		if d > 0 {
			votes[m.a] += w
		} else {
			votes[m.b] += w
		}
	}
	return votes
}

// Predict returns the class with the most pairwise votes.
func (c *SMO) Predict(x []float64) int { return ArgMax(c.Scores(x)) }

// String describes the classifier.
func (c *SMO) String() string { return fmt.Sprintf("SMO(C=%g)", c.Config.C) }
