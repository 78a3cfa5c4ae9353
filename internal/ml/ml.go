// Package ml implements the benchmark machine-learning techniques the paper
// uses for refined DA (§III-B, §V): a k-nearest-neighbor classifier (KNN,
// as in Narayanan et al.'s Internet-scale attribution), a support vector
// machine trained with Sequential Minimal Optimization (SMO, the classifier
// of Stolerman et al.'s Classify-Verify), and Regularized Least Squares
// Classification (RLSC). All are written from scratch on the standard
// library.
//
// Classifiers consume dense feature vectors and integer class labels in
// [0, numClasses).
//
// SMO seeds one math/rand stream per one-vs-one machine. Seeding costs
// about as much as a small machine's training, and a refined-DA attack
// reuses a few hundred seeds across thousands of machines, so the package
// memoizes each seed's output prefix and replays it (seeded.go). The memo
// is process-wide and bounded: at most 4096 seeds and 2^20 values (8 MiB)
// at once, emptied and restarted when a new seed would pass either bound.
// Replayed streams are value-for-value those of rand.NewSource, so the
// memo changes no trained model.
package ml

import (
	"errors"
	"fmt"
	"math"
)

// Classifier is the common supervised-classification interface.
type Classifier interface {
	// Fit trains on rows X with labels y (len(X) == len(y); labels in
	// [0, classes)). Fit may be called once per instance.
	Fit(X [][]float64, y []int) error
	// Predict returns the predicted class of x.
	Predict(x []float64) int
	// Scores returns one score per class; higher means more likely.
	Scores(x []float64) []float64
}

// validate checks the common Fit preconditions and returns the number of
// classes (max label + 1).
func validate(X [][]float64, y []int) (classes int, err error) {
	if len(X) == 0 {
		return 0, errors.New("ml: empty training set")
	}
	if len(X) != len(y) {
		return 0, fmt.Errorf("ml: %d rows but %d labels", len(X), len(y))
	}
	dim := len(X[0])
	for i, row := range X {
		if len(row) != dim {
			return 0, fmt.Errorf("ml: row %d has dim %d, want %d", i, len(row), dim)
		}
	}
	for i, c := range y {
		if c < 0 {
			return 0, fmt.Errorf("ml: negative label %d at row %d", c, i)
		}
		if c+1 > classes {
			classes = c + 1
		}
	}
	return classes, nil
}

// Standardizer performs per-dimension standardization (zero mean, unit
// variance). Dimensions with zero variance are left centered only.
type Standardizer struct {
	Mean, Std []float64
}

// FitStandardizer computes per-dimension statistics of X.
func FitStandardizer(X [][]float64) *Standardizer {
	if len(X) == 0 {
		return &Standardizer{}
	}
	d := len(X[0])
	s := &Standardizer{Mean: make([]float64, d), Std: make([]float64, d)}
	for _, row := range X {
		for j, x := range row {
			s.Mean[j] += x
		}
	}
	n := float64(len(X))
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range X {
		for j, x := range row {
			dx := x - s.Mean[j]
			s.Std[j] += dx * dx
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
	}
	return s
}

// Transform returns the standardized copy of x.
func (s *Standardizer) Transform(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		if j >= len(s.Mean) {
			break
		}
		out[j] = v - s.Mean[j]
		if s.Std[j] > 1e-12 {
			out[j] /= s.Std[j]
		}
	}
	return out
}

// TransformAll standardizes every row.
func (s *Standardizer) TransformAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = s.Transform(row)
	}
	return out
}

// Dot returns the inner product of a and b (must have equal length).
func Dot(a, b []float64) float64 {
	var s float64
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// SqDist returns the squared Euclidean distance between a and b.
func SqDist(a, b []float64) float64 {
	var s float64
	for i, x := range a {
		d := x - b[i]
		s += d * d
	}
	return s
}

// ArgMax returns the index of the largest element (first on ties), or -1
// for an empty slice.
func ArgMax(xs []float64) int {
	best := -1
	bestV := math.Inf(-1)
	for i, x := range xs {
		if x > bestV {
			best, bestV = i, x
		}
	}
	return best
}
