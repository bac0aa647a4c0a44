package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a p99 over fewer than 1000 samples is a guess at one or two values.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs (0 < q ≤ 1): the
// smallest sample with at least q·n samples at or below it. xs need not
// be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// supported reports whether n samples leave at least minBeyond samples
// beyond the q-quantile.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9
}

// percentileAt is quantile with the minBeyond rule enforced: a metric
// named after its percentile must have the samples to back it.
func percentileAt(xs []float64, q float64) (float64, error) {
	if !supported(len(xs), q) {
		return 0, fmt.Errorf("p%g over %d samples leaves fewer than %d beyond it", 100*q, len(xs), minBeyond)
	}
	return quantile(xs, q), nil
}

// opCount is the attempted/failed accounting of one workload.
type opCount struct{ attempted, failed int }

func (c *opCount) add(o opCount) {
	c.attempted += o.attempted
	c.failed += o.failed
}

// failFrac is failed over attempted; a workload that attempted nothing
// has failed at everything it was asked to do.
func (c opCount) failFrac() float64 {
	if c.attempted <= 0 {
		return 1
	}
	return float64(c.failed) / float64(c.attempted)
}

// fastest folds one pass's piece times into the fastest seen so far,
// piece by piece. The first pass is taken as is; every later pass must
// split into the same pieces.
func fastest(best, pass []float64) ([]float64, error) {
	if best == nil {
		return append([]float64(nil), pass...), nil
	}
	if len(pass) != len(best) {
		return nil, fmt.Errorf("pass has %d pieces, earlier passes %d", len(pass), len(best))
	}
	for i, v := range pass {
		best[i] = min(best[i], v)
	}
	return best, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
