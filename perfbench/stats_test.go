package main

import (
	"math"
	"testing"

	"mmx"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: quantile must sort a copy
	}
	return xs
}

func TestQuantileNearestRank(t *testing.T) {
	xs := seq(10)
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.1, 1}, {0.11, 2}, {0.9, 9}, {1, 10}, {0.001, 1},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Errorf("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Errorf("quantile of no samples should be NaN")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{19, 0.5, false},
		{20, 0.5, true},
		{99, 0.9, false},
		{100, 0.9, true},
		{999, 0.99, false},
		{1000, 0.99, true},
		{10000, 0.999, true},
	} {
		v, err := percentileAt(seq(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("p%g over %d samples: err %v, want ok=%v", 100*c.q, c.n, err, c.ok)
			continue
		}
		if err != nil {
			continue
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("p%g over %d samples = %g has %d samples beyond it", 100*c.q, c.n, v, beyond)
		}
	}
}

func TestPercentileAtIsNearestRank(t *testing.T) {
	v, err := percentileAt(seq(1000), 0.99)
	if err != nil || v != 990 {
		t.Errorf("p99 over 1..1000 = %g, %v; want 990", v, err)
	}
}

func TestFastestTakesEachPieceBestPass(t *testing.T) {
	best, err := fastest(nil, []float64{3, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if best, err = fastest(best, []float64{2, 7, 5}); err != nil {
		t.Fatal(err)
	}
	if best[0] != 2 || best[1] != 1 || best[2] != 4 || sum(best) != 7 {
		t.Errorf("fastest pieces %v, want [2 1 4] summing to 7", best)
	}
	if _, err := fastest(best, []float64{1, 1}); err == nil {
		t.Errorf("a pass with a different number of pieces was accepted")
	}
}

func TestFailFracAccounting(t *testing.T) {
	var c opCount
	c.add(opCount{attempted: 90, failed: 3})
	c.add(opCount{attempted: 10, failed: 2})
	if c.attempted != 100 || c.failed != 5 || c.failFrac() != 0.05 {
		t.Errorf("pooled counts %+v, fail_frac %g; want 100/5, 0.05", c, c.failFrac())
	}
	if (opCount{}).failFrac() != 1 {
		t.Errorf("nothing attempted must count as total failure")
	}
}

func TestFloorOpsCountEveryControlOperation(t *testing.T) {
	f := &floor{plan: &floorPlan{
		nodes: make([]nodePlan, 5),
		churn: make([]churnPlan, 2),
	}}
	var st mmx.RunStats
	st.JoinsFailed = 1
	st.Roams, st.RoamsFailed = 3, 1
	st.Control.RenewsSent, st.Control.RenewsFailed = 20, 2
	got := f.ops(st)
	// 5 build joins + 2 churn joins + 2 leaves + 20 renews + 4 roam attempts.
	want := opCount{attempted: 33, failed: 4}
	if got != want {
		t.Errorf("ops = %+v, want %+v", got, want)
	}
}
