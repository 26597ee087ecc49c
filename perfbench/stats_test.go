package main

import (
	"math"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) is not NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median sorted its input in place")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), which the
// acceptance check of the benchmark's spread uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{0.91, 0.88, 1.02, 0.95, 0.97, 0.90, 0.93}, 0.90, 0.93, 0.97},
	} {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread = %v", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{2.5}, 95); got != 2.5 {
		t.Errorf("percentile of one sample = %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile(nil) is not NaN")
	}
}

func TestOverheadRatios(t *testing.T) {
	// Two instrumented runs took 4.2 s against a 1.05 s uninstrumented run:
	// each run is 2x its baseline.
	if got := suiteOverheadX(4.2, 2, 1.05); !near(got, 2) {
		t.Errorf("suiteOverheadX = %v, want 2", got)
	}
	if got := callOverheadX(20000, 50); !near(got, 400) {
		t.Errorf("callOverheadX = %v, want 400", got)
	}
}

// paired alternates which of its two runs goes first and still returns
// each run's times in its own slice.
func TestPairedAlternates(t *testing.T) {
	var order []string
	a, b := paired(3, func() { order = append(order, "a") }, func() { order = append(order, "b") })
	if got := strings.Join(order, ""); got != "abbaab" {
		t.Errorf("run order %q, want abbaab", got)
	}
	if len(a) != 3 || len(b) != 3 {
		t.Errorf("got %d and %d times, want 3 and 3", len(a), len(b))
	}
}
