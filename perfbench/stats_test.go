package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {5, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99},
		{10000, 99.9}, {100000, 99.99},
	}
	for _, c := range cases {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {90, 4.6}, {25, 2}} {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("Percentile sorted its input in place")
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile of no samples should be NaN")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{7, 7, 7}, 7, 7},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
	}
	for _, c := range cases {
		q1, q3 := Quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("Spread = %g, want 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(a, b int) interval {
		return interval{t0.Add(time.Duration(a) * time.Millisecond), t0.Add(time.Duration(b) * time.Millisecond)}
	}
	parent := at(0, 10)
	cases := []struct {
		name     string
		children []interval
		want     int
	}{
		{"no children", nil, 10},
		{"one child", []interval{at(2, 5)}, 7},
		{"overlapping children count once", []interval{at(1, 3), at(2, 5)}, 6},
		{"nested child inside another", []interval{at(1, 8), at(2, 3)}, 3},
		{"gaps stay self time", []interval{at(1, 2), at(4, 5), at(7, 9)}, 6},
		{"unsorted children", []interval{at(7, 9), at(1, 2), at(4, 5)}, 6},
		{"children sticking out are clipped", []interval{at(-5, 1), at(9, 15)}, 8},
		{"child outside the parent", []interval{at(12, 15)}, 10},
		{"zero-length and empty spans", []interval{at(3, 3), {}}, 10},
		{"full cover", []interval{at(0, 6), at(5, 10)}, 0},
		{"many children", []interval{at(0, 1), at(1, 2), at(2, 3), at(3, 4), at(5, 6), at(6, 7)}, 4},
	}
	for _, c := range cases {
		if got := SelfTime(parent, c.children); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: self time %v, want %dms", c.name, got, c.want)
		}
	}
}
