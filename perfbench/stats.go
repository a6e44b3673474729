package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// Percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is
// not modified. NaN for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Median is Percentile(xs, 50).
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Quartiles returns the first and third quartiles of xs the way
// Python's statistics.quantiles(xs, n=4) does (its default
// "exclusive" method), which is how run-to-run spread is judged.
// Like Python it extrapolates past the extremes when there are only
// two values; one value is its own quartiles (Python refuses it).
func Quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// Spread is the interquartile range of xs as a share of its median.
func Spread(xs []float64) float64 {
	q1, q3 := Quartiles(xs)
	return (q3 - q1) / Median(xs)
}

// tailPercentiles are the candidates TailPercentile picks from.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9, 99.99}

// TailPercentile returns the highest of tailPercentiles that has at
// least ten samples beyond it among n samples, or 0 when even the
// median has fewer.
func TailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// interval is a span's extent on the wall clock.
type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// SelfTime is a span's duration minus the part of it that its child
// spans cover. Children may overlap each other (covered time counts
// once), leave gaps (gaps stay self time), or stick out of the parent
// (only the overlap counts).
func SelfTime(parent interval, children []interval) time.Duration {
	return parent.dur() - Covered(parent, children)
}

// Covered is the length of the union of children, clipped to parent.
func Covered(parent interval, children []interval) time.Duration {
	// The traced run calls this per packet; keep small unions off the
	// heap.
	var buf [4]interval
	clipped := buf[:0]
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	if !slices.IsSortedFunc(clipped, byStart) {
		slices.SortFunc(clipped, byStart)
	}
	var total time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			total += cur.dur()
			cur = c
		}
	}
	if len(clipped) > 0 {
		total += cur.dur()
	}
	return total
}

func byStart(a, b interval) int { return a.start.Compare(b.start) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
