package main

import (
	"math"
	"sort"
	"sync/atomic"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailLevels are the candidate tail percentiles, highest first.
var tailLevels = []float64{0.9999, 0.999, 0.99, 0.9, 0.5}

// dist summarizes a timing sample: its median, the highest percentile
// with at least minBeyond samples beyond it, and the sample count.
type dist struct {
	N       int
	P50     float64
	TailPct float64 // e.g. 0.999; 0 when N is too small for any tail
	Tail    float64
	sorted  []float64
}

// summarize sorts a copy of xs and computes its dist.
func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s), sorted: s}
	if len(s) == 0 {
		return d
	}
	d.P50 = quantile(s, 0.5)
	if p := tailPct(len(s)); p > 0 {
		d.TailPct, d.Tail = p, quantile(s, p)
	}
	return d
}

// tailPct returns the highest candidate percentile that leaves at least
// minBeyond of n samples beyond it, or 0 when none does.
func tailPct(n int) float64 {
	for _, p := range tailLevels {
		if float64(n)*(1-p) >= minBeyond-1e-9 {
			return p
		}
	}
	return 0
}

// Q returns the p-quantile of the summarized sample.
func (d dist) Q(p float64) float64 { return quantile(d.sorted, p) }

// Supports reports whether percentile p has at least minBeyond samples
// beyond it.
func (d dist) Supports(p float64) bool {
	return float64(d.N)*(1-p) >= minBeyond-1e-9
}

// quantile is the linearly interpolated p-quantile of an ascending
// sample; NaN when the sample is empty.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// groupSize is the sample count behind each group's tail in
// groupedQuantile: enough for a p99 with minBeyond samples beyond it.
const groupSize = 1000

// groupedQuantile splits a time-ordered sample into consecutive groups of
// at least groupSize and returns the median of the groups' p-quantiles
// (the pooled quantile when there are fewer than two groups). One stall of
// a shared machine then moves one group's tail, not the reported one.
func groupedQuantile(xs []float64, p float64) float64 {
	g := len(xs) / groupSize
	if g < 2 {
		return summarize(xs).Q(p)
	}
	qs := make([]float64, g)
	for k := range qs {
		end := (k + 1) * len(xs) / g
		qs[k] = summarize(xs[k*len(xs)/g : end]).Q(p)
	}
	return median(qs)
}

// median of xs (copied, not mutated).
func median(xs []float64) float64 { return summarize(xs).P50 }

// tally counts operations against the number attempted. A failed
// operation is one the program returned an error for, a shed one was
// refused by admission control (HTTP 429), and a wrong one completed with
// an output the benchmark's check rejected. All three count against
// error_rate.
type tally struct {
	attempted, failed, shed, wrong atomic.Int64
}

// bad is the number of operations that did not succeed correctly.
func (t *tally) bad() int64 { return t.failed.Load() + t.shed.Load() + t.wrong.Load() }

// errorRate is (failed + shed + wrong) ÷ attempted, 0 when nothing was
// attempted.
func (t *tally) errorRate() float64 {
	a := t.attempted.Load()
	if a == 0 {
		return 0
	}
	return float64(t.bad()) / float64(a)
}
