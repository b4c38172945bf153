// Package trace provides network-throughput traces: a piecewise-constant
// rate function C_t with exact integration (download-time computation), the
// three dataset generators of Sec 7.1.1 (FCC-like broadband, HSDPA-like
// mobile, and the hidden-Markov synthetic model), a text serialization
// format, and per-trace statistics.
package trace

import (
	"fmt"
	"math"
)

// Sample is one constant-rate segment of a trace.
type Sample struct {
	Duration float64 // seconds the rate holds
	Kbps     float64 // throughput during the segment
}

// Trace is a piecewise-constant throughput function C_t. Beyond its last
// sample the trace wraps around to its beginning, which mirrors the paper's
// practice of concatenating measurements to match the video length.
// Time and volume integrals are precomputed so download-time and
// average-rate queries cost O(log n); Trace is immutable after New and
// safe for concurrent readers.
type Trace struct {
	Name    string
	Samples []Sample

	cumDur []float64 // cumDur[i] = duration of samples[0:i]; len n+1
	cumKb  []float64 // cumKb[i] = kilobits deliverable over samples[0:i]
}

// New constructs a trace from samples, validating that every segment has
// positive duration and non-negative rate.
func New(name string, samples []Sample) (*Trace, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("trace %q: no samples", name)
	}
	t := &Trace{
		Name:    name,
		Samples: samples,
		cumDur:  make([]float64, len(samples)+1),
		cumKb:   make([]float64, len(samples)+1),
	}
	for i, s := range samples {
		if s.Duration <= 0 {
			return nil, fmt.Errorf("trace %q: sample %d has non-positive duration %v", name, i, s.Duration)
		}
		if s.Kbps < 0 || math.IsNaN(s.Kbps) || math.IsInf(s.Kbps, 0) {
			return nil, fmt.Errorf("trace %q: sample %d has invalid rate %v", name, i, s.Kbps)
		}
		t.cumDur[i+1] = t.cumDur[i] + s.Duration
		t.cumKb[i+1] = t.cumKb[i] + s.Duration*s.Kbps
		// A sample shorter than an ulp of the running duration would
		// leave two equal cumulative durations, and segmentAt could not
		// tell the two segments apart.
		if t.cumDur[i+1] <= t.cumDur[i] {
			return nil, fmt.Errorf("trace %q: sample %d duration %v is too short to advance the trace's %v s", name, i, s.Duration, t.cumDur[i])
		}
	}
	return t, nil
}

// FromRates builds a trace with a uniform sampling interval, the shape of
// both the FCC (5 s) and HSDPA (1 s) datasets.
func FromRates(name string, interval float64, kbps []float64) (*Trace, error) {
	samples := make([]Sample, len(kbps))
	for i, r := range kbps {
		samples[i] = Sample{Duration: interval, Kbps: r}
	}
	return New(name, samples)
}

// Duration returns the length of one pass of the trace in seconds.
func (t *Trace) Duration() float64 { return t.cumDur[len(t.Samples)] }

// wrap maps an arbitrary time offset into [0, Duration).
func (t *Trace) wrap(sec float64) float64 {
	total := t.Duration()
	sec = math.Mod(sec, total)
	if sec < 0 {
		sec += total
	}
	return sec
}

// segmentAt returns the index of the segment containing the wrapped offset.
// The binary search is hand-rolled, as in fastmpc's CompressedTable.at:
// sort.SearchFloat64s calls a closure per probe, and DownloadTime runs this
// once per simulated chunk.
//
//mpc:noalloc
func (t *Trace) segmentAt(pos float64) int {
	// First i with cumDur[i] >= pos, stepped past an exact boundary hit;
	// the segment is i-1.
	i, hi := 0, len(t.cumDur)
	for i < hi {
		mid := int(uint(i+hi) >> 1)
		if t.cumDur[mid] >= pos {
			hi = mid
		} else {
			i = mid + 1
		}
	}
	if i < len(t.cumDur) && t.cumDur[i] == pos { //lint:allow floateq exact boundary hit after binary search on cumulative durations
		i++
	}
	if i <= 0 {
		return 0
	}
	if i > len(t.Samples) {
		return len(t.Samples) - 1
	}
	return i - 1
}

// RateAt returns C_t at time offset sec (wrapping past the end).
func (t *Trace) RateAt(sec float64) float64 {
	return t.Samples[t.segmentAt(t.wrap(sec))].Kbps
}

// volumeTo returns the kilobits deliverable in [0, sec], wrapping.
func (t *Trace) volumeTo(sec float64) float64 {
	if sec <= 0 {
		return 0
	}
	total := t.Duration()
	passes := math.Floor(sec / total)
	pos := sec - passes*total
	i := t.segmentAt(pos)
	partial := t.cumKb[i] + (pos-t.cumDur[i])*t.Samples[i].Kbps
	return passes*t.cumKb[len(t.Samples)] + partial
}

// DownloadTime returns how long a transfer of size kilobits starting at time
// start takes, integrating the piecewise-constant rate exactly (Eq. 2 solved
// for the finish time). Zero-rate segments are simply waited out. A transfer
// that would never finish (all-zero trace) returns +Inf.
//
// It runs once per simulated chunk, so it finds the starting segment once,
// and the finishing segment by one binary search forward from it.
//
//mpc:noalloc
func (t *Trace) DownloadTime(start, kilobits float64) float64 {
	if kilobits <= 0 {
		return 0
	}
	n := len(t.Samples)
	perPass := t.cumKb[n]
	if perPass <= 0 {
		return math.Inf(1)
	}
	total := t.cumDur[n]
	pos := t.wrap(start)
	var elapsed float64

	// Volume delivered this pass before pos, and capacity remaining in the
	// pass from pos.
	s := t.segmentAt(pos)
	into := (pos - t.cumDur[s]) * t.Samples[s].Kbps
	passRest := perPass - t.cumKb[s] - into
	base := t.cumKb[s] + into
	if pos >= total {
		// wrap rounds a start just below a pass boundary up to exactly
		// total, where the whole pass has been delivered.
		base = perPass
	}
	if kilobits > passRest {
		kilobits -= passRest
		elapsed += total - pos
		pos, s, base = 0, 0, 0
		// Whole additional passes.
		passes := math.Floor(kilobits / perPass)
		if kilobits == passes*perPass { //lint:allow floateq exact pass-boundary landing; both sides derive from the same floor()
			passes-- // land exactly at a pass boundary: finish within the last one
		}
		if passes > 0 {
			elapsed += passes * total
			kilobits -= passes * perPass
		}
	}
	// Finish within the pass starting at pos: the finishing segment ends
	// at the first j with cumKb[j] >= target (n+1 if none). cumKb is
	// non-decreasing, so search forward from s, then walk back over the
	// zero-rate segments that share cumKb[s] when a vanishing transfer
	// stops there.
	target := base + kilobits
	j, hi := s, n+1
	for j < hi {
		mid := int(uint(j+hi) >> 1)
		if t.cumKb[mid] >= target {
			hi = mid
		} else {
			j = mid + 1
		}
	}
	for j > 0 && t.cumKb[j-1] >= target {
		j--
	}
	if j == 0 {
		j = 1
	}
	seg := j - 1
	if seg >= n {
		seg = n - 1
	}
	rate := t.Samples[seg].Kbps
	if rate <= 0 {
		// target falls exactly on a boundary followed by zero-rate segments;
		// the transfer completed at the boundary.
		return elapsed + t.cumDur[seg] - pos
	}
	finish := t.cumDur[seg] + (target-t.cumKb[seg])/rate
	return elapsed + finish - pos
}

// AverageRate returns the mean throughput over [start, start+dur], the C_k
// of Eq. (2) for a download occupying that window.
func (t *Trace) AverageRate(start, dur float64) float64 {
	if dur <= 0 {
		return t.RateAt(start)
	}
	pos := t.wrap(start)
	return (t.volumeTo(pos+dur) - t.volumeTo(pos)) / dur
}

// Mean returns the duration-weighted mean throughput of one pass.
func (t *Trace) Mean() float64 {
	return t.cumKb[len(t.Samples)] / t.Duration()
}

// Stddev returns the duration-weighted standard deviation of the rate.
func (t *Trace) Stddev() float64 {
	mean := t.Mean()
	var sum float64
	for _, s := range t.Samples {
		d := s.Kbps - mean
		sum += d * d * s.Duration
	}
	return math.Sqrt(sum / t.Duration())
}

// MinRate returns the lowest segment rate.
func (t *Trace) MinRate() float64 {
	min := math.Inf(1)
	for _, s := range t.Samples {
		if s.Kbps < min {
			min = s.Kbps
		}
	}
	return min
}

// MaxRate returns the highest segment rate.
func (t *Trace) MaxRate() float64 {
	max := 0.0
	for _, s := range t.Samples {
		if s.Kbps > max {
			max = s.Kbps
		}
	}
	return max
}

// Scale returns a copy with every rate multiplied by rateFactor and every
// duration divided by timeFactor (1 keeps real time). It supports the
// emulator's time-compression mode.
func (t *Trace) Scale(rateFactor, timeFactor float64) *Trace {
	samples := make([]Sample, len(t.Samples))
	for i, s := range t.Samples {
		samples[i] = Sample{Duration: s.Duration / timeFactor, Kbps: s.Kbps * rateFactor}
	}
	out, err := New(t.Name, samples)
	if err != nil {
		panic(fmt.Sprintf("trace: scaling %q by (%v, %v): %v", t.Name, rateFactor, timeFactor, err))
	}
	return out
}
