package trace

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refSegmentAt, refVolumeTo and refDownloadTime are the three-search
// DownloadTime as it stood before the single-search rewrite, kept verbatim
// as the reference the fast path must match bit for bit.
func refSegmentAt(t *Trace, pos float64) int {
	i := sort.SearchFloat64s(t.cumDur, pos)
	if i < len(t.cumDur) && t.cumDur[i] == pos { //lint:allow floateq verbatim reference copy
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

func refVolumeTo(t *Trace, sec float64) float64 {
	if sec <= 0 {
		return 0
	}
	total := t.Duration()
	passes := math.Floor(sec / total)
	pos := sec - passes*total
	i := refSegmentAt(t, pos)
	partial := t.cumKb[i] + (pos-t.cumDur[i])*t.Samples[i].Kbps
	return passes*t.cumKb[len(t.Samples)] + partial
}

func refDownloadTime(t *Trace, start, kilobits float64) float64 {
	if kilobits <= 0 {
		return 0
	}
	perPass := t.cumKb[len(t.Samples)]
	if perPass <= 0 {
		return math.Inf(1)
	}
	total := t.Duration()
	pos := t.wrap(start)
	var elapsed float64

	i := refSegmentAt(t, pos)
	passRest := perPass - t.cumKb[i] - (pos-t.cumDur[i])*t.Samples[i].Kbps
	if kilobits > passRest {
		kilobits -= passRest
		elapsed += total - pos
		pos = 0
		passes := math.Floor(kilobits / perPass)
		if kilobits == passes*perPass { //lint:allow floateq verbatim reference copy
			passes--
		}
		if passes > 0 {
			elapsed += passes * total
			kilobits -= passes * perPass
		}
	}
	base := refVolumeTo(t, pos)
	target := base + kilobits
	j := sort.Search(len(t.cumKb), func(k int) bool { return t.cumKb[k] >= target })
	if j == 0 {
		j = 1
	}
	seg := j - 1
	if seg >= len(t.Samples) {
		seg = len(t.Samples) - 1
	}
	rate := t.Samples[seg].Kbps
	if rate <= 0 {
		return elapsed + t.cumDur[seg] - pos
	}
	finish := t.cumDur[seg] + (target-t.cumKb[seg])/rate
	return elapsed + finish - pos
}

// randomReferenceTrace draws a trace mixing the shapes DownloadTime has to
// get right: integral and non-representable durations, durations of a
// few ulps of the cumulative total (the shortest New accepts), zero-rate runs (including leading and
// trailing ones) and a wide rate range.
func randomReferenceTrace(t *testing.T, rng *rand.Rand) *Trace {
	n := 1 + rng.Intn(40)
	zeroShare := []float64{0, 0.2, 0.5, 0.9}[rng.Intn(4)]
	samples := make([]Sample, n)
	cum := 0.0
	for i := range samples {
		var d float64
		switch rng.Intn(5) {
		case 0:
			d = 1
		case 1:
			d = 5
		case 2:
			d = 0.1 * float64(1+rng.Intn(30))
		case 3: // one to four ulps of the running total
			d = float64(1+rng.Intn(4)) * (math.Nextafter(cum, math.Inf(1)) - cum)
		default:
			d = 0.001 + rng.Float64()*10
		}
		var r float64
		if rng.Float64() >= zeroShare {
			switch rng.Intn(3) {
			case 0:
				r = float64(100 * (1 + rng.Intn(60)))
			case 1:
				r = rng.Float64() * 8000
			default:
				r = math.Exp(rng.Float64()*20 - 5)
			}
		}
		samples[i] = Sample{Duration: d, Kbps: r}
		cum += d
	}
	tr, err := New("ref", samples)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestDownloadTimeMatchesReference compares DownloadTime (and the starting
// segment) with the verbatim three-search reference on a trace whose
// cumulative durations differ by one ulp and on seeded random traces, bit for bit,
// over starts on and off segment boundaries (negative, tiny negative and
// multi-pass ones included) and sizes from 1e-9 kbit to several passes,
// including transfers ending exactly on a segment or pass boundary.
func TestDownloadTimeMatchesReference(t *testing.T) {
	// The second sample is one ulp of the running total long, the
	// shortest New accepts: cumDur holds 1 and the next float after it.
	tie, err := New("tie", []Sample{{1, 100}, {math.Nextafter(1, 2) - 1, 1e15}, {1, 200}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20150817))
	const traces, perTrace = 2000, 300
	queries := 0
	for tc := 0; tc <= traces; tc++ {
		tr := tie
		if tc > 0 {
			tr = randomReferenceTrace(t, rng)
		}
		n := len(tr.Samples)
		total := tr.Duration()
		perPass := tr.cumKb[n]
		for q := 0; q < perTrace; q++ {
			var start float64
			switch rng.Intn(6) {
			case 0:
				start = (rng.Float64()*6 - 3) * total
			case 1: // a segment boundary, possibly several passes on or back
				start = tr.cumDur[rng.Intn(n+1)] + float64(rng.Intn(5)-2)*total
			case 2: // just before a pass boundary
				start = -math.Ldexp(rng.Float64(), -rng.Intn(60))
			case 3:
				start = math.Nextafter(tr.cumDur[rng.Intn(n+1)], math.Inf(2*rng.Intn(2)-1))
			case 4:
				start = 0
			default:
				start = rng.Float64() * total
			}
			var size float64
			switch rng.Intn(7) {
			case 0:
				size = 1e-9
			case 1: // whole passes: ends exactly on a pass boundary
				size = float64(1+rng.Intn(4)) * perPass
			case 2: // exactly the rest of the pass from start
				pos := tr.wrap(start)
				size = perPass - refVolumeTo(tr, pos)
			case 3: // up to a later segment boundary
				pos := tr.wrap(start)
				size = tr.cumKb[rng.Intn(n+1)] - refVolumeTo(tr, pos)
			case 4: // multi-pass
				size = rng.Float64() * 5 * perPass
			case 5:
				size = rng.Float64() * perPass / float64(1+rng.Intn(20))
			default:
				size = math.Exp(rng.Float64()*30 - 15)
			}
			if got, want := tr.segmentAt(tr.wrap(start)), refSegmentAt(tr, tr.wrap(start)); got != want {
				t.Fatalf("trace %d %v: segmentAt(wrap(%v)) = %d, reference %d", tc, tr.Samples, start, got, want)
			}
			got := tr.DownloadTime(start, size)
			want := refDownloadTime(tr, start, size)
			queries++
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trace %d %v: DownloadTime(%v, %v) = %v (%#x), reference %v (%#x)",
					tc, tr.Samples, start, size, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	if queries < 500000 {
		t.Fatalf("only %d queries", queries)
	}
}

// TestDownloadTimeNoAlloc pins the //mpc:noalloc contract of the per-chunk
// trace integration.
func TestDownloadTimeNoAlloc(t *testing.T) {
	tr := GenHSDPA(3, 260)
	start := 0.0
	if a := testing.AllocsPerRun(1000, func() {
		start += tr.DownloadTime(start, 7000)
	}); a != 0 {
		t.Fatalf("DownloadTime allocates %v per call", a)
	}
}
