package trace

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustTrace(t *testing.T, name string, samples []Sample) *Trace {
	t.Helper()
	tr, err := New(name, samples)
	if err != nil {
		t.Fatalf("New(%q): %v", name, err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name    string
		samples []Sample
		wantErr bool
	}{
		{"empty", nil, true},
		{"zero duration", []Sample{{0, 100}}, true},
		{"negative duration", []Sample{{-1, 100}}, true},
		{"negative rate", []Sample{{1, -5}}, true},
		{"nan rate", []Sample{{1, math.NaN()}}, true},
		{"inf rate", []Sample{{1, math.Inf(1)}}, true},
		{"valid", []Sample{{1, 100}, {2, 200}}, false},
		{"zero rate ok", []Sample{{1, 0}, {1, 100}}, false},
		{"below an ulp of the running duration", []Sample{{1, 100}, {1e-17, 1e15}, {1, 200}}, true},
	}
	for _, c := range cases {
		_, err := New(c.name, c.samples)
		if (err != nil) != c.wantErr {
			t.Errorf("New(%s): err=%v, wantErr=%v", c.name, err, c.wantErr)
		}
	}
}

func TestRateAt(t *testing.T) {
	tr := mustTrace(t, "steps", []Sample{{5, 100}, {5, 200}, {10, 50}})
	cases := []struct {
		at   float64
		want float64
	}{
		{0, 100}, {4.9, 100}, {5, 200}, {9.9, 200}, {10, 50}, {19.9, 50},
		{20, 100},   // wraps
		{25.5, 200}, // wrapped into second segment
		{-1, 50},    // negative wraps backward into last segment
	}
	for _, c := range cases {
		if got := tr.RateAt(c.at); got != c.want {
			t.Errorf("RateAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestDownloadTimeBasic(t *testing.T) {
	tr := mustTrace(t, "steps", []Sample{{5, 100}, {5, 200}})
	// 250 kbits starting at t=0: 5 s at 100 kbps (500 kbits capacity) is
	// plenty, so time = 250/100 = 2.5 s.
	if got := tr.DownloadTime(0, 250); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("DownloadTime(0,250) = %v, want 2.5", got)
	}
	// 600 kbits from t=0: 500 over first 5 s, then 100 at 200 kbps = 0.5 s.
	if got := tr.DownloadTime(0, 600); math.Abs(got-5.5) > 1e-9 {
		t.Errorf("DownloadTime(0,600) = %v, want 5.5", got)
	}
	// Exactly one full pass: 500+1000 = 1500 kbits in 10 s.
	if got := tr.DownloadTime(0, 1500); math.Abs(got-10) > 1e-9 {
		t.Errorf("DownloadTime(0,1500) = %v, want 10", got)
	}
	// Wrapping: start mid-second-segment.
	// From t=7.5: 2.5 s at 200 (500 kbits), then wrap to 100 kbps.
	if got := tr.DownloadTime(7.5, 700); math.Abs(got-(2.5+2.0)) > 1e-9 {
		t.Errorf("DownloadTime(7.5,700) = %v, want 4.5", got)
	}
	// Multiple passes: 3 full passes + 250.
	if got := tr.DownloadTime(0, 3*1500+250); math.Abs(got-32.5) > 1e-9 {
		t.Errorf("DownloadTime(0,4750) = %v, want 32.5", got)
	}
	if got := tr.DownloadTime(0, 0); got != 0 {
		t.Errorf("DownloadTime(0,0) = %v, want 0", got)
	}
}

func TestDownloadTimeZeroRateSegments(t *testing.T) {
	tr := mustTrace(t, "outage", []Sample{{5, 100}, {5, 0}, {5, 100}})
	// 600 kbits from t=0: 500 in the first 5 s, outage 5 s, then 1 s more.
	if got := tr.DownloadTime(0, 600); math.Abs(got-11) > 1e-9 {
		t.Errorf("DownloadTime(0,600) = %v, want 11", got)
	}
	// Exactly the first segment's capacity finishes at its boundary, not
	// after the outage.
	if got := tr.DownloadTime(0, 500); math.Abs(got-5) > 1e-9 {
		t.Errorf("DownloadTime(0,500) = %v, want 5", got)
	}
	// Starting inside the outage waits it out.
	if got := tr.DownloadTime(6, 100); math.Abs(got-(4+1)) > 1e-9 {
		t.Errorf("DownloadTime(6,100) = %v, want 5", got)
	}
}

func TestDownloadTimeAllZero(t *testing.T) {
	tr := mustTrace(t, "dead", []Sample{{5, 0}})
	if got := tr.DownloadTime(0, 1); !math.IsInf(got, 1) {
		t.Errorf("DownloadTime over dead link = %v, want +Inf", got)
	}
}

func TestAverageRate(t *testing.T) {
	tr := mustTrace(t, "steps", []Sample{{5, 100}, {5, 200}})
	if got := tr.AverageRate(0, 10); math.Abs(got-150) > 1e-9 {
		t.Errorf("AverageRate(0,10) = %v, want 150", got)
	}
	if got := tr.AverageRate(2.5, 5); math.Abs(got-150) > 1e-9 {
		t.Errorf("AverageRate(2.5,5) = %v, want 150", got)
	}
	// Window spanning a wrap.
	if got := tr.AverageRate(7.5, 5); math.Abs(got-150) > 1e-9 {
		t.Errorf("AverageRate(7.5,5) = %v, want 150", got)
	}
	// Zero-duration window degenerates to the instantaneous rate.
	if got := tr.AverageRate(1, 0); got != 100 {
		t.Errorf("AverageRate(1,0) = %v, want 100", got)
	}
}

func TestStats(t *testing.T) {
	tr := mustTrace(t, "steps", []Sample{{5, 100}, {5, 300}})
	if got := tr.Mean(); math.Abs(got-200) > 1e-9 {
		t.Errorf("Mean = %v, want 200", got)
	}
	if got := tr.Stddev(); math.Abs(got-100) > 1e-9 {
		t.Errorf("Stddev = %v, want 100", got)
	}
	if tr.MinRate() != 100 || tr.MaxRate() != 300 {
		t.Errorf("MinRate/MaxRate = %v/%v, want 100/300", tr.MinRate(), tr.MaxRate())
	}
	if tr.Duration() != 10 {
		t.Errorf("Duration = %v, want 10", tr.Duration())
	}
}

func TestScale(t *testing.T) {
	tr := mustTrace(t, "steps", []Sample{{5, 100}, {5, 200}})
	sc := tr.Scale(2, 10)
	if sc.Duration() != 1 {
		t.Errorf("scaled duration = %v, want 1", sc.Duration())
	}
	if got := sc.RateAt(0); got != 200 {
		t.Errorf("scaled rate = %v, want 200", got)
	}
	// Scaling identity: with rates ×rF and durations ÷tF, downloading V on
	// the scaled trace takes DownloadTime(0, V·tF/rF)/tF on the original.
	scaled := sc.DownloadTime(0, 400)
	want := tr.DownloadTime(0, 400*10/2) / 10
	if math.Abs(scaled-want) > 1e-9 {
		t.Errorf("scaled download %v, want %v", scaled, want)
	}
}

// TestDownloadTimeInversion checks the integral identity: downloading
// exactly the volume deliverable over a window takes exactly that window.
func TestDownloadTimeInversion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := make([]Sample, 50)
	for i := range samples {
		samples[i] = Sample{Duration: 0.5 + rng.Float64()*4, Kbps: rng.Float64() * 3000}
	}
	tr := mustTrace(t, "random", samples)
	for i := 0; i < 500; i++ {
		start := rng.Float64() * 3 * tr.Duration()
		window := rng.Float64() * 100
		vol := tr.AverageRate(start, window) * window
		if vol <= 0 {
			continue
		}
		got := tr.DownloadTime(start, vol)
		// The inversion is exact up to trailing zero-rate segments, where
		// the download finishes before the window closes.
		if got > window+1e-6 {
			t.Fatalf("DownloadTime(%v, %v) = %v > window %v", start, vol, got, window)
		}
		if redo := tr.AverageRate(start, got) * got; math.Abs(redo-vol) > 1e-6*math.Max(1, vol) {
			t.Fatalf("volume round-trip: got %v, want %v", redo, vol)
		}
	}
}

// TestDownloadTimeMonotone checks monotonicity in the transfer size.
func TestDownloadTimeMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		samples := make([]Sample, n)
		for i := range samples {
			samples[i] = Sample{Duration: 0.1 + rng.Float64()*5, Kbps: rng.Float64() * 2000}
		}
		tr, err := New("mono", samples)
		if err != nil {
			return false
		}
		if tr.MaxRate() == 0 {
			return true // degenerate dead trace
		}
		start := rng.Float64() * tr.Duration()
		prev := 0.0
		for kb := 10.0; kb < 20000; kb *= 2 {
			d := tr.DownloadTime(start, kb)
			if d < prev-1e-9 {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGenerators(t *testing.T) {
	for _, kind := range []DatasetKind{FCC, HSDPA, Synthetic} {
		traces := Dataset(kind, 20, 320, 1)
		if len(traces) != 20 {
			t.Fatalf("%v: got %d traces, want 20", kind, len(traces))
		}
		for _, tr := range traces {
			if tr.Duration() < 320 {
				t.Errorf("%v trace %q too short: %v s", kind, tr.Name, tr.Duration())
			}
			if tr.Mean() <= 0 {
				t.Errorf("%v trace %q has non-positive mean", kind, tr.Name)
			}
		}
		if kind == FCC {
			for _, tr := range traces {
				if m := tr.Mean(); m > 3000 {
					t.Errorf("FCC trace %q mean %v exceeds the 3 Mbps filter", tr.Name, m)
				}
			}
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := GenHSDPA(42, 300)
	b := GenHSDPA(42, 300)
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a.Samples[i], b.Samples[i])
		}
	}
}

// TestVariabilityOrdering checks the Fig 7 dataset character: HSDPA traces
// have a higher coefficient of variation than FCC traces on average.
func TestVariabilityOrdering(t *testing.T) {
	cv := func(kind DatasetKind) float64 {
		var sum float64
		traces := Dataset(kind, 30, 320, 99)
		for _, tr := range traces {
			sum += tr.Stddev() / tr.Mean()
		}
		return sum / float64(len(traces))
	}
	fcc, hsdpa := cv(FCC), cv(HSDPA)
	if hsdpa <= fcc {
		t.Errorf("expected HSDPA CV > FCC CV, got %v <= %v", hsdpa, fcc)
	}
}

func TestMarkovConfigValidation(t *testing.T) {
	good := DefaultMarkovConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultMarkovConfig()
	bad.Transition[0][0] = 0.5 // row no longer sums to 1
	if err := bad.Validate(); err == nil {
		t.Error("expected error for non-stochastic transition row")
	}
	empty := MarkovConfig{}
	if err := empty.Validate(); err == nil {
		t.Error("expected error for empty config")
	}
	short := DefaultMarkovConfig()
	short.Stddevs = short.Stddevs[:2]
	if err := short.Validate(); err == nil {
		t.Error("expected error for mismatched dimensions")
	}
	neg := DefaultMarkovConfig()
	neg.Interval = 0
	if err := neg.Validate(); err == nil {
		t.Error("expected error for non-positive interval")
	}
}

func TestIORoundTrip(t *testing.T) {
	tr := GenFCC(3, 100)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := Read(&buf, tr.Name)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(back.Samples) != len(tr.Samples) {
		t.Fatalf("sample count: got %d, want %d", len(back.Samples), len(tr.Samples))
	}
	for i := range tr.Samples {
		if math.Abs(back.Samples[i].Kbps-tr.Samples[i].Kbps) > 1e-9 ||
			math.Abs(back.Samples[i].Duration-tr.Samples[i].Duration) > 1e-9 {
			t.Fatalf("sample %d: got %+v, want %+v", i, back.Samples[i], tr.Samples[i])
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"1 2 3\n",   // too many fields
		"abc 100\n", // bad duration
		"1 xyz\n",   // bad rate
		"",          // empty
		"0 100\n",   // invalid sample (zero duration)
	}
	for _, in := range cases {
		if _, err := Read(bytes.NewBufferString(in), "bad"); err == nil {
			t.Errorf("Read(%q): expected error", in)
		}
	}
	// Comments and blank lines are fine.
	tr, err := Read(bytes.NewBufferString("# hi\n\n2 300\n"), "ok")
	if err != nil || len(tr.Samples) != 1 {
		t.Errorf("Read with comments: tr=%v err=%v", tr, err)
	}
}

func TestMahimahiRoundTrip(t *testing.T) {
	// A two-rate trace: 4 Mbps then 1 Mbps, 2 s each.
	tr := mustTrace(t, "mm", []Sample{{2, 4000}, {2, 1000}})
	var buf bytes.Buffer
	if err := WriteMahimahi(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMahimahi(&buf, "mm", 500)
	if err != nil {
		t.Fatal(err)
	}
	// Volume must round-trip almost exactly (one packet of slack).
	origKb := tr.Mean() * tr.Duration()
	backKb := back.Mean() * back.Duration()
	if math.Abs(origKb-backKb) > 2*1500*8/1000 {
		t.Errorf("volume: %v kb → %v kb", origKb, backKb)
	}
	// Rate ordering must survive: the first half is faster.
	if back.AverageRate(0, 2) <= back.AverageRate(2, 2) {
		t.Errorf("rate shape lost: %v then %v", back.AverageRate(0, 2), back.AverageRate(2, 2))
	}
}

func TestReadMahimahiErrors(t *testing.T) {
	cases := []string{
		"",       // no opportunities
		"abc\n",  // non-integer
		"-5\n",   // negative
		"12.5\n", // non-integer
	}
	for _, in := range cases {
		if _, err := ReadMahimahi(bytes.NewBufferString(in), "bad", 500); err == nil {
			t.Errorf("ReadMahimahi(%q): expected error", in)
		}
	}
	// Comments and unsorted input are fine.
	tr, err := ReadMahimahi(bytes.NewBufferString("# c\n900\n100\n500\n"), "ok", 500)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Duration() != 1.0 {
		t.Errorf("duration = %v, want 1.0", tr.Duration())
	}
}

func TestReadMahimahiBinning(t *testing.T) {
	// 8 packets in the first second, none in the second... the second bin
	// only exists if a timestamp lands there.
	var b bytes.Buffer
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&b, "%d\n", i*100)
	}
	fmt.Fprintf(&b, "%d\n", 1900)
	tr, err := ReadMahimahi(&b, "bins", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Samples) != 2 {
		t.Fatalf("bins = %d, want 2", len(tr.Samples))
	}
	// First bin: 8 × 1500 B × 8 / 1000 = 96 kbit over 1 s.
	if math.Abs(tr.Samples[0].Kbps-96) > 1e-9 {
		t.Errorf("bin 0 rate = %v, want 96", tr.Samples[0].Kbps)
	}
	if math.Abs(tr.Samples[1].Kbps-12) > 1e-9 {
		t.Errorf("bin 1 rate = %v, want 12", tr.Samples[1].Kbps)
	}
}
