// Package predictor implements the throughput predictors of Sec 7.1.2: the
// harmonic-mean estimator used by RB, FESTIVE and the MPC family, the
// error-tracking wrapper that supplies RobustMPC's lower bound, and the
// oracle predictors (perfect and noisy) used by MPC-OPT and the Fig 11a
// sensitivity sweep.
package predictor

// Predictor forecasts the throughput of upcoming chunk downloads.
// Implementations are stateful per playback session and not safe for
// concurrent use; the runner creates a fresh predictor per session.
//
// A slice returned by Predict or LowerBound belongs to the predictor and
// stays valid until its next Predict or LowerBound call; callers copy what
// they keep longer. A LowerBound call leaves the values of the forecast
// just returned by Predict unchanged, so a caller may hold a forecast and
// its lower bound together, as the simulator does for one decision.
type Predictor interface {
	// Name identifies the predictor in logs and experiment output.
	Name() string
	// Observe records the measured average throughput (kbps) of a
	// completed chunk download, in order.
	Observe(kbps float64)
	// Predict returns the predicted throughput in kbps for each of the
	// next n chunk downloads. A non-positive prediction means "unknown";
	// controllers fall back to the lowest bitrate.
	Predict(n int) []float64
}

// LowerBounder is implemented by predictors that can report a conservative
// throughput bound; RobustMPC consumes it (Theorem 1).
type LowerBounder interface {
	// LowerBound returns per-chunk lower bounds aligned with Predict(n).
	LowerBound(n int) []float64
}

// TimeAware is implemented by oracle predictors that need to know the
// current session time before predicting. The simulator calls SetTime
// immediately before each Predict.
type TimeAware interface {
	SetTime(sec float64)
}

// fill returns buf resized to n with every entry v, reusing buf's array
// when it is large enough: the forecast buffer a predictor owns.
func fill(buf []float64, v float64, n int) []float64 {
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = v
	}
	return buf
}

// slide appends v to w, a window of at most n recent values in arrival
// order, shifting the window in place once it is full so the array
// allocated on first use is reused for the rest of the session.
func slide(w []float64, n int, v float64) []float64 {
	if n <= 0 {
		return w[:0]
	}
	if len(w) < n {
		if w == nil {
			w = make([]float64, 0, n)
		}
		return append(w, v)
	}
	k := copy(w, w[len(w)-n+1:])
	return append(w[:k], v)
}

// HarmonicMean predicts the harmonic mean of the last Window observed
// per-chunk throughputs (default 5), the estimator Jiang et al. found
// robust to outliers. Before any observation it predicts zero ("unknown").
type HarmonicMean struct {
	Window int
	obs    []float64
	fc     []float64 // forecast buffer returned by Predict
}

// NewHarmonicMean returns a harmonic-mean predictor over the last window
// observations; window ≤ 0 selects the paper's default of 5.
func NewHarmonicMean(window int) *HarmonicMean {
	if window <= 0 {
		window = 5
	}
	return &HarmonicMean{Window: window}
}

// Name implements Predictor.
func (h *HarmonicMean) Name() string { return "harmonic" }

// Observe implements Predictor.
func (h *HarmonicMean) Observe(kbps float64) {
	if kbps <= 0 {
		kbps = 1e-3 // a failed download still counts as terrible throughput
	}
	h.obs = slide(h.obs, h.Window, kbps)
}

// Predict implements Predictor.
func (h *HarmonicMean) Predict(n int) []float64 {
	h.fc = fill(h.fc, h.Current(), n)
	return h.fc
}

// Current returns the scalar harmonic-mean estimate (0 if no observations).
func (h *HarmonicMean) Current() float64 {
	if len(h.obs) == 0 {
		return 0
	}
	var inv float64
	for _, o := range h.obs {
		inv += 1 / o
	}
	return float64(len(h.obs)) / inv
}

// LastSample predicts the most recent observation; the naive baseline.
type LastSample struct {
	last float64
	fc   []float64
}

// Name implements Predictor.
func (l *LastSample) Name() string { return "last" }

// Observe implements Predictor.
func (l *LastSample) Observe(kbps float64) { l.last = kbps }

// Predict implements Predictor.
func (l *LastSample) Predict(n int) []float64 {
	l.fc = fill(l.fc, l.last, n)
	return l.fc
}

// EWMA predicts an exponentially weighted moving average with smoothing
// factor Alpha in (0,1]; higher alpha weights recent samples more.
type EWMA struct {
	Alpha float64
	est   float64
	seen  bool
	fc    []float64
}

// NewEWMA returns an EWMA predictor; alpha outside (0,1] selects 0.4.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.4
	}
	return &EWMA{Alpha: alpha}
}

// Name implements Predictor.
func (e *EWMA) Name() string { return "ewma" }

// Observe implements Predictor.
func (e *EWMA) Observe(kbps float64) {
	if !e.seen {
		e.est = kbps
		e.seen = true
		return
	}
	e.est = e.Alpha*kbps + (1-e.Alpha)*e.est
}

// Predict implements Predictor.
func (e *EWMA) Predict(n int) []float64 {
	e.fc = fill(e.fc, e.est, n) // est is 0 ("unknown") until the first Observe
	return e.fc
}
