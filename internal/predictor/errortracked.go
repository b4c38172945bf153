package predictor

import "math"

// ErrorTracked wraps another predictor and tracks its realized percentage
// error, exposing the RobustMPC lower bound of Sec 7.1.2:
//
//	Ĉ_lower = Ĉ / (1 + err)
//
// where err is the maximum absolute percentage prediction error over the
// past Window chunks (default 5).
type ErrorTracked struct {
	Inner  Predictor
	Window int

	pending float64 // prediction issued for the chunk now downloading
	primed  bool
	errs    []float64 // recent |pred-actual|/actual
	lower   []float64 // buffer returned by LowerBound
}

// NewErrorTracked wraps inner with error tracking over the last window
// chunks; window ≤ 0 selects 5.
func NewErrorTracked(inner Predictor, window int) *ErrorTracked {
	if window <= 0 {
		window = 5
	}
	return &ErrorTracked{Inner: inner, Window: window}
}

// Name implements Predictor.
func (e *ErrorTracked) Name() string { return e.Inner.Name() + "+err" }

// SetTime forwards to the inner predictor when it is time-aware.
func (e *ErrorTracked) SetTime(sec float64) {
	if ta, ok := e.Inner.(TimeAware); ok {
		ta.SetTime(sec)
	}
}

// Observe implements Predictor: it scores the pending prediction against
// the realized throughput, then forwards the observation.
func (e *ErrorTracked) Observe(kbps float64) {
	if e.primed && kbps > 0 && e.pending > 0 {
		e.errs = slide(e.errs, e.Window, math.Abs(e.pending-kbps)/kbps)
	}
	e.primed = false
	e.Inner.Observe(kbps)
}

// Predict implements Predictor: it forwards to the inner predictor and
// remembers the first-step prediction for error scoring.
func (e *ErrorTracked) Predict(n int) []float64 {
	p := e.Inner.Predict(n)
	if len(p) > 0 {
		e.pending = p[0]
		e.primed = true
	}
	return p
}

// MaxError returns the maximum absolute percentage error over the window
// (0 before any scored prediction).
func (e *ErrorTracked) MaxError() float64 {
	var max float64
	for _, v := range e.errs {
		if v > max {
			max = v
		}
	}
	return max
}

// LowerBound implements LowerBounder: Ĉ/(1+err) per horizon step. It
// re-predicts the inner predictor and divides into a buffer of its own, so
// the forecast Predict returned keeps its values: the inner predictors that
// reuse a forecast buffer repeat the same forecast until their next
// Observe.
func (e *ErrorTracked) LowerBound(n int) []float64 {
	p := e.Inner.Predict(n)
	if cap(e.lower) < len(p) {
		e.lower = make([]float64, len(p))
	}
	e.lower = e.lower[:len(p)]
	err := e.MaxError()
	for i, v := range p {
		e.lower[i] = v / (1 + err)
	}
	return e.lower
}
