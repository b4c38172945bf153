package predictor

import "math"

// AR1 fits a first-order autoregressive model x_{t+1} = a·x_t + b to the
// observed per-chunk throughputs by sliding-window least squares and
// iterates it forward for multi-step forecasts. Sec 8 calls for better
// predictors than the harmonic mean; AR(1) is the natural next step when
// throughput has momentum (regime drifts) rather than isolated outliers.
type AR1 struct {
	Window int // observations retained for the fit (default 12)
	obs    []float64
}

// NewAR1 returns an AR(1) predictor; window ≤ 2 selects 12.
func NewAR1(window int) *AR1 {
	if window <= 2 {
		window = 12
	}
	return &AR1{Window: window}
}

// Name implements Predictor.
func (a *AR1) Name() string { return "ar1" }

// Observe implements Predictor.
func (a *AR1) Observe(kbps float64) {
	if kbps <= 0 {
		kbps = 1e-3
	}
	a.obs = slide(a.obs, a.Window, kbps)
}

// fit returns the least-squares (a, b) of x_{t+1} = a·x_t + b over the
// window, falling back to a random-walk (1, 0) when the fit is degenerate.
func (a *AR1) fit() (slope, intercept float64) {
	n := len(a.obs) - 1
	if n < 2 {
		return 1, 0
	}
	var sx, sy, sxx, sxy float64
	for i := 0; i < n; i++ {
		x, y := a.obs[i], a.obs[i+1]
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := float64(n)*sxx - sx*sx
	if math.Abs(den) < 1e-9 {
		return 1, 0
	}
	slope = (float64(n)*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / float64(n)
	// Clamp to a stable, mean-reverting regime; an explosive fit on a
	// short window is noise, not signal.
	if slope > 1 {
		slope = 1
	}
	if slope < -1 {
		slope = -1
	}
	return slope, intercept
}

// Predict implements Predictor: iterate the fitted recurrence n steps.
func (a *AR1) Predict(n int) []float64 {
	out := make([]float64, n)
	if len(a.obs) == 0 {
		return out
	}
	slope, intercept := a.fit()
	x := a.obs[len(a.obs)-1]
	for i := range out {
		x = slope*x + intercept
		if x < 1e-3 {
			x = 1e-3
		}
		out[i] = x
	}
	return out
}

// Ensemble averages the forecasts of several predictors with inverse-error
// weighting: each member's weight is 1/(recent mean absolute percentage
// error + ε), so whichever model currently tracks the channel dominates.
type Ensemble struct {
	Members []Predictor
	Window  int // error-averaging window (default 5)

	pending [][]float64 // last first-step prediction per member
	errs    [][]float64 // recent errors per member
}

// NewEnsemble combines members (at least one) with inverse-error weights.
func NewEnsemble(window int, members ...Predictor) *Ensemble {
	if window <= 0 {
		window = 5
	}
	return &Ensemble{
		Members: members,
		Window:  window,
		errs:    make([][]float64, len(members)),
	}
}

// Name implements Predictor.
func (e *Ensemble) Name() string { return "ensemble" }

// SetTime forwards to time-aware members.
func (e *Ensemble) SetTime(sec float64) {
	for _, m := range e.Members {
		if ta, ok := m.(TimeAware); ok {
			ta.SetTime(sec)
		}
	}
}

// Observe implements Predictor: score every member's pending prediction,
// then forward the observation.
func (e *Ensemble) Observe(kbps float64) {
	for i, m := range e.Members {
		if e.pending != nil && len(e.pending[i]) > 0 && kbps > 0 && e.pending[i][0] > 0 {
			err := math.Abs(e.pending[i][0]-kbps) / kbps
			e.errs[i] = slide(e.errs[i], e.Window, err)
		}
		m.Observe(kbps)
	}
	e.pending = nil
}

// weight returns member i's current inverse-error weight.
func (e *Ensemble) weight(i int) float64 {
	const eps = 0.02
	if len(e.errs[i]) == 0 {
		return 1 / eps
	}
	var sum float64
	for _, v := range e.errs[i] {
		sum += v
	}
	return 1 / (sum/float64(len(e.errs[i])) + eps)
}

// Predict implements Predictor.
func (e *Ensemble) Predict(n int) []float64 {
	if len(e.Members) == 0 {
		return make([]float64, n)
	}
	e.pending = make([][]float64, len(e.Members))
	out := make([]float64, n)
	var totalW float64
	for i, m := range e.Members {
		p := m.Predict(n)
		e.pending[i] = p
		w := e.weight(i)
		totalW += w
		for j := range out {
			if j < len(p) {
				out[j] += w * p[j]
			}
		}
	}
	if totalW > 0 {
		for j := range out {
			out[j] /= totalW
		}
	}
	return out
}
