package predictor

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mpcdash/internal/trace"
)

// TestSlideMatchesAppendAndTrim checks the in-place window against the
// append-then-reslice trimming it replaced, including windows that shrink
// or are non-positive mid-stream.
func TestSlideMatchesAppendAndTrim(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var w, ref []float64
	for i := 0; i < 5000; i++ {
		n := 5
		if i%700 >= 600 {
			n = rng.Intn(8) - 1
		}
		v := rng.Float64()
		w = slide(w, n, v)
		ref = append(ref, v)
		if len(ref) > n {
			ref = ref[len(ref)-max(n, 0):]
		}
		if !slices.Equal(w, ref) {
			t.Fatalf("step %d, window %d: slide %v, append-and-trim %v", i, n, w, ref)
		}
	}
}

// TestForecastSurvivesLowerBound holds every predictor the runner and the
// experiments build (runner/algorithms.go, experiments/extensions.go), plus
// NoisyOracle and Ensemble, to the Predictor contract: a forecast keeps its
// values across the following LowerBound and Observe calls.
func TestForecastSurvivesLowerBound(t *testing.T) {
	tr := trace.GenHSDPA(4, 300)
	const step = 4
	preds := []func() Predictor{
		func() Predictor { return NewHarmonicMean(5) },
		func() Predictor { return NewErrorTracked(NewHarmonicMean(5), 5) },
		func() Predictor { return &LastSample{} },
		func() Predictor { return NewOracle(tr, step) },
		func() Predictor { return NewNoisyOracle(tr, step, 0.3, 9) },
		func() Predictor { return NewErrorTracked(NewNoisyOracle(tr, step, 0.3, 9), 5) },
		func() Predictor { return NewErrorTracked(&LastSample{}, 5) },
		func() Predictor { return NewErrorTracked(NewEWMA(0.4), 5) },
		func() Predictor { return NewErrorTracked(NewAR1(12), 5) },
		func() Predictor {
			return NewErrorTracked(NewEnsemble(5, NewHarmonicMean(5), NewAR1(12), NewEWMA(0.4)), 5)
		},
		func() Predictor { return NewEnsemble(5, NewHarmonicMean(5), NewAR1(12), NewEWMA(0.4)) },
	}
	for _, mk := range preds {
		p := mk()
		t.Run(p.Name(), func(t *testing.T) {
			for k := 0; k < 40; k++ {
				if ta, ok := p.(TimeAware); ok {
					ta.SetTime(float64(k * step))
				}
				f := p.Predict(5)
				held := slices.Clone(f)
				if lb, ok := p.(LowerBounder); ok {
					lb.LowerBound(5)
				}
				p.Observe(tr.AverageRate(float64(k*step), step))
				for i := range f {
					if math.Float64bits(f[i]) != math.Float64bits(held[i]) {
						t.Fatalf("chunk %d: forecast changed from %v to %v", k, held, f)
					}
				}
			}
		})
	}
}

// TestPredictorsNoAlloc pins the per-chunk predictor path of the MPC
// family at zero allocations once the windows and buffers exist.
func TestPredictorsNoAlloc(t *testing.T) {
	h := NewHarmonicMean(5)
	e := NewErrorTracked(NewHarmonicMean(5), 5)
	for i := 0; i < 10; i++ {
		h.Observe(1000 + float64(i))
		e.Predict(5)
		e.LowerBound(5)
		e.Observe(1000 + float64(i))
	}
	h.Predict(5)
	kbps := 900.0
	for name, f := range map[string]func(){
		"HarmonicMean.Predict":    func() { h.Predict(5) },
		"HarmonicMean.Observe":    func() { kbps++; h.Observe(kbps) },
		"ErrorTracked.Predict":    func() { e.Predict(5) },
		"ErrorTracked.LowerBound": func() { e.LowerBound(5) },
		"ErrorTracked.Observe":    func() { kbps++; e.Predict(5); e.Observe(kbps) },
	} {
		if a := testing.AllocsPerRun(100, f); a != 0 {
			t.Errorf("%s allocates %v per call", name, a)
		}
	}
}
