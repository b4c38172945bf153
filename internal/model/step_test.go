package model

import (
	"math"
	"math/rand"
	"testing"
)

// stepRef is Eq. (3)/(4) written with math.Max, the form Step replaces.
func stepRef(buffer, dl, chunkDur, bufferMax float64) (rebuffer, next, wait float64) {
	rebuffer = math.Max(dl-buffer, 0)
	afterDrain := math.Max(buffer-dl, 0) + chunkDur
	wait = math.Max(afterDrain-bufferMax, 0)
	return rebuffer, afterDrain - wait, wait
}

// TestStepMatchesMax: Step's compares return the same bits as the
// math.Max form for ordinary values, ±Inf and signed zeros, and NaN where
// it does.
func TestStepMatchesMax(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), 4, 30, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e-300}
	check := func(b, dl, l, bmax float64) {
		gr, gn, gw := Step(b, dl, l, bmax)
		wr, wn, ww := stepRef(b, dl, l, bmax)
		for i, pair := range [][2]float64{{gr, wr}, {gn, wn}, {gw, ww}} {
			same := math.Float64bits(pair[0]) == math.Float64bits(pair[1]) ||
				math.IsNaN(pair[0]) && math.IsNaN(pair[1]) // NaN payloads may differ
			if !same {
				t.Fatalf("Step(%v, %v, %v, %v) output %d = %v, math.Max form gives %v", b, dl, l, bmax, i, pair[0], pair[1])
			}
		}
	}
	for _, b := range special {
		for _, dl := range special {
			for _, l := range special {
				for _, bmax := range special {
					check(b, dl, l, bmax)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		check(rng.Float64()*40, rng.ExpFloat64()*6, 4, 30)
	}
}
