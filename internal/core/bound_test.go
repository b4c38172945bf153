package core

import (
	"math"
	"math/rand"
	"testing"

	"mpcdash/internal/model"
)

// randomPlanState draws a solver input: any chunk (so the horizon also
// truncates near the end), a buffer that may exceed the cap, any previous
// level or none, and a forecast that is empty, all zeros (RobustMPC's
// chunk-0 lower bound), or random and possibly shorter than the horizon.
func randomPlanState(rng *rand.Rand, m *model.Manifest) (k int, buffer float64, prev int, forecast []float64) {
	k = rng.Intn(m.ChunkCount)
	buffer = rng.Float64() * 35
	prev = rng.Intn(m.Levels()+1) - 1
	switch rng.Intn(4) {
	case 0: // no forecast
	case 1:
		forecast = make([]float64, 5)
	default:
		forecast = make([]float64, 1+rng.Intn(5))
		for j := range forecast {
			forecast[j] = rng.Float64() * 6000
		}
	}
	return k, buffer, prev, forecast
}

// samePlan reports whether two PlanScratch answers agree bit for bit.
func samePlan(l1 int, t1, q1 float64, l2 int, t2, q2 float64) bool {
	return l1 == l2 && math.Float64bits(t1) == math.Float64bits(t2) && math.Float64bits(q1) == math.Float64bits(q2)
}

// TestBoundsExact: the switching-and-stall bound, the leaf pass and the
// startup Ts-grid floor only skip work. With pruning on, PlanScratch must
// return the level, Ts and QoE bits of full enumeration, in steady state
// and at startup, over CBR and VBR manifests, λ ∈ {0, 1, 3}, with and
// without a terminal buffer reward.
func TestBoundsExact(t *testing.T) {
	vbr, err := model.NewVBRManifest(model.EnvivioLadder(), 20, 4, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	cfg := 0
	for mi, m := range []*model.Manifest{model.EnvivioManifest(), vbr} {
		for _, lambda := range []float64{0, 1, 3} {
			for _, term := range []float64{0, 300} {
				// Alternate µs = µ, where the Ts tie rule decides, with a
				// free startup delay, where the last grid points compete.
				w := model.Weights{Lambda: lambda, Mu: 3000, MuS: float64(3000 * (cfg % 2))}
				cfg++
				on, err := NewOptimizer(m, w, model.QIdentity, 30, 5)
				if err != nil {
					t.Fatal(err)
				}
				on.TerminalBufferWeight = term
				off := *on
				off.DisablePruning = true
				var sOn, sOff Scratch
				for i := 0; i < 160; i++ {
					k, buffer, prev, forecast := randomPlanState(rng, m)
					startup := i%8 == 0
					l1, t1, q1 := on.PlanScratch(&sOn, k, buffer, prev, forecast, startup)
					l2, t2, q2 := off.PlanScratch(&sOff, k, buffer, prev, forecast, startup)
					if !samePlan(l1, t1, q1, l2, t2, q2) {
						t.Fatalf("manifest %d λ=%v w=%v startup=%v state(k=%d,B=%.3f,prev=%d,f=%v): pruned (%d,%v,%v) != enumerated (%d,%v,%v)",
							mi, lambda, term, startup, k, buffer, prev, forecast, l1, t1, q1, l2, t2, q2)
					}
				}
			}
		}
	}
}

// TestScratchReuseAcrossOptimizers: the ladder-only tables a Scratch keeps
// between solves are keyed by value, so one Scratch shared by optimizers
// that differ in λ, quality function, terminal reward, buffer cap, horizon
// and ladder must answer exactly as a fresh Scratch does.
func TestScratchReuseAcrossOptimizers(t *testing.T) {
	three, err := model.NewCBRManifest(model.Ladder{400, 1200, 3000}, 30, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := func(m *model.Manifest) *Optimizer {
		o, err := NewOptimizer(m, model.Balanced, model.QIdentity, 30, 5)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	var opts []*Optimizer
	for i := 0; i < 7; i++ {
		opts = append(opts, base(model.EnvivioManifest()))
	}
	opts[1].Weights.Lambda = 3
	opts[2].Quality = model.QLog(300)
	opts[3].Quality = model.QLog(350)
	opts[4].TerminalBufferWeight = 300
	opts[5].TerminalBufferWeight = 300
	opts[5].BufferMax = 20
	opts[6].Horizon = 3
	opts = append(opts, base(three))

	rng := rand.New(rand.NewSource(17))
	var shared Scratch
	for i := 0; i < 1200; i++ {
		o := opts[rng.Intn(len(opts))]
		k, buffer, prev, forecast := randomPlanState(rng, o.Manifest)
		startup := i%10 == 0
		l1, t1, q1 := o.PlanScratch(&shared, k, buffer, prev, forecast, startup)
		var fresh Scratch
		l2, t2, q2 := o.PlanScratch(&fresh, k, buffer, prev, forecast, startup)
		if !samePlan(l1, t1, q1, l2, t2, q2) {
			t.Fatalf("solve %d (optimizer %+v, startup=%v): shared scratch (%d,%v,%v) != fresh (%d,%v,%v)",
				i, *o, startup, l1, t1, q1, l2, t2, q2)
		}
	}
}
