package mpcdash_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"mpcdash/internal/abr"
	"mpcdash/internal/core"
	"mpcdash/internal/fastmpc"
	"mpcdash/internal/mdp"
	"mpcdash/internal/model"
	"mpcdash/internal/optimal"
	"mpcdash/internal/predictor"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

// goldenDecisionDigest pins every per-chunk decision and buffer outcome of
// the simulated controllers, the default FastMPC table, the offline
// optimum and the MDP policy. Refactors of the Eq. 3/4 buffer step and of
// the solver must leave it unchanged; a deliberate behaviour change
// re-pins it and says why.
const goldenDecisionDigest = "aa72104977ed8c2c"

// digestWriter feeds fixed-width little-endian values into a hash.
type digestWriter struct{ h hash.Hash64 }

func (d digestWriter) int(v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	d.h.Write(b[:])
}

func (d digestWriter) float(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	d.h.Write(b[:])
}

func (d digestWriter) str(s string) {
	d.int(len(s))
	d.h.Write([]byte(s))
}

// session hashes what the controller decided and what the buffer did:
// the startup delay, then (level, rebuffer, wait) for every chunk.
func (d digestWriter) session(res *model.SessionResult) {
	d.str(res.Algorithm)
	d.float(res.StartupDelay)
	d.int(len(res.Chunks))
	for _, c := range res.Chunks {
		d.int(c.Level)
		d.float(c.Rebuffer)
		d.float(c.Wait)
	}
}

// TestGoldenDecisionDigest replays MPC, RobustMPC (controller-chosen and
// first-chunk startup), FastMPC, BB and MDP over eight traces of each
// dataset, then the offline optimum of a 20-chunk video on two traces per
// dataset (the full video costs about a second per trace), and compares
// one hash of everything against the pinned digest. The emulated HTTP
// client shares the same buffer step but times downloads on the wall
// clock, so its sessions cannot be pinned bit for bit.
func TestGoldenDecisionDigest(t *testing.T) {
	m := model.EnvivioManifest()
	const bufferMax, horizon = 30.0, 5
	w, q := model.Balanced, model.QIdentity

	opt, err := core.NewOptimizer(m, w, q, bufferMax, horizon)
	if err != nil {
		t.Fatal(err)
	}
	table, err := fastmpc.NewRegistry().Table(opt, fastmpc.DefaultBins(bufferMax, m.Ladder.Max()))
	if err != nil {
		t.Fatal(err)
	}

	d := digestWriter{fnv.New64a()}
	d.h.Write(table.Serialize())

	harmonic := func() predictor.Predictor { return predictor.NewHarmonicMean(5) }
	tracked := func() predictor.Predictor {
		return predictor.NewErrorTracked(predictor.NewHarmonicMean(5), 5)
	}
	type algo struct {
		ctrl    func() abr.Controller
		pred    func() predictor.Predictor
		startup sim.StartupPolicy
	}
	prior := &mdp.ThroughputChain{
		Rates:      []float64{400, 1200, 3000},
		Transition: [][]float64{{0.7, 0.2, 0.1}, {0.15, 0.7, 0.15}, {0.1, 0.2, 0.7}},
	}
	algos := []algo{
		{func() abr.Controller { return core.NewMPC(w, q, bufferMax, horizon)(m) }, harmonic, sim.StartupController},
		{func() abr.Controller { return core.NewRobustMPC(w, q, bufferMax, horizon)(m) }, tracked, sim.StartupController},
		{func() abr.Controller { return core.NewRobustMPC(w, q, bufferMax, horizon)(m) }, tracked, sim.StartupFirstChunk},
		{func() abr.Controller { return &fastmpc.Controller{Table: table} }, harmonic, sim.StartupFirstChunk},
		{func() abr.Controller { return abr.NewBB(5, 10)(m) }, harmonic, sim.StartupFirstChunk},
		{func() abr.Controller { return mdp.NewController(w, q, bufferMax, prior, 0, 0)(m) }, harmonic, sim.StartupFirstChunk},
	}

	short, err := model.NewCBRManifest(m.Ladder, 20, m.ChunkDuration)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := optimal.NewSolver(short, w, q, bufferMax)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []trace.DatasetKind{trace.FCC, trace.HSDPA, trace.Synthetic} {
		traces := trace.Dataset(kind, 8, m.Duration()+120, 41)
		for _, a := range algos {
			for _, tr := range traces {
				cfg := sim.DefaultConfig()
				cfg.Startup = a.startup
				res, err := sim.Run(m, tr, a.ctrl(), a.pred(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				d.session(res)
			}
		}
		// SolvePlan breaks value ties by map order, so only the two
		// optimal values are pinned, not the reconstructed schedule.
		for _, tr := range traces[:2] {
			d.float(offline.Solve(tr))
			d.float(offline.SolvePlan(tr).QoE)
		}
	}

	if got := fmt.Sprintf("%016x", d.h.Sum64()); got != goldenDecisionDigest {
		t.Fatalf("decision digest = %s, want %s: a controller, the buffer step, the FastMPC table, the offline optimum or the MDP policy changed behaviour", got, goldenDecisionDigest)
	}
}
