package main

import (
	"fmt"
	"time"

	"mpcdash/internal/core"
	"mpcdash/internal/fastmpc"
	"mpcdash/internal/model"
	"mpcdash/internal/obs"
	"mpcdash/internal/predictor"
)

// probeLayers opens every traced run. It exercises each layer through its
// public functions on small seed-derived inputs and records a value for
// every per-layer metric, so each workload reports the full set; the
// workload's own traced phases then overwrite the metrics of the layers
// it exercises under its load. README.md lists which metrics come from
// the probe on which workload.
func probeLayers(b *bench) error {
	t0 := time.Now()
	m := model.EnvivioManifest()
	opt, spec, err := newOptimizer(m)
	if err != nil {
		return err
	}

	// fastmpc: a cold build in a private registry, then lookups.
	t1 := time.Now()
	table, err := fastmpc.NewRegistry().Table(opt, spec)
	if err != nil {
		return err
	}
	b.set("fastmpc.table_build_s", time.Since(t1).Seconds(), "s")
	states := probeStates(b, m, 1000)
	var lookups []float64
	sink := 0
	for r := 0; r < 200; r++ {
		t := time.Now()
		for _, s := range states {
			sink += table.Lookup(s.buffer, s.prev, s.rate)
		}
		lookups = append(lookups, float64(time.Since(t).Nanoseconds())/float64(len(states)))
	}
	b.set("fastmpc.lookup_ns", median(lookups), "ns")

	// core: steady-state plans over the same states, one scratch reused.
	var scratch core.Scratch
	forecast := make([]float64, horizon)
	var plans []float64
	for _, s := range states[:500] {
		for j := range forecast {
			forecast[j] = s.rate
		}
		t := time.Now()
		lvl, _, _ := opt.PlanScratch(&scratch, s.chunk, s.buffer, s.prev, forecast, false)
		plans = append(plans, us(time.Since(t)))
		sink += lvl
	}
	d := summarize(plans)
	printDist("core.plan_us(probe)", d)
	b.set("core.plan_us_p50", d.P50, "us")
	b.set("core.plan_us_p99", d.Q(0.99), "us")
	b.set("core.plans", float64(d.N), "count")

	// predictor: the RobustMPC predictor's per-chunk update.
	p := predictor.NewErrorTracked(predictor.NewHarmonicMean(5), 5)
	var updates []float64
	for r := 0; r < 100; r++ {
		t := time.Now()
		for _, s := range states[:100] {
			p.Observe(s.rate)
			sink += len(p.Predict(horizon)) + len(p.LowerBound(horizon))
		}
		updates = append(updates, float64(time.Since(t).Nanoseconds())/100)
	}
	b.set("predictor.update_ns", median(updates), "ns")

	// sim and core self time: traced RobustMPC sessions.
	se := &simEnv{b: b, spec: simSpec{algs: []string{"RobustMPC", "BB"}, batch: 400}}
	if _, err := se.setup(); err != nil {
		return err
	}
	recs := make([][]sessionRec, b.workers)
	if err := se.tracedSessions(recs, 128); err != nil {
		return err
	}
	se.checkSessions(recs)

	// fleet: a small batch run with the in-flight gauge sampled.
	fe := &simEnv{b: b, spec: simSpec{algs: []string{"BB"}, batch: 400}, reg: obs.NewRegistry()}
	if _, err := fe.setup(); err != nil {
		return err
	}
	if err := fe.fleetRound(0); err != nil {
		return err
	}
	fe.setFleet()

	// abrsvc: a small resident-session service driven closed loop.
	ae := newAbrdEnv(b, abrdSpec{sessions: 64})
	defer ae.close()
	if _, err := ae.setup(); err != nil {
		return err
	}
	g := ae.startGauges()
	reg := ae.srv.Service.Registry()
	h0 := reg.Snapshot()
	plain := closedLoop(0, 4000, b.workers, ae.op)
	ae.setServiceHistograms(h0, reg.Snapshot())
	if err := ae.tracedClosed(0, 4000, plain); err != nil {
		return err
	}
	ae.finishGauges(g)
	if err := ae.check(); err != nil {
		return err
	}
	fmt.Printf("layer probe: %.2fs (checksum %d)\n", time.Since(t0).Seconds(), sink)
	return nil
}

// probeState is one player state the probes evaluate.
type probeState struct {
	chunk, prev  int
	buffer, rate float64
}

// probeStates draws player states from the seed: buffer in [0, Bmax],
// any previous level, throughput across and beyond the ladder.
func probeStates(b *bench, m *model.Manifest, n int) []probeState {
	out := make([]probeState, n)
	for i := range out {
		out[i] = probeState{
			chunk:  b.pick(i, 11, m.ChunkCount-horizon),
			prev:   b.pick(i, 12, m.Levels()),
			buffer: float64(b.pick(i, 13, 3001)) / 100,
			rate:   100 + float64(b.pick(i, 14, 5000)),
		}
	}
	return out
}
