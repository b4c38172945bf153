package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"mpcdash/internal/core"
	"mpcdash/internal/fastmpc"
	"mpcdash/internal/fleet"
	"mpcdash/internal/model"
	"mpcdash/internal/obs"
	"mpcdash/internal/runner"
	"mpcdash/internal/sim"
)

// pinnedFleetDigests are the digests of one fleet batch's report JSON at
// the default seed: per-population session counts and every aggregate.
// A change that alters any session's outcome changes them.
var pinnedFleetDigests = map[string]string{
	"sim-robustmpc": "d9130e0e4c630ea9",
	"sim-lookup":    "2a9d52ccb0b7cdd8",
}

// simSpec sizes one sim workload. The rates are fixed so that the same
// load is offered to every commit: light is a fortieth to a fifth and
// busy a fifth to two fifths of what nproc=2 workers complete, low enough
// that a slow stretch of a shared host rarely tips the busy phase into
// overload.
type simSpec struct {
	algs       []string // one fleet population per algorithm
	batch      int      // sessions per fleet batch
	light      float64  // open-loop sessions/s
	busy       float64
	openChunks int  // chunks an open-loop viewer watches; 0 = the whole video
	warmTable  bool // build the FastMPC table in setup
}

// Both sim workloads use asap arrivals: every session is admitted as soon
// as a worker is free, so sessions_per_s measures the program, not the
// scenario's arrival clock.
func runSimRobustMPC(b *bench) error {
	// Open-loop viewers leave after 13 chunks (52 s): a full RobustMPC
	// session costs ~1.5 ms, too long for a thousand samples per group
	// of the latency tail at a light rate.
	return runSim(b, simSpec{algs: []string{"RobustMPC"}, batch: 400, light: 600, busy: 1200, openChunks: 13})
}

func runSimLookup(b *bench) error {
	return runSim(b, simSpec{algs: []string{"FastMPC", "BB"}, batch: 20000, light: 1000, busy: 8000, warmTable: true})
}

// simEnv is a set-up sim workload.
type simEnv struct {
	b        *bench
	spec     simSpec
	manifest *model.Manifest
	algs     []runner.Algorithm
	pool     tracePool
	first    *fleet.Fleet  // the batch prepared in setup
	reg      *obs.Registry // fleet metrics; nil outside traced runs
	pin      bool          // check the pinned report digest
	fleet    fleetTotals
}

const (
	bufferMax = 30.0
	horizon   = 5
)

func newOptimizer(m *model.Manifest) (*core.Optimizer, fastmpc.BinSpec, error) {
	opt, err := core.NewOptimizer(m, model.Balanced, model.QIdentity, bufferMax, horizon)
	return opt, fastmpc.DefaultBins(bufferMax, m.Ladder.Max()), err
}

func (e *simEnv) setup() (setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	e.manifest = model.EnvivioManifest()
	e.pool = buildPool(e.b.seed, e.manifest.Duration())
	st.pool = time.Since(t0).Seconds()
	if e.spec.warmTable {
		// Warm the shared registry with the key the fleet's FastMPC
		// factory resolves, so the cold build lands in setup.
		fastmpc.ResetSharedTables()
		opt, spec, err := newOptimizer(e.manifest)
		if err != nil {
			return st, err
		}
		t1 := time.Now()
		if _, err := fastmpc.Shared.Table(opt, spec); err != nil {
			return st, err
		}
		st.table = time.Since(t1).Seconds()
	}
	byName := map[string]runner.Algorithm{}
	for _, a := range runner.StandardSet(model.Balanced, model.QIdentity, bufferMax, horizon) {
		byName[a.Name] = a
	}
	e.algs = e.algs[:0]
	for _, n := range e.spec.algs {
		e.algs = append(e.algs, byName[n])
	}
	f, err := e.newFleet()
	if err != nil {
		return st, err
	}
	e.first = f
	st.total = time.Since(t0).Seconds()
	return st, nil
}

// scenario is one fleet batch: every population plays full videos over
// an even FCC/HSDPA mix with asap arrivals, nproc sessions in flight.
func (e *simEnv) scenario() *fleet.Scenario {
	sc := &fleet.Scenario{
		Name:        e.b.workload,
		Seed:        e.b.seed,
		Video:       fleet.VideoSpec{Chunks: e.manifest.ChunkCount, ChunkSec: e.manifest.ChunkDuration},
		TracePool:   fleet.TracePoolSpec{PerKind: poolPerKind},
		MaxInFlight: e.b.workers,
	}
	for _, a := range e.spec.algs {
		sc.Populations = append(sc.Populations, fleet.Population{
			Name:      strings.ToLower(a),
			Algorithm: a,
			Sessions:  e.spec.batch / len(e.spec.algs),
			Arrival:   fleet.Arrival{Process: "asap"},
			TraceMix:  map[string]float64{"fcc": 1, "hsdpa": 1},
			Watch:     fleet.Watch{Dist: "full"},
		})
	}
	return sc
}

func (e *simEnv) newFleet() (*fleet.Fleet, error) {
	return fleet.New(e.scenario(), fleet.Options{Backend: fleet.BackendSim, Workers: e.b.workers, Registry: e.reg})
}

// sessionKey identifies a session's inputs: algorithm, trace kind, trace
// and chunks watched (0 = all).
type sessionKey struct{ alg, kind, idx, chunks int }

// sessionRec is one completed session's output.
type sessionRec struct {
	key sessionKey
	qoe float64
}

// playSession plays session i for chunks chunks (0 = all) through
// sim.Run, wrapping its controller and predictor in spans when buf is
// non-nil.
func (e *simEnv) playSession(i, chunks int, buf *spanBuf) (sessionRec, error) {
	a := i % len(e.algs)
	kind, idx, tr := e.b.traceFor(e.pool, i)
	alg := e.algs[a]
	ctrl := alg.Factory(e.manifest)
	pred := alg.Predictor(tr)
	cfg := sim.Config{BufferMax: bufferMax, Horizon: horizon, Startup: alg.Startup, MaxChunks: chunks}
	var root, t0 int64
	if buf != nil {
		root, t0 = buf.begin()
		ctrl = &tracedCtrl{inner: ctrl, buf: buf, parent: root, kind: ctrlKind(alg.Name)}
		pred = &tracedPred{inner: pred, buf: buf, parent: root}
	}
	res, err := sim.Run(e.manifest, tr, ctrl, pred, cfg)
	if buf != nil {
		buf.end(root, 0, kindSimRun, t0)
	}
	if err != nil {
		return sessionRec{}, err
	}
	return sessionRec{key: sessionKey{a, kind, idx, chunks}, qoe: res.QoE(model.Balanced, model.QIdentity)}, nil
}

// ctrlKind is the span kind of a controller's Decide: the module it runs
// in.
func ctrlKind(alg string) spanKind {
	switch alg {
	case "RobustMPC":
		return kindCoreDecide
	case "FastMPC":
		return kindFastmpcDecide
	default:
		return kindAbrDecide
	}
}

// sessionOp returns an opFunc playing sessions of chunks chunks,
// appending each outcome to recs[w].
func (e *simEnv) sessionOp(recs [][]sessionRec, bufs []*spanBuf, offset, chunks int) opFunc {
	return func(w, i int) bool {
		e.b.tally.attempted.Add(1)
		rec, err := e.playSession(offset+i, chunks, bufs[w])
		if err != nil {
			e.b.tally.failed.Add(1)
			e.b.fail("session %d: %v", offset+i, err)
			return false
		}
		recs[w] = append(recs[w], rec)
		return true
	}
}

func runSim(b *bench, spec simSpec) error {
	e := &simEnv{b: b, spec: spec, pin: true}
	if b.traced {
		e.reg = obs.NewRegistry()
	}
	if err := b.repeatSetup(e.setup); err != nil {
		return err
	}
	recs := make([][]sessionRec, b.workers)
	noBufs := make([]*spanBuf, b.workers)
	var light, busy openResult
	before := goSnapshot()
	for r := 0; r < rounds; r++ {
		// Each phase of each round plays its own seed-derived sessions.
		light.add(openLoop(spec.light, b.phase(0.2)/rounds, b.workers, e.sessionOp(recs, noBufs, (2*r)<<22, spec.openChunks)))
		busy.add(openLoop(spec.busy, b.phase(0.2)/rounds, b.workers, e.sessionOp(recs, noBufs, (2*r+1)<<22, spec.openChunks)))
		if err := e.fleetRound(b.phase(0.6) / rounds); err != nil {
			return err
		}
	}
	b.setGo(before, goSnapshot(), light.Ops+busy.Ops+e.fleet.sessions)
	b.setOpen("light", light)
	b.setOpen("busy", busy)
	e.setFleet()
	if b.traced {
		if err := e.tracedSessions(recs, 500); err != nil {
			return err
		}
	}
	e.checkSessions(recs)
	return nil
}

// fleetTotals accumulates the closed-loop fleet batches of a run.
type fleetTotals struct {
	batches, sessions int
	chunks            int64
	wall              time.Duration
	inflight          []float64 // per-batch mean of the sampled gauge
	ref               []byte    // the first batch's report
}

// fleetRound runs fleet batches back to back for dur (at least one).
// Every batch of a run plays the same scenario, so every report must be
// byte-identical to the first, whose digest is pinned at the default
// seed; a batch that fails either check counts all its sessions wrong.
func (e *simEnv) fleetRound(dur time.Duration) error {
	b, t := e.b, &e.fleet
	deadline := time.Now().Add(dur)
	for n := 0; n < 1 || time.Now().Before(deadline); n++ {
		f := e.first
		e.first = nil
		if f == nil {
			var err error
			if f, err = e.newFleet(); err != nil {
				return err
			}
		}
		var smp *sampler
		if e.reg != nil {
			smp = startSampler(e.reg.Gauge(fleet.MetricInflight, "").Value)
		}
		t0 := time.Now()
		rep, err := f.Run(context.Background())
		t.wall += time.Since(t0)
		if smp != nil {
			mean, _ := smp.finish()
			t.inflight = append(t.inflight, mean)
		}
		if err != nil {
			return fmt.Errorf("fleet run: %w", err)
		}
		var batch int64
		for _, p := range rep.Populations {
			batch += int64(p.Sessions)
			b.tally.attempted.Add(int64(p.Sessions))
			b.tally.failed.Add(p.Errors + int64(p.Sessions) - p.Completed)
			if p.Launched != int64(p.Sessions) || p.Completed != int64(p.Sessions) || p.Errors != 0 {
				b.fail("fleet population %s: %d sessions, %d launched, %d completed, %d errors",
					p.Name, p.Sessions, p.Launched, p.Completed, p.Errors)
			}
			t.sessions += int(p.Completed)
			t.chunks += p.Chunks
		}
		js, err := rep.JSON()
		if err != nil {
			return err
		}
		if t.ref == nil {
			t.ref = js
			d := digest(js)
			fmt.Printf("fleet report digest %s (seed %d)\n", d, b.seed)
			if want := pinnedFleetDigests[b.workload]; e.pin && b.seed == defaultSeed && d != want {
				b.tally.wrong.Add(batch)
				b.fail("fleet report digest %s, pinned %s", d, want)
			}
		} else if string(js) != string(t.ref) {
			b.tally.wrong.Add(batch)
			b.fail("fleet batch %d report differs from the first batch of the same scenario", t.batches)
		}
		t.batches++
	}
	return nil
}

// setFleet records the closed-loop rates: sessions and per-chunk
// decisions completed per wall second of fleet.Run.
func (e *simEnv) setFleet() {
	t := &e.fleet
	fmt.Printf("fleet: %d batches, %d sessions in %.3fs\n", t.batches, t.sessions, t.wall.Seconds())
	e.b.set("sessions_per_s", float64(t.sessions)/t.wall.Seconds(), "1/s")
	e.b.set("decisions_per_s", float64(t.chunks)/t.wall.Seconds(), "1/s")
	if e.reg != nil {
		e.b.set("fleet.inflight_mean", median(t.inflight), "count")
		e.b.setHitRatio()
	}
}

// tracedSessions plays a fixed set of sessions on nproc workers, first
// untraced and then with spans around every controller and predictor
// call. The ratio of their wall times is the tracing overhead; the spans
// give the per-layer times.
func (e *simEnv) tracedSessions(recs [][]sessionRec, n int) error {
	b := e.b
	// Two alternating rounds of each, so neither side always runs first.
	var plain, traced time.Duration
	bufs := make([]*spanBuf, b.workers)
	for round := 0; round < 2; round++ {
		plain += closedLoop(0, n, b.workers, e.sessionOp(recs, make([]*spanBuf, b.workers), 1<<25, 0)).Elapsed
		for w := range bufs {
			bufs[w] = b.tracer.buf()
		}
		traced += closedLoop(0, n, b.workers, e.sessionOp(recs, bufs, 1<<25, 0)).Elapsed
	}
	b.set("loadgen.trace_overhead", traced.Seconds()/plain.Seconds(), "ratio")

	var spans []span
	for _, buf := range bufs {
		spans = append(spans, buf.spans...)
	}
	self := selfByLayer(spans)
	var sessionNs int64
	for _, s := range spans {
		if s.Parent == 0 {
			sessionNs += s.End - s.Start
		}
	}
	var chunks float64
	for _, a := range e.spec.algs {
		chunks += float64(len(durations(spans, ctrlKind(a))))
	}
	for layer, ns := range self {
		fmt.Printf("self %-10s %.4g ms (%.1f%% of session time)\n", layer, float64(ns)/1e6, 100*float64(ns)/float64(sessionNs))
	}
	b.set("core.self_share", float64(self["core"])/float64(sessionNs), "ratio")
	b.set("sim.self_us_per_chunk", float64(self["sim"])/1e3/chunks, "us")
	b.set("predictor.update_ns", float64(self["predictor"])/chunks, "ns")
	if plans := durations(spans, kindCoreDecide); len(plans) > 0 {
		d := summarize(plans)
		printDist("core.plan_us", d)
		b.set("core.plan_us_p50", d.P50, "us")
		b.set("core.plan_us_p99", d.Q(0.99), "us")
		b.set("core.plans", float64(d.N), "count")
	}
	return nil
}

// checkSessions replays every distinct session the phases played,
// sequentially and untraced, and requires each concurrent (and traced)
// outcome to match it exactly.
func (e *simEnv) checkSessions(recs [][]sessionRec) {
	ref := map[sessionKey]float64{}
	for _, rs := range recs {
		for _, r := range rs {
			want, ok := ref[r.key]
			if !ok {
				want = e.referenceQoE(r.key)
				ref[r.key] = want
			}
			if math.Float64bits(r.qoe) != math.Float64bits(want) {
				e.b.tally.wrong.Add(1)
				e.b.fail("session %+v: QoE %v, sequential replay %v", r.key, r.qoe, want)
			}
		}
	}
	fmt.Printf("session check: %d distinct sessions replayed\n", len(ref))
}

func (e *simEnv) referenceQoE(k sessionKey) float64 {
	alg := e.algs[k.alg]
	tr := e.pool[k.kind][k.idx]
	res, err := sim.Run(e.manifest, tr, alg.Factory(e.manifest), alg.Predictor(tr),
		sim.Config{BufferMax: bufferMax, Horizon: horizon, Startup: alg.Startup, MaxChunks: k.chunks})
	if err != nil {
		return math.NaN()
	}
	return res.QoE(model.Balanced, model.QIdentity)
}
