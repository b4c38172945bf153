package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpcdash/internal/abrsvc"
	"mpcdash/internal/fastmpc"
	"mpcdash/internal/model"
	"mpcdash/internal/predictor"
	"mpcdash/internal/trace"
)

// abrdSpec sizes one abrd workload. Rates are fixed so every commit sees
// the same offered load. Busy is about a third of the closed-loop capacity
// of nproc=2 connections in a slow stretch of a shared host: at half of
// it, such a stretch tipped the phase into overload.
type abrdSpec struct {
	churn    bool
	sessions int     // abrd-steady: sessions registered in setup
	light    float64 // open-loop ops/s (decides, or churn sessions)
	busy     float64
}

// churnDecides is how many decides one abrd-churn session makes between
// its register and delete calls.
const churnDecides = 8

// linkGroups is how many fairness link groups abrd-churn spreads over.
const linkGroups = 50

func runAbrdSteady(b *bench) error {
	return runAbrd(b, abrdSpec{sessions: 1000, light: 1000, busy: 4000})
}

// abrd-churn's open loop paces single calls (each worker steps its
// current session through register, decides and delete), so its rates
// count calls like abrd-steady's; its closed loop runs whole sessions.
func runAbrdChurn(b *bench) error {
	return runAbrd(b, abrdSpec{churn: true, light: 1000, busy: 4000})
}

// playSession is the client side of one viewer: a simulated player
// whose throughput samples come from its network trace and whose next
// request depends on the previous decision. It plays an endless CBR
// stream of the test video's chunks.
type playSession struct {
	key    int64 // unique within the run; keys the replica check
	id     string
	robust bool
	group  string // fairness link group, abrd-churn only
	tr     *trace.Trace
	chunk  int
	t      float64
	buffer float64
	prev   int
	sample float64
}

// request is the session's next decide call.
func (s *playSession) request() abrsvc.DecideRequest {
	req := abrsvc.DecideRequest{Session: s.id, Chunk: s.chunk, Buffer: s.buffer, PrevLevel: s.prev}
	if s.chunk > 0 {
		req.ThroughputSamples = []float64{s.sample}
	}
	return req
}

// advance downloads the decided chunk over the trace (Eq. 1–4).
func (s *playSession) advance(level int, m *model.Manifest) {
	size := m.ChunkSize(s.chunk%m.ChunkCount, level)
	dl := s.tr.DownloadTime(s.t, size)
	if s.chunk == 0 {
		s.buffer = dl // playback starts when the first chunk arrives
	}
	after := math.Max(s.buffer-dl, 0) + m.ChunkDuration
	wait := math.Max(after-bufferMax, 0)
	s.buffer = after - wait
	s.t += dl + wait
	s.sample = size / dl
	s.prev = level
	s.chunk++
}

// decideRec is one answered decide call: its inputs and the service's
// output, replayed against a local replica after the run. It holds no
// pointers, so the records of a whole run cost the garbage collector
// nothing to scan.
type decideRec struct {
	session                  int64 // playSession.key
	robust                   bool
	chunk, prev, level, echo int32 // echo is the chunk the response names
	buffer, sample           float64
	predicted, lower, fair   float64
}

// abrdEnv is an in-process abrd on 127.0.0.1:0 plus one client (and so
// one connection) per worker.
type abrdEnv struct {
	b        *bench
	spec     abrdSpec
	manifest *model.Manifest
	pool     tracePool
	srv      *abrsvc.Server
	clients  []*abrsvc.Client
	sess     [][]*playSession // abrd-steady: each worker's pinned sessions
	next     []int
	recs     [][]decideRec
	bufs     []*spanBuf     // per worker; nil entries record nothing
	traced   []*spanBuf     // every buffer the traced closed loop used
	cur      []*playSession // abrd-churn open loop: each worker's session
	keys     atomic.Int64
	ctx      context.Context
}

func newAbrdEnv(b *bench, spec abrdSpec) *abrdEnv {
	return &abrdEnv{
		b: b, spec: spec, ctx: context.Background(),
		recs: make([][]decideRec, b.workers),
		next: make([]int, b.workers),
		bufs: make([]*spanBuf, b.workers),
		cur:  make([]*playSession, b.workers),
	}
}

func (e *abrdEnv) setup() (setupTimes, error) {
	var st setupTimes
	e.close()
	t0 := time.Now()
	e.manifest = model.EnvivioManifest()
	e.pool = buildPool(e.b.seed, e.manifest.Duration())
	st.pool = time.Since(t0).Seconds()

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

	e.srv, err = abrsvc.New(abrsvc.Config{Fairness: e.spec.churn}).Start("127.0.0.1:0")
	if err != nil {
		return st, err
	}
	e.clients = make([]*abrsvc.Client, e.b.workers)
	for w := range e.clients {
		e.clients[w] = abrsvc.NewClient(e.srv.URL())
	}
	if err := e.register(); err != nil {
		return st, err
	}
	st.total = time.Since(t0).Seconds()
	return st, nil
}

// newSession starts a viewer for op i; every other one is robust, and in
// abrd-churn each joins one of linkGroups fairness groups.
func (e *abrdEnv) newSession(prefix string, i int, tr *trace.Trace) *playSession {
	key := e.keys.Add(1)
	s := &playSession{key: key, id: prefix + strconv.FormatInt(key, 10), robust: i%2 == 0, tr: tr, prev: -1}
	if e.spec.churn {
		s.group = "g" + strconv.Itoa(e.b.pick(i, 3, linkGroups))
	}
	return s
}

// register creates abrd-steady's resident sessions, half of them robust,
// each pinned to one worker's connection so its chunks arrive in order.
func (e *abrdEnv) register() error {
	e.sess = make([][]*playSession, e.b.workers)
	for w := range e.next {
		e.next[w] = 0
		e.recs[w] = e.recs[w][:0]
	}
	errs := make([]error, e.b.workers)
	var wg sync.WaitGroup
	for w := 0; w < e.b.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < e.spec.sessions; i += e.b.workers {
				_, _, tr := e.b.traceFor(e.pool, i)
				s := e.newSession("s", i, tr)
				if err := e.registerOne(w, s); err != nil {
					errs[w] = err
					return
				}
				e.sess[w] = append(e.sess[w], s)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (e *abrdEnv) registerOne(w int, s *playSession) error {
	req := abrsvc.SessionRequest{ID: s.id, Config: abrsvc.SessionConfig{Robust: s.robust, LinkGroup: s.group}}
	resp, err := e.clients[w].Register(e.ctx, req)
	if err != nil {
		return fmt.Errorf("register %s: %w", s.id, err)
	}
	if resp.Session != s.id || resp.Levels != e.manifest.Levels() {
		return fmt.Errorf("register %s: ack %+v", s.id, resp)
	}
	return nil
}

func (e *abrdEnv) close() {
	if e.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		e.b.fail("abrd shutdown: %v", err)
	}
	for _, c := range e.clients {
		c.CloseIdle()
	}
	e.srv = nil
}

// count classifies a failed call on the tally.
func (e *abrdEnv) count(err error) {
	var apiErr *abrsvc.APIError
	if errors.As(err, &apiErr) && apiErr.IsShed() {
		e.b.tally.shed.Add(1)
		return
	}
	e.b.tally.failed.Add(1)
	if e.b.tally.failed.Load() <= 3 {
		e.b.fail("abrd call failed: %v", err)
	}
}

// decide makes session s's next decide call on worker w's connection.
func (e *abrdEnv) decide(w int, s *playSession, parent int64) bool {
	e.b.tally.attempted.Add(1)
	req := s.request()
	buf := e.bufs[w]
	id, t0 := buf.begin()
	resp, err := e.clients[w].Decide(e.ctx, req)
	buf.end(id, parent, kindSvcDecide, t0)
	if err != nil {
		e.count(err)
		return false
	}
	e.recs[w] = append(e.recs[w], decideRec{
		session: s.key, robust: s.robust,
		chunk: int32(req.Chunk), prev: int32(req.PrevLevel), level: int32(resp.Level), echo: int32(resp.Chunk),
		buffer: req.Buffer, sample: s.sample,
		predicted: resp.PredictedKbps, lower: resp.LowerKbps, fair: resp.FairShareKbps,
	})
	if resp.Level < 0 || resp.Level >= e.manifest.Levels() {
		return false // the check counts it wrong; the session cannot play it
	}
	s.advance(resp.Level, e.manifest)
	return true
}

// op is one operation: a decide on the worker's next pinned session
// (abrd-steady), or a whole session's register, decides and delete
// (abrd-churn).
func (e *abrdEnv) op(w, i int) bool {
	if !e.spec.churn {
		ss := e.sess[w]
		s := ss[e.next[w]%len(ss)]
		e.next[w]++
		return e.decide(w, s, 0)
	}
	buf := e.bufs[w]
	root, t0 := buf.begin()
	defer func() { buf.end(root, 0, kindChurnSession, t0) }()
	_, _, tr := e.b.traceFor(e.pool, i)
	s := e.newSession("c", i, tr)
	e.b.tally.attempted.Add(1)
	id, t1 := buf.begin()
	err := e.registerOne(w, s)
	buf.end(id, root, kindSvcRegister, t1)
	if err != nil {
		e.count(err)
		return false
	}
	ok := true
	for k := 0; k < churnDecides && ok; k++ {
		ok = e.decide(w, s, root)
	}
	e.b.tally.attempted.Add(1)
	id, t1 = buf.begin()
	err = e.clients[w].Delete(e.ctx, s.id)
	buf.end(id, root, kindSvcDelete, t1)
	if err != nil {
		e.count(err)
		return false
	}
	return ok
}

// callOp is abrd-churn's open-loop op: the next call of worker w's
// current session — register, churnDecides decides, then delete. A failed
// decide is retried by the next op; a failed register or delete ends the
// session.
func (e *abrdEnv) callOp(w, i int) bool {
	s := e.cur[w]
	if s == nil {
		_, _, tr := e.b.traceFor(e.pool, i)
		s = e.newSession("o", i, tr)
		e.b.tally.attempted.Add(1)
		if err := e.registerOne(w, s); err != nil {
			e.count(err)
			return false
		}
		e.cur[w] = s
		return true
	}
	if s.chunk < churnDecides {
		return e.decide(w, s, 0)
	}
	e.cur[w] = nil
	e.b.tally.attempted.Add(1)
	if err := e.clients[w].Delete(e.ctx, s.id); err != nil {
		e.count(err)
		return false
	}
	return true
}

func runAbrd(b *bench, spec abrdSpec) error {
	e := newAbrdEnv(b, spec)
	defer e.close()
	if err := b.repeatSetup(e.setup); err != nil {
		return err
	}
	g := e.startGauges()
	reg := e.srv.Service.Registry()
	h0 := reg.Snapshot()
	before := goSnapshot()
	var light, busy openResult
	var closed closedResult
	openOp := e.op
	if spec.churn {
		openOp = e.callOp
	}
	for r := 0; r < rounds; r++ {
		light.add(openLoop(spec.light, b.phase(0.2)/rounds, b.workers, openOp))
		busy.add(openLoop(spec.busy, b.phase(0.2)/rounds, b.workers, openOp))
		closed.add(closedLoop(b.phase(0.6)/rounds, 0, b.workers, e.op))
	}
	b.setGo(before, goSnapshot(), light.Ops+busy.Ops+closed.Ops)
	e.setServiceHistograms(h0, reg.Snapshot())
	b.setOpen("light", light)
	b.setOpen("busy", busy)
	e.setRates(closed)
	if b.traced {
		if err := e.tracedClosed(b.phase(0.3), 0, closed); err != nil {
			return err
		}
	}
	e.finishGauges(g)
	return e.check()
}

// tracedClosed runs the closed loop again with spans around every client
// call: the client-side call times and the tracing overhead against the
// untraced closed loop plain. Then it times the handler and codec
// directly.
func (e *abrdEnv) tracedClosed(dur time.Duration, limit int, plain closedResult) error {
	b := e.b
	e.traceWorkers()
	traced := closedLoop(dur, limit, b.workers, e.op)
	e.untraceWorkers()
	b.set("loadgen.trace_overhead", plain.Rate()/traced.Rate(), "ratio")
	e.setSpanMetrics()
	if err := e.serviceProbes(); err != nil {
		return err
	}
	b.setHitRatio()
	return nil
}

func (e *abrdEnv) traceWorkers() {
	for w := range e.bufs {
		e.bufs[w] = e.b.tracer.buf()
		e.traced = append(e.traced, e.bufs[w])
	}
}

func (e *abrdEnv) untraceWorkers() {
	for w := range e.bufs {
		e.bufs[w] = nil
	}
}

// setRates records the closed-loop throughput. abrd-steady's sessions
// play an endless stream, so its sessions_per_s counts 65-decision video
// equivalents; every abrd-churn session makes exactly churnDecides
// decides.
func (e *abrdEnv) setRates(r closedResult) {
	if e.spec.churn {
		e.b.set("sessions_per_s", r.Rate(), "1/s")
		e.b.set("decisions_per_s", r.Rate()*churnDecides, "1/s")
	} else {
		e.b.set("decisions_per_s", r.Rate(), "1/s")
		e.b.set("sessions_per_s", r.Rate()/float64(e.manifest.ChunkCount), "1/s")
	}
	fmt.Printf("closed loop: %d ops in %.3fs, %.0f/s\n", r.Ops, r.Elapsed.Seconds(), r.Rate())
}

// gauges samples the service's in-flight and queued gauges.
type gauges struct{ inflight, queued *sampler }

func (e *abrdEnv) startGauges() gauges {
	if !e.b.traced {
		return gauges{}
	}
	reg := e.srv.Service.Registry()
	return gauges{
		inflight: startSampler(reg.Gauge(abrsvc.MetricInflight, "").Value),
		queued:   startSampler(reg.Gauge(abrsvc.MetricQueued, "").Value),
	}
}

// finishGauges records the sampled gauges and the shed count since the
// service started.
func (e *abrdEnv) finishGauges(g gauges) {
	if g.inflight == nil {
		return
	}
	reg := e.srv.Service.Registry()
	mean, _ := g.inflight.finish()
	_, qmax := g.queued.finish()
	e.b.set("abrsvc.inflight_mean", mean, "count")
	e.b.set("abrsvc.queued_max", qmax, "count")
	e.b.set("abrsvc.shed", float64(reg.Counter(abrsvc.MetricShedTotal, "").Value()), "count")
}

// setSpanMetrics reads the client-side call times of the traced phase.
func (e *abrdEnv) setSpanMetrics() {
	var spans []span
	for _, buf := range e.traced {
		spans = append(spans, buf.spans...)
	}
	rtt := summarize(durations(spans, kindSvcDecide))
	printDist("abrsvc.client_rtt_us", rtt)
	e.b.set("abrsvc.client_rtt_us_p50", rtt.P50, "us")
	e.b.set("abrsvc.client_rtt_us_p99", rtt.Q(0.99), "us")
	if e.spec.churn {
		reg, del := summarize(durations(spans, kindSvcRegister)), summarize(durations(spans, kindSvcDelete))
		printDist("abrsvc.register_us", reg)
		printDist("abrsvc.delete_us", del)
		e.b.set("abrsvc.register_us", reg.P50, "us")
		e.b.set("abrsvc.delete_us", del.P50, "us")
	}
}

// setServiceHistograms records the service's own request and decide
// latency, from the change in its histograms between two snapshots.
func (e *abrdEnv) setServiceHistograms(before, after map[string]any) {
	for _, h := range []struct{ metric, name string }{
		{abrsvc.MetricRequestSeconds, "abrsvc.request_us"},
		{abrsvc.MetricDecideSeconds, "abrsvc.decide_us"},
	} {
		bounds, counts := histDelta(before[h.metric], after[h.metric])
		e.b.set(h.name+"_p50", 1e6*histQuantile(bounds, counts, 0.5), "us")
		e.b.set(h.name+"_p99", 1e6*histQuantile(bounds, counts, 0.99), "us")
	}
}

// histDelta turns two Registry.Snapshot histogram entries into bucket
// upper bounds and the per-bucket counts observed between them.
func histDelta(before, after any) ([]float64, []float64) {
	cum := func(v any) map[string]uint64 {
		m, _ := v.(map[string]any)
		bk, _ := m["buckets"].(map[string]uint64)
		return bk
	}
	b0, b1 := cum(before), cum(after)
	var bounds []float64
	for k := range b1 {
		v, err := strconv.ParseFloat(k, 64)
		if err == nil {
			bounds = append(bounds, v)
		}
	}
	sort.Float64s(bounds)
	counts := make([]float64, len(bounds))
	var prev float64
	for i, bd := range bounds {
		k := strconv.FormatFloat(bd, 'g', -1, 64)
		if math.IsInf(bd, 1) {
			k = "+Inf"
		}
		c := float64(b1[k] - b0[k])
		counts[i] = c - prev
		prev = c
	}
	return bounds, counts
}

// histQuantile interpolates the p-quantile linearly inside the bucket
// holding it.
func histQuantile(bounds, counts []float64, p float64) float64 {
	var total float64
	for _, c := range counts {
		total += c
	}
	if total <= 0 {
		return math.NaN()
	}
	target, acc, lo := p*total, 0.0, 0.0
	for i, c := range counts {
		hi := bounds[i]
		if acc+c >= target && c > 0 {
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(target-acc)/c
		}
		acc += c
		if !math.IsInf(hi, 1) {
			lo = hi
		}
	}
	return lo
}

// serviceProbes times the decide handler called directly (no socket),
// the JSON codec round trip, and — outside abrd-churn, which measures
// them under load — one register and one delete call.
func (e *abrdEnv) serviceProbes() error {
	h := e.srv.Service.Handler()
	serve := func(method, path string, body any) (int, time.Duration, error) {
		var rd *bytes.Reader
		if body != nil {
			js, err := json.Marshal(body)
			if err != nil {
				return 0, 0, err
			}
			rd = bytes.NewReader(js)
		} else {
			rd = bytes.NewReader(nil)
		}
		req := httptest.NewRequest(method, path, rd)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		return rec.Code, time.Since(t0), nil
	}
	const n = 2000
	if code, _, err := serve(http.MethodPost, "/v1/session", abrsvc.SessionRequest{ID: "probe", Config: abrsvc.SessionConfig{Robust: true}}); err != nil || code != http.StatusOK {
		return fmt.Errorf("handler probe register: %d %v", code, err)
	}
	_, _, tr := e.b.traceFor(e.pool, 0)
	s := &playSession{id: "probe", robust: true, tr: tr, prev: -1}
	var handler []float64
	for k := 0; k < n; k++ {
		req := s.request()
		js, _ := json.Marshal(req)
		hreq := httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(js))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, hreq)
		handler = append(handler, us(time.Since(t0)))
		var resp abrsvc.DecideResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			return fmt.Errorf("handler probe decide: status %d", rec.Code)
		}
		s.advance(resp.Level, e.manifest)
	}
	if code, _, err := serve(http.MethodDelete, "/v1/session/probe", nil); err != nil || code != http.StatusNoContent {
		return fmt.Errorf("handler probe delete: %d %v", code, err)
	}
	hd := summarize(handler)
	printDist("abrsvc.handler_us", hd)
	e.b.set("abrsvc.handler_us", hd.P50, "us")
	if rtt, ok := e.b.metrics["abrsvc.client_rtt_us_p50"]; ok {
		e.b.set("abrsvc.hop_us", rtt.Value-hd.P50, "us")
		fmt.Printf("abrsvc stage sum: hop %.2f + handler %.2f = client rtt %.2f us\n", rtt.Value-hd.P50, hd.P50, rtt.Value)
	}

	// The codec round trip the client and handler each make per decide.
	req := s.request()
	resp := abrsvc.DecideResponse{Session: s.id, Chunk: s.chunk, Level: 3, BitrateKbps: 1850, PredictedKbps: 2103.5, LowerKbps: 1702.25}
	var codec []float64
	for k := 0; k < n/20; k++ {
		t0 := time.Now()
		for j := 0; j < 20; j++ {
			var r1 abrsvc.DecideRequest
			var r2 abrsvc.DecideResponse
			a, _ := json.Marshal(req)
			c, _ := json.Marshal(resp)
			if json.Unmarshal(a, &r1) != nil || json.Unmarshal(c, &r2) != nil || r1.Chunk != req.Chunk || r2.Level != resp.Level {
				return fmt.Errorf("codec probe: round trip changed the value")
			}
		}
		codec = append(codec, us(time.Since(t0))/20)
	}
	cd := summarize(codec)
	printDist("abrsvc.codec_us", cd)
	e.b.set("abrsvc.codec_us", cd.P50, "us")

	if !e.spec.churn {
		var regs, dels []float64
		for k := 0; k < 200; k++ {
			ps := &playSession{id: "probe-" + strconv.Itoa(k), tr: tr, prev: -1}
			t0 := time.Now()
			if err := e.registerOne(0, ps); err != nil {
				return err
			}
			t1 := time.Now()
			if err := e.clients[0].Delete(e.ctx, ps.id); err != nil {
				return err
			}
			regs = append(regs, us(t1.Sub(t0)))
			dels = append(dels, us(time.Since(t1)))
		}
		e.b.set("abrsvc.register_us", median(regs), "us")
		e.b.set("abrsvc.delete_us", median(dels), "us")
	}
	return nil
}

// check replays every recorded decide call through a local replica — a
// table built independently in a private registry plus an error-tracked
// harmonic-mean predictor per session fed the same samples — and counts
// each decision that differs as wrong. Fair-share caps depend on other
// sessions' timing, so the replica takes the cap the service reported
// and checks only that it was binding.
func (e *abrdEnv) check() error {
	opt, spec, err := newOptimizer(e.manifest)
	if err != nil {
		return err
	}
	table, err := fastmpc.NewRegistry().Table(opt, spec)
	if err != nil {
		return err
	}
	preds := map[int64]*predictor.ErrorTracked{}
	n := 0
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, rs := range e.recs {
		for _, r := range rs {
			p := preds[r.session]
			if p == nil {
				p = predictor.NewErrorTracked(predictor.NewHarmonicMean(5), 5)
				preds[r.session] = p
			}
			if r.chunk > 0 && r.sample > 0 {
				p.Observe(r.sample)
			}
			predicted := p.Predict(horizon)[0]
			rate, lower := predicted, 0.0
			if r.robust {
				if lb := p.LowerBound(horizon); lb[0] > 0 {
					rate, lower = lb[0], lb[0]
				}
			}
			ok := true
			if r.fair > 0 {
				ok = r.fair < rate
				rate = r.fair
			}
			level := table.Lookup(r.buffer, int(r.prev), rate)
			n++
			if !ok || level != int(r.level) || !same(r.predicted, predicted) || !same(r.lower, lower) || r.echo != r.chunk {
				e.b.tally.wrong.Add(1)
				if e.b.tally.wrong.Load() <= 3 {
					e.b.fail("decide of session %d chunk %d: service level %d (pred %v lower %v fair %v), replica %d (pred %v lower %v)",
						r.session, r.chunk, r.level, r.predicted, r.lower, r.fair, level, predicted, lower)
				}
			}
		}
	}
	fmt.Printf("decide check: %d decisions of %d sessions replayed\n", n, len(preds))
	return nil
}
