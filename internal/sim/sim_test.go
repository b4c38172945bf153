package sim

import (
	"math"
	"testing"
	"testing/quick"

	"mpcdash/internal/abr"
	"mpcdash/internal/model"
	"mpcdash/internal/predictor"
	"mpcdash/internal/trace"
)

func constTrace(t *testing.T, kbps, dur float64) *trace.Trace {
	t.Helper()
	tr, err := trace.FromRates("const", dur, []float64{kbps})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunFixedLowestNoRebuffer(t *testing.T) {
	m := model.EnvivioManifest()
	// 1000 kbps link, lowest level is 350 kbps: downloads at 1.4 s per 4 s
	// chunk, so after the first chunk the buffer only grows.
	tr := constTrace(t, 1000, 400)
	res, err := Run(m, tr, abr.NewFixed(0)(m), predictor.NewHarmonicMean(5), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chunks) != 65 {
		t.Fatalf("chunks = %d, want 65", len(res.Chunks))
	}
	// Startup = first chunk download time = 1400/1000.
	if math.Abs(res.StartupDelay-1.4) > 1e-9 {
		t.Errorf("StartupDelay = %v, want 1.4", res.StartupDelay)
	}
	for _, c := range res.Chunks {
		if c.Rebuffer != 0 {
			t.Errorf("chunk %d rebuffered %v s", c.Index, c.Rebuffer)
		}
		if math.Abs(c.DownloadTime-1.4) > 1e-9 {
			t.Errorf("chunk %d download = %v, want 1.4", c.Index, c.DownloadTime)
		}
		if math.Abs(c.Throughput-1000) > 1e-9 {
			t.Errorf("chunk %d throughput = %v, want 1000", c.Index, c.Throughput)
		}
	}
}

func TestRunBufferCapAndWait(t *testing.T) {
	m := model.EnvivioManifest()
	tr := constTrace(t, 10000, 400) // very fast link
	res, err := Run(m, tr, abr.NewFixed(0)(m), predictor.NewHarmonicMean(5), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sawWait bool
	for _, c := range res.Chunks {
		if c.BufferAfter > 30+1e-9 {
			t.Errorf("chunk %d buffer %v exceeds Bmax", c.Index, c.BufferAfter)
		}
		if c.Wait > 0 {
			sawWait = true
		}
	}
	if !sawWait {
		t.Error("fast link should trigger buffer-full waits (Eq. 4)")
	}
	// Steady state: each cycle the player downloads one 4 s chunk; with the
	// buffer pinned at Bmax the wait must make the cycle exactly 4 s.
	last := res.Chunks[len(res.Chunks)-1]
	if math.Abs(last.DownloadTime+last.Wait-m.ChunkDuration) > 1e-6 {
		t.Errorf("steady cycle = %v, want %v", last.DownloadTime+last.Wait, m.ChunkDuration)
	}
}

func TestRunRebuffering(t *testing.T) {
	m := model.EnvivioManifest()
	// 350 kbps chunks over a 200 kbps link: every chunk takes 7 s for 4 s
	// of content; rebuffering is inevitable.
	tr := constTrace(t, 200, 400)
	res, err := Run(m, tr, abr.NewFixed(0)(m), predictor.NewHarmonicMean(5), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	metrics := res.ComputeMetrics(model.QIdentity)
	if metrics.RebufferTime <= 0 {
		t.Error("expected rebuffering on an undersized link")
	}
	// Per-chunk: 7 s download, 4 s of buffer → 3 s stall each steady chunk.
	mid := res.Chunks[30]
	if math.Abs(mid.Rebuffer-3) > 1e-6 {
		t.Errorf("steady rebuffer = %v, want 3", mid.Rebuffer)
	}
}

func TestStartupPolicies(t *testing.T) {
	m := model.EnvivioManifest()
	tr := constTrace(t, 1000, 400)
	pred := func() predictor.Predictor { return predictor.NewHarmonicMean(5) }

	cfg := DefaultConfig()
	cfg.Startup = StartupFixed
	cfg.FixedStartup = 7.5
	res, err := Run(m, tr, abr.NewFixed(0)(m), pred(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StartupDelay != 7.5 {
		t.Errorf("fixed startup = %v, want 7.5", res.StartupDelay)
	}
	if res.Chunks[0].BufferBefore != 7.5 {
		t.Errorf("B1 = %v, want Ts = 7.5", res.Chunks[0].BufferBefore)
	}
	if res.Chunks[0].Rebuffer != 0 {
		t.Errorf("chunk 0 rebuffer = %v, want 0 (dl 1.4 < Ts 7.5)", res.Chunks[0].Rebuffer)
	}

	cfg.Startup = StartupController
	// Fixed controller reports defaultStartup = size/rate; with a cold
	// harmonic predictor the fallback is one chunk duration.
	res, err = Run(m, tr, abr.NewFixed(0)(m), pred(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StartupDelay != m.ChunkDuration {
		t.Errorf("controller startup = %v, want %v", res.StartupDelay, m.ChunkDuration)
	}
}

func TestRunValidation(t *testing.T) {
	m := model.EnvivioManifest()
	tr := constTrace(t, 1000, 400)
	cfg := DefaultConfig()
	cfg.BufferMax = 0
	if _, err := Run(m, tr, abr.NewFixed(0)(m), predictor.NewHarmonicMean(5), cfg); err == nil {
		t.Error("expected error for zero BufferMax")
	}
}

func TestRunDeadLink(t *testing.T) {
	m := model.EnvivioManifest()
	tr, err := trace.FromRates("dead", 10, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(m, tr, abr.NewFixed(0)(m), predictor.NewHarmonicMean(5), DefaultConfig()); err == nil {
		t.Error("expected error for an all-zero trace")
	}
}

// TestBufferDynamicsInvariants property-checks Eq. (3)/(4) over random
// traces and algorithms: buffers stay in [0, Bmax], rebuffer and wait are
// non-negative, chunk times are consistent.
func TestBufferDynamicsInvariants(t *testing.T) {
	m := model.EnvivioManifest()
	f := func(seed int64, algPick uint8) bool {
		tr := trace.GenHSDPA(seed, m.Duration()+120)
		var factory abr.Factory
		switch algPick % 3 {
		case 0:
			factory = abr.NewRB(1)
		case 1:
			factory = abr.NewBB(5, 10)
		default:
			factory = abr.NewFESTIVE(12, 1, 5)
		}
		res, err := Run(m, tr, factory(m), predictor.NewHarmonicMean(5), DefaultConfig())
		if err != nil {
			return false
		}
		prevEnd := 0.0
		for _, c := range res.Chunks {
			if c.BufferBefore < -1e-9 || c.BufferAfter < -1e-9 || c.BufferAfter > 30+1e-9 {
				return false
			}
			if c.Rebuffer < 0 || c.Wait < 0 || c.DownloadTime < 0 {
				return false
			}
			if c.StartTime+1e-9 < prevEnd {
				return false // time went backwards
			}
			prevEnd = c.StartTime + c.DownloadTime + c.Wait
			// Eq. (3): B_{k+1} = (B_k − dl)+ + L − Δt.
			want := math.Max(c.BufferBefore-c.DownloadTime, 0) + m.ChunkDuration - c.Wait
			if math.Abs(want-c.BufferAfter) > 1e-6 {
				return false
			}
			// Rebuffer: (dl − B_k)+.
			if math.Abs(c.Rebuffer-math.Max(c.DownloadTime-c.BufferBefore, 0)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestChunkRecordChaining: BufferAfter of chunk k equals BufferBefore of
// chunk k+1, and session time advances by download + wait.
func TestChunkRecordChaining(t *testing.T) {
	m := model.EnvivioManifest()
	tr := trace.GenFCC(3, m.Duration()+60)
	res, err := Run(m, tr, abr.NewBB(5, 10)(m), predictor.NewHarmonicMean(5), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Chunks); i++ {
		prev, cur := res.Chunks[i-1], res.Chunks[i]
		if math.Abs(prev.BufferAfter-cur.BufferBefore) > 1e-9 {
			t.Fatalf("chunk %d: BufferAfter %v != next BufferBefore %v", i-1, prev.BufferAfter, cur.BufferBefore)
		}
		if math.Abs(prev.StartTime+prev.DownloadTime+prev.Wait-cur.StartTime) > 1e-9 {
			t.Fatalf("chunk %d: time chain broken", i-1)
		}
	}
}

// TestRunVBRSession: VBR chunk sizes flow through the simulator — download
// times vary across chunks even at a fixed level on a constant link.
func TestRunVBRSession(t *testing.T) {
	m, err := model.NewVBRManifest(model.EnvivioLadder(), 40, 4, 0.4, 9)
	if err != nil {
		t.Fatal(err)
	}
	tr := constTrace(t, 2000, 400)
	res, err := Run(m, tr, abr.NewFixed(1)(m), predictor.NewHarmonicMean(5), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	distinct := false
	for i := 1; i < len(res.Chunks); i++ {
		if math.Abs(res.Chunks[i].DownloadTime-res.Chunks[0].DownloadTime) > 1e-9 {
			distinct = true
		}
		if want := m.ChunkSize(i, 1); math.Abs(res.Chunks[i].SizeKbits-want) > 1e-9 {
			t.Fatalf("chunk %d size %v, want %v", i, res.Chunks[i].SizeKbits, want)
		}
	}
	if !distinct {
		t.Error("VBR session has uniform download times")
	}
}

// TestHorizonPassedToPredictor: the configured horizon reaches Predict.
func TestHorizonPassedToPredictor(t *testing.T) {
	m := model.EnvivioManifest()
	tr := constTrace(t, 1500, 400)
	spy := &horizonSpy{inner: predictor.NewHarmonicMean(5)}
	cfg := DefaultConfig()
	cfg.Horizon = 7
	if _, err := Run(m, tr, abr.NewRB(1)(m), spy, cfg); err != nil {
		t.Fatal(err)
	}
	if spy.sawN != 7 {
		t.Errorf("predictor asked for %d steps, want 7", spy.sawN)
	}
}

type horizonSpy struct {
	inner predictor.Predictor
	sawN  int
}

func (h *horizonSpy) Name() string         { return "spy" }
func (h *horizonSpy) Observe(kbps float64) { h.inner.Observe(kbps) }
func (h *horizonSpy) Predict(n int) []float64 {
	h.sawN = n
	return h.inner.Predict(n)
}

// MaxChunks truncates the session to an exact prefix of the full run —
// the simulator is sequential, so early chunks are unaffected by the cut.
func TestRunMaxChunksIsExactPrefix(t *testing.T) {
	m := model.EnvivioManifest()
	tr := trace.GenHSDPA(21, m.Duration()+120)
	full, err := Run(m, tr, abr.NewBB(5, 10)(m), predictor.NewHarmonicMean(5), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxChunks = 12
	short, err := Run(m, tr, abr.NewBB(5, 10)(m), predictor.NewHarmonicMean(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(short.Chunks) != 12 {
		t.Fatalf("chunks = %d, want 12", len(short.Chunks))
	}
	for i := range short.Chunks {
		a, b := short.Chunks[i], full.Chunks[i]
		if a.Level != b.Level || a.DownloadTime != b.DownloadTime ||
			a.Rebuffer != b.Rebuffer || a.BufferAfter != b.BufferAfter {
			t.Fatalf("chunk %d differs from full session: %+v vs %+v", i, a, b)
		}
	}
	// MaxChunks beyond the video is a no-op.
	cfg.MaxChunks = 1000
	again, err := Run(m, tr, abr.NewBB(5, 10)(m), predictor.NewHarmonicMean(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Chunks) != m.ChunkCount {
		t.Errorf("chunks = %d, want full video %d", len(again.Chunks), m.ChunkCount)
	}
}

// AbandonRebuffer ends the session once cumulative stalls cross the
// threshold; the last recorded chunk is the one that pushed it over.
func TestRunAbandonOnRebuffer(t *testing.T) {
	m := model.EnvivioManifest()
	// 200 kbps link under 350 kbps chunks: ~3 s stall per steady chunk.
	tr := constTrace(t, 200, 400)
	cfg := DefaultConfig()
	cfg.AbandonRebuffer = 10
	res, err := Run(m, tr, abr.NewFixed(0)(m), predictor.NewHarmonicMean(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chunks) >= m.ChunkCount {
		t.Fatalf("session not abandoned: played all %d chunks", len(res.Chunks))
	}
	var cum float64
	for i, c := range res.Chunks {
		cum += c.Rebuffer
		if cum >= cfg.AbandonRebuffer && i != len(res.Chunks)-1 {
			t.Fatalf("threshold crossed at chunk %d but session ran to %d", i, len(res.Chunks)-1)
		}
	}
	if cum < cfg.AbandonRebuffer {
		t.Fatalf("session ended with %v s of stalls, below the %v s threshold", cum, cfg.AbandonRebuffer)
	}
}

// TestRunAllocsIndependentOfLength pins the per-chunk path at zero heap
// allocations: with the buffer-based controller and the error-tracked
// harmonic-mean predictor, a 65-chunk session allocates exactly as often
// as a 10-chunk one (the session log is sized up front, the predictor
// reuses its windows and forecast buffers, the trace integration and the
// solver stopwatch allocate nothing).
func TestRunAllocsIndependentOfLength(t *testing.T) {
	m := model.EnvivioManifest()
	tr := trace.GenHSDPA(7, m.Duration())
	allocs := func(chunks int) float64 {
		cfg := DefaultConfig()
		cfg.MaxChunks = chunks
		return testing.AllocsPerRun(20, func() {
			pred := predictor.NewErrorTracked(predictor.NewHarmonicMean(5), 5)
			if _, err := Run(m, tr, abr.NewBB(5, 10)(m), pred, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, full := allocs(10), allocs(m.ChunkCount)
	if short != full {
		t.Fatalf("allocations grow with session length: %v for 10 chunks, %v for %d", short, full, m.ChunkCount)
	}
	t.Logf("%v allocations per session", full)
}
