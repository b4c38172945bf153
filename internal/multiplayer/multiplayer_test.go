package multiplayer

import (
	"math"
	"testing"

	"mpcdash/internal/abr"
	"mpcdash/internal/core"
	"mpcdash/internal/model"
	"mpcdash/internal/predictor"
	"mpcdash/internal/trace"
)

func shortVideo(t *testing.T) *model.Manifest {
	t.Helper()
	m, err := model.NewCBRManifest(model.EnvivioLadder(), 15, 4)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func constLink(t *testing.T, kbps float64) *trace.Trace {
	t.Helper()
	tr, err := trace.FromRates("link", 1000, []float64{kbps})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func rbPlayer(name string, m *model.Manifest) Player {
	return Player{
		Name:       name,
		Controller: abr.NewRB(1)(m),
		Predictor:  predictor.NewHarmonicMean(5),
	}
}

func TestRunValidation(t *testing.T) {
	m := shortVideo(t)
	link := constLink(t, 2000)
	if _, err := Run(m, link, []Player{rbPlayer("a", m)}, Config{BufferMax: 0}); err == nil {
		t.Error("zero buffer should fail")
	}
	if _, err := Run(m, link, nil, Config{BufferMax: 30}); err == nil {
		t.Error("no players should fail")
	}
	dead, err := trace.FromRates("dead", 10, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(m, dead, []Player{rbPlayer("a", m)}, Config{BufferMax: 30}); err == nil {
		t.Error("dead link should fail")
	}
}

func TestSinglePlayerCompletes(t *testing.T) {
	m := shortVideo(t)
	res, err := Run(m, constLink(t, 2000), []Player{rbPlayer("solo", m)}, Config{BufferMax: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sessions) != 1 || len(res.Sessions[0].Chunks) != m.ChunkCount {
		t.Fatalf("session incomplete: %d chunks", len(res.Sessions[0].Chunks))
	}
	if res.JainIndex != 1 {
		t.Errorf("single player Jain = %v, want 1", res.JainIndex)
	}
	// A lone downloader on an ample link should measure close to the full
	// link rate.
	mid := res.Sessions[0].Chunks[5]
	if mid.Throughput < 1500 || mid.Throughput > 2100 {
		t.Errorf("solo throughput %v, want ≈2000", mid.Throughput)
	}
}

func TestTwoPlayersShareFairly(t *testing.T) {
	m := shortVideo(t)
	players := []Player{rbPlayer("a", m), rbPlayer("b", m)}
	res, err := Run(m, constLink(t, 3000), players, Config{BufferMax: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.JainIndex < 0.9 {
		t.Errorf("identical players should share fairly: Jain = %v", res.JainIndex)
	}
	// While both are downloading each sees about half the link.
	early := res.Sessions[0].Chunks[1]
	if early.Throughput > 2200 {
		t.Errorf("shared throughput %v too high for a 3000 kbps link with 2 players", early.Throughput)
	}
	for _, sr := range res.Sessions {
		if len(sr.Chunks) != m.ChunkCount {
			t.Fatalf("%s incomplete: %d chunks", sr.Algorithm, len(sr.Chunks))
		}
	}
}

// TestSoloVsShared: adding a competitor must not increase a player's
// average bitrate.
func TestSoloVsShared(t *testing.T) {
	m := shortVideo(t)
	link := constLink(t, 2500)
	solo, err := Run(m, link, []Player{rbPlayer("a", m)}, Config{BufferMax: 30})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Run(m, link, []Player{rbPlayer("a", m), rbPlayer("b", m)}, Config{BufferMax: 30})
	if err != nil {
		t.Fatal(err)
	}
	soloAvg := solo.Sessions[0].ComputeMetrics(model.QIdentity).AvgBitrate
	sharedAvg := shared.Sessions[0].ComputeMetrics(model.QIdentity).AvgBitrate
	if sharedAvg > soloAvg+1e-9 {
		t.Errorf("sharing increased bitrate: solo %v vs shared %v", soloAvg, sharedAvg)
	}
}

func TestStartOffsets(t *testing.T) {
	m := shortVideo(t)
	players := []Player{rbPlayer("early", m), rbPlayer("late", m)}
	players[1].StartOffset = 20
	res, err := Run(m, constLink(t, 2000), players, Config{BufferMax: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions[1].Chunks[0].StartTime < 20 {
		t.Errorf("late player started at %v, want ≥20", res.Sessions[1].Chunks[0].StartTime)
	}
}

func TestBufferCapRespected(t *testing.T) {
	m := shortVideo(t)
	res, err := Run(m, constLink(t, 20000), []Player{rbPlayer("fast", m)}, Config{BufferMax: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Sessions[0].Chunks {
		if c.BufferAfter > 12+1e-6 {
			t.Errorf("chunk %d buffer %v exceeds cap", c.Index, c.BufferAfter)
		}
	}
}

func TestUndersizedLinkStalls(t *testing.T) {
	m := shortVideo(t)
	// Two players on a link that cannot sustain even two lowest-rate
	// streams: 500 kbps shared vs 2×350.
	players := []Player{rbPlayer("a", m), rbPlayer("b", m)}
	res, err := Run(m, constLink(t, 500), players, Config{BufferMax: 30})
	if err != nil {
		t.Fatal(err)
	}
	var stall float64
	for _, sr := range res.Sessions {
		stall += sr.ComputeMetrics(model.QIdentity).RebufferTime
	}
	if stall <= 0 {
		t.Error("expected stalls on a starved shared link")
	}
}

// TestMPCPlayersCoexist: the shared-link loop must handle MPC controllers
// (with error-tracked predictors) without deadlock and deliver full
// sessions.
func TestMPCPlayersCoexist(t *testing.T) {
	m := shortVideo(t)
	mk := func(name string) Player {
		return Player{
			Name:       name,
			Controller: core.NewRobustMPC(model.Balanced, model.QIdentity, 30, 5)(m),
			Predictor:  predictor.NewErrorTracked(predictor.NewHarmonicMean(5), 5),
		}
	}
	res, err := Run(m, constLink(t, 4000), []Player{mk("a"), mk("b")}, Config{BufferMax: 30})
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range res.Sessions {
		if len(sr.Chunks) != m.ChunkCount {
			t.Fatalf("%s incomplete", sr.Algorithm)
		}
		qoe := sr.QoE(model.Balanced, model.QIdentity)
		if math.IsNaN(qoe) || math.IsInf(qoe, 0) {
			t.Fatalf("QoE = %v", qoe)
		}
	}
	if res.Utilization <= 0 || res.Utilization > 1.05 {
		t.Errorf("utilization = %v", res.Utilization)
	}
}

func TestJain(t *testing.T) {
	if got := jain([]float64{100, 100, 100}); math.Abs(got-1) > 1e-9 {
		t.Errorf("equal shares Jain = %v", got)
	}
	if got := jain([]float64{100, 0, 0, 0}); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("max skew Jain = %v, want 0.25", got)
	}
	if got := jain(nil); got != 0 {
		t.Errorf("empty Jain = %v", got)
	}
	if got := jain([]float64{0, 0}); got != 1 {
		t.Errorf("all-zero Jain = %v, want 1", got)
	}
}

// TestSteadyStateChunkPeriod: a lone BB player on a constant 10 Mbps link
// fills its buffer and then waits Eq. (4)'s Δt after every chunk, so in
// steady state it requests one 4 s chunk per 4 s of simulated time, as
// sim.Run does. Draining the buffer during the wait as well made it
// request one every ~2.6 s.
func TestSteadyStateChunkPeriod(t *testing.T) {
	m := model.EnvivioManifest()
	p := Player{Name: "bb", Controller: abr.NewBB(5, 10)(m), Predictor: predictor.NewHarmonicMean(5)}
	res, err := Run(m, constLink(t, 10000), []Player{p}, Config{BufferMax: 30})
	if err != nil {
		t.Fatal(err)
	}
	chunks := res.Sessions[0].Chunks
	first, last := chunks[30], chunks[len(chunks)-1]
	if first.Wait <= 0 {
		t.Fatalf("chunk 30 waited %v s; the buffer should be full by then", first.Wait)
	}
	period := (last.StartTime - first.StartTime) / float64(last.Index-first.Index)
	if math.Abs(period-m.ChunkDuration) > 0.05 {
		t.Errorf("steady-state request period = %.3f s, want %.1f s", period, m.ChunkDuration)
	}
}
