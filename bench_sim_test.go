// Simulator per-chunk cost report: sim.Run with the two lookup-class
// controllers (FastMPC and BB), where the simulator's own loop, the trace
// integration and the predictor set the cost rather than the solver.
// TestSimPerformance writes BENCH_sim.json under `make bench-sim`; plain
// `go test` plays a short pass, asserts the allocation rule and writes
// nothing.
package mpcdash_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"mpcdash/internal/model"
	"mpcdash/internal/runner"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

// TestSimPerformance plays full Envivio sessions of FastMPC and BB (each
// with its standard harmonic-mean predictor) over a seeded pool of FCC and
// HSDPA traces, one goroutine, and reports nanoseconds per chunk (building
// each session's controller and predictor included) and heap allocations
// per session. Plain `go test` plays a 20-trace pool once; under
// `make bench-sim` each of five runs plays a 100-trace pool 200 times per
// algorithm and BENCH_sim.json records the median and range of the five
// runs. Either way the test asserts the allocation rule: a session
// allocates as often over 10 chunks as over all 65, so the per-chunk path
// allocates nothing.
func TestSimPerformance(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark report; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews the timings; BENCH_sim.json is generated without -race")
	}
	m := model.EnvivioManifest()
	perKind, passes, runs := 10, 1, 1
	if os.Getenv(writeBenchEnv) != "" {
		perKind, passes, runs = 50, 200, 5
	}
	pool := append(trace.Dataset(trace.FCC, perKind, m.Duration(), 1),
		trace.Dataset(trace.HSDPA, perKind, m.Duration(), 1)...)
	byName := map[string]runner.Algorithm{}
	for _, a := range runner.StandardSet(model.Balanced, model.QIdentity, 30, 5) {
		byName[a.Name] = a
	}

	report := benchMeta()
	report["benchmark"] = "sim.Run of full Envivio 65x4s sessions, one goroutine, over a seeded pool of FCC and HSDPA traces; FastMPC (table built before timing) and BB, each with its harmonic-mean predictor"
	report["command"] = "make bench-sim"
	report["traces"] = len(pool)
	report["runs"] = runs
	for _, name := range []string{"FastMPC", "BB"} {
		alg := byName[name]
		play := func(tr *trace.Trace, chunks int) {
			cfg := sim.DefaultConfig()
			cfg.Startup = alg.Startup
			cfg.MaxChunks = chunks
			if _, err := sim.Run(m, tr, alg.Factory(m), alg.Predictor(tr), cfg); err != nil {
				t.Fatal(err)
			}
		}
		play(pool[0], 0) // builds and caches the FastMPC table
		short := testing.AllocsPerRun(10, func() { play(pool[0], 10) })
		full := testing.AllocsPerRun(10, func() { play(pool[0], 0) })
		if short != full {
			t.Errorf("%s: a session allocates %v times over 10 chunks but %v over %d; the per-chunk path must not allocate",
				name, short, full, m.ChunkCount)
		}

		var nsPerChunk, allocsPerSession []float64
		for r := 0; r < runs; r++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			for p := 0; p < passes; p++ {
				for _, tr := range pool {
					play(tr, 0)
				}
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			sessions := float64(passes * len(pool))
			nsPerChunk = append(nsPerChunk, float64(elapsed.Nanoseconds())/(sessions*float64(m.ChunkCount)))
			allocsPerSession = append(allocsPerSession, float64(after.Mallocs-before.Mallocs)/sessions)
		}
		t.Logf("%s: %.0f ns/chunk median, %.0f allocs/session (%v at 10 chunks, %v at %d)",
			name, median(nsPerChunk), median(allocsPerSession), short, full, m.ChunkCount)
		report[name] = map[string]any{
			"sessions_per_run":   passes * len(pool),
			"ns_per_chunk":       spread(nsPerChunk),
			"allocs_per_session": spread(allocsPerSession),
		}
	}
	report["budget"] = "a session's allocation count is independent of its length (10 vs 65 chunks), for both controllers"
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	writeBenchReport(t, "BENCH_sim.json", b)
}
