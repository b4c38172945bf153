// Fleet throughput report: cmd/fleet's built-in demo scenario on the sim
// backend. TestFleetPerformance writes BENCH_fleet.json under
// `make bench-fleet`; plain `go test` plays a small run and writes nothing.
package mpcdash_test

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"mpcdash/internal/fleet"
)

// TestFleetPerformance plays fleet.DefaultScenario, the scenario
// `cmd/fleet -sessions N` runs without -scenario: half RobustMPC, half
// buffer-based sessions over an FCC+HSDPA trace pool, each population
// arriving as a Poisson process at 2,000 sessions/s, so a run takes at
// least N/4,000 s of wall time whatever the solver costs. Under
// `make bench-fleet` it plays 10,000 sessions five times and
// records the spread of sessions/s in BENCH_fleet.json. Every run must
// complete every session without error.
func TestFleetPerformance(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark report; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews the timings; BENCH_fleet.json is generated without -race")
	}
	sessions, runs := 1000, 1
	if os.Getenv(writeBenchEnv) != "" {
		sessions, runs = 10000, 5
	}
	var wall, rate []float64
	for r := 0; r < runs; r++ {
		f, err := fleet.New(fleet.DefaultScenario(sessions), fleet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		rep, err := f.Run(context.Background())
		elapsed := time.Since(start).Seconds()
		if err != nil {
			t.Fatal(err)
		}
		var completed, errs int64
		for _, p := range rep.Populations {
			completed += p.Completed
			errs += p.Errors
		}
		if completed != int64(sessions) || errs != 0 {
			t.Fatalf("run %d: %d of %d sessions completed, %d errors", r, completed, sessions, errs)
		}
		wall = append(wall, elapsed)
		rate = append(rate, float64(completed)/elapsed)
	}
	t.Logf("%d sessions × %d runs: %.0f sessions/s median (wall %.2f s)", sessions, runs, median(rate), median(wall))

	report := benchMeta()
	report["benchmark"] = "cmd/fleet built-in demo scenario (fleet.DefaultScenario), sim backend: RobustMPC and BB populations, Envivio 65x4s video, fcc+hsdpa trace pool, Poisson arrivals at 2,000/s per population"
	report["command"] = "make bench-fleet"
	report["sessions"] = sessions
	report["runs"] = runs
	report["sessions_per_sec"] = spread(rate)
	report["wall_sec"] = spread(wall)
	report["budget"] = "every session completes without error; peak heap independent of session count is enforced by TestFleetMemoryIndependentOfSessionCount"
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	writeBenchReport(t, "BENCH_fleet.json", b)
}
