// Solver hot-path benchmarks (the tentpole budget): per-chunk decision
// latency and allocations for the exact MPC solver, and cold-vs-warm
// FastMPC table acquisition through the content-addressed cache.
// TestSolverPerformance writes the measured numbers to BENCH_solver.json
// under `make bench-solver` and asserts the two hard budgets: the
// steady-state scratch path allocates nothing, and a warm disk cache is
// faster than an offline rebuild.
package mpcdash_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mpcdash/internal/abr"
	"mpcdash/internal/core"
	"mpcdash/internal/fastmpc"
	"mpcdash/internal/model"
	"mpcdash/internal/predictor"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

// raceEnabled is set by race_enabled_test.go under `go test -race`.
var raceEnabled bool

// writeBenchEnv is set by the `make bench-*` targets. Only then do the
// performance tests rewrite their tracked BENCH_*.json reports; plain
// `go test` asserts the same budgets and leaves the files alone, so a
// report records one deliberate run rather than whichever machine ran the
// suite last.
const writeBenchEnv = "MPCDASH_WRITE_BENCH"

// writeBenchReport writes report to the named BENCH file when writeBenchEnv
// is set.
func writeBenchReport(t *testing.T, name string, report []byte) {
	t.Helper()
	if os.Getenv(writeBenchEnv) == "" {
		t.Logf("%s left as is; set %s=1 (make bench-*) to record this run", name, writeBenchEnv)
		return
	}
	if err := os.WriteFile(name, append(report, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// benchMeta returns the fields every BENCH report starts from: the
// platform, Go version, GOMAXPROCS and the commit measured (with -dirty
// when the working tree has uncommitted changes).
func benchMeta() map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"host":       runtime.GOOS + "/" + runtime.GOARCH + ", " + strconv.Itoa(runtime.NumCPU()) + " CPUs",
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"commit":     commit,
	}
}

// median returns the median of xs (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread summarizes repeated measurements as their median and range.
func spread(xs []float64) map[string]float64 {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return map[string]float64{"median": median(xs), "min": lo, "max": hi}
}

func solverOptimizer(b testing.TB) *core.Optimizer {
	opt, err := core.NewOptimizer(model.EnvivioManifest(), model.Balanced, model.QIdentity, 30, 5)
	if err != nil {
		b.Fatal(err)
	}
	return opt
}

// solverSpec is the paper's full 100×100 binning over the Envivio ladder.
func solverSpec() fastmpc.BinSpec {
	return fastmpc.DefaultBins(30, 3000)
}

func solverState() abr.State {
	return abr.State{Chunk: 30, Buffer: 14.2, Prev: 2, Forecast: []float64{1740, 1740, 1740, 1740, 1740}}
}

// BenchmarkSolver_PlanScratchSteadyState is the per-chunk decision with an
// explicit warmed Scratch — the zero-allocation contract.
func BenchmarkSolver_PlanScratchSteadyState(b *testing.B) {
	opt := solverOptimizer(b)
	st := solverState()
	var s core.Scratch
	opt.PlanScratch(&s, st.Chunk, st.Buffer, st.Prev, st.Forecast, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.PlanScratch(&s, st.Chunk, st.Buffer, st.Prev, st.Forecast, false)
	}
}

// planState is one recorded solver input: the chunk, buffer, previous
// level and the forecast the controller planned with.
type planState struct {
	k        int
	buffer   float64
	prev     int
	forecast []float64
}

// stateRecorder wraps a RobustMPC controller and records every state it
// solves, split into the chunk-0 startup solve and the steady-state ones.
type stateRecorder struct {
	inner            abr.Controller
	steady, startups *[]planState
}

func (r *stateRecorder) Name() string { return r.inner.Name() }

func (r *stateRecorder) Decide(s abr.State) abr.Decision {
	forecast := s.Forecast
	if len(s.Lower) > 0 {
		forecast = s.Lower // what RobustMPC plans with
	}
	st := planState{s.Chunk, s.Buffer, s.Prev, append([]float64(nil), forecast...)}
	if s.Startup {
		*r.startups = append(*r.startups, st)
	} else {
		*r.steady = append(*r.steady, st)
	}
	return r.inner.Decide(s)
}

var (
	sessionStatesOnce               sync.Once
	recordedSteady, recordedStartup []planState
	sessionStatesErr                error
)

// sessionStates records the decision states of 128 full RobustMPC
// sessions (harmonic-mean predictor with the max-error lower bound, the
// paper's configuration) over a fixed seeded pool of 64 FCC and 64 HSDPA
// traces: 128 startup solves and 8,192 steady-state ones. Unlike the
// single state of PlanScratchSteadyState, these carry the workload's own
// mix of full and empty buffers, switches and near-zero chunk-0 bounds.
func sessionStates(b testing.TB) (steady, startup []planState) {
	sessionStatesOnce.Do(func() {
		m := model.EnvivioManifest()
		factory := core.NewRobustMPC(model.Balanced, model.QIdentity, 30, 5)
		cfg := sim.Config{BufferMax: 30, Horizon: 5, Startup: sim.StartupController}
		for _, kind := range []trace.DatasetKind{trace.FCC, trace.HSDPA} {
			for _, tr := range trace.Dataset(kind, 64, m.Duration()+120, 20151) {
				ctrl := &stateRecorder{inner: factory(m), steady: &recordedSteady, startups: &recordedStartup}
				pred := predictor.NewErrorTracked(predictor.NewHarmonicMean(5), 5)
				if _, err := sim.Run(m, tr, ctrl, pred, cfg); err != nil {
					sessionStatesErr = err
					return
				}
			}
		}
	})
	if sessionStatesErr != nil {
		b.Fatal(sessionStatesErr)
	}
	return recordedSteady, recordedStartup
}

// benchmarkStates solves the recorded states round-robin, one per op.
func benchmarkStates(b *testing.B, states []planState, startup bool) {
	opt := solverOptimizer(b)
	var s core.Scratch
	for _, st := range states {
		opt.PlanScratch(&s, st.k, st.buffer, st.prev, st.forecast, startup)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := &states[i%len(states)]
		opt.PlanScratch(&s, st.k, st.buffer, st.prev, st.forecast, startup)
	}
}

// BenchmarkSolver_RobustMPCSteadyStates is the per-chunk RobustMPC solve
// over the recorded session states.
func BenchmarkSolver_RobustMPCSteadyStates(b *testing.B) {
	steady, _ := sessionStates(b)
	benchmarkStates(b, steady, false)
}

// BenchmarkSolver_RobustMPCStartupStates is the once-per-session startup
// solve (bitrate plan jointly with the Ts grid) over the recorded chunk-0
// states.
func BenchmarkSolver_RobustMPCStartupStates(b *testing.B) {
	_, startup := sessionStates(b)
	benchmarkStates(b, startup, true)
}

// BenchmarkSolver_PlanPooled is the same decision through the pooled Plan
// entry point (callers without their own Scratch).
func BenchmarkSolver_PlanPooled(b *testing.B) {
	opt := solverOptimizer(b)
	st := solverState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Plan(st.Chunk, st.Buffer, st.Prev, st.Forecast, false)
	}
}

// BenchmarkSolver_MPCDecide is the full controller hot path every
// simulated session takes per chunk.
func BenchmarkSolver_MPCDecide(b *testing.B) {
	ctrl := core.NewMPC(model.Balanced, model.QIdentity, 30, 5)(model.EnvivioManifest())
	st := solverState()
	ctrl.Decide(st)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.Decide(st)
	}
}

// BenchmarkSolver_TableBuildCold is the offline enumeration a cold start
// pays: the full 100×L×100 state space solved exactly.
func BenchmarkSolver_TableBuildCold(b *testing.B) {
	opt := solverOptimizer(b)
	spec := solverSpec()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fastmpc.Build(opt, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolver_TableCacheMemoryWarm is a registry hit after the first
// population built the table: the path N fleet populations share.
func BenchmarkSolver_TableCacheMemoryWarm(b *testing.B) {
	reg := fastmpc.NewRegistry()
	opt := solverOptimizer(b)
	spec := solverSpec()
	if _, err := reg.Table(opt, spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Table(opt, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolver_TableCacheDiskWarm is a fresh process finding the table
// on disk: header-validated read + deserialize instead of the build.
func BenchmarkSolver_TableCacheDiskWarm(b *testing.B) {
	dir := b.TempDir()
	opt := solverOptimizer(b)
	spec := solverSpec()
	prime := fastmpc.NewRegistry()
	prime.SetDir(dir)
	if _, err := prime.Table(opt, spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := fastmpc.NewRegistry()
		reg.SetDir(dir)
		if _, err := reg.Table(opt, spec); err != nil {
			b.Fatal(err)
		}
		if reg.Stats().DiskHits != 1 {
			b.Fatal("disk cache missed")
		}
	}
}

// TestSolverPerformance measures the solver budgets and, under
// `make bench-solver`, writes BENCH_solver.json. Asserted: the
// steady-state scratch path is allocation-free, and loading a warm disk
// cache beats rebuilding.
func TestSolverPerformance(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark report; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews the timings; BENCH_solver.json is generated without -race")
	}
	scratch := testing.Benchmark(BenchmarkSolver_PlanScratchSteadyState)
	steady := testing.Benchmark(BenchmarkSolver_RobustMPCSteadyStates)
	startup := testing.Benchmark(BenchmarkSolver_RobustMPCStartupStates)
	pooled := testing.Benchmark(BenchmarkSolver_PlanPooled)
	decide := testing.Benchmark(BenchmarkSolver_MPCDecide)
	cold := testing.Benchmark(BenchmarkSolver_TableBuildCold)
	memWarm := testing.Benchmark(BenchmarkSolver_TableCacheMemoryWarm)
	diskWarm := testing.Benchmark(BenchmarkSolver_TableCacheDiskWarm)

	t.Logf("PlanScratch %d ns/op %d allocs/op; Plan (pooled) %d ns/op; Decide %d ns/op %d allocs/op",
		scratch.NsPerOp(), scratch.AllocsPerOp(), pooled.NsPerOp(), decide.NsPerOp(), decide.AllocsPerOp())
	t.Logf("RobustMPC session states: steady %d ns/op %d allocs/op; startup %d ns/op %d allocs/op",
		steady.NsPerOp(), steady.AllocsPerOp(), startup.NsPerOp(), startup.AllocsPerOp())
	t.Logf("table: cold build %d ns/op, memory-warm %d ns/op, disk-warm %d ns/op",
		cold.NsPerOp(), memWarm.NsPerOp(), diskWarm.NsPerOp())

	if scratch.AllocsPerOp() != 0 {
		t.Errorf("steady-state PlanScratch allocates %d objects/op, want 0", scratch.AllocsPerOp())
	}
	if decide.AllocsPerOp() != 0 {
		t.Errorf("steady-state MPC.Decide allocates %d objects/op, want 0", decide.AllocsPerOp())
	}
	if diskWarm.NsPerOp() >= cold.NsPerOp() {
		t.Errorf("warm disk cache (%d ns/op) is not faster than a cold build (%d ns/op)",
			diskWarm.NsPerOp(), cold.NsPerOp())
	}

	report := benchMeta()
	report["benchmark"] = "Envivio manifest, horizon 5, paper 100×100 bins"
	report["plan_scratch_ns_op"] = scratch.NsPerOp()
	report["plan_scratch_allocs_op"] = scratch.AllocsPerOp()
	report["plan_pooled_ns_op"] = pooled.NsPerOp()
	report["mpc_decide_ns_op"] = decide.NsPerOp()
	report["mpc_decide_allocs_op"] = decide.AllocsPerOp()
	steadyStates, startupStates := sessionStates(t)
	report["robustmpc_states"] = fmt.Sprintf("RobustMPC sessions over 64 FCC + 64 HSDPA traces (seed 20151): %d steady and %d startup solves", len(steadyStates), len(startupStates))
	report["robustmpc_steady_ns_op"] = steady.NsPerOp()
	report["robustmpc_startup_ns_op"] = startup.NsPerOp()
	report["table_build_cold_ns_op"] = cold.NsPerOp()
	report["table_memory_warm_ns_op"] = memWarm.NsPerOp()
	report["table_disk_warm_ns_op"] = diskWarm.NsPerOp()
	report["table_disk_warm_speedup"] = float64(cold.NsPerOp()) / float64(diskWarm.NsPerOp())
	report["budget"] = "plan_scratch_allocs_op == 0 && mpc_decide_allocs_op == 0 && disk warm < cold build"
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	writeBenchReport(t, "BENCH_solver.json", b)
}
