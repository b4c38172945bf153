// Command perfbench is the repository benchmark. It drives the program
// only through its public Go API — fleet, abrsvc, fastmpc, runner, sim,
// core and predictor — from this one process, checks every output, and
// prints each metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload sim-robustmpc --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the same workload with spans recorded around every call into a
// layer and reports the per-layer metrics instead. README.md maps every
// metric to the layer and workload it belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose sim-* report digests are pinned.
const defaultSeed = 1

// setupRepeats is how many times each run sets its workload up; setup_s
// is the median.
const setupRepeats = 3

// outDir receives the span files of traced runs.
const outDir = ".bench_build/perfbench"

// bench is one run's shared state.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	workers  int // connections or simulator workers: never more than nproc

	tally    tally
	tracer   *tracer // nil unless traced
	problems []string

	names   []string
	metrics map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// set records a metric; a later set of the same name replaces the value.
func (b *bench) set(name string, v float64, unit string) {
	if _, ok := b.metrics[name]; !ok {
		b.names = append(b.names, name)
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records an output-check failure; the run reports correct=false.
func (b *bench) fail(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// phase returns the share of the run's measuring time given to a phase.
func (b *bench) phase(share float64) time.Duration {
	return time.Duration(share * b.seconds * float64(time.Second))
}

// workload is one traffic mix. run sets it up setupRepeats times, runs its
// phases and checks its outputs, recording metrics on b.
type workload struct {
	name string
	why  string
	run  func(b *bench) error
}

var workloads = []workload{
	{"sim-robustmpc", "exact RobustMPC in the fleet sim backend: the horizon enumeration dominates session CPU, so a core gain shows in sessions_per_s", runSimRobustMPC},
	{"sim-lookup", "FastMPC and BB in the fleet sim backend: the solver runs only in setup's table build, so sim, trace and fleet costs set sessions_per_s", runSimLookup},
	{"abrd-steady", "decide calls on 1,000 resident abrd sessions over nproc connections: HTTP hop, JSON codec, admission, store read, predictor and lookup", runAbrdSteady},
	{"abrd-churn", "register, 8 decides, delete per session with fairness over 50 link groups: store writes, registration and the group table", runAbrdChurn},
}

func main() {
	name := flag.String("workload", "", "workload: sim-robustmpc, sim-lookup, abrd-steady or abrd-churn")
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 20, "measuring time in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	b := &bench{
		workload: wl.name,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *traceFlag == 1,
		workers:  nproc(),
		metrics:  map[string]metric{},
	}
	if b.traced {
		b.tracer = newTracer()
	}
	printHost(b, wl)

	if b.traced {
		if err := probeLayers(b); err != nil {
			fatal(err)
		}
	}
	if err := wl.run(b); err != nil {
		fatal(err)
	}
	b.set("go.peak_rss_mb", peakRSSMB(), "MB")
	if b.traced {
		b.set("loadgen.error_rate", b.tally.errorRate(), "ratio")
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fatal(err)
		}
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload, b.seed))
		if err := writeSpans(path, b.tracer.all()); err != nil {
			fatal(err)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	report(b)
}

// report prints every metric, the checks, and the final JSON line.
func report(b *bench) {
	want := endToEnd
	if b.traced {
		want = perLayer
	}
	out := map[string]metric{}
	for _, d := range want {
		m, ok := b.metrics[d.name]
		if !ok {
			b.fail("metric %s was not measured", d.name)
			continue
		}
		if m.Unit != d.unit {
			b.fail("metric %s has unit %s, want %s", d.name, m.Unit, d.unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.fail("metric %s is %v", d.name, m.Value)
			m.Value = -1
		}
		out[d.name] = m
	}
	names := append([]string(nil), b.names...)
	sort.Strings(names)
	for _, n := range names {
		m := b.metrics[n]
		fmt.Printf("metric %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("error_rate %.6g (attempted %d, failed %d, shed %d, wrong %d)\n",
		b.tally.errorRate(), b.tally.attempted.Load(), b.tally.failed.Load(), b.tally.shed.Load(), b.tally.wrong.Load())
	if b.tally.bad() > 0 {
		b.fail("%d operations failed, were shed or returned wrong output", b.tally.bad())
	}
	for _, p := range b.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	attempted := b.tally.attempted.Load()
	if attempted < 1 {
		attempted = 1
		b.problems = append(b.problems, "no operation attempted")
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(b.problems) == 0, attempted, b.tally.bad(), out})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// printHost records where and how the run was made.
func printHost(b *bench, wl *workload) {
	host, _ := os.Hostname()
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v\n", b.workload, b.seed, b.seconds, b.traced)
	fmt.Printf("host=%s go=%s %s/%s GOMAXPROCS=%d nproc=%d commit=%s\n",
		host, runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), nproc(), commit)
	fmt.Printf("why: %s\n", wl.why)
}

func workloadNames() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return strings.Join(n, ", ")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
