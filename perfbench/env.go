package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// nproc is the number of CPUs this process may run on: the ceiling on
// load-generator workers and connections.
func nproc() int { return runtime.NumCPU() }

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return -1
			}
			return kb / 1024
		}
	}
	return -1
}

// goSnap is the runtime's allocation and GC counters at one instant.
type goSnap struct {
	alloc, pauseNs uint64
	gc             uint32
}

func goSnapshot() goSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goSnap{alloc: m.TotalAlloc, pauseNs: m.PauseTotalNs, gc: m.NumGC}
}

// setGo records the go.* metrics for ops operations run between two
// snapshots.
func (b *bench) setGo(before, after goSnap, ops int) {
	if ops < 1 {
		ops = 1
	}
	cycles := float64(after.gc - before.gc)
	b.set("go.alloc_bytes_per_op", float64(after.alloc-before.alloc)/float64(ops), "B")
	b.set("go.gc_cycles_per_kop", cycles*1000/float64(ops), "count")
	pause := 0.0
	if cycles > 0 {
		pause = float64(after.pauseNs-before.pauseNs) / cycles / 1e6
	}
	b.set("go.gc_pause_ms", pause, "ms")
}

// metricDef names a metric the JSON line must carry.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0), one value per
// workload; BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sessions_per_s", "1/s"},
	{"decisions_per_s", "1/s"},
}

// perLayer are the metrics of a traced run (--trace 1). The open-loop
// latencies lead the list: they are end-to-end numbers, but on a shared
// 2-core host they swing with the neighbours' load more than any bound a
// regression check could use, so they are reported without one. At low
// load an idle process waits on the host to wake it; at higher load a
// slow stretch of the host tips the phase into overload.
var perLayer = []metricDef{
	{"latency_p50_ms.light", "ms"},
	{"latency_p50_ms.busy", "ms"},
	{"latency_p99_ms.light", "ms"},
	{"latency_p99_ms.busy", "ms"},
	{"trace.pool_build_s", "s"},
	{"fastmpc.table_build_s", "s"},
	{"fastmpc.lookup_ns", "ns"},
	{"fastmpc.registry_hit_ratio", "ratio"},
	{"core.plan_us_p50", "us"},
	{"core.plan_us_p99", "us"},
	{"core.plans", "count"},
	{"core.self_share", "ratio"},
	{"predictor.update_ns", "ns"},
	{"sim.self_us_per_chunk", "us"},
	{"fleet.inflight_mean", "count"},
	{"abrsvc.client_rtt_us_p50", "us"},
	{"abrsvc.client_rtt_us_p99", "us"},
	{"abrsvc.request_us_p50", "us"},
	{"abrsvc.request_us_p99", "us"},
	{"abrsvc.decide_us_p50", "us"},
	{"abrsvc.decide_us_p99", "us"},
	{"abrsvc.handler_us", "us"},
	{"abrsvc.hop_us", "us"},
	{"abrsvc.codec_us", "us"},
	{"abrsvc.register_us", "us"},
	{"abrsvc.delete_us", "us"},
	{"abrsvc.shed", "count"},
	{"abrsvc.queued_max", "count"},
	{"abrsvc.inflight_mean", "count"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cycles_per_kop", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.peak_rss_mb", "MB"},
	{"loadgen.late_p50_ms.light", "ms"},
	{"loadgen.late_p99_ms.light", "ms"},
	{"loadgen.late_p50_ms.busy", "ms"},
	{"loadgen.late_p99_ms.busy", "ms"},
	{"loadgen.trace_overhead", "ratio"},
	{"loadgen.error_rate", "ratio"},
}
