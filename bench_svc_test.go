// Decision-service benchmarks: steady-state decide throughput against a
// live abrd over loopback HTTP, the lookup-path decision latency
// distribution measured server-side, and the /v1/decide codec stage on
// its own. TestSvcPerformance writes the numbers to BENCH_svc.json under
// `make bench-svc` and asserts the hard budget: p99 of the lookup-path
// decision (predictor update + table lookup, excluding HTTP) stays under
// a millisecond, and every run decides at least 1,000 times a second.
package mpcdash_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"mpcdash/internal/abrsvc"
	"mpcdash/internal/fastmpc"
)

// histQuantile extracts quantile q from an obs.Registry histogram
// snapshot ({count, sum, buckets}); buckets map formatted upper bounds to
// cumulative counts. Returns the upper bound of the first bucket covering
// the quantile — a conservative (pessimistic) estimate.
func histQuantile(snap any, q float64) (float64, error) {
	m, ok := snap.(map[string]any)
	if !ok {
		return 0, fmt.Errorf("snapshot is %T, not a histogram", snap)
	}
	count, _ := m["count"].(uint64)
	if count == 0 {
		return 0, fmt.Errorf("histogram is empty")
	}
	buckets, _ := m["buckets"].(map[string]uint64)
	type bkt struct {
		bound float64
		cum   uint64
	}
	var bs []bkt
	for k, cum := range buckets {
		if k == "+Inf" {
			continue
		}
		b, err := strconv.ParseFloat(k, 64)
		if err != nil {
			return 0, fmt.Errorf("bucket bound %q: %w", k, err)
		}
		bs = append(bs, bkt{b, cum})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].bound < bs[j].bound })
	need := uint64(q * float64(count))
	for _, b := range bs {
		if b.cum >= need {
			return b.bound, nil
		}
	}
	if len(bs) == 0 {
		return 0, fmt.Errorf("histogram has no finite buckets")
	}
	// Quantile landed in +Inf: report beyond the last finite bound.
	return bs[len(bs)-1].bound * 2, nil
}

// svcRuns is how many times TestSvcPerformance repeats the load; the
// report gives the median and range.
const svcRuns = 5

// svcRun is one load run's measurements.
type svcRun struct {
	perSec, p99Decide, p99Request   float64
	allocsPerDecide, bytesPerDecide float64
	shed                            any
}

// TestSvcPerformance load-tests a self-hosted decision service svcRuns
// times and times the decide codec stage, and under `make bench-svc`
// writes BENCH_svc.json. Asserted on every run: server-side lookup-path
// decision p99 under 1 ms, and a throughput floor of 1,000 decisions/s.
func TestSvcPerformance(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark report; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews the timings; BENCH_svc.json is generated without -race")
	}

	workers := 2 * runtime.GOMAXPROCS(0)
	if workers > 32 {
		workers = 32
	}
	const decidesPerWorker = 2000
	// One table registry across runs: the table is built once, before the
	// first run's timed section.
	tables := fastmpc.NewRegistry()
	var perSec, p99Decide, p99Request, allocs, bytesPer []float64
	var shed []any
	for run := 0; run < svcRuns; run++ {
		r := svcLoadRun(t, tables, workers, decidesPerWorker)
		t.Logf("run %d: %.0f decisions/s, server-side p99 lookup path %.1f µs, request %.1f µs, %.1f allocs and %.0f B per decide",
			run, r.perSec, r.p99Decide*1e6, r.p99Request*1e6, r.allocsPerDecide, r.bytesPerDecide)
		if r.p99Decide > 1e-3 {
			t.Errorf("run %d: lookup-path decision p99 = %.3f ms, budget is 1 ms", run, r.p99Decide*1e3)
		}
		if r.perSec < 1000 {
			t.Errorf("run %d: throughput %.0f decisions/s, floor is 1000/s", run, r.perSec)
		}
		perSec = append(perSec, r.perSec)
		p99Decide = append(p99Decide, r.p99Decide)
		p99Request = append(p99Request, r.p99Request)
		allocs = append(allocs, r.allocsPerDecide)
		bytesPer = append(bytesPer, r.bytesPerDecide)
		shed = append(shed, r.shed)
	}
	codecNs, jsonNs, codecAllocs, jsonAllocs := svcCodecStage(t)
	t.Logf("codec per decide round trip: %.0f ns and %.0f allocs (encoding/json: %.0f ns, %.0f allocs)",
		median(codecNs), codecAllocs, median(jsonNs), jsonAllocs)

	report := benchMeta()
	for k, v := range map[string]any{
		"benchmark":                         "loopback abrd, Envivio config, one session per worker; the codec stage is the four encodes and decodes of one decide call, without HTTP (two of its allocations are the in-memory readers it decodes from, which the service path does not make)",
		"command":                           "make bench-svc",
		"runs":                              svcRuns,
		"workers":                           workers,
		"decides_per_worker":                decidesPerWorker,
		"decisions_per_run":                 workers * decidesPerWorker,
		"decisions_per_sec":                 spread(perSec),
		"p99_decide_seconds":                spread(p99Decide),
		"p99_request_seconds":               spread(p99Request),
		"allocs_per_decide":                 spread(allocs),
		"bytes_per_decide":                  spread(bytesPer),
		"shed_total":                        shed,
		"codec_ns_per_decide":               spread(codecNs),
		"codec_allocs_per_decide":           codecAllocs,
		"encoding_json_ns_per_decide":       spread(jsonNs),
		"encoding_json_allocs_per_decide":   jsonAllocs,
		"budget":                            "every run: p99_decide_seconds <= 0.001 && decisions_per_sec >= 1000",
		"allocs_and_bytes_per_decide_scope": "whole process, client and server, over the timed section",
	} {
		report[k] = v
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	writeBenchReport(t, "BENCH_svc.json", out)
}

// svcLoadRun starts a service, registers one session per worker, warms
// the transports and predictor windows, and times decidesPerWorker
// decides per worker.
func svcLoadRun(t *testing.T, tables *fastmpc.Registry, workers, decidesPerWorker int) svcRun {
	t.Helper()
	svc := abrsvc.New(abrsvc.Config{
		MaxSessions: workers + 1,
		MaxInFlight: workers,
		QueueDepth:  4 * workers,
		QueueWait:   time.Second,
		Tables:      tables,
	})
	srv, err := svc.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	client := abrsvc.NewClient(srv.URL())
	defer client.CloseIdle()
	ctx := context.Background()

	// One session per worker: decide traffic for a session is serialized
	// server-side, so this measures uncontended lookup-path latency at
	// full transport concurrency. Robust sessions ride the same table.
	sessions := make([]string, workers)
	for w := range sessions {
		ack, err := client.Register(ctx, abrsvc.SessionRequest{
			Config: abrsvc.SessionConfig{Robust: w%2 == 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		sessions[w] = ack.Session
	}

	decide := func(w, chunk, prev int) (int, error) {
		var samples []float64
		if chunk > 0 {
			samples = []float64{800 + 120*float64((w*13+chunk*7)%25)}
		}
		resp, err := client.Decide(ctx, abrsvc.DecideRequest{
			Session: sessions[w], Chunk: chunk,
			Buffer:            float64((w + chunk*3) % 28),
			PrevLevel:         prev,
			ThroughputSamples: samples,
		})
		if err != nil {
			return 0, err
		}
		return resp.Level, nil
	}

	for w := 0; w < workers; w++ {
		prev := -1
		for chunk := 0; chunk < 10; chunk++ {
			if prev, err = decide(w, chunk, prev); err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, workers)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prev := 0
			for i := 0; i < decidesPerWorker; i++ {
				lvl, err := decide(w, 10+i, prev)
				if err != nil {
					errs[w] = err
					return
				}
				prev = lvl
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	total := float64(workers * decidesPerWorker)
	snap := svc.Registry().Snapshot()
	r := svcRun{
		perSec:          total / elapsed.Seconds(),
		allocsPerDecide: float64(m1.Mallocs-m0.Mallocs) / total,
		bytesPerDecide:  float64(m1.TotalAlloc-m0.TotalAlloc) / total,
		shed:            snap[abrsvc.MetricShedTotal],
	}
	if r.p99Decide, err = histQuantile(snap[abrsvc.MetricDecideSeconds], 0.99); err != nil {
		t.Fatalf("decide histogram: %v", err)
	}
	if r.p99Request, err = histQuantile(snap[abrsvc.MetricRequestSeconds], 0.99); err != nil {
		t.Fatalf("request histogram: %v", err)
	}
	return r
}

// svcCodecStage times the codec work of one decide round trip, both ends
// (abrsvc.DecideCodecRoundTrip), against the same four steps done with
// encoding/json, svcRuns times each, and counts the allocations of each.
func svcCodecStage(t *testing.T) (codecNs, jsonNs []float64, codecAllocs, jsonAllocs float64) {
	req := abrsvc.DecideRequest{Session: "s00000042", Chunk: 31, Buffer: 17.5, PrevLevel: 3, ThroughputSamples: []float64{2432.125}}
	resp := abrsvc.DecideResponse{Session: "s00000042", Chunk: 31, Level: 3, BitrateKbps: 1850, PredictedKbps: 2103.5, LowerKbps: 1702.25}
	codec := func() {
		if err := abrsvc.DecideCodecRoundTrip(&req, &resp); err != nil {
			t.Fatal(err)
		}
	}
	reference := func() {
		var r1 abrsvc.DecideRequest
		var r2 abrsvc.DecideResponse
		a, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(a))
		dec.DisallowUnknownFields()
		var buf bytes.Buffer
		if err := dec.Decode(&r1); err != nil || json.NewEncoder(&buf).Encode(resp) != nil ||
			json.NewDecoder(&buf).Decode(&r2) != nil || r2.Level != resp.Level {
			t.Fatalf("encoding/json round trip failed: %v", err)
		}
	}
	const n = 20000
	for run := 0; run < svcRuns; run++ {
		for _, c := range []struct {
			f   func()
			out *[]float64
		}{{codec, &codecNs}, {reference, &jsonNs}} {
			start := time.Now()
			for i := 0; i < n; i++ {
				c.f()
			}
			*c.out = append(*c.out, float64(time.Since(start).Nanoseconds())/n)
		}
	}
	return codecNs, jsonNs, testing.AllocsPerRun(1000, codec), testing.AllocsPerRun(1000, reference)
}
