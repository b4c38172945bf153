package main

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"mpcdash/internal/fastmpc"
	"mpcdash/internal/trace"
)

// splitmix64 scrambles a counter into a well-mixed 64-bit value; the
// benchmark derives every per-operation input from (seed, index) with it,
// so inputs depend on the seed alone, never on timing.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// pick returns a seed-derived value in [0, n) for operation i on stream.
func (b *bench) pick(i int, stream uint64, n int) int {
	return int(splitmix64(uint64(b.seed)*0x100000001B3^stream<<40^uint64(i)) % uint64(n))
}

// tracePool is the network traces sessions play over: an FCC
// (broadband) and an HSDPA (mobile) half, generated from the seed.
type tracePool [2][]*trace.Trace

const poolPerKind = 64

// buildPool generates the pool for a video of videoSec seconds.
func buildPool(seed int64, videoSec float64) tracePool {
	dur := videoSec + 120
	return tracePool{
		trace.Dataset(trace.FCC, poolPerKind, dur, seed*7919+1),
		trace.Dataset(trace.HSDPA, poolPerKind, dur, seed*7919+2),
	}
}

// traceFor assigns operation i a trace from the pool.
func (b *bench) traceFor(p tracePool, i int) (kind, idx int, tr *trace.Trace) {
	kind = b.pick(i, 1, 2)
	idx = b.pick(i, 2, poolPerKind)
	return kind, idx, p[kind][idx]
}

// setupTimes are the durations of one set-up, in seconds.
type setupTimes struct{ total, pool, table float64 }

// repeatSetup runs setup setupRepeats times and records setup_s (and the
// per-layer pool and table build times) as medians. Each set-up but the
// last is torn down by the next call; the last one's state is what the
// timed phases use.
func (b *bench) repeatSetup(setup func() (setupTimes, error)) error {
	var total, pool, table []float64
	for r := 0; r < setupRepeats; r++ {
		st, err := setup()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		total = append(total, st.total)
		pool = append(pool, st.pool)
		table = append(table, st.table)
	}
	fmt.Printf("setup_s runs: %v\n", total)
	b.set("setup_s", median(total), "s")
	b.set("trace.pool_build_s", median(pool), "s")
	if median(table) > 0 {
		b.set("fastmpc.table_build_s", median(table), "s")
	}
	return nil
}

// setOpen records an open-loop phase's latency and generator lateness.
func (b *bench) setOpen(label string, r openResult) {
	lat, late := summarize(r.Latency), summarize(r.Late)
	printDist("latency_ms."+label, lat)
	printDist("loadgen.late_ms."+label, late)
	if !lat.Supports(0.99) {
		fmt.Printf("warning: %s phase has %d samples, too few for a p99\n", label, lat.N)
	}
	fmt.Printf("grouped p99 of %s: latency %.4g ms, late %.4g ms\n", label, groupedQuantile(r.Latency, 0.99), groupedQuantile(r.Late, 0.99))
	b.set("latency_p50_ms."+label, lat.P50, "ms")
	b.set("latency_p99_ms."+label, groupedQuantile(r.Latency, 0.99), "ms")
	b.set("loadgen.late_p50_ms."+label, late.P50, "ms")
	b.set("loadgen.late_p99_ms."+label, groupedQuantile(r.Late, 0.99), "ms")
	fmt.Printf("phase %s: rate %.0f/s, %d ops, %d failed\n", label, r.Rate, r.Ops, r.Failed)
}

// setHitRatio records the shared table registry's hit ratio when the
// workload resolved any table through it.
func (b *bench) setHitRatio() {
	st := fastmpc.TableCacheStats()
	if calls := st.Builds + st.MemoryHits + st.DiskHits; calls > 0 {
		b.set("fastmpc.registry_hit_ratio", float64(st.MemoryHits)/float64(calls), "ratio")
	}
}

// printDist prints a timing as its median and supported tail.
func printDist(name string, d dist) {
	if d.N == 0 {
		fmt.Printf("dist %s: no samples\n", name)
		return
	}
	fmt.Printf("dist %s: p50 %.4g, p%g %.4g (n=%d)\n", name, d.P50, d.TailPct*100, d.Tail, d.N)
}

// digest is a short content hash for pinned outputs.
func digest(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// sampler polls a value every millisecond while a phase runs and reports
// its mean and maximum.
type sampler struct {
	stop chan struct{}
	done sync.WaitGroup
	sum  float64
	max  float64
	n    int
}

func startSampler(read func() float64) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				v := read()
				s.sum += v
				s.n++
				if v > s.max {
					s.max = v
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the mean and maximum it saw.
func (s *sampler) finish() (mean, max float64) {
	close(s.stop)
	s.done.Wait()
	if s.n == 0 {
		return 0, 0
	}
	return s.sum / float64(s.n), s.max
}
