package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// opFunc performs operation i on worker w and reports whether it
// succeeded. Worker w owns connection (or simulator worker) w, and an
// operation runs to completion before its worker starts the next, so
// no connection ever carries two operations at once.
type opFunc func(w, i int) bool

// openResult is one open-loop phase: ops are due at fixed intervals
// whether or not earlier ones have finished (independent users).
type openResult struct {
	Rate   float64
	Ops    int
	Failed int
	// Latency and Late are in due-time order, in ms. Latency runs from the
	// due time to completion, and a failed op counts as the phase length,
	// so it misses any latency limit; Late runs from the due time to the
	// send, the generator's own lateness.
	Latency []float64
	Late    []float64
}

// openLoop runs op at a fixed total rate for dur across workers. Op i is
// due at start + i/rate and belongs to worker i mod workers, so each
// worker sends its own share in order; when a worker is still busy at a
// due time the op waits, and that wait counts in its latency.
func openLoop(rate float64, dur time.Duration, workers int, op opFunc) openResult {
	period := float64(time.Second) / rate
	total := int(dur.Seconds() * rate)
	res := openResult{Rate: rate, Ops: total, Latency: make([]float64, total), Late: make([]float64, total)}
	failed := make([]int, workers)
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < total; i += workers {
				due := start.Add(time.Duration(float64(i) * period))
				sleepUntil(due)
				sent := time.Now()
				ok := op(w, i)
				res.Late[i] = ms(sent.Sub(due))
				if !ok {
					failed[w]++
					res.Latency[i] = ms(dur)
					continue
				}
				res.Latency[i] = ms(time.Since(due))
			}
		}(w)
	}
	wg.Wait()
	for _, f := range failed {
		res.Failed += f
	}
	return res
}

// closedResult is one closed-loop phase: each worker sends its next op
// as soon as the previous one completes.
type closedResult struct {
	Ops     int
	Failed  int
	Elapsed time.Duration
}

// closedLoop runs op on every worker back to back until dur has passed or
// limit ops (0 = no limit) have been started.
func closedLoop(dur time.Duration, limit, workers int, op opFunc) closedResult {
	start := time.Now()
	deadline := start.Add(dur)
	var next, done, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if (limit > 0 && i >= limit) || (limit == 0 && time.Now().After(deadline)) {
					return
				}
				if !op(w, i) {
					failed.Add(1)
				}
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	return closedResult{Ops: int(done.Load()), Failed: int(failed.Load()), Elapsed: time.Since(start)}
}

// add accumulates another round of the same phase.
func (r *closedResult) add(o closedResult) {
	r.Ops += o.Ops
	r.Failed += o.Failed
	r.Elapsed += o.Elapsed
}

// Rate is the phase throughput in ops/s.
func (r closedResult) Rate() float64 { return float64(r.Ops) / r.Elapsed.Seconds() }

// add accumulates another round of the same open-loop phase.
func (r *openResult) add(o openResult) {
	r.Rate = o.Rate
	r.Ops += o.Ops
	r.Failed += o.Failed
	r.Latency = append(r.Latency, o.Latency...)
	r.Late = append(r.Late, o.Late...)
}

// rounds is how many times a run cycles through its phases. Interleaving
// spreads every metric over the whole run, so a slow stretch of a shared
// machine lands on all metrics a little rather than on one a lot.
const rounds = 4

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
