package main

import (
	"math"
	"testing"
)

func TestTailPct(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {9, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9},
		{999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := tailPct(c.n); got != c.want {
			t.Errorf("tailPct(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, reversed
	}
	d := summarize(xs)
	if d.N != 1000 || d.P50 != 500.5 {
		t.Fatalf("N=%d P50=%v, want 1000 and 500.5", d.N, d.P50)
	}
	if d.TailPct != 0.99 || math.Abs(d.Tail-990.01) > 1e-9 {
		t.Fatalf("tail = p%v %v, want p0.99 990.01", d.TailPct, d.Tail)
	}
	if !d.Supports(0.99) || d.Supports(0.999) {
		t.Fatalf("Supports: p99 must hold, p99.9 must not with n=1000")
	}
	if xs[0] != 1000 {
		t.Fatalf("summarize mutated its input")
	}
	if e := summarize(nil); e.N != 0 || e.P50 != 0 || e.TailPct != 0 {
		t.Fatalf("empty sample: %+v", e)
	}
}

func TestErrorRate(t *testing.T) {
	var tl tally
	if tl.errorRate() != 0 {
		t.Fatalf("empty tally must read 0")
	}
	tl.attempted.Add(200)
	tl.failed.Add(1)
	tl.shed.Add(2)
	tl.wrong.Add(1)
	if got := tl.errorRate(); got != 0.02 {
		t.Fatalf("errorRate = %v, want (1+2+1)/200 = 0.02", got)
	}
	if tl.bad() != 4 {
		t.Fatalf("bad = %d, want 4", tl.bad())
	}
}

func TestSelfByLayer(t *testing.T) {
	spans := []span{
		{ID: 1, Kind: kindSimRun, Start: 0, End: 100},
		{ID: 2, Parent: 1, Kind: kindCoreDecide, Start: 10, End: 60},
		{ID: 3, Parent: 1, Kind: kindObserve, Start: 60, End: 70},
		{ID: 4, Parent: 2, Kind: kindFastmpcDecide, Start: 20, End: 30},
	}
	got := selfByLayer(spans)
	want := map[string]int64{"sim": 40, "core": 40, "predictor": 10, "fastmpc": 10}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, got[k], v)
		}
	}
}

func TestGroupedQuantile(t *testing.T) {
	// Four groups of 1000; a stall makes one group's tail huge.
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = float64(i%1000) / 1000 // 0 … 0.999 in each group
	}
	for i := 1000; i < 1100; i++ {
		xs[i] = 50
	}
	pooled := summarize(xs).Q(0.99)
	got := groupedQuantile(xs, 0.99)
	if pooled < 50 {
		t.Fatalf("pooled p99 = %v, want the stall (50) to dominate", pooled)
	}
	if math.Abs(got-0.98901) > 1e-3 {
		t.Fatalf("grouped p99 = %v, want the unstalled groups' 0.989", got)
	}
	few := []float64{3, 1, 2}
	if groupedQuantile(few, 0.5) != 2 {
		t.Fatalf("fewer than two groups must fall back to the pooled quantile")
	}
}
