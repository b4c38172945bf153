package core

import "sync"

// Scratch holds the reusable working memory for one Plan solve: the padded
// horizon forecast, the download-time, quality, switching-penalty and
// bound tables hoisted out of the enumeration, and the explicit
// depth-first traversal stacks that replace the recursive closure. A
// Scratch grows to fit the largest (horizon, ladder) it has seen and is
// then reused allocation-free; the zero value is ready to use.
//
// A Scratch is owned by exactly one goroutine at a time. Optimizer.Plan
// draws one from an internal pool, so it stays safe for concurrent use;
// hot paths that make one decision per chunk (the MPC controller, the
// FastMPC table builder workers) hold their own Scratch and call
// Optimizer.PlanScratch directly for a zero-allocation steady state.
type Scratch struct {
	// Per-solve tables: they depend on the forecast and on k.
	rates   []float64 // horizon forecast, padded and floored at minRate
	dl      []float64 // dl[d*levels+lvl]: ChunkSize(k+d, lvl) / rates[d]
	dlMin   []float64 // dlMin[d]: min over lvl of dl[d*levels+lvl]
	noStall []float64 // noStall[d]: buffer from which the dlMin plan never stalls

	// Ladder-only tables: they depend on the optimizer's ladder, quality
	// function, λ, terminal reward and horizon length, and are rebuilt only
	// when that value key changes (ladderTables).
	qual []float64 // Quality(Ladder[lvl]) per level
	pen  []float64 // pen[(p+1)*levels+lvl]: λ·|q_lvl − q_p|, 0 for p = −1
	ub   []float64 // ub[d*(levels+1)+p+1]: stall-free QoE bound from depth d after level p
	key  ladderKey

	// Iterative DFS stacks, indexed by depth d ∈ [0, steps).
	buf    []float64 // buffer level entering depth d
	acc    []float64 // QoE accumulated entering depth d
	prv    []int     // previous level entering depth d (−1 = none)
	choice []int     // level currently taken at depth d
	next   []int     // next level to try at depth d
}

// ladderKey identifies the ladder-only tables held in a Scratch, together
// with the qual entries themselves. Floats are kept as their bits.
type ladderKey struct {
	steps, levels int
	lambda, term  uint64 // math.Float64bits of λ and of w·B_max
}

// grow sizes every buffer for a solve of the given depth and ladder size,
// reusing existing capacity.
func (s *Scratch) grow(steps, levels int) {
	s.rates = growFloats(s.rates, steps)
	s.dl = growFloats(s.dl, steps*levels)
	s.dlMin = growFloats(s.dlMin, steps)
	s.noStall = growFloats(s.noStall, steps+1)
	s.qual = growFloats(s.qual, levels)
	s.pen = growFloats(s.pen, (levels+1)*levels)
	s.ub = growFloats(s.ub, (steps+1)*(levels+1))
	s.buf = growFloats(s.buf, steps)
	s.acc = growFloats(s.acc, steps)
	s.prv = growInts(s.prv, steps)
	s.choice = growInts(s.choice, steps)
	s.next = growInts(s.next, steps)
}

func growFloats(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

func growInts(b []int, n int) []int {
	if cap(b) < n {
		return make([]int, n)
	}
	return b[:n]
}

// scratchPool backs the allocation-compatible Plan entry point: callers
// that do not manage a Scratch of their own share pooled ones, so repeated
// Plan calls stay allocation-free in the steady state while remaining safe
// to issue from many goroutines (the table builder's worker fan-out).
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}
