// Package core implements the paper's primary contribution: the model
// predictive control approach to bitrate adaptation (Sec 4). An Optimizer
// solves the horizon problem QOE_MAX_STEADY (and the startup variant
// QOE_MAX with the joint startup-delay decision) by exact enumeration with
// branch-and-bound pruning — the discrete program is small enough that
// enumeration is the exact counterpart of the paper's CPLEX solves. The
// MPC controller applies the first decision and recedes the horizon
// (Algorithm 1); RobustMPC feeds the throughput lower bound instead of the
// point estimate, which Theorem 1 proves is the exact max-min solution.
package core

import (
	"fmt"
	"math"

	"mpcdash/internal/model"
)

// minRate floors throughput predictions so a zero forecast yields an
// enormous-but-finite rebuffer penalty instead of a division by zero; the
// optimizer then naturally retreats to the lowest level.
const minRate = 1e-3

// Optimizer solves the horizon QoE maximization exactly.
type Optimizer struct {
	Manifest  *model.Manifest
	Weights   model.Weights
	Quality   model.QualityFunc
	BufferMax float64 // B_max seconds
	Horizon   int     // N, look-ahead chunks (paper: 5)

	// Startup-delay grid for the f_stmpc problem: Ts is searched over
	// multiples of TsStep in [0, TsMax].
	TsStep float64 // default 0.5 s
	TsMax  float64 // default BufferMax

	// DisablePruning turns off the branch-and-bound cut, forcing full
	// enumeration. The result is identical; the flag exists for the
	// ablation benchmark quantifying what the bound saves.
	DisablePruning bool

	// TerminalBufferWeight rewards the buffer level left at the end of the
	// horizon (kbps-equivalent per second). Receding-horizon control is
	// myopic: a plan may spend the whole buffer on quality inside the
	// window and leave nothing for what follows. A small terminal value
	// (e.g. 0.1·µ) counteracts that; 0 reproduces the paper exactly.
	TerminalBufferWeight float64
}

// NewOptimizer returns an optimizer with the paper's defaults for any
// unset tuning field (horizon 5, Ts grid 0.5 s up to BufferMax).
func NewOptimizer(m *model.Manifest, w model.Weights, q model.QualityFunc, bufferMax float64, horizon int) (*Optimizer, error) {
	if m == nil {
		return nil, fmt.Errorf("core: nil manifest")
	}
	if q == nil {
		q = model.QIdentity
	}
	if bufferMax <= 0 {
		return nil, fmt.Errorf("core: BufferMax must be positive, got %v", bufferMax)
	}
	if horizon <= 0 {
		horizon = 5
	}
	return &Optimizer{
		Manifest:  m,
		Weights:   w,
		Quality:   q,
		BufferMax: bufferMax,
		Horizon:   horizon,
		TsStep:    0.5,
		TsMax:     bufferMax,
	}, nil
}

// Plan solves the horizon problem starting at chunk k with buffer B_k,
// previous level prev (−1 if none) and the per-chunk throughput forecast.
// With startup set it also optimizes the startup delay Ts (B_k = Ts,
// objective −µs·Ts). It returns the optimal first level, the chosen Ts
// (0 in steady state) and the achieved horizon QoE.
//
// Plan draws its working memory from a shared pool, so it allocates
// nothing in the steady state and is safe for concurrent use. Callers
// making one decision per chunk should hold a Scratch and use PlanScratch
// for a strictly allocation-free hot path.
//
//mpc:noalloc
func (o *Optimizer) Plan(k int, buffer float64, prev int, forecast []float64, startup bool) (level int, ts float64, qoe float64) {
	s := scratchPool.Get().(*Scratch)
	level, ts, qoe = o.PlanScratch(s, k, buffer, prev, forecast, startup)
	scratchPool.Put(s)
	return level, ts, qoe
}

// PlanScratch is Plan solving into caller-owned working memory: with a
// reused Scratch the steady-state decision performs zero heap allocations.
// The Scratch must not be shared between concurrent solves. A nil Scratch
// delegates to the pooled Plan entry point so the hot path itself never
// constructs one.
//
//mpc:noalloc
func (o *Optimizer) PlanScratch(s *Scratch, k int, buffer float64, prev int, forecast []float64, startup bool) (level int, ts float64, qoe float64) {
	if s == nil {
		// Plan always passes a pooled non-nil Scratch back in, so this
		// cannot recurse.
		return o.Plan(k, buffer, prev, forecast, startup)
	}
	steps := o.Horizon
	if rem := o.Manifest.ChunkCount - k; rem < steps {
		steps = rem
	}
	if steps <= 0 {
		return 0, 0, 0
	}
	levels := o.Manifest.Levels()
	// Lookup-table callers clamp an out-of-ladder previous level; the exact
	// solver must agree rather than index out of range.
	if prev >= levels {
		prev = levels - 1
	}
	s.grow(steps, levels)
	o.ladderTables(s, steps, levels)

	// Per-solve tables, shared by every search of this solve (one, or the
	// whole startup Ts grid). The forecast is padded or truncated to
	// exactly steps entries, extending with the final value and flooring
	// at minRate; dl holds the download time of every (depth, level) pair,
	// so a DFS node does a table read instead of a bounds-checked ChunkSize
	// call and a division.
	last := minRate
	for d := 0; d < steps; d++ {
		if d < len(forecast) && forecast[d] > 0 {
			last = forecast[d]
		}
		s.rates[d] = math.Max(last, minRate)
		lo := math.Inf(1)
		for lvl := 0; lvl < levels; lvl++ {
			v := o.Manifest.ChunkSize(k+d, lvl) / s.rates[d]
			s.dl[d*levels+lvl] = v
			lo = math.Min(lo, v)
		}
		s.dlMin[d] = lo
	}
	// noStall[d] is the buffer from which the continuation that downloads
	// dlMin at every depth from d on never stalls: enough for this depth's
	// download, and enough left over (capped at B_max) for the rest.
	s.noStall[steps] = math.Inf(-1)
	for d := steps - 1; d >= 0; d-- {
		need := math.Inf(1)
		if s.noStall[d+1] <= o.BufferMax {
			need = math.Max(s.dlMin[d], s.noStall[d+1]+s.dlMin[d]-o.Manifest.ChunkDuration)
		}
		s.noStall[d] = need
	}

	prune := !o.DisablePruning
	if !startup {
		seed := math.Inf(-1)
		if prune {
			seed = o.seedIncumbent(s, buffer, prev, steps, levels)
		}
		lvl, q, _ := o.search(s, buffer, prev, steps, levels, seed)
		return lvl, 0, q
	}

	// Startup: grid-search Ts jointly with the bitrate plan. The grid is
	// indexed by integer multiple — accumulating t += step in floating
	// point drifts for non-dyadic steps and can skip the final point.
	bestLevel, bestTs, bestQoE := 0, 0.0, math.Inf(-1)
	step := o.TsStep
	if step <= 0 {
		step = 0.5
	}
	max := o.TsMax
	if max <= 0 {
		max = o.BufferMax
	}
	n := int((max + 1e-9) / step)
	for i := 0; i <= n; i++ {
		t := float64(i) * step
		seed := math.Inf(-1)
		switch {
		case prune && i == 0:
			seed = o.seedIncumbent(s, t, prev, steps, levels)
		case prune:
			// t > bestTs for every i > 0, so the tie rule below reduces to
			// q > bestQoE − 1e-6: a point whose horizon value does not beat
			// that floor plus µs·t cannot win, and its search starts there.
			seed = justBelow(bestQoE - 1e-6 + o.Weights.MuS*t)
		}
		lvl, q, found := o.search(s, t, prev, steps, levels, seed)
		if !found {
			continue
		}
		q -= o.Weights.MuS * t
		// With µ = µs, trading startup delay for first-chunk stall is QoE
		// neutral; among (near-)ties prefer the larger Ts, i.e. start
		// playback only when it can proceed without an immediate stall.
		if q > bestQoE+1e-6 || (q > bestQoE-1e-6 && t > bestTs) {
			bestLevel, bestTs, bestQoE = lvl, t, q
		}
	}
	return bestLevel, bestTs, bestQoE
}

// ladderTables fills the tables that depend only on the optimizer's ladder
// and weights, not on the forecast or k: the per-level quality, the
// switching penalty λ·|q_lvl − q_p| of every level pair (row p = −1, no
// previous level, is zero), and ub[d][p], the stall-free bound on the QoE
// attainable from depth d after level p, terminal reward of at most
// w·B_max included. A Scratch keeps them across solves and rebuilds them
// only when the value key (steps, levels, λ, w·B_max and every quality
// entry) changes, so one Scratch may serve any number of optimizers.
//
//mpc:noalloc
func (o *Optimizer) ladderTables(s *Scratch, steps, levels int) {
	term := o.TerminalBufferWeight * o.BufferMax
	key := ladderKey{steps: steps, levels: levels, lambda: math.Float64bits(o.Weights.Lambda), term: math.Float64bits(term)}
	same := key == s.key
	for lvl := 0; lvl < levels; lvl++ {
		if q := o.Quality(o.Manifest.Ladder[lvl]); math.Float64bits(q) != math.Float64bits(s.qual[lvl]) {
			s.qual[lvl] = q
			same = false
		}
	}
	if same {
		return
	}
	s.key = key
	for lvl := 0; lvl < levels; lvl++ {
		s.pen[lvl] = 0
	}
	for p := 0; p < levels; p++ {
		for lvl := 0; lvl < levels; lvl++ {
			s.pen[(p+1)*levels+lvl] = o.Weights.Lambda * math.Abs(s.qual[lvl]-s.qual[p])
		}
	}
	stride := levels + 1
	for p := 0; p < stride; p++ {
		s.ub[steps*stride+p] = term
	}
	for d := steps - 1; d >= 0; d-- {
		row, below := s.ub[d*stride:(d+1)*stride], s.ub[(d+1)*stride:(d+2)*stride]
		for p := -1; p < levels; p++ {
			best := math.Inf(-1)
			for lvl := 0; lvl < levels; lvl++ {
				v := s.qual[lvl] + below[lvl+1] - s.pen[(p+1)*levels+lvl]
				best = math.Max(best, v)
			}
			row[p+1] = best
		}
	}
}

// search maximizes the horizon QoE by depth-first enumeration with
// branch-and-bound, starting from the incumbent value seed (−∞ for none).
// It returns the first level of the first plan in DFS order that attains
// the maximum, that maximum, and whether it beat seed; when it did not, the
// level and value say nothing about the plans. Ties break toward the lower
// level because ascending iteration only replaces on strict improvement.
// The traversal is iterative over the Scratch's explicit stacks, and the
// last depth is scored in one ascending pass over the levels rather than a
// stack frame per leaf.
//
// A node at depth d is cut when acc + ub[d][prev] − µ·R ≤ cut, where R is
// the stall of the continuation that downloads dlMin at every remaining
// depth. Eq. 3/4 stall less from a fuller buffer and a shorter download,
// and leave a fuller buffer, so no completion stalls less than that one.
// R is summed only while the buffer is below noStall, which can only
// weaken the cut. cut sits 1e-9·(|best|+1) below the incumbent, and any
// seed below the maximum leaves the answer unchanged (DESIGN.md §4f).
//
//mpc:noalloc
func (o *Optimizer) search(s *Scratch, buffer float64, prev int, steps, levels int, seed float64) (int, float64, bool) {
	chunkDur := o.Manifest.ChunkDuration
	bufMax := o.BufferMax
	mu := o.Weights.Mu
	w := o.TerminalBufferWeight
	prune := !o.DisablePruning
	qual, pen, dlTab, dlMin, noStall, ub := s.qual, s.pen, s.dl, s.dlMin, s.noStall, s.ub
	buf, acc, prv, choice, next := s.buf, s.acc, s.prv, s.choice, s.next
	stride := levels + 1
	leaf := steps - 1

	bestFirst, bestQoE, found := 0, seed, false
	cut := justBelow(bestQoE)
	// Enter the root, then each child in DFS order: cut it, score its
	// leaves if it is at the last depth, or push it. (b, a, p) is the
	// entered node's buffer, accumulated QoE and previous level.
	d, c, b, a, p := -1, 0, buffer, 0.0, prev
	for {
		bound := math.Inf(1)
		if prune {
			stall, bb := 0.0, b
			for dd := c; dd < steps && bb < noStall[dd]; dd++ {
				var rebuffer float64
				rebuffer, bb, _ = model.Step(bb, dlMin[dd], chunkDur, bufMax)
				stall += rebuffer
			}
			bound = a + ub[c*stride+p+1] - mu*stall
		}
		switch {
		case bound <= cut:
			// Even the best completion cannot win.
		case c == leaf:
			for lvl := 0; lvl < levels; lvl++ {
				rebuffer, nb, _ := model.Step(b, dlTab[c*levels+lvl], chunkDur, bufMax)
				gain := qual[lvl] - mu*rebuffer - pen[(p+1)*levels+lvl]
				if total := (a + gain) + w*nb; total > bestQoE {
					choice[c] = lvl
					bestFirst, bestQoE, found = choice[0], total, true
					cut = justBelow(bestQoE)
				}
			}
		default:
			buf[c], acc[c], prv[c], next[c] = b, a, p, 0
			d = c
		}

		for d >= 0 && next[d] == levels {
			d-- // all levels tried at this depth
		}
		if d < 0 {
			break
		}
		lvl := next[d]
		next[d] = lvl + 1
		rebuffer, nb, _ := model.Step(buf[d], dlTab[d*levels+lvl], chunkDur, bufMax)
		gain := qual[lvl] - mu*rebuffer - pen[(prv[d]+1)*levels+lvl]
		choice[d] = lvl
		c, b, a, p = d+1, nb, acc[d]+gain, lvl
	}
	return bestFirst, bestQoE, found
}

// justBelow returns v lowered by the relative margin 1e-9·(|v|+1), which
// exceeds the float rounding by which a bound and a leaf value summed along
// different paths can disagree.
func justBelow(v float64) float64 {
	return v - 1e-9*(math.Abs(v)+1)
}

// seedIncumbent scores the levels constant-level plans with the search's
// own arithmetic and returns a value just below the best of them, which
// that plan's leaf then beats.
//
//mpc:noalloc
func (o *Optimizer) seedIncumbent(s *Scratch, buffer float64, prev int, steps, levels int) float64 {
	chunkDur := o.Manifest.ChunkDuration
	bufMax := o.BufferMax
	mu := o.Weights.Mu
	best := math.Inf(-1)
	for lvl := 0; lvl < levels; lvl++ {
		b, acc, p := buffer, 0.0, prev
		for d := 0; d < steps; d++ {
			rebuffer, nb, _ := model.Step(b, s.dl[d*levels+lvl], chunkDur, bufMax)
			gain := s.qual[lvl] - mu*rebuffer - s.pen[(p+1)*levels+lvl]
			b, acc, p = nb, acc+gain, lvl
		}
		if total := acc + o.TerminalBufferWeight*b; total > best {
			best = total
		}
	}
	return justBelow(best)
}
