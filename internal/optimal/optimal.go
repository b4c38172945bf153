// Package optimal computes the offline-optimal QoE(OPT) used to normalize
// every result in Sec 7: the maximum Eq. (5) QoE attainable with perfect
// knowledge of the whole throughput trace. The paper solves this with
// CPLEX after relaxing bitrates to a continuous range (footnote 6); we
// solve the same relaxation by dynamic programming over the exact buffer
// and timing dynamics, quantizing time and buffer onto fine grids and
// pruning dominated states (a state with less buffer and less accumulated
// QoE at the same trace position can never win).
package optimal

import (
	"fmt"
	"math"
	"sort"

	"mpcdash/internal/model"
	"mpcdash/internal/trace"
)

// Solver configures the offline optimum computation.
type Solver struct {
	Manifest  *model.Manifest
	Weights   model.Weights
	Quality   model.QualityFunc
	BufferMax float64

	// TimeBin and BufferBin are the quantization grids in seconds
	// (defaults 0.5 and 0.5). Finer grids tighten the approximation at
	// quadratic cost.
	TimeBin   float64
	BufferBin float64

	// DenseLevels > 0 replaces the manifest ladder with that many rates
	// uniform in [R_min, R_max] — the paper's continuous-bitrate
	// relaxation (default 21). Zero keeps the discrete ladder, giving the
	// exact discrete offline optimum.
	DenseLevels int

	// Startup-delay search grid (defaults 1 s steps up to BufferMax).
	TsStep float64
	TsMax  float64
}

// NewSolver returns a Solver with the paper-comparable defaults.
func NewSolver(m *model.Manifest, w model.Weights, q model.QualityFunc, bufferMax float64) (*Solver, error) {
	if m == nil {
		return nil, fmt.Errorf("optimal: nil manifest")
	}
	if bufferMax <= 0 {
		return nil, fmt.Errorf("optimal: BufferMax must be positive, got %v", bufferMax)
	}
	if q == nil {
		q = model.QIdentity
	}
	return &Solver{
		Manifest:    m,
		Weights:     w,
		Quality:     q,
		BufferMax:   bufferMax,
		TimeBin:     1,
		BufferBin:   1,
		DenseLevels: 11,
		TsStep:      1,
		TsMax:       bufferMax,
	}, nil
}

type stateKey struct {
	prev int // action index of previous chunk; len(actions) = "none"
	tBin int32
	bBin int16
}

// node carries the exact dynamics alongside the accumulated value; bins are
// only dedup keys, so quantization error does not accumulate across chunks.
type node struct {
	val float64
	t   float64
	buf float64
}

// better orders nodes totally — by value, then buffer, then earlier time —
// so frontier updates are independent of map iteration order and the solver
// is bit-for-bit deterministic.
func (n node) better(o node) bool {
	if n.val != o.val { //lint:allow floateq deliberate total order for bit-stable frontier updates
		return n.val > o.val
	}
	if n.buf != o.buf { //lint:allow floateq deliberate total order for bit-stable frontier updates
		return n.buf > o.buf
	}
	return n.t < o.t
}

// Solve returns QoE(OPT) for the trace: the best achievable Eq. (5) value
// over all bitrate plans and startup delays.
func (s *Solver) Solve(tr *trace.Trace) float64 {
	actions := s.actions()
	noPrev := len(actions)
	timeBin := s.TimeBin
	if timeBin <= 0 {
		timeBin = 0.5
	}
	bufBin := s.BufferBin
	if bufBin <= 0 {
		bufBin = 0.5
	}
	tsStep := s.TsStep
	if tsStep <= 0 {
		tsStep = 1
	}
	tsMax := s.TsMax
	if tsMax <= 0 {
		tsMax = s.BufferMax
	}

	quantB := func(b float64) int16 {
		bin := int16(math.Round(b / bufBin))
		max := int16(math.Round(s.BufferMax / bufBin))
		if bin > max {
			bin = max
		}
		if bin < 0 {
			bin = 0
		}
		return bin
	}

	frontier := make(map[stateKey]node)
	for ts := 0.0; ts <= tsMax+1e-9; ts += tsStep {
		key := stateKey{prev: noPrev, tBin: 0, bBin: quantB(ts)}
		n := node{val: -s.Weights.MuS * ts, t: 0, buf: ts}
		if old, ok := frontier[key]; !ok || n.better(old) {
			frontier[key] = n
		}
	}

	qOf := make([]float64, len(actions))
	for i, r := range actions {
		qOf[i] = s.Quality(r)
	}

	for k := 0; k < s.Manifest.ChunkCount; k++ {
		next := make(map[stateKey]node, len(frontier)*2)
		mult := s.Manifest.SizeMultiplier(k)
		for key, st := range frontier {
			for a, rate := range actions {
				size := s.Manifest.ChunkDuration * rate * mult
				dl := tr.DownloadTime(st.t, size)
				if math.IsInf(dl, 1) {
					continue
				}
				rebuffer, nb, wait := model.Step(st.buf, dl, s.Manifest.ChunkDuration, s.BufferMax)
				nt := st.t + dl + wait

				gain := qOf[a] - s.Weights.Mu*rebuffer
				if key.prev != noPrev {
					gain -= s.Weights.Lambda * math.Abs(qOf[a]-qOf[key.prev])
				}
				nk := stateKey{
					prev: a,
					tBin: int32(math.Round(nt / timeBin)),
					bBin: quantB(nb),
				}
				nn := node{val: st.val + gain, t: nt, buf: nb}
				if old, ok := next[nk]; !ok || nn.better(old) {
					next[nk] = nn
				}
			}
		}
		frontier = prune(next, qOf, s.Weights.Lambda, noPrev)
	}

	best := math.Inf(-1)
	for _, n := range frontier {
		if n.val > best {
			best = n.val
		}
	}
	return best
}

// actions returns the rate set the optimum may choose from.
func (s *Solver) actions() []float64 {
	if s.DenseLevels <= 0 {
		return append([]float64(nil), s.Manifest.Ladder...)
	}
	return model.UniformLadder(s.DenseLevels, s.Manifest.Ladder.Min(), s.Manifest.Ladder.Max())
}

// prune removes dominated states within each tBin group. State A dominates
// state B at the same trace position when A has at least as much buffer and
// A's value lead covers the worst-case extra switching penalty of adopting
// A's future plan from B's previous rate: by the triangle inequality that
// extra cost is at most λ·|q(prevA) − q(prevB)|.
func prune(frontier map[stateKey]node, qOf []float64, lambda float64, noPrev int) map[stateKey]node {
	type entry struct {
		prev int
		bBin int16
		n    node
	}
	groups := make(map[int32][]entry)
	for k, n := range frontier {
		groups[k.tBin] = append(groups[k.tBin], entry{k.prev, k.bBin, n})
	}
	qp := func(p int) float64 {
		if p == noPrev {
			return math.Inf(1) // "no previous chunk" is never interchangeable
		}
		return qOf[p]
	}
	out := make(map[stateKey]node, len(frontier))
	for tBin, entries := range groups {
		// Buffer-descending so a kept state can only be dominated by an
		// earlier (higher-buffer) kept state. The small exact-time spread
		// within a bin is treated as equal, an approximation inherent to
		// the binning.
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].n.buf != entries[j].n.buf { //lint:allow floateq deterministic sort key; exact compare is the tie-break contract
				return entries[i].n.buf > entries[j].n.buf
			}
			if entries[i].n.val != entries[j].n.val { //lint:allow floateq deterministic sort key; exact compare is the tie-break contract
				return entries[i].n.val > entries[j].n.val
			}
			if entries[i].prev != entries[j].prev {
				return entries[i].prev < entries[j].prev
			}
			return entries[i].n.t < entries[j].n.t
		})
		kept := entries[:0]
		for _, e := range entries {
			dominated := false
			for _, d := range kept {
				var gap float64
				if d.prev != e.prev {
					a, b := qp(d.prev), qp(e.prev)
					if math.IsInf(a, 1) || math.IsInf(b, 1) {
						continue
					}
					gap = lambda * math.Abs(a-b)
				}
				if d.n.val-e.n.val >= gap {
					dominated = true
					break
				}
			}
			if !dominated {
				kept = append(kept, e)
				out[stateKey{prev: e.prev, tBin: tBin, bBin: e.bBin}] = e.n
			}
		}
	}
	return out
}
