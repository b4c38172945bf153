package optimal

import (
	"math"
	"sort"

	"mpcdash/internal/model"
	"mpcdash/internal/trace"
)

// Plan is a reconstructed offline-optimal schedule: the startup delay and
// the per-chunk rate choices (in kbps — the relaxation may choose rates
// between ladder rungs), with the QoE the solver attributes to it.
type Plan struct {
	StartupDelay float64
	Rates        []float64 // chosen kbps per chunk
	QoE          float64
}

// SolvePlan is Solve with plan reconstruction: it re-runs the dynamic
// program keeping back-pointers and returns both the optimal value and one
// optimal schedule. It costs the same asymptotically but keeps per-chunk
// frontier snapshots in memory, so prefer Solve when only the value is
// needed (the normalizer path).
func (s *Solver) SolvePlan(tr *trace.Trace) Plan {
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

	frontier := make(map[stateKey]bpNode)
	for ts := 0.0; ts <= tsMax+1e-9; ts += tsStep {
		key := stateKey{prev: noPrev, tBin: 0, bBin: quantB(ts)}
		n := bpNode{node: node{val: -s.Weights.MuS * ts, t: 0, buf: ts}, ts: ts, action: -1}
		if old, ok := frontier[key]; !ok || n.node.better(old.node) {
			frontier[key] = n
		}
	}

	qOf := make([]float64, len(actions))
	for i, r := range actions {
		qOf[i] = s.Quality(r)
	}

	history := make([]map[stateKey]bpNode, 0, s.Manifest.ChunkCount+1)
	history = append(history, frontier)

	for k := 0; k < s.Manifest.ChunkCount; k++ {
		next := make(map[stateKey]bpNode, len(frontier)*2)
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
				nk := stateKey{prev: a, tBin: int32(math.Round(nt / timeBin)), bBin: quantB(nb)}
				nn := bpNode{
					node:   node{val: st.val + gain, t: nt, buf: nb},
					ts:     st.ts,
					action: a,
					from:   key,
				}
				if old, ok := next[nk]; !ok || nn.node.better(old.node) {
					next[nk] = nn
				}
			}
		}
		next = prunePlan(next, qOf, s.Weights.Lambda, noPrev)
		history = append(history, next)
		frontier = next
	}

	// Locate the best terminal state and walk back.
	var bestKey stateKey
	best := bpNode{node: node{val: math.Inf(-1)}}
	for k, n := range frontier {
		if n.val > best.val {
			best, bestKey = n, k
		}
	}
	plan := Plan{QoE: best.val, StartupDelay: best.ts}
	if math.IsInf(best.val, -1) {
		return plan // infeasible (dead trace)
	}
	rates := make([]float64, 0, s.Manifest.ChunkCount)
	key, n := bestKey, best
	for k := s.Manifest.ChunkCount; k > 0; k-- {
		rates = append(rates, actions[n.action])
		key = n.from
		n = history[k-1][key]
	}
	// Reverse into chronological order.
	for i, j := 0, len(rates)-1; i < j; i, j = i+1, j-1 {
		rates[i], rates[j] = rates[j], rates[i]
	}
	plan.Rates = rates
	return plan
}

// bpNode augments a DP node with back-pointers for plan reconstruction.
type bpNode struct {
	node
	ts     float64 // startup delay of the originating initial state
	action int     // action taken to reach this state (-1 initially)
	from   stateKey
}

// prunePlan mirrors prune for the back-pointer node type: dominated states
// within a tBin group are dropped using the same λ-gap criterion.
func prunePlan(frontier map[stateKey]bpNode, qOf []float64, lambda float64, noPrev int) map[stateKey]bpNode {
	type entry struct {
		prev int
		key  stateKey
		n    bpNode
	}
	groups := make(map[int32][]entry)
	for k, n := range frontier {
		groups[k.tBin] = append(groups[k.tBin], entry{k.prev, k, n})
	}
	qp := func(p int) float64 {
		if p == noPrev {
			return math.Inf(1)
		}
		return qOf[p]
	}
	out := make(map[stateKey]bpNode, len(frontier))
	for _, entries := range groups {
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
				out[e.key] = e.n
			}
		}
	}
	return out
}
