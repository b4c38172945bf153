package model

import "math"

// Weights are the non-negative QoE weighting parameters of Eq. (5):
// λ penalizes quality variation, µ rebuffering seconds, µs startup seconds.
type Weights struct {
	Lambda float64 // quality-variation weight λ
	Mu     float64 // rebuffer weight µ (kbps-equivalent per second)
	MuS    float64 // startup-delay weight µs
}

// The three preference sets evaluated in Fig 11b.
var (
	// Balanced is the paper's default: λ=1, µ=µs=3000 — one second of
	// rebuffering costs as much as lowering one chunk by 3000 kbps.
	Balanced = Weights{Lambda: 1, Mu: 3000, MuS: 3000}
	// AvoidInstability triples the switching penalty.
	AvoidInstability = Weights{Lambda: 3, Mu: 3000, MuS: 3000}
	// AvoidRebuffering doubles the rebuffer and startup penalties.
	AvoidRebuffering = Weights{Lambda: 1, Mu: 6000, MuS: 6000}
)

// ChunkRecord is the per-chunk outcome of a playback session, sufficient to
// evaluate Eq. (5) and the per-factor CDFs of Figs 9–10.
type ChunkRecord struct {
	Index        int     // chunk number, 0-based
	Level        int     // chosen ladder level
	Bitrate      float64 // kbps of the chosen level
	SizeKbits    float64 // d_k(R_k)
	StartTime    float64 // t_k, seconds since session start
	DownloadTime float64 // d_k(R_k)/C_k seconds
	Throughput   float64 // C_k, average kbps during the download
	BufferBefore float64 // B_k seconds
	BufferAfter  float64 // B_{k+1} seconds
	Rebuffer     float64 // (d_k/C_k - B_k)+ seconds
	Wait         float64 // Δt_k seconds (buffer-full wait)
	Predicted    float64 // throughput prediction used for this chunk, 0 if none

	// DecisionTime is the controller's wall-clock cost for this chunk's
	// decision in real seconds — the Sec 7.4 overhead quantity, recorded
	// per decision so a regression can be pinned to a specific chunk.
	DecisionTime float64

	// Transport-health counters, populated by the emulated HTTP client
	// (always zero in the pure simulator, where downloads cannot fail).
	Retries  int  // extra download attempts needed beyond the first
	Resumes  int  // attempts that resumed a truncated transfer via HTTP Range
	Fallback bool // served at the lowest level after the chosen level's retries ran out

	// Attempts is the per-attempt transport timing of this chunk's
	// download, in session (media) time — one entry per HTTP request the
	// download engine issued, so retry and backoff time is attributable
	// inside the chunk's download span. Nil in the pure simulator.
	Attempts []AttemptRecord
}

// AttemptRecord times one HTTP attempt within a chunk download, including
// the backoff that preceded it. Times are media-seconds on the session
// clock, like every other duration in the record.
type AttemptRecord struct {
	Start    float64 // media-s since session start when the request was issued
	Duration float64 // media-s the attempt lasted
	Backoff  float64 // media-s of backoff wait immediately before Start
	Level    int     // ladder level the attempt requested
	Resumed  bool    // the attempt resumed a truncated body via HTTP Range
	Error    string  // "" when the attempt delivered the remaining body
}

// SessionResult is a completed playback session: the startup delay chosen or
// incurred, and one record per chunk in order.
type SessionResult struct {
	Algorithm    string
	StartupDelay float64 // Ts seconds
	Chunks       []ChunkRecord
}

// Metrics are the aggregate QoE factors of a session.
type Metrics struct {
	AvgBitrate       float64 // mean chosen bitrate, kbps
	AvgQuality       float64 // mean q(R_k)
	AvgQualityChange float64 // mean |q(R_{k+1})-q(R_k)| per transition, kbps
	AvgBitrateChange float64 // mean |R_{k+1}-R_k| per transition, kbps
	Switches         int     // number of level changes
	RebufferTime     float64 // total seconds of stall
	RebufferEvents   int     // number of chunks that stalled
	StartupDelay     float64 // Ts seconds
	Retries          int     // total extra download attempts (transport health)
	Resumes          int     // total Range-resumed transfers
	Fallbacks        int     // chunks served via lowest-level fallback
}

// ComputeMetrics aggregates the per-factor quality measures of a session.
func (r *SessionResult) ComputeMetrics(q QualityFunc) Metrics {
	var m Metrics
	m.StartupDelay = r.StartupDelay
	n := len(r.Chunks)
	if n == 0 {
		return m
	}
	for i := range r.Chunks {
		c := &r.Chunks[i]
		m.AvgBitrate += c.Bitrate
		m.AvgQuality += q(c.Bitrate)
		m.RebufferTime += c.Rebuffer
		if c.Rebuffer > 0 {
			m.RebufferEvents++
		}
		m.Retries += c.Retries
		m.Resumes += c.Resumes
		if c.Fallback {
			m.Fallbacks++
		}
		if i > 0 {
			prev := &r.Chunks[i-1]
			m.AvgQualityChange += math.Abs(q(c.Bitrate) - q(prev.Bitrate))
			m.AvgBitrateChange += math.Abs(c.Bitrate - prev.Bitrate)
			if c.Level != prev.Level {
				m.Switches++
			}
		}
	}
	m.AvgBitrate /= float64(n)
	m.AvgQuality /= float64(n)
	if n > 1 {
		m.AvgQualityChange /= float64(n - 1)
		m.AvgBitrateChange /= float64(n - 1)
	}
	return m
}

// QoE evaluates Eq. (5) for the whole session:
//
//	Σ q(R_k) − λ Σ |q(R_{k+1})−q(R_k)| − µ Σ rebuffer_k − µs·Ts
func (r *SessionResult) QoE(w Weights, q QualityFunc) float64 {
	var total float64
	for i := range r.Chunks {
		c := &r.Chunks[i]
		total += q(c.Bitrate)
		if i > 0 {
			total -= w.Lambda * math.Abs(q(c.Bitrate)-q(r.Chunks[i-1].Bitrate))
		}
		total -= w.Mu * c.Rebuffer
	}
	total -= w.MuS * r.StartupDelay
	return total
}

// QoEEventCount evaluates the footnote-3 variant of Eq. (5): instead of
// penalizing total stall seconds, it charges perEvent (kbps-equivalent) for
// every chunk whose download stalled playback, i.e. Σ 1(d_k/C_k > B_k).
// Users perceive each interruption, not only their cumulative length.
func (r *SessionResult) QoEEventCount(w Weights, q QualityFunc, perEvent float64) float64 {
	var total float64
	for i := range r.Chunks {
		c := &r.Chunks[i]
		total += q(c.Bitrate)
		if i > 0 {
			total -= w.Lambda * math.Abs(q(c.Bitrate)-q(r.Chunks[i-1].Bitrate))
		}
		if c.Rebuffer > 0 {
			total -= perEvent
		}
	}
	total -= w.MuS * r.StartupDelay
	return total
}

// QoETerms evaluates Eq. (5) from raw sequences rather than a session log.
// bitrates are q-domain inputs in kbps, rebuffers per-chunk stall seconds.
// It is the single scoring routine shared by the online controllers and the
// offline optimal solver so that all of them optimize the same objective.
func QoETerms(w Weights, q QualityFunc, bitrates, rebuffers []float64, prevBitrate float64, hasPrev bool, startup float64) float64 {
	var total float64
	last := prevBitrate
	lastSet := hasPrev
	for i, b := range bitrates {
		total += q(b)
		if lastSet {
			total -= w.Lambda * math.Abs(q(b)-q(last))
		}
		last, lastSet = b, true
		if i < len(rebuffers) {
			total -= w.Mu * rebuffers[i]
		}
	}
	total -= w.MuS * startup
	return total
}
