package emu

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"mpcdash/internal/abr"
	"mpcdash/internal/model"
	"mpcdash/internal/mpd"
	"mpcdash/internal/obs"
	"mpcdash/internal/predictor"
)

// Client is the DASH player half of the emulation: it fetches the manifest,
// then downloads chunks strictly sequentially, invoking the controller at
// every chunk boundary — the modified dash.js behaviour of Sec 6. Buffer
// accounting is in media seconds while downloads happen in (possibly
// compressed) wall time; TimeScale is the media-seconds-per-wall-second
// factor and must match the factor the link trace was scaled by.
type Client struct {
	BaseURL    string
	Controller abr.Controller
	Predictor  predictor.Predictor
	BufferMax  float64 // media seconds
	Horizon    int
	TimeScale  float64 // media s per wall s (1 = real time)
	HTTP       *http.Client

	// Retries is the number of additional attempts per chunk after a
	// failed or truncated download (dropped connection, 5xx, timeout).
	// 0 disables retries entirely — the first failure is final; the
	// sentinel RetriesDefault (-1, or any negative value) selects
	// DefaultRetries (2). Retry and backoff time count against the
	// session like any stall, exactly as a real player experiences it.
	Retries int
	// AttemptTimeout caps the wall-clock time of a single download
	// attempt; an attempt exceeding it is aborted and classified as
	// retryable (a stalled transfer). 0 means no per-attempt cap.
	AttemptTimeout time.Duration
	// BackoffBase and BackoffMax bound the exponential backoff between
	// attempts (base, 2·base, 4·base, … capped at max, each scaled by
	// deterministic jitter in [0.5, 1.5)). Zero values select 50 ms and
	// 2 s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// DisableFallback turns off graceful degradation. By default, a
	// chunk that exhausts its retries at the chosen level is re-fetched
	// at the lowest ladder level before the session is failed, and the
	// event is recorded on the chunk's record.
	DisableFallback bool
	// Seed makes the backoff jitter deterministic; 0 selects a fixed
	// default seed.
	Seed int64

	// Obs receives per-decision events and session metrics. Nil disables
	// observability at the cost of one pointer test per chunk.
	Obs *obs.Recorder
}

// newHTTPClient is the default transport when the caller supplies none: a
// dedicated http.Client instead of http.DefaultClient, so sessions never
// share (or pollute) the process-global connection pool, and with its
// knobs explicit. A player holds exactly one origin connection, but fleet
// runs put dozens of concurrent players in one process — per-host idle
// capacity keeps each player reusing its own connection instead of
// competing for the default transport's two idle slots per host. There is
// no overall client timeout: per-attempt pacing is the player's job
// (AttemptTimeout), and a shaped 4 s chunk on a slow trace legitimately
// takes minutes of wall time.
func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// Run plays the whole video with the pre-bound Controller and returns the
// session log in media-time units, directly comparable with simulator
// output.
func (c *Client) Run(ctx context.Context) (*model.SessionResult, error) {
	return c.run(ctx, func(*model.Manifest) abr.Controller { return c.Controller })
}

// RunWithController fetches the manifest first and then binds the
// controller to it — for factories that need the ladder and chunking
// (every controller constructed via abr.Factory).
func (c *Client) RunWithController(ctx context.Context, factory abr.Factory) (*model.SessionResult, error) {
	return c.run(ctx, factory)
}

func (c *Client) run(ctx context.Context, bind abr.Factory) (*model.SessionResult, error) {
	if c.TimeScale <= 0 {
		c.TimeScale = 1
	}
	if c.Horizon <= 0 {
		c.Horizon = 5
	}
	httpc := c.HTTP
	if httpc == nil {
		httpc = newHTTPClient()
	}

	man, err := c.fetchManifest(ctx, httpc)
	if err != nil {
		return nil, err
	}
	engine := c.newDownloader(httpc)
	ctrl := bind(man)
	res := &model.SessionResult{
		Algorithm: ctrl.Name(),
		Chunks:    make([]model.ChunkRecord, 0, man.ChunkCount),
	}

	var (
		buffer float64 // media seconds
		prev   = -1
		start  = time.Now()
	)
	mediaNow := func() float64 { return time.Since(start).Seconds() * c.TimeScale }

	for k := 0; k < man.ChunkCount; k++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("emu: session cancelled at chunk %d: %w", k, err)
		}
		t := mediaNow()
		if ta, ok := c.Predictor.(predictor.TimeAware); ok {
			ta.SetTime(t)
		}
		forecast := c.Predictor.Predict(c.Horizon)
		var lower []float64
		if lb, ok := c.Predictor.(predictor.LowerBounder); ok {
			lower = lb.LowerBound(c.Horizon)
		}
		sw := obs.StartStopwatch()
		dec := ctrl.Decide(abr.State{
			Chunk:    k,
			Buffer:   buffer,
			Prev:     prev,
			Time:     t,
			Forecast: forecast,
			Lower:    lower,
		})
		solverWall := sw.Elapsed()
		level := man.Ladder.Clamp(dec.Level)

		wallStart := time.Now()
		bytes, served, fetch, err := engine.FetchChunk(ctx, level, k+1)
		if err != nil {
			return nil, err
		}
		level = served // graceful degradation may have lowered the level
		dlWall := time.Since(wallStart).Seconds()
		if dlWall < minDownloadWall {
			// An instantaneous loopback download would feed +Inf into the
			// predictor and poison the harmonic mean; floor the duration.
			dlWall = minDownloadWall
		}
		dl := dlWall * c.TimeScale // media-time download duration
		sizeKbits := float64(bytes) * 8 / 1000
		throughput := sizeKbits / dl // kbps in media time == trace units

		if k == 0 {
			// Play as soon as the first chunk arrives (StartupFirstChunk).
			res.StartupDelay = dl
			buffer = dl
		}
		rebuffer, next, wait := model.Step(buffer, dl, man.ChunkDuration, c.BufferMax)

		c.Predictor.Observe(throughput)
		var predicted float64
		if len(forecast) > 0 {
			predicted = forecast[0]
		}
		// Per-attempt transport timing in media time, so the retry and
		// backoff cost inside the chunk's download span stays visible.
		attempts := make([]model.AttemptRecord, len(fetch.AttemptLog))
		for i, a := range fetch.AttemptLog {
			attempts[i] = model.AttemptRecord{
				Start:    a.Start.Sub(start).Seconds() * c.TimeScale,
				Duration: a.Duration.Seconds() * c.TimeScale,
				Backoff:  a.Backoff.Seconds() * c.TimeScale,
				Level:    a.Level,
				Resumed:  a.Resumed,
				Error:    a.Err,
			}
		}
		res.Chunks = append(res.Chunks, model.ChunkRecord{
			Index:        k,
			Level:        level,
			Bitrate:      man.Ladder[level],
			SizeKbits:    sizeKbits,
			StartTime:    t,
			DownloadTime: dl,
			Throughput:   throughput,
			BufferBefore: buffer,
			BufferAfter:  next,
			Rebuffer:     rebuffer,
			Wait:         wait,
			Predicted:    predicted,
			DecisionTime: solverWall.Seconds(),
			Retries:      fetch.Retries,
			Resumes:      fetch.Resumes,
			Fallback:     fetch.Fallback,
			Attempts:     attempts,
		})
		if c.Obs.Enabled() {
			c.Obs.Decision(obs.DecisionEvent{
				Algorithm:     res.Algorithm,
				Chunk:         k,
				Time:          t,
				Buffer:        buffer,
				Prev:          prev,
				Predicted:     predicted,
				Candidates:    man.Ladder,
				Level:         level,
				Bitrate:       man.Ladder[level],
				SolverWall:    solverWall,
				DownloadStart: t,
				DownloadDur:   dl,
				Actual:        throughput,
				SizeKbits:     sizeKbits,
				Rebuffer:      rebuffer,
				Wait:          wait,
				BufferAfter:   next,
				Retries:       fetch.Retries,
				Resumes:       fetch.Resumes,
				Fallback:      fetch.Fallback,
				Attempts:      attempts,
			})
		}
		buffer = next
		prev = level
		if wait > 0 {
			// Buffer full: hold off in wall time like a real player, but
			// stay responsive to cancellation.
			if err := sleepCtx(ctx, time.Duration(wait/c.TimeScale*float64(time.Second))); err != nil {
				return nil, fmt.Errorf("emu: session cancelled waiting on a full buffer after chunk %d: %w", k, err)
			}
		}
	}
	return res, nil
}

// minDownloadWall floors the measured wall-clock download time so that an
// instantaneous loopback transfer cannot yield a zero duration (and an
// infinite throughput sample).
const minDownloadWall = 1e-6 // seconds

// fetchManifest downloads and converts the MPD into a model.Manifest.
func (c *Client) fetchManifest(ctx context.Context, httpc *http.Client) (*model.Manifest, error) {
	body, err := c.get(ctx, httpc, c.BaseURL+"/manifest.mpd")
	if err != nil {
		return nil, err
	}
	doc, err := mpd.Decode(body)
	if err != nil {
		return nil, err
	}
	as := doc.Period.AdaptationSet
	man, err := model.NewCBRManifest(model.Ladder(doc.LadderKbps()), as.SegmentCount, as.SegmentDuration)
	if err != nil {
		return nil, fmt.Errorf("emu: manifest rejected: %w", err)
	}
	return man, nil
}

func (c *Client) get(ctx context.Context, httpc *http.Client, url string) ([]byte, error) {
	body, err := c.getReader(ctx, httpc, url)
	if err != nil {
		return nil, err
	}
	defer body.Close()
	data, err := io.ReadAll(body)
	if err != nil {
		return nil, fmt.Errorf("emu: reading %s: %w", url, err)
	}
	return data, nil
}

func (c *Client) getReader(ctx context.Context, httpc *http.Client, url string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("emu: building request for %s: %w", url, err)
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("emu: GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("emu: GET %s: status %s", url, resp.Status)
	}
	return resp.Body, nil
}
