package abrsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpcdash/internal/core"
	"mpcdash/internal/fastmpc"
	"mpcdash/internal/model"
	"mpcdash/internal/obs"
)

// maxBodyBytes bounds request bodies; the largest legitimate payload (a
// registration with a long ladder) is a few kilobytes.
const maxBodyBytes = 1 << 20

// decideBuckets resolve sub-millisecond decision latencies: 1 µs to ~0.5 s
// exponentially. The default time buckets start at 1 ms — useless for a
// path whose budget is "p99 under a millisecond".
var decideBuckets = obs.ExpBuckets(1e-6, 2, 20)

// Service is the ABR decision service: the session store, the admission
// valve, the fairness table and the HTTP surface over them. Create one
// with New, expose Handler somewhere (or use Start for a managed server),
// and run Janitor for TTL eviction.
type Service struct {
	cfg    Config
	store  *store
	adm    *admission
	groups *groupTable
	mux    *http.ServeMux

	nextID  atomic.Uint64
	nextSeq atomic.Uint64

	draining atomic.Bool

	sinkMu     sync.Mutex
	sinkClosed bool

	cRequests map[string]*obs.Counter
	cDecided  *obs.Counter
	hDecide   *obs.Histogram
	hRequest  *obs.Histogram

	// testDecideHold, when non-nil, is received from inside the decide
	// handler after admission — tests use it to pin in-flight slots and
	// exercise shedding deterministically.
	testDecideHold chan struct{}
}

// New builds a service from cfg (zero fields take production defaults).
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	s := &Service{
		cfg:    cfg,
		store:  newStore(cfg.Shards, cfg.SessionTTL, cfg.MaxSessions, time.Now, reg),
		adm:    newAdmission(cfg.MaxInFlight, cfg.QueueDepth, cfg.QueueWait, reg),
		groups: newGroupTable(),
		mux:    http.NewServeMux(),
	}
	s.cRequests = map[string]*obs.Counter{
		"session": reg.Counter(MetricRequestsTotal, "API requests by route.", "route", "session"),
		"decide":  reg.Counter(MetricRequestsTotal, "API requests by route.", "route", "decide"),
		"delete":  reg.Counter(MetricRequestsTotal, "API requests by route.", "route", "delete"),
	}
	s.cDecided = reg.Counter(MetricDecisionsTotal, "Fresh decisions computed (replays excluded).")
	s.hDecide = reg.Histogram(MetricDecideSeconds, "Lookup-path decision latency in seconds (predictor update + table lookup).", decideBuckets)
	s.hRequest = reg.Histogram(MetricRequestSeconds, "End-to-end decide request handling latency in seconds.", decideBuckets)

	s.mux.HandleFunc("POST /v1/session", s.handleSession)
	s.mux.HandleFunc("POST /v1/decide", s.handleDecide)
	s.mux.HandleFunc("DELETE /v1/session/{id}", s.handleDelete)
	s.mux.Handle("GET /metrics", reg.Handler())
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Handler returns the service's HTTP surface.
func (s *Service) Handler() http.Handler { return s.mux }

// Registry returns the metrics registry the service writes to.
func (s *Service) Registry() *obs.Registry { return s.cfg.Registry }

// Sessions reports the resident session count.
func (s *Service) Sessions() int { return s.store.len() }

// Janitor evicts idle sessions every Config.EvictEvery until ctx is
// cancelled. Run it in its own goroutine alongside the HTTP server.
func (s *Service) Janitor(ctx context.Context) {
	t := time.NewTicker(s.cfg.EvictEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.EvictIdle()
		}
	}
}

// EvictIdle sweeps the store once, detaching evicted sessions from their
// link groups, and returns how many sessions were removed.
func (s *Service) EvictIdle() int {
	evicted := s.store.evictIdle()
	for _, ss := range evicted {
		s.groups.drop(ss.group, ss.id)
	}
	return len(evicted)
}

// closeSink flushes the decision sink exactly once.
func (s *Service) closeSink() error {
	if s.cfg.Sink == nil {
		return nil
	}
	s.sinkMu.Lock()
	defer s.sinkMu.Unlock()
	if s.sinkClosed {
		return nil
	}
	s.sinkClosed = true
	return s.cfg.Sink.Close()
}

// ---- handlers -------------------------------------------------------

func (s *Service) handleSession(w http.ResponseWriter, r *http.Request) {
	s.cRequests["session"].Inc()
	var req SessionRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rc, err := resolveConfig(req.Config)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	manifest, err := model.NewCBRManifest(rc.ladder, rc.chunks, rc.chunkSec)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("abrsvc: manifest rejected: %w", err))
		return
	}
	opt, err := core.NewOptimizer(manifest, rc.weights, model.QIdentity, rc.bufferMax, rc.horizon)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("abrsvc: %w", err))
		return
	}
	spec := fastmpc.DefaultBins(rc.bufferMax, manifest.Ladder.Max())
	// The registry deduplicates: N sessions registering equal configs
	// share one enumeration (and the disk tier when configured), so only
	// the first registration of a config pays the offline build.
	table, err := s.cfg.Tables.Table(opt, spec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("abrsvc: table build failed: %w", err))
		return
	}
	id := req.ID
	if id == "" {
		id = fmt.Sprintf("s%08d", s.nextID.Add(1))
	}
	ss := newSession(id, int(s.nextSeq.Add(1)), rc, table)
	if err := s.store.put(ss); err != nil {
		status := http.StatusServiceUnavailable
		if _, dup := s.store.get(id); dup {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	if s.cfg.Fairness && rc.linkGroup != "" {
		s.groups.join(rc.linkGroup, id)
	}
	writeJSON(w, http.StatusOK, SessionResponse{
		Session:  id,
		Levels:   manifest.Levels(),
		TableKey: fmt.Sprintf("%016x", fastmpc.TableKey(opt, model.QualityID(model.QIdentity), spec)),
	})
}

func (s *Service) handleDecide(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.cRequests["decide"].Inc()
	cb := getCodecBuf()
	defer cb.put()
	var req DecideRequest
	if err := cb.readDecideRequest(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	release, err := s.adm.acquire(r.Context())
	if err != nil {
		if errors.Is(err, errShed) {
			w.Header().Set("Retry-After", strconv.Itoa(s.adm.retryAfterSeconds()))
			writeError(w, http.StatusTooManyRequests, err)
		}
		// Context errors mean the client is gone; nothing useful to write.
		return
	}
	defer release()
	if s.testDecideHold != nil {
		<-s.testDecideHold
	}

	ss, ok := s.store.get(req.Session)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("abrsvc: unknown session %q", req.Session))
		return
	}

	ss.mu.Lock()
	if req.Chunk == ss.lastChunk {
		resp := ss.lastResp
		resp.Replayed = true
		ss.mu.Unlock()
		writeDecideResponse(w, cb, &resp)
		s.hRequest.Observe(time.Since(t0).Seconds())
		return
	}
	var share float64
	if s.cfg.Fairness && ss.group != "" {
		share = s.groups.observe(ss.group, ss.id, lastSample(req.ThroughputSamples))
	}
	sw := obs.StartStopwatch()
	resp := ss.decide(&req, share)
	decideDur := sw.Elapsed()
	ss.lastChunk = req.Chunk
	ss.lastResp = resp
	alg, seq := ss.algorithm(), ss.seq
	ss.mu.Unlock()

	s.cDecided.Inc()
	s.hDecide.Observe(decideDur.Seconds())
	if s.cfg.Sink != nil {
		s.cfg.Sink.Decision(obs.DecisionEvent{
			Algorithm:  alg,
			Session:    seq,
			Chunk:      req.Chunk,
			Buffer:     req.Buffer,
			Prev:       req.PrevLevel,
			Predicted:  resp.PredictedKbps,
			Candidates: ss.ladder,
			Level:      resp.Level,
			Bitrate:    resp.BitrateKbps,
			SolverWall: decideDur,
			Actual:     lastSample(req.ThroughputSamples),
		})
	}
	writeDecideResponse(w, cb, &resp)
	s.hRequest.Observe(time.Since(t0).Seconds())
}

func (s *Service) handleDelete(w http.ResponseWriter, r *http.Request) {
	s.cRequests["delete"].Inc()
	id := r.PathValue("id")
	ss, ok := s.store.delete(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("abrsvc: unknown session %q", id))
		return
	}
	s.groups.drop(ss.group, ss.id)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// readJSON decodes a bounded request body, rejecting unknown fields so a
// misspelled knob fails loudly instead of silently taking its default.
func readJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("abrsvc: invalid request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// ---- managed server -------------------------------------------------

// Server is a Service bound to a listener with a managed lifecycle: a
// background janitor, and a graceful Shutdown that stops accepting,
// drains in-flight requests, halts eviction and flushes the trace sink.
type Server struct {
	Service *Service

	http        *http.Server
	addr        string
	stopJanitor context.CancelFunc
	janitorDone chan struct{}
}

// Start listens on addr (e.g. "127.0.0.1:0"), serves the API in a
// background goroutine and starts the TTL janitor.
func (s *Service) Start(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("abrsvc: listen on %s: %w", addr, err)
	}
	srv := &Server{
		Service:     s,
		http:        &http.Server{Handler: s.mux},
		addr:        ln.Addr().String(),
		janitorDone: make(chan struct{}),
	}
	jctx, cancel := context.WithCancel(context.Background())
	srv.stopJanitor = cancel
	go func() {
		defer close(srv.janitorDone)
		s.Janitor(jctx)
	}()
	go func() { //lint:allow ctxleak Serve exits when Server.Shutdown closes the listener
		_ = srv.http.Serve(ln)
	}()
	return srv, nil
}

// Addr returns the bound listen address.
func (srv *Server) Addr() string { return srv.addr }

// URL returns the service base URL.
func (srv *Server) URL() string { return "http://" + srv.addr }

// Shutdown drains the server gracefully: health flips to draining, the
// listener closes, in-flight requests run to completion (bounded by ctx),
// the janitor stops and the decision sink is flushed. Safe to call once.
func (srv *Server) Shutdown(ctx context.Context) error {
	srv.Service.draining.Store(true)
	err := srv.http.Shutdown(ctx)
	if err != nil {
		// Drain deadline blown: hard-close whatever is left.
		_ = srv.http.Close()
	}
	srv.stopJanitor()
	<-srv.janitorDone
	if serr := srv.Service.closeSink(); serr != nil && err == nil {
		err = serr
	}
	return err
}
