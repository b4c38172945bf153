package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mpcdash/internal/abr"
	"mpcdash/internal/predictor"
)

// spanKind names the call a span times: its layer (the module name) and
// the function. Spans hold the kind as a small integer so they carry no
// pointers and a run's millions of them cost the garbage collector
// nothing to scan.
type spanKind uint8

const (
	kindSimRun spanKind = iota
	kindCoreDecide
	kindFastmpcDecide
	kindAbrDecide
	kindObserve
	kindPredict
	kindLowerBound
	kindSvcDecide
	kindSvcRegister
	kindSvcDelete
	kindChurnSession
)

var spanKinds = [...]struct{ layer, name string }{
	kindSimRun:        {"sim", "Run"},
	kindCoreDecide:    {"core", "Decide"},
	kindFastmpcDecide: {"fastmpc", "Decide"},
	kindAbrDecide:     {"abr", "Decide"},
	kindObserve:       {"predictor", "Observe"},
	kindPredict:       {"predictor", "Predict"},
	kindLowerBound:    {"predictor", "LowerBound"},
	kindSvcDecide:     {"abrsvc", "Client.Decide"},
	kindSvcRegister:   {"abrsvc", "Client.Register"},
	kindSvcDelete:     {"abrsvc", "Client.Delete"},
	kindChurnSession:  {"loadgen", "session"},
}

func (k spanKind) layer() string { return spanKinds[k].layer }

// span is one timed call into a layer, recorded by the benchmark around
// the call (never inside the program). Spans of one operation share a
// root: Parent 0 marks a root.
type span struct {
	ID, Parent int64
	Kind       spanKind
	Start, End int64 // ns since the tracer's base
}

// tracer hands out span buffers, one per worker so recording takes no
// lock, and keeps every span in memory until the run writes them out.
type tracer struct {
	base time.Time
	ids  atomic.Int64
	mu   sync.Mutex
	bufs []*spanBuf
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// spanBuf collects one worker's spans. A nil *spanBuf records nothing,
// so untraced code paths carry no tracing cost beyond a nil check.
type spanBuf struct {
	t     *tracer
	spans []span
}

func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// begin opens a span and returns its id and start time.
func (b *spanBuf) begin() (int64, int64) {
	if b == nil {
		return 0, 0
	}
	return b.t.ids.Add(1), int64(time.Since(b.t.base))
}

// end closes a span opened by begin.
func (b *spanBuf) end(id, parent int64, kind spanKind, start int64) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, span{ID: id, Parent: parent, Kind: kind, Start: start, End: int64(time.Since(b.t.base))})
}

// all returns every recorded span.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// selfByLayer sums each layer's self time: a span's duration minus the
// part its direct children cover.
func selfByLayer(spans []span) map[string]int64 {
	child := make(map[int64]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Kind.layer()] += s.End - s.Start - child[s.ID]
	}
	return out
}

// durations returns the durations in µs of the spans of one kind.
func durations(spans []span, kind spanKind) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Kind == kind {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		ID, Parent     int64
		Layer, Name    string
		StartNs, EndNs int64
	}
	for _, s := range spans {
		k := spanKinds[s.Kind]
		if err := enc.Encode(line{s.ID, s.Parent, k.layer, k.name, s.Start, s.End}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// tracedCtrl times every Decide of the wrapped controller as a span of
// kind under the current session span.
type tracedCtrl struct {
	inner  abr.Controller
	buf    *spanBuf
	parent int64
	kind   spanKind
}

func (c *tracedCtrl) Name() string { return c.inner.Name() }

func (c *tracedCtrl) Decide(s abr.State) abr.Decision {
	id, t0 := c.buf.begin()
	d := c.inner.Decide(s)
	c.buf.end(id, c.parent, c.kind, t0)
	return d
}

// tracedPred times the wrapped predictor's calls. It forwards SetTime and
// LowerBound only when the inner predictor has them; a nil lower bound is
// what the simulator passes on when a predictor has none, so wrapping
// never changes a session's decisions.
type tracedPred struct {
	inner  predictor.Predictor
	buf    *spanBuf
	parent int64
}

func (p *tracedPred) Name() string { return p.inner.Name() }

func (p *tracedPred) SetTime(sec float64) {
	if ta, ok := p.inner.(predictor.TimeAware); ok {
		ta.SetTime(sec)
	}
}

func (p *tracedPred) Observe(kbps float64) {
	id, t0 := p.buf.begin()
	p.inner.Observe(kbps)
	p.buf.end(id, p.parent, kindObserve, t0)
}

func (p *tracedPred) Predict(n int) []float64 {
	id, t0 := p.buf.begin()
	f := p.inner.Predict(n)
	p.buf.end(id, p.parent, kindPredict, t0)
	return f
}

func (p *tracedPred) LowerBound(n int) []float64 {
	lb, ok := p.inner.(predictor.LowerBounder)
	if !ok {
		return nil
	}
	id, t0 := p.buf.begin()
	f := lb.LowerBound(n)
	p.buf.end(id, p.parent, kindLowerBound, t0)
	return f
}
