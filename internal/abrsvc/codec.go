package abrsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// The /v1/decide codec. Every per-chunk decision crosses the wire twice
// (request and response) and is encoded and decoded once on each end, so
// the decide path does not go through encoding/json's reflection. It
// stays byte-compatible with encoding/json, which remains the reference:
//
//   - The encoders write exactly the bytes json.Marshal (request) and
//     json.Encoder (response, with its trailing newline) write. A value
//     they cannot reproduce cheaply — a NaN or infinite float, or a
//     session string encoding/json would escape — is reported as not
//     handled, and the caller encodes it with encoding/json.
//   - The decoders are scanners that accept only the canonical shape the
//     encoders produce (see scanDecideRequest). Any other byte string is
//     handed unchanged to json.Decoder, so what is accepted or rejected,
//     and the decoded values, are encoding/json's.
//
// Registration, delete and error bodies keep encoding/json (readJSON,
// writeJSON, Client.post): they are off the per-chunk path.

// codecBuf is the pooled working memory of one decide call: the body read
// from or written to the wire, and the backing array of the decoded
// throughput samples.
type codecBuf struct {
	body    []byte
	samples []float64
}

// maxPooledBody bounds the body buffer a codecBuf keeps across uses; a
// rare large body is read once and then dropped.
const maxPooledBody = 64 << 10

var codecPool = sync.Pool{New: func() any {
	return &codecBuf{body: make([]byte, 0, 512), samples: make([]float64, 0, 8)}
}}

func getCodecBuf() *codecBuf { return codecPool.Get().(*codecBuf) }

// put returns cb to the pool. Nothing decoded into cb (the throughput
// samples) may be used afterwards.
func (cb *codecBuf) put() {
	if cap(cb.body) > maxPooledBody || cap(cb.samples) > maxPooledBody/8 {
		return
	}
	codecPool.Put(cb)
}

// readBody reads r into cb.body, at most maxBodyBytes bytes as readJSON's
// io.LimitReader allows. A read error other than io.EOF is returned with
// the bytes read before it.
func (cb *codecBuf) readBody(r io.Reader) ([]byte, error) {
	lr := io.LimitedReader{R: r, N: maxBodyBytes}
	b := cb.body[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := lr.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			cb.body = b[:0]
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
	}
}

// readDecideRequest decodes a /v1/decide request body into req. A
// canonical body takes the scanner; any other goes to json.Decoder with
// DisallowUnknownFields, as readJSON does for the other routes. The
// decoded throughput samples live in cb until cb.put.
func (cb *codecBuf) readDecideRequest(r io.Reader, req *DecideRequest) error {
	data, readErr := cb.readBody(r)
	if session, ok := scanDecideRequest(data, req, cb.samples[:0]); ok {
		req.Session = string(session)
		if cap(req.ThroughputSamples) > cap(cb.samples) {
			cb.samples = req.ThroughputSamples[:0]
		}
		return nil
	}
	ref, err := decodeReference[DecideRequest](data, readErr, true)
	if err != nil {
		return fmt.Errorf("abrsvc: invalid request body: %w", err)
	}
	*req = ref
	return nil
}

// readDecideResponse decodes a /v1/decide response body into resp, with
// json.Decoder (unknown fields ignored, as Client.post decodes) as the
// fallback.
func (cb *codecBuf) readDecideResponse(r io.Reader, resp *DecideResponse) error {
	data, readErr := cb.readBody(r)
	if session, ok := scanDecideResponse(data, resp); ok {
		resp.Session = string(session)
		return nil
	}
	ref, err := decodeReference[DecideResponse](data, readErr, false)
	*resp = ref
	return err
}

// decodeReference runs encoding/json over exactly the bytes the scanner
// saw, followed by the read error that ended them, if any: the same input
// a json.Decoder reading the body directly would have met. It decodes
// into a value of its own, so that the callers' messages stay off the
// heap when the scanner succeeds.
func decodeReference[T any](data []byte, readErr error, strict bool) (T, error) {
	var r io.Reader = bytes.NewReader(data)
	if readErr != nil {
		r = io.MultiReader(r, errReader{readErr})
	}
	dec := json.NewDecoder(r)
	if strict {
		dec.DisallowUnknownFields()
	}
	var v T
	err := dec.Decode(&v)
	return v, err
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// encodeDecideRequest is the client's request body: the encoder's bytes,
// or json.Marshal's for a value the encoder leaves to it. The body is not
// pooled: the transport may still be reading it, or may replay it through
// GetBody, after Client.Do returns.
func encodeDecideRequest(req *DecideRequest) ([]byte, error) {
	if b, ok := appendDecideRequest(make([]byte, 0, 96+len(req.Session)+24*len(req.ThroughputSamples)), req); ok {
		return b, nil
	}
	return json.Marshal(req)
}

// writeDecideResponse writes resp as writeJSON would, through the encoder
// when it handles the value.
func writeDecideResponse(w http.ResponseWriter, cb *codecBuf, resp *DecideResponse) {
	body, ok := appendDecideResponse(cb.body[:0], resp)
	if !ok {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	cb.body = body[:0]
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// ---- encoders -------------------------------------------------------

// appendDecideRequest appends the bytes json.Marshal(r) produces. It
// reports false, appending nothing, for a value it leaves to encoding/json.
//
//mpc:noalloc
func appendDecideRequest(b []byte, r *DecideRequest) ([]byte, bool) {
	if !plainString(r.Session) || !finite(r.Buffer) {
		return b, false
	}
	for _, v := range r.ThroughputSamples {
		if !finite(v) {
			return b, false
		}
	}
	b = appendRaw(b, `{"session":"`)
	b = appendRaw(b, r.Session)
	b = appendRaw(b, `","chunk":`)
	b = strconv.AppendInt(b, int64(r.Chunk), 10)
	b = appendRaw(b, `,"buffer":`)
	b = appendFloat(b, r.Buffer)
	b = appendRaw(b, `,"prev_level":`)
	b = strconv.AppendInt(b, int64(r.PrevLevel), 10)
	if len(r.ThroughputSamples) > 0 {
		b = appendRaw(b, `,"throughput_samples":[`)
		for i, v := range r.ThroughputSamples {
			if i > 0 {
				b = appendRaw(b, ",")
			}
			b = appendFloat(b, v)
		}
		b = appendRaw(b, "]")
	}
	return appendRaw(b, "}"), true
}

// appendDecideResponse appends the bytes json.NewEncoder(w).Encode(r)
// writes, trailing newline included. It reports false, appending nothing,
// for a value it leaves to encoding/json.
//
//mpc:noalloc
func appendDecideResponse(b []byte, r *DecideResponse) ([]byte, bool) {
	if !plainString(r.Session) || !finite(r.BitrateKbps) || !finite(r.PredictedKbps) ||
		!finite(r.LowerKbps) || !finite(r.FairShareKbps) {
		return b, false
	}
	b = appendRaw(b, `{"session":"`)
	b = appendRaw(b, r.Session)
	b = appendRaw(b, `","chunk":`)
	b = strconv.AppendInt(b, int64(r.Chunk), 10)
	b = appendRaw(b, `,"level":`)
	b = strconv.AppendInt(b, int64(r.Level), 10)
	b = appendRaw(b, `,"bitrate_kbps":`)
	b = appendFloat(b, r.BitrateKbps)
	b = appendRaw(b, `,"predicted_kbps":`)
	b = appendFloat(b, r.PredictedKbps)
	// omitempty drops a float that compares equal to zero, -0 included.
	if r.LowerKbps != 0 { //lint:allow floateq omitempty's own test is == 0
		b = appendRaw(b, `,"lower_kbps":`)
		b = appendFloat(b, r.LowerKbps)
	}
	if r.FairShareKbps != 0 { //lint:allow floateq omitempty's own test is == 0
		b = appendRaw(b, `,"fair_share_kbps":`)
		b = appendFloat(b, r.FairShareKbps)
	}
	if r.Replayed {
		b = appendRaw(b, `,"replayed":true`)
	}
	return appendRaw(b, "}\n"), true
}

// appendRaw is where the encoders grow the caller's buffer. It is kept
// out of the //mpc:noalloc functions because it allocates when the buffer
// is too small; a pooled buffer stops growing after the first calls.
func appendRaw(b []byte, s string) []byte { return append(b, s...) }

// appendFloat appends x formatted as encoding/json formats a float64:
// like ES6, 'f' inside [1e-6, 1e21) and 'e' outside it, with a one-digit
// negative exponent unpadded (e-7, not e-07). x must be finite.
//
//mpc:noalloc
func appendFloat(b []byte, x float64) []byte {
	format := byte('f')
	if a := math.Abs(x); a != 0 && (a < 1e-6 || a >= 1e21) { //lint:allow floateq zero takes 'f', as in encoding/json
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// plainString reports whether encoding/json writes s verbatim between
// quotes: printable ASCII only, and none of the characters it escapes
// with its default HTML escaping (" \ < > &).
//
//mpc:noalloc
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// ---- scanners -------------------------------------------------------

// Field indexes of the two messages, in wire order; a bit per field
// tracks which keys a scanner has seen.
var (
	decideRequestKeys  = []string{"session", "chunk", "buffer", "prev_level", "throughput_samples"}
	decideResponseKeys = []string{"session", "chunk", "level", "bitrate_kbps", "predicted_kbps", "lower_kbps", "fair_share_kbps", "replayed"}
)

// scanDecideRequest decodes the canonical shape of a decide request: one
// JSON object, whitespace allowed wherever JSON allows it and after the
// object, whose members use the exact lowercase keys of DecideRequest,
// each at most once, with no null; strings without escapes or bytes
// outside printable ASCII; plain integers for the int fields; and numbers
// in JSON syntax parsed by strconv as encoding/json parses them. It
// returns the session string's bytes (nil when absent) and false for any
// other input, in which case req holds garbage. The decoded samples are
// appended to samples, which must be non-nil so that `[]` decodes, as in
// encoding/json, to an empty non-nil slice.
//
//mpc:noalloc
func scanDecideRequest(data []byte, req *DecideRequest, samples []float64) (session []byte, ok bool) {
	s := scanner{b: data}
	if !s.eat('{') {
		return nil, false
	}
	if s.eat('}') {
		return nil, s.done()
	}
	var seen uint
	for {
		k := s.key(decideRequestKeys)
		if k < 0 || seen&(1<<k) != 0 {
			return nil, false
		}
		seen |= 1 << k
		switch k {
		case 0:
			session, ok = s.str()
		case 1:
			req.Chunk, ok = s.int()
		case 2:
			req.Buffer, ok = s.float()
		case 3:
			req.PrevLevel, ok = s.int()
		default:
			req.ThroughputSamples, ok = s.floats(samples)
		}
		if !ok {
			return nil, false
		}
		if !s.eat(',') {
			return session, s.eat('}') && s.done()
		}
	}
}

// scanDecideResponse is scanDecideRequest for a decide response; the
// replayed field takes the literals true and false.
//
//mpc:noalloc
func scanDecideResponse(data []byte, resp *DecideResponse) (session []byte, ok bool) {
	s := scanner{b: data}
	if !s.eat('{') {
		return nil, false
	}
	if s.eat('}') {
		return nil, s.done()
	}
	var seen uint
	for {
		k := s.key(decideResponseKeys)
		if k < 0 || seen&(1<<k) != 0 {
			return nil, false
		}
		seen |= 1 << k
		switch k {
		case 0:
			session, ok = s.str()
		case 1:
			resp.Chunk, ok = s.int()
		case 2:
			resp.Level, ok = s.int()
		case 3:
			resp.BitrateKbps, ok = s.float()
		case 4:
			resp.PredictedKbps, ok = s.float()
		case 5:
			resp.LowerKbps, ok = s.float()
		case 6:
			resp.FairShareKbps, ok = s.float()
		default:
			resp.Replayed, ok = s.boolean()
		}
		if !ok {
			return nil, false
		}
		if !s.eat(',') {
			return session, s.eat('}') && s.done()
		}
	}
}

// scanner walks a canonical JSON object. Every method skips the
// whitespace in front of its token and reports false when the token is
// not there or not canonical; the scan is then abandoned.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes the byte c.
func (s *scanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// done reports whether only whitespace is left.
func (s *scanner) done() bool {
	s.ws()
	return s.i == len(s.b)
}

// key consumes `"name" :` and returns name's index in keys, or -1.
//
//mpc:noalloc
func (s *scanner) key(keys []string) int {
	name, ok := s.str()
	if !ok || !s.eat(':') {
		return -1
	}
	return keyIndex(name, keys)
}

// keyIndex is split from key because string(name) == k, which the
// compiler compares without a copy, reads to the noalloc check as a
// conversion.
func keyIndex(name []byte, keys []string) int {
	for i, k := range keys {
		if string(name) == k {
			return i
		}
	}
	return -1
}

// str consumes a string with no escapes and only printable ASCII bytes
// and returns its contents.
//
//mpc:noalloc
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		c := s.b[s.i]
		if c == '"' {
			s.i++
			return s.b[start : s.i-1], true
		}
		if c < 0x20 || c > 0x7e || c == '\\' {
			return nil, false
		}
	}
	return nil, false
}

// number consumes a number in JSON syntax and returns its literal;
// integer reports that it has no fraction and no exponent.
//
//mpc:noalloc
func (s *scanner) number() (lit []byte, integer, ok bool) {
	s.ws()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	switch {
	case s.i >= len(s.b):
		return nil, false, false
	case s.b[s.i] == '0':
		s.i++
	case !s.digits():
		return nil, false, false
	}
	integer = true
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if !s.digits() {
			return nil, false, false
		}
		integer = false
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if !s.digits() {
			return nil, false, false
		}
		integer = false
	}
	return s.b[start:s.i], integer, true
}

// digits consumes one or more decimal digits.
func (s *scanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// int consumes a plain integer that fits an int.
func (s *scanner) int() (int, bool) {
	lit, integer, ok := s.number()
	if !ok || !integer {
		return 0, false
	}
	return parseInt(lit)
}

// float consumes a number that strconv parses to a finite float64, as
// encoding/json requires.
func (s *scanner) float() (float64, bool) {
	lit, _, ok := s.number()
	if !ok {
		return 0, false
	}
	return parseFloat(lit)
}

// floats consumes an array of numbers, appending them to dst.
//
//mpc:noalloc
func (s *scanner) floats(dst []float64) ([]float64, bool) {
	if !s.eat('[') {
		return nil, false
	}
	if s.eat(']') {
		return dst, true
	}
	for {
		v, ok := s.float()
		if !ok {
			return nil, false
		}
		dst = appendSample(dst, v)
		if s.eat(']') {
			return dst, true
		}
		if !s.eat(',') {
			return nil, false
		}
	}
}

// boolean consumes true or false.
func (s *scanner) boolean() (bool, bool) {
	s.ws()
	rest := s.b[s.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.i += 5
		return false, true
	}
	return false, false
}

// parseInt and parseFloat call strconv as encoding/json does. A literal
// of up to 32 bytes converts to a string on the stack.
func parseInt(lit []byte) (int, bool) {
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	return int(n), err == nil
}

func parseFloat(lit []byte) (float64, bool) {
	v, err := strconv.ParseFloat(string(lit), 64)
	return v, err == nil
}

// appendSample grows the samples array; see appendRaw.
func appendSample(dst []float64, v float64) []float64 { return append(dst, v) }

// DecideCodecRoundTrip does the codec work of one decide call on both ends
// of the wire, without the HTTP hop: the client's encode of req, the
// server's decode of it and encode of resp, and the client's decode of
// that, each with the same fallbacks as the real call. It fails if a value
// does not survive. Benchmarks use it to time the codec stage apart from
// the rest of the round trip.
func DecideCodecRoundTrip(req *DecideRequest, resp *DecideResponse) error {
	body, err := encodeDecideRequest(req)
	if err != nil {
		return err
	}
	server, client := getCodecBuf(), getCodecBuf()
	defer server.put()
	defer client.put()
	var sreq DecideRequest
	if err := server.readDecideRequest(bytes.NewReader(body), &sreq); err != nil {
		return err
	}
	out, ok := appendDecideResponse(server.body[:0], resp)
	if ok {
		server.body = out[:0]
	} else {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(resp); err != nil {
			return err
		}
		out = buf.Bytes()
	}
	var cresp DecideResponse
	if err := client.readDecideResponse(bytes.NewReader(out), &cresp); err != nil {
		return err
	}
	if sreq.Session != req.Session || sreq.Chunk != req.Chunk || len(sreq.ThroughputSamples) != len(req.ThroughputSamples) ||
		cresp.Session != resp.Session || cresp.Level != resp.Level {
		return fmt.Errorf("abrsvc: decide codec round trip changed the value")
	}
	return nil
}
