package abrsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"mpcdash/internal/fuzzcorpus"
)

// The decide codec must be indistinguishable from encoding/json, its
// reference: the encoders byte for byte, the decoders in what they accept
// and in the values they produce. These tests compare the two directly.

// sameFloat compares bit patterns, so that -0 and 0 differ.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameRequest(a, b DecideRequest) bool {
	if a.Session != b.Session || a.Chunk != b.Chunk || a.PrevLevel != b.PrevLevel || !sameFloat(a.Buffer, b.Buffer) ||
		(a.ThroughputSamples == nil) != (b.ThroughputSamples == nil) || len(a.ThroughputSamples) != len(b.ThroughputSamples) {
		return false
	}
	for i := range a.ThroughputSamples {
		if !sameFloat(a.ThroughputSamples[i], b.ThroughputSamples[i]) {
			return false
		}
	}
	return true
}

func sameResponse(a, b DecideResponse) bool {
	return a.Session == b.Session && a.Chunk == b.Chunk && a.Level == b.Level &&
		sameFloat(a.BitrateKbps, b.BitrateKbps) && sameFloat(a.PredictedKbps, b.PredictedKbps) &&
		sameFloat(a.LowerKbps, b.LowerKbps) && sameFloat(a.FairShareKbps, b.FairShareKbps) && a.Replayed == b.Replayed
}

// referenceRequest is readJSON's decode of a decide body.
func referenceRequest(data []byte) (DecideRequest, error) {
	var req DecideRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// referenceResponse is the decode Client.post makes of a response body.
func referenceResponse(data []byte) (DecideResponse, error) {
	var resp DecideResponse
	err := json.NewDecoder(bytes.NewReader(data)).Decode(&resp)
	return resp, err
}

func encodeReference(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// codecFloats are the float64 shapes whose formatting differs: zero and
// negative zero, subnormals, both sides of the 1e-6 and 1e21 format
// switches, one-digit negative exponents, and the extremes.
var codecFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 2400, 1850.25, 123456789.125,
	5e-324, -5e-324, 2.2250738585072014e-308, 1e-7, -3e-9, 1.5e-10,
	1e-6, math.Nextafter(1e-6, 0), 1e21, -1e21, math.Nextafter(1e21, 0), 1e22, 1.7976931348623157e308,
	-math.MaxFloat64, 12345678901234567890, 0.000001234,
}

func TestDecideEncodersMatchEncodingJSON(t *testing.T) {
	var reqs []DecideRequest
	var resps []DecideResponse
	for i, x := range codecFloats {
		y := codecFloats[(i*7+3)%len(codecFloats)]
		reqs = append(reqs,
			DecideRequest{Session: "s00000001", Chunk: i, Buffer: x, PrevLevel: i - 1},
			DecideRequest{Session: "viewer-7", Chunk: -i, Buffer: y, PrevLevel: 5, ThroughputSamples: []float64{x}},
			DecideRequest{Session: "a b~{}[]:,", Buffer: x, ThroughputSamples: []float64{x, y, 0}},
		)
		resps = append(resps,
			DecideResponse{Session: "s00000001", Chunk: i, Level: 3, BitrateKbps: x, PredictedKbps: y},
			DecideResponse{Session: "x", Chunk: math.MaxInt, Level: math.MinInt, BitrateKbps: y, PredictedKbps: x, LowerKbps: x, FairShareKbps: y, Replayed: true},
		)
	}
	reqs = append(reqs,
		DecideRequest{},
		DecideRequest{ThroughputSamples: []float64{}}, // omitempty drops an empty slice too
		DecideRequest{Session: "s", Chunk: math.MinInt, PrevLevel: math.MaxInt},
	)
	resps = append(resps, DecideResponse{}, DecideResponse{LowerKbps: math.Copysign(0, -1), FairShareKbps: math.Copysign(0, -1)})

	var buf []byte
	for _, r := range reqs {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := appendDecideRequest(buf[:0], &r)
		if !ok || !bytes.Equal(got, want) {
			t.Errorf("appendDecideRequest(%+v) = %q, %v; json.Marshal = %q", r, got, ok, want)
		}
		buf = got
	}
	for _, r := range resps {
		want := encodeReference(t, r)
		got, ok := appendDecideResponse(buf[:0], &r)
		if !ok || !bytes.Equal(got, want) {
			t.Errorf("appendDecideResponse(%+v) = %q, %v; json.Encoder = %q", r, got, ok, want)
		}
		buf = got
	}
}

// TestDecideEncodersDecline checks the two cases left to encoding/json:
// a value it cannot encode and a session string it would escape.
func TestDecideEncodersDecline(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, r := range []DecideRequest{{Buffer: bad}, {ThroughputSamples: []float64{1, bad}}} {
			if b, ok := appendDecideRequest([]byte("x"), &r); ok || string(b) != "x" {
				t.Errorf("appendDecideRequest(%+v) handled a non-finite value: %q", r, b)
			}
		}
		for _, r := range []DecideResponse{{BitrateKbps: bad}, {PredictedKbps: bad}, {LowerKbps: bad}, {FairShareKbps: bad}} {
			if b, ok := appendDecideResponse([]byte("x"), &r); ok || string(b) != "x" {
				t.Errorf("appendDecideResponse(%+v) handled a non-finite value: %q", r, b)
			}
		}
	}
	for _, s := range []string{`a"b`, `a\b`, "a<b", "a>b", "a&b", "a\nb", "a\x00", "a\x7f", "caf\u00e9", "a\u2028", "\xff"} {
		if _, ok := appendDecideRequest(nil, &DecideRequest{Session: s}); ok {
			t.Errorf("appendDecideRequest handled session %q", s)
		}
		if _, ok := appendDecideResponse(nil, &DecideResponse{Session: s}); ok {
			t.Errorf("appendDecideResponse handled session %q", s)
		}
	}
}

// randomCodecFloat draws from codecFloats, from uniformly random finite
// bit patterns, and from the kbps and buffer ranges the service sees.
func randomCodecFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return codecFloats[rng.Intn(len(codecFloats))]
	case 1:
		for {
			if x := math.Float64frombits(rng.Uint64()); finite(x) {
				return x
			}
		}
	case 2:
		return math.Round(rng.Float64()*30*1000) / 1000
	default:
		return rng.ExpFloat64() * 3000
	}
}

// randomSession is mostly plain, sometimes a string encoding/json escapes.
func randomSession(rng *rand.Rand) string {
	alphabet := "abcXYZ019-_./:; ~"
	if rng.Intn(8) == 0 {
		alphabet += "\"\\<>&\n\x01\u00e9"
	}
	b := make([]byte, rng.Intn(12))
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// TestDecideCodecRandomDifferential encodes seeded random messages with
// both codecs, requires equal bytes whenever the encoder handles the
// value, and decodes encoding/json's output, compact and indented, with
// the scanners, which must reproduce encoding/json's decode bit for bit.
func TestDecideCodecRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20150817))
	n := 20000
	if testing.Short() {
		n = 2000
	}
	var buf []byte
	for i := 0; i < n; i++ {
		req := DecideRequest{Session: randomSession(rng), Chunk: rng.Intn(2000) - 10, Buffer: randomCodecFloat(rng), PrevLevel: rng.Intn(8) - 1}
		for k := rng.Intn(4); k > 0; k-- {
			req.ThroughputSamples = append(req.ThroughputSamples, randomCodecFloat(rng))
		}
		resp := DecideResponse{Session: randomSession(rng), Chunk: rng.Int(), Level: rng.Intn(6), BitrateKbps: randomCodecFloat(rng), PredictedKbps: randomCodecFloat(rng), Replayed: rng.Intn(3) == 0}
		if rng.Intn(2) == 0 {
			resp.LowerKbps = randomCodecFloat(rng)
		}
		if rng.Intn(3) == 0 {
			resp.FairShareKbps = randomCodecFloat(rng)
		}

		wantReq, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := appendDecideRequest(buf[:0], &req)
		if ok != plainString(req.Session) || ok && !bytes.Equal(got, wantReq) {
			t.Fatalf("appendDecideRequest(%+v) = %q, %v; json.Marshal = %q", req, got, ok, wantReq)
		}
		wantResp := encodeReference(t, resp)
		got, ok = appendDecideResponse(got[:0], &resp)
		if ok != plainString(resp.Session) || ok && !bytes.Equal(got, wantResp) {
			t.Fatalf("appendDecideResponse(%+v) = %q, %v; json.Encoder = %q", resp, got, ok, wantResp)
		}
		buf = got

		indReq, _ := json.MarshalIndent(req, " ", "\t")
		indResp, _ := json.MarshalIndent(resp, "", "  ")
		for _, body := range [][]byte{wantReq, indReq} {
			var dec DecideRequest
			session, ok := scanDecideRequest(body, &dec, make([]float64, 0, 1))
			dec.Session = string(session)
			if ok != plainString(req.Session) || ok && !sameRequest(dec, req) {
				t.Fatalf("scanDecideRequest(%q) = %+v, %v; want %+v", body, dec, ok, req)
			}
		}
		for _, body := range [][]byte{wantResp, indResp} {
			// omitempty drops a -0, so the reference is json's decode.
			var dec, want DecideResponse
			if err := json.Unmarshal(body, &want); err != nil {
				t.Fatal(err)
			}
			session, ok := scanDecideResponse(body, &dec)
			dec.Session = string(session)
			if ok != plainString(resp.Session) || ok && !sameResponse(dec, want) {
				t.Fatalf("scanDecideResponse(%q) = %+v, %v; json.Unmarshal %+v", body, dec, ok, want)
			}
		}
	}
}

// checkDecideDecoders is the differential property of the decoders on
// one body: the decode the handler runs accepts exactly what readJSON
// accepts, with equal values; the decode the client runs matches
// Client.post's json.Decoder; and whatever a scanner accepts on its own,
// json.Unmarshal accepts with the same value.
func checkDecideDecoders(t *testing.T, data []byte) {
	t.Helper()
	cb := &codecBuf{samples: make([]float64, 0, 2)}

	want, wantErr := referenceRequest(data)
	var got DecideRequest
	err := cb.readDecideRequest(bytes.NewReader(data), &got)
	if (err != nil) != (wantErr != nil) || err == nil && !sameRequest(got, want) {
		t.Fatalf("request %q: decoded %+v, %v; json.Decoder %+v, %v", data, got, err, want, wantErr)
	}
	var fast DecideRequest
	if session, ok := scanDecideRequest(data, &fast, make([]float64, 0, 1)); ok {
		fast.Session = string(session)
		var u DecideRequest
		if err := json.Unmarshal(data, &u); err != nil || !sameRequest(fast, u) {
			t.Fatalf("request %q: scanner accepted %+v; json.Unmarshal %+v, %v", data, fast, u, err)
		}
	}

	wantResp, wantErr := referenceResponse(data)
	var gotResp DecideResponse
	err = cb.readDecideResponse(bytes.NewReader(data), &gotResp)
	if (err != nil) != (wantErr != nil) || err == nil && !sameResponse(gotResp, wantResp) {
		t.Fatalf("response %q: decoded %+v, %v; json.Decoder %+v, %v", data, gotResp, err, wantResp, wantErr)
	}
	var fastResp DecideResponse
	if session, ok := scanDecideResponse(data, &fastResp); ok {
		fastResp.Session = string(session)
		var u DecideResponse
		if err := json.Unmarshal(data, &u); err != nil || !sameResponse(fastResp, u) {
			t.Fatalf("response %q: scanner accepted %+v; json.Unmarshal %+v, %v", data, fastResp, u, err)
		}
	}
}

// decideCodecSeeds is the committed seed corpus for FuzzDecideCodec:
// canonical bodies of both messages, and the edges of the canonical shape
// that must go to encoding/json instead.
func decideCodecSeeds() [][]byte {
	return [][]byte{
		[]byte(`{"session":"s00000001","chunk":12,"buffer":14.25,"prev_level":2,"throughput_samples":[2400.5,1e-7]}`),
		[]byte(`{"session":"s00000001","chunk":0,"buffer":0,"prev_level":-1}`),
		[]byte(`{"session":"s1","chunk":3,"level":2,"bitrate_kbps":1850,"predicted_kbps":2103.5,"lower_kbps":1702.25,"fair_share_kbps":1e21,"replayed":true}` + "\n"),
		[]byte(`{"session":"s1","chunk":3,"level":2,"bitrate_kbps":1850,"predicted_kbps":0,"replayed":false}`),
		[]byte(" {\n\t\"session\" : \"a\" ,\r\n \"throughput_samples\" : [ 1 , -0 ] } \n"),
		[]byte(`{}`),
		[]byte(`{"session":"a","chunk":1,"chunk":2}`),        // duplicate key: the last wins in encoding/json
		[]byte(`{"Session":"a","CHUNK":1}`),                  // keys match case-insensitively in encoding/json
		[]byte(`{"session":"a\u0062\u003c"}`),                // escapes
		[]byte("{\"session\":\"caf\xc3\xa9\xff\"}"),          // non-ASCII and invalid UTF-8
		[]byte(`{"session":null,"throughput_samples":null}`), // null leaves the field alone
		[]byte(`{"chunk":1.0}`),                              // not an integer
		[]byte(`{"chunk":1e2,"prev_level":-0}`),
		[]byte(`{"chunk":9223372036854775808}`), // overflows int
		[]byte(`{"buffer":1e309}`),              // overflows float64
		[]byte(`{"buffer":4.9e-324,"throughput_samples":[1E+2,2.5e-400]}`),
		[]byte(`{"buffer":01}`), // leading zero
		[]byte(`{"buffer":-}`),
		[]byte(`{"throughput_samples":[]}`), // an empty, non-nil slice
		[]byte(`{"throughput_samples":[1,]}`),
		[]byte(`{"session":"a"} x`), // json.Decoder stops after the first value
		[]byte(`{"session":"a"}{"session":"b"}`),
		[]byte(`{"session":"a","level":2,"extra":1}`), // unknown key: a request error, ignored in a response
		[]byte(`{"replayed":tru}`),
		[]byte(`{"session":"a",}`),
		[]byte(`{"session":"a"`),
		[]byte(``),
	}
}

// FuzzDecideCodec is the differential fuzz target of the decide decoders
// against encoding/json (checkDecideDecoders) on arbitrary bodies.
func FuzzDecideCodec(f *testing.F) {
	for _, s := range decideCodecSeeds() {
		f.Add(s)
	}
	f.Fuzz(checkDecideDecoders)
}

func TestDecideCodecCorpusCommitted(t *testing.T) {
	problems, err := fuzzcorpus.Sync(filepath.Join("testdata", "fuzz", "FuzzDecideCodec"), decideCodecSeeds())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Errorf("FuzzDecideCodec: %s", p)
	}
}

// TestDecideCodecAllocs pins the allocation budget of the codec: the
// encoders write into a buffer with room and allocate nothing, and a
// canonical request decodes with one allocation, the session string.
func TestDecideCodecAllocs(t *testing.T) {
	req := DecideRequest{Session: "s00000042", Chunk: 31, Buffer: 17.5, PrevLevel: 3, ThroughputSamples: []float64{2432.125}}
	resp := DecideResponse{Session: "s00000042", Chunk: 31, Level: 3, BitrateKbps: 1850, PredictedKbps: 2103.5, LowerKbps: 1702.25}
	buf := make([]byte, 0, 512)
	if a := testing.AllocsPerRun(1000, func() {
		buf, _ = appendDecideRequest(buf[:0], &req)
		buf, _ = appendDecideResponse(buf[:0], &resp)
	}); a != 0 {
		t.Errorf("encoders allocate %v times per call pair", a)
	}

	body, _ := appendDecideRequest(nil, &req)
	cb := &codecBuf{body: make([]byte, 0, 512), samples: make([]float64, 0, 8)}
	rd := bytes.NewReader(body)
	var got DecideRequest
	if a := testing.AllocsPerRun(1000, func() {
		rd.Reset(body)
		got = DecideRequest{}
		if err := cb.readDecideRequest(rd, &got); err != nil {
			t.Fatal(err)
		}
	}); a > 1 {
		t.Errorf("decoding a canonical request allocates %v times, budget 1", a)
	}
	if !sameRequest(got, req) {
		t.Errorf("decoded %+v, want %+v", got, req)
	}

	body, _ = appendDecideResponse(nil, &resp)
	var gotResp DecideResponse
	if a := testing.AllocsPerRun(1000, func() {
		rd.Reset(body)
		if err := cb.readDecideResponse(rd, &gotResp); err != nil {
			t.Fatal(err)
		}
	}); a > 1 {
		t.Errorf("decoding a canonical response allocates %v times, budget 1", a)
	}
}

// TestDecideFallbacksOverHTTP drives the encoding/json fallbacks on both
// ends: a session ID the encoders leave to encoding/json (so the server
// sees \u003c escapes), and a non-finite value, which fails in the client
// exactly as json.Marshal does.
func TestDecideFallbacksOverHTTP(t *testing.T) {
	_, c := startTestService(t, Config{})
	ctx := context.Background()
	const id = `<viewer&"1">`
	if _, err := c.Register(ctx, SessionRequest{ID: id}); err != nil {
		t.Fatal(err)
	}
	for chunk := 0; chunk < 3; chunk++ {
		resp, err := c.Decide(ctx, DecideRequest{Session: id, Chunk: chunk, Buffer: 4, PrevLevel: -1, ThroughputSamples: []float64{1500}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Session != id || resp.Chunk != chunk {
			t.Fatalf("decide echoed %+v", resp)
		}
	}
	_, err := c.Decide(ctx, DecideRequest{Session: id, Chunk: 3, Buffer: math.NaN()})
	var unsupported *json.UnsupportedValueError
	if !errors.As(err, &unsupported) {
		t.Fatalf("NaN buffer: err = %v, want json.Marshal's *json.UnsupportedValueError", err)
	}
}

// TestDecideBadBodyStillRejected checks that the handler still answers a
// body readJSON rejects with 400 and readJSON's error text.
func TestDecideBadBodyStillRejected(t *testing.T) {
	svc, _ := startTestService(t, Config{})
	for _, body := range []string{`{"session":"x","bogus":1}`, `{"chunk":1.5}`, `[`} {
		w := httptest.NewRecorder()
		svc.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/decide", strings.NewReader(body)))
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "invalid request body") {
			t.Errorf("body %s: %d %s", body, w.Code, w.Body.String())
		}
	}
}
