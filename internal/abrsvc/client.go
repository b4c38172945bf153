package abrsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// APIError is a non-2xx response from the service, carrying enough to act
// on it: the HTTP status, the server's error string, and the Retry-After
// hint when the request was shed.
type APIError struct {
	Status     int
	Msg        string
	RetryAfter int // seconds, 0 when the server sent no hint
}

func (e *APIError) Error() string {
	return fmt.Sprintf("abrsvc: server returned %d: %s", e.Status, e.Msg)
}

// IsShed reports whether the request was refused by admission control
// (429) — the one error class where retrying the identical request is the
// intended protocol.
func (e *APIError) IsShed() bool { return e.Status == http.StatusTooManyRequests }

// Client is a typed client for the decision service. Construct with
// NewClient: the zero value has no transport.
type Client struct {
	base string
	http *http.Client

	// decideURL is the parsed /v1/decide URL, shared read-only by every
	// decide request; nil when base does not parse, in which case Decide
	// takes post and reports the parse error.
	decideURL  *url.URL
	decideHost string
}

// NewClient returns a client for the service at base (e.g.
// "http://127.0.0.1:8404"). It owns a dedicated http.Client with an
// explicitly configured transport rather than http.DefaultClient: the
// fleet drives a thousand-session load through one client, and the
// default transport's two idle conns per host would force a fresh TCP
// handshake under nearly every decide call.
func NewClient(base string) *Client {
	c := &Client{
		base: strings.TrimRight(base, "/"),
		http: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        1024,
				MaxIdleConnsPerHost: 1024,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
	if t, err := http.NewRequest(http.MethodPost, c.base+"/v1/decide", nil); err == nil {
		c.decideURL, c.decideHost = t.URL, t.Host
	}
	return c
}

// CloseIdle releases the client's pooled connections.
func (c *Client) CloseIdle() { c.http.CloseIdleConnections() }

// Register creates a session and returns the server's acknowledgement.
func (c *Client) Register(ctx context.Context, req SessionRequest) (SessionResponse, error) {
	var resp SessionResponse
	err := c.post(ctx, "/v1/session", req, &resp)
	return resp, err
}

// Decide requests the next chunk's level. A 429 comes back as an
// *APIError with IsShed() true; use DecideRetry when the caller wants the
// backoff protocol handled.
//
// The request and response go through the decide codec (codec.go). A nil
// ctx and a base URL that does not parse take post, which reports them as
// errors.
func (c *Client) Decide(ctx context.Context, req DecideRequest) (DecideResponse, error) {
	var resp DecideResponse
	if ctx == nil || c.decideURL == nil {
		err := c.post(ctx, "/v1/decide", req, &resp)
		return resp, err
	}
	body, err := encodeDecideRequest(&req)
	if err != nil {
		return resp, err
	}
	// The fields http.NewRequestWithContext sets for a bytes.Reader body,
	// without parsing the URL again.
	hreq := (&http.Request{
		Method:        http.MethodPost,
		URL:           c.decideURL,
		Host:          c.decideHost,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		GetBody: func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(body)), nil
		},
	}).WithContext(ctx)
	hresp, err := c.http.Do(hreq)
	if err != nil {
		return resp, err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return resp, apiError(hresp)
	}
	cb := getCodecBuf()
	defer cb.put()
	err = cb.readDecideResponse(hresp.Body, &resp)
	return resp, err
}

// DecideRetry is Decide plus the shed protocol: on 429 it backs off
// (5 ms doubling to a 200 ms cap — deterministic, no jitter, so identical
// runs behave identically) and retries up to maxRetries times. Decide
// requests are idempotent by chunk index, so a retry after a lost
// response is safe. Other errors are returned immediately.
func (c *Client) DecideRetry(ctx context.Context, req DecideRequest, maxRetries int) (DecideResponse, error) {
	backoff := 5 * time.Millisecond
	const maxBackoff = 200 * time.Millisecond
	for attempt := 0; ; attempt++ {
		resp, err := c.Decide(ctx, req)
		var apiErr *APIError
		if err == nil || !errors.As(err, &apiErr) || !apiErr.IsShed() || attempt >= maxRetries {
			return resp, err
		}
		t := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			t.Stop()
			return resp, ctx.Err()
		case <-t.C:
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// Delete forgets a session. Deleting an unknown session is an *APIError
// with Status 404.
func (c *Client) Delete(ctx context.Context, session string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+"/v1/session/"+url.PathEscape(session), nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return apiError(resp)
	}
	return nil
}

// post sends a JSON body and decodes a JSON response into out.
func (c *Client) post(ctx context.Context, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(out)
}

// apiError drains a non-2xx response into an *APIError.
func apiError(resp *http.Response) error {
	e := &APIError{Status: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if s, err := strconv.Atoi(ra); err == nil {
			e.RetryAfter = s
		}
	}
	var body ErrorResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(&body); err == nil && body.Error != "" {
		e.Msg = body.Error
	} else {
		e.Msg = http.StatusText(resp.StatusCode)
	}
	return e
}
