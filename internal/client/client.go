// Package client is the typed client of the latency-campaign service: it
// speaks internal/api over HTTP with jittered exponential backoff,
// honours the server's Retry-After hints, and resumes interrupted event
// watches from the last sequence number it saw.
//
// Retrying a submission is always safe: campaigns are content-addressed,
// so a retried POST lands on the same job the first attempt created (or
// joins it, if the first attempt's response was lost after the server
// accepted it) — the service's idempotency is what makes the aggressive
// retry policy sound.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"wdmlat/internal/api"
)

// The retry schedule every request, watch and worker loop shares: at most
// retries attempts per request, and attempt n waits a jittered duration
// in [d/2, d] for d = min(baseDelay·2ⁿ, maxDelay), raised to any
// Retry-After the server sent.
const (
	retries   = 8
	baseDelay = 100 * time.Millisecond
	maxDelay  = 5 * time.Second
)

// Options tunes a Client: the transport and the test fakes, not the retry
// schedule above. The zero value gives the production client; tests
// inject Sleep and Rand to make backoff observable and instant.
type Options struct {
	// HTTP is the underlying client (default http.DefaultClient).
	HTTP *http.Client
	// Rand supplies jitter in [0,1) (default math/rand.Float64).
	Rand func() float64
	// Sleep waits between attempts (default a context-aware timer).
	// Tests replace it to record the chosen delays.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Client talks to one latency-campaign server.
type Client struct {
	base string
	opts Options
}

// New returns a client for the server at base (e.g. "http://host:8080").
func New(base string, opts Options) *Client {
	if opts.HTTP == nil {
		opts.HTTP = http.DefaultClient
	}
	if opts.Rand == nil {
		opts.Rand = rand.Float64
	}
	if opts.Sleep == nil {
		opts.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return &Client{base: strings.TrimRight(base, "/"), opts: opts}
}

// StatusError is a non-2xx response that was not retried away: the HTTP
// status plus the server's error message.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Code, e.Message)
}

// retryable reports whether a response status is worth another attempt:
// explicit backpressure (429) and server-side transient errors (5xx).
func retryable(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// backoff returns the delay before attempt (0-based) attempt+1 on the
// equal-jitter schedule above: half of each window is fixed,
// so the delay never collapses to ~0, and half is random, so clients that
// failed together do not retry together. Every call shares it, the fleet
// worker loop's included.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := baseDelay << attempt
	if d > maxDelay || d <= 0 { // <<-overflow guard
		d = maxDelay
	}
	d = d/2 + time.Duration(c.opts.Rand()*float64(d/2))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// parseRetryAfter reads a Retry-After header (delta-seconds or HTTP-date).
func parseRetryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// do performs one logical request with retries, returning the response
// body of the first conclusive attempt. Connection errors and retryable
// statuses back off and retry; other statuses return a *StatusError.
func (c *Client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var lastErr error
	var retryAfter time.Duration
	for attempt := 0; attempt < retries; attempt++ {
		if attempt > 0 {
			if err := c.opts.Sleep(ctx, c.backoff(attempt-1, retryAfter)); err != nil {
				return nil, err
			}
		}
		data, ra, err := c.attempt(ctx, method, path, body)
		if err == nil {
			return data, nil
		}
		lastErr, retryAfter = err, ra
		var se *StatusError
		if isStatusError(err, &se) && !retryable(se.Code) {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("client: giving up after %d attempts: %w", retries, lastErr)
}

func isStatusError(err error, out **StatusError) bool {
	se, ok := err.(*StatusError)
	if ok {
		*out = se
	}
	return ok
}

// attempt performs one HTTP round trip.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte) ([]byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.opts.HTTP.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return data, 0, err
	}
	msg := strings.TrimSpace(string(data))
	var apiErr api.Error
	if json.Unmarshal(data, &apiErr) == nil && apiErr.Message != "" {
		msg = apiErr.Message
	}
	return nil, parseRetryAfter(resp), &StatusError{Code: resp.StatusCode, Message: msg}
}

// Submit posts a campaign and returns its status. Safe to retry (and it
// does): the campaign ID is a pure function of spec.
func (c *Client) Submit(ctx context.Context, spec *api.CampaignSpec) (api.Status, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return api.Status{}, fmt.Errorf("client: encoding spec: %w", err)
	}
	return c.statusCall(ctx, http.MethodPost, "/v1/campaigns", body)
}

// Status fetches a campaign's current status.
func (c *Client) Status(ctx context.Context, id string) (api.Status, error) {
	return c.statusCall(ctx, http.MethodGet, "/v1/campaigns/"+id, nil)
}

// Cancel requests cancellation of a campaign and returns its status.
func (c *Client) Cancel(ctx context.Context, id string) (api.Status, error) {
	return c.statusCall(ctx, http.MethodDelete, "/v1/campaigns/"+id, nil)
}

func (c *Client) statusCall(ctx context.Context, method, path string, body []byte) (api.Status, error) {
	data, err := c.do(ctx, method, path, body)
	if err != nil {
		return api.Status{}, err
	}
	var st api.Status
	if err := json.Unmarshal(data, &st); err != nil {
		return api.Status{}, fmt.Errorf("client: decoding status: %w", err)
	}
	return st, nil
}

// Result fetches a finished campaign's result stream: the exact
// concatenated core.EncodeResult bytes, one document per cell in
// submission order. The campaign must be in state done (the server
// answers 409 while it is still queued or running — Watch first).
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	return c.do(ctx, http.MethodGet, "/v1/campaigns/"+id+"/result", nil)
}

// Watch follows a campaign's event stream until it reaches a terminal
// state, invoking onEvent (which may be nil) for every event exactly once.
// A dropped connection resumes from the next unseen sequence number with
// the same backoff policy as requests; a connection that delivers a new
// event resets the failure count, so only 8 consecutive failures abort the
// watch. Any terminal state event ends the watch, even an already
// delivered one: a restarted server re-runs a journaled campaign under a
// fresh log, which can end before the sequence number the watch resumes
// from.
func (c *Client) Watch(ctx context.Context, id string, onEvent func(api.Event)) (api.Status, error) {
	next := 0
	failures := 0
	var lastErr error
	for failures < retries {
		delivered := next
		terminal, err := c.streamEvents(ctx, id, &next, onEvent)
		if terminal {
			return c.Status(ctx, id)
		}
		if ctx.Err() != nil {
			return api.Status{}, ctx.Err()
		}
		lastErr = err
		var se *StatusError
		if isStatusError(err, &se) && !retryable(se.Code) {
			return api.Status{}, err
		}
		if next > delivered {
			failures = 0
		}
		if err := c.opts.Sleep(ctx, c.backoff(failures, 0)); err != nil {
			return api.Status{}, err
		}
		failures++
	}
	return api.Status{}, fmt.Errorf("client: watch gave up after %d attempts: %w", retries, lastErr)
}

// streamEvents opens one events connection from *next and consumes it,
// delivering and advancing *next past every event not yet delivered. It
// reports whether a terminal state event was seen.
func (c *Client) streamEvents(ctx context.Context, id string, next *int, onEvent func(api.Event)) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/campaigns/%s/events?from=%d", c.base, id, *next), nil)
	if err != nil {
		return false, err
	}
	resp, err := c.opts.HTTP.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		msg := strings.TrimSpace(string(data))
		var apiErr api.Error
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Message != "" {
			msg = apiErr.Message
		}
		return false, &StatusError{Code: resp.StatusCode, Message: msg}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev api.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return false, fmt.Errorf("client: decoding event: %w", err)
		}
		if ev.Seq >= *next { // a lower Seq was delivered before a resume
			*next = ev.Seq + 1
			if onEvent != nil {
				onEvent(ev)
			}
		}
		if ev.Type == api.EventState && api.TerminalState(ev.State) {
			return true, nil
		}
	}
	err = sc.Err()
	if err == nil {
		err = io.ErrUnexpectedEOF // stream ended without a terminal event
	}
	return false, err
}
