package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// APIError is a non-2xx response from the daemon, decoded from the
// standard error body when present.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Msg is the server's error string (or the raw body when it was not
	// the standard error shape).
	Msg string
	// RetryAfter is the server's Retry-After hint in seconds (0 = none).
	// The queue-full 429 carries it; the client's backoff honors it.
	RetryAfter int
}

// Error renders the failure with its status code.
func (e *APIError) Error() string { return "warpsimd: http " + strconv.Itoa(e.Status) + ": " + e.Msg }

// Temporary reports whether retrying the same request can succeed:
// shed/overload responses and server faults, but never validation
// failures (4xx other than 408/429) or cache misses (404).
func (e *APIError) Temporary() bool {
	switch e.Status {
	case http.StatusRequestTimeout, http.StatusTooManyRequests,
		http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// ClientOptions tunes a Client; the zero value is production-ready.
type ClientOptions struct {
	// HTTP is the underlying transport (default http.DefaultClient). Note
	// that synchronous submissions block for the whole simulation, so a
	// client with a short Timeout will cut long jobs off.
	HTTP *http.Client
	// MaxAttempts bounds tries per call, first attempt included
	// (default 5). Retrying a submission is free on the server side:
	// content addressing and single-flight make POST /v1/jobs idempotent —
	// a resubmission either hits the cache or attaches to the in-flight
	// job, never runs the engine twice.
	MaxAttempts int
	// BaseBackoff is the first retry's backoff ceiling; each further
	// attempt doubles it up to MaxBackoff, and the actual sleep is
	// uniformly jittered in [0, ceiling] ("full jitter") so a fleet of
	// clients shed by one overloaded daemon does not return in lockstep.
	// A server Retry-After hint overrides shorter jittered sleeps.
	// Defaults: 100ms base, 5s max.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Log, when non-nil, receives one line per retry.
	Log func(format string, args ...any)
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.HTTP == nil {
		o.HTTP = http.DefaultClient
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 5
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	return o
}

// Client is a hardened client for the warpsimd HTTP API: capped
// exponential backoff with full jitter on shed/fault responses and
// transport errors, honoring the server's Retry-After. Safe for
// concurrent use.
type Client struct {
	base string
	opt  ClientOptions

	rngMu sync.Mutex
	rng   *rand.Rand

	retries atomic.Int64
}

// NewClient returns a client for the daemon at base (e.g.
// "http://localhost:8723").
func NewClient(base string, opt ClientOptions) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		opt:  opt.withDefaults(),
		rng:  rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Retries returns the lifetime count of retried calls.
func (c *Client) Retries() int64 { return c.retries.Load() }

// Submit posts one job.
func (c *Client) Submit(ctx context.Context, req *JobRequest) (JobStatus, error) {
	var st JobStatus
	body, err := json.Marshal(req)
	if err != nil {
		return st, err
	}
	err = c.retry(ctx, func(ctx context.Context) error {
		data, err := c.do(ctx, http.MethodPost, "/v1/jobs", body)
		if err != nil {
			return err
		}
		return json.Unmarshal(data, &st)
	})
	return st, err
}

// Job fetches a job's state and progress.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.retry(ctx, func(ctx context.Context) error {
		data, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil)
		if err != nil {
			return err
		}
		return json.Unmarshal(data, &st)
	})
	return st, err
}

// Result fetches the raw result manifest for a content address. A 404 is
// definitive (the key is not cached) and never retried.
func (c *Client) Result(ctx context.Context, key string) ([]byte, error) {
	var out []byte
	err := c.retry(ctx, func(ctx context.Context) error {
		var err error
		out, err = c.do(ctx, http.MethodGet, "/v1/results/"+url.PathEscape(key), nil)
		return err
	})
	return out, err
}

// Stats fetches the daemon's statistics snapshot.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.retry(ctx, func(ctx context.Context) error {
		data, err := c.do(ctx, http.MethodGet, "/v1/stats", nil)
		if err != nil {
			return err
		}
		return json.Unmarshal(data, &st)
	})
	return st, err
}

// retry runs f with bounded retries on temporary failures. The error
// returned is always the last call's — a backoff interrupted by context
// cancellation reports the failure that provoked it, which is the
// diagnosis the caller wants.
func (c *Client) retry(ctx context.Context, f func(context.Context) error) error {
	var err error
	for attempt := 0; attempt < c.opt.MaxAttempts; attempt++ {
		if attempt > 0 {
			if werr := c.backoff(ctx, attempt, err); werr != nil {
				return err
			}
			c.retries.Add(1)
		}
		err = f(ctx)
		if err == nil || !retryable(err) || ctx.Err() != nil {
			return err
		}
	}
	return err
}

// retryable classifies an error: API errors by their status, context
// errors never, everything else (connection refused/reset, truncated
// bodies) as transient transport faults.
func retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Temporary()
	}
	return true
}

// backoff sleeps before retry number attempt (1-based), honoring a
// server Retry-After hint when it exceeds the jittered exponential wait.
func (c *Client) backoff(ctx context.Context, attempt int, last error) error {
	ceil := c.opt.BaseBackoff << (attempt - 1)
	if ceil > c.opt.MaxBackoff || ceil <= 0 {
		ceil = c.opt.MaxBackoff
	}
	c.rngMu.Lock()
	d := time.Duration(c.rng.Int63n(int64(ceil) + 1))
	c.rngMu.Unlock()
	var ae *APIError
	if errors.As(last, &ae) && ae.RetryAfter > 0 {
		if ra := time.Duration(ae.RetryAfter) * time.Second; ra > d {
			d = ra
		}
	}
	if c.opt.Log != nil {
		c.opt.Log("client: attempt %d in %s after: %v", attempt+1, d.Round(time.Millisecond), last)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// maxResponseBytes bounds a response body read (a full manifest is KBs;
// this is pure paranoia against a misbehaving endpoint).
const maxResponseBytes = 64 << 20

// do performs one HTTP round trip and maps non-2xx responses to
// *APIError.
func (c *Client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.opt.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		ae := &APIError{Status: resp.StatusCode, Msg: strings.TrimSpace(string(data))}
		var eb errorBody
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			ae.Msg = eb.Error
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, aerr := strconv.Atoi(ra); aerr == nil && secs > 0 {
				ae.RetryAfter = secs
			}
		}
		return nil, ae
	}
	return data, nil
}
