package sttsim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client talks to one sttsimd daemon (standalone or coordinator — the client
// API is identical). The zero value is not usable; build one with New.
//
// Every request retries transient failures — network errors, 429, 502, 503,
// 504 — with jittered exponential backoff, honoring the server's Retry-After
// hint when it sends one. Retrying POST /v1/jobs is safe by construction:
// submission is idempotent per configuration fingerprint (a re-submission
// joins the in-flight run or is a cache hit on its finished result; it never
// re-executes).
type Client struct {
	base string
	hc   *http.Client

	maxAttempts  int
	backoffBase  time.Duration
	backoffCap   time.Duration
	pollInterval time.Duration
	logf         func(format string, args ...any)
	rand         func() float64 // jitter source, test hook
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient swaps the underlying *http.Client (default: 30s timeout).
// SSE follows strip the timeout via Request.Context, so a timeout here only
// bounds unary calls.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetry tunes the retry loop: at most attempts tries per call (minimum
// 1 = no retry), backing off exponentially from base up to cap between them.
func WithRetry(attempts int, base, cap time.Duration) Option {
	return func(c *Client) {
		if attempts >= 1 {
			c.maxAttempts = attempts
		}
		if base > 0 {
			c.backoffBase = base
		}
		if cap > 0 {
			c.backoffCap = cap
		}
	}
}

// WithPollInterval sets Wait's status poll period (default 100ms).
func WithPollInterval(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.pollInterval = d
		}
	}
}

// WithLogf receives retry/reconnect diagnostics (default: discarded).
func WithLogf(logf func(format string, args ...any)) Option {
	return func(c *Client) { c.logf = logf }
}

// New builds a client for the daemon at baseURL (e.g. "http://host:8734").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("sttsim: invalid base URL %q", baseURL)
	}
	c := &Client{
		base:         strings.TrimRight(baseURL, "/"),
		hc:           &http.Client{Timeout: 30 * time.Second},
		maxAttempts:  4,
		backoffBase:  100 * time.Millisecond,
		backoffCap:   5 * time.Second,
		pollInterval: 100 * time.Millisecond,
		logf:         func(string, ...any) {},
		rand:         rand.Float64,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// BaseURL reports the daemon address the client targets.
func (c *Client) BaseURL() string { return c.base }

// Submit validates spec client-side (SetDefaults + Validate) and posts it.
// The returned status is 200-with-cache_hit for an already-completed
// configuration, else the freshly queued job.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	spec.SetDefaults()
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return JobStatus{}, err
	}
	var st JobStatus
	err = c.do(ctx, http.MethodPost, "/v1/jobs", body, &st)
	return st, err
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Result fetches a done job's result payload. The bytes are canonical:
// every client of one configuration receives an identical payload.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	return c.doRaw(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/result", nil)
}

// Cancel withdraws this job's interest. The underlying simulation stops only
// when every job that wanted it has cancelled.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Jobs lists the most recent jobs (limit <= 0 means the server default).
func (c *Client) Jobs(ctx context.Context, limit int) ([]JobStatus, error) {
	path := "/v1/jobs"
	if limit > 0 {
		path += "?limit=" + strconv.Itoa(limit)
	}
	var list JobList
	err := c.do(ctx, http.MethodGet, path, nil, &list)
	return list.Jobs, err
}

// Health fetches the liveness payload.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.do(ctx, http.MethodGet, "/v1/healthz/live", nil, &h)
	return h, err
}

// Ready probes readiness. A not-ready daemon answers (Health, *APIError with
// StatusCode 503) — the payload still describes why.
func (c *Client) Ready(ctx context.Context) (Health, error) {
	var h Health
	err := c.doOnce(ctx, http.MethodGet, "/v1/healthz/ready", nil, &h)
	return h, err
}

// Stats fetches the service counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// Wait polls a job until it reaches a terminal state (done, failed, or
// cancelled) or ctx expires.
func (c *Client) Wait(ctx context.Context, id string) (JobStatus, error) {
	tick := time.NewTicker(c.pollInterval)
	defer tick.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return st, err
		}
		if st.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-tick.C:
		}
	}
}

// Run is the submit-wait-fetch convenience: it returns the terminal status
// and, when the job is done, the canonical result bytes.
func (c *Client) Run(ctx context.Context, spec JobSpec) (JobStatus, []byte, error) {
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return st, nil, err
	}
	if !st.Terminal() {
		if st, err = c.Wait(ctx, st.ID); err != nil {
			return st, nil, err
		}
	}
	if st.State != StateDone {
		return st, nil, fmt.Errorf("sttsim: job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	data, err := c.Result(ctx, st.ID)
	return st, data, err
}

// do issues one retried request and decodes the JSON response into out.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	data, err := c.roundTrip(ctx, method, path, body, true)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// doOnce is do without the retry loop (readiness probes want the first
// answer, not the eventual one), still decoding the payload on error.
func (c *Client) doOnce(ctx context.Context, method, path string, body []byte, out any) error {
	data, err := c.attempt(ctx, method, path, body)
	if err != nil {
		var apiErr *APIError
		if errors.As(err, &apiErr) && len(data) > 0 && out != nil {
			// Not-ready answers still carry the health payload.
			_ = json.Unmarshal(data, out)
		}
		return err
	}
	return json.Unmarshal(data, out)
}

// doRaw issues one retried request and returns the raw response bytes.
func (c *Client) doRaw(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	return c.roundTrip(ctx, method, path, body, true)
}

// roundTrip runs the retry loop around attempt.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte, retry bool) ([]byte, error) {
	var lastErr error
	attempts := c.maxAttempts
	if !retry {
		attempts = 1
	}
	for i := 0; i < attempts; i++ {
		if i > 0 {
			d := c.backoffDelay(i-1, lastErr)
			c.logf("sttsim: %s %s: %v (retrying in %s)", method, path, lastErr, d.Round(time.Millisecond))
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(d):
			}
		}
		data, err := c.attempt(ctx, method, path, body)
		if err == nil {
			return data, nil
		}
		lastErr = err
		if !retryable(err) || ctx.Err() != nil {
			return nil, err
		}
	}
	return nil, lastErr
}

// attempt issues exactly one HTTP round trip. Non-2xx answers decode the
// uniform error envelope into *APIError (with the raw body returned for
// callers that want the payload anyway).
func (c *Client) attempt(ctx context.Context, method, path string, body []byte) ([]byte, error) {
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
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 == 2 {
		return data, nil
	}
	apiErr := &APIError{StatusCode: resp.StatusCode}
	if jerr := json.Unmarshal(data, apiErr); jerr != nil || apiErr.Message == "" {
		apiErr.Message = strings.TrimSpace(string(data))
		if apiErr.Message == "" {
			apiErr.Message = http.StatusText(resp.StatusCode)
		}
	}
	if apiErr.RetryAfter == 0 {
		if ra, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && ra > 0 {
			apiErr.RetryAfter = ra
		}
	}
	return data, apiErr
}

// backoffDelay computes the sleep before retry number n (0-based): the
// server's Retry-After hint when it gave one, else equal-jitter exponential
// backoff from backoffBase capped at backoffCap.
func (c *Client) backoffDelay(n int, lastErr error) time.Duration {
	var apiErr *APIError
	if errors.As(lastErr, &apiErr) && apiErr.RetryAfter > 0 {
		return time.Duration(apiErr.RetryAfter) * time.Second
	}
	d := c.backoffBase << uint(n)
	if d > c.backoffCap || d <= 0 {
		d = c.backoffCap
	}
	half := d / 2
	return half + time.Duration(c.rand()*float64(half))
}

// retryable reports whether an attempt error may succeed on retry: transport
// failures and the server's explicit backpressure/unavailability answers.
func retryable(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Temporary()
	}
	// Anything that is not an API answer is a transport failure (connection
	// refused, reset, timeout): retryable unless the caller's ctx is done.
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}
