package server

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
	"sync/atomic"
	"time"
)

// Client drives a running multilogd over its JSON/HTTP protocol. It is the
// programmatic face of the wire protocol: the REPL's \connect mode, the
// workload load generator and the smoke harness all speak through it. A
// Client is safe for concurrent use; each session token is carried
// per-call, so one client can multiplex many sessions.
//
// A client normally targets one endpoint, but WithEndpoints hands it a
// fleet: idempotent requests that fail with a retryable error (connection
// refused, HTTP 503) rotate to the next endpoint before re-trying, so a
// replica restart or a failover is invisible to readers. The rotation
// cursor is shared across copies made by WithRetry, so a fleet client
// converges on a live endpoint and stays there.
type Client struct {
	bases []string
	cur   *atomic.Int32 // index into bases; shared across WithRetry copies
	http  *http.Client
	retry RetryPolicy // zero = no retries; see WithRetry
}

// RemoteError is a non-2xx protocol reply: the server's machine code plus
// its message. Match the code with the Code* constants.
type RemoteError struct {
	Status     int    // HTTP status
	Code       string // machine code (CodeOverloaded, CodeDenied, ...)
	Message    string
	Primary    string        // on CodeNotPrimary: where writes go
	RetryAfter time.Duration // server's Retry-After hint, 0 when absent
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("server: %s (%d): %s", e.Code, e.Status, e.Message)
}

// NewClient returns a client for a base URL like "http://host:port" (a
// bare "host:port" gets the scheme prefixed). httpClient nil uses a
// default with a 30s overall timeout.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	return &Client{bases: []string{BaseURL(base)}, cur: &atomic.Int32{}, http: httpClient}
}

// BaseURL turns a node address into the base URL a Client targets: "http://"
// prefixed to a bare host:port, no trailing slash.
func BaseURL(base string) string {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return strings.TrimRight(base, "/")
}

// WithEndpoints returns a copy of the client that spreads idempotent
// requests across endpoints (the full list, replacing the constructor's
// base). Retryable failures rotate to the next endpoint; with a retry
// policy of N attempts the client makes at least one attempt per endpoint.
// An empty list keeps the current endpoints.
func (c *Client) WithEndpoints(endpoints ...string) *Client {
	cc := *c
	if len(endpoints) > 0 {
		cc.bases = make([]string, len(endpoints))
		for i, e := range endpoints {
			cc.bases[i] = BaseURL(e)
		}
		cc.cur = &atomic.Int32{}
	}
	return &cc
}

// base is the endpoint the next request targets.
func (c *Client) base() string {
	return c.bases[int(c.cur.Load())%len(c.bases)]
}

// rotateFrom advances the endpoint cursor past idx, if no other caller
// already has. Returns true when the next request will hit a different
// endpoint.
func (c *Client) rotateFrom(idx int32) bool {
	if len(c.bases) < 2 {
		return false
	}
	c.cur.CompareAndSwap(idx, (idx+1)%int32(len(c.bases)))
	return true
}

// Healthy probes /v1/healthz (liveness: 200 even while recovering).
func (c *Client) Healthy(ctx context.Context) error {
	return c.doIdempotent(ctx, func() error { return c.get(ctx, "/v1/healthz", &HealthResponse{}) })
}

// Ready probes /v1/readyz and returns the daemon's health view; the error
// is a *RemoteError with status 503 while it is recovering or draining.
func (c *Client) Ready(ctx context.Context) (*HealthResponse, error) {
	var h HealthResponse
	if err := c.get(ctx, "/v1/readyz", &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Open opens a session and returns the server's view of it. Opening is
// idempotent (a session the server opened but the client never heard about
// just idles), so it retries under the client's policy.
func (c *Client) Open(ctx context.Context, req OpenRequest) (*OpenResponse, error) {
	var resp OpenResponse
	err := c.doIdempotent(ctx, func() error {
		resp = OpenResponse{}
		return c.post(ctx, "/v1/session", req, &resp)
	})
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Close releases a session.
func (c *Client) Close(ctx context.Context, session string) error {
	var resp CloseResponse
	return c.post(ctx, "/v1/session/close", CloseRequest{Session: session}, &resp)
}

// QueryContext asks one query, retrying under the client's policy (a
// query never mutates; re-asking is safe). On a limit stop (HTTP 408) the
// partial response is returned alongside the *RemoteError so callers can
// show what was found.
func (c *Client) QueryContext(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	return c.query(ctx, req, false)
}

// ForwardQuery is QueryContext for a caller that passes the answers on
// unread, through ReplyQuery — the router: a reply in the daemon's form has
// its answers array delimited, not decoded, so the response's Answers is
// nil, and only the fields after the array are read. A reply off that form
// is decoded whole, as by QueryContext.
func (c *Client) ForwardQuery(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	return c.query(ctx, req, true)
}

func (c *Client) query(ctx context.Context, req QueryRequest, unread bool) (*QueryResponse, error) {
	var resp QueryResponse
	var out any = &resp
	if unread {
		out = unreadAnswers{&resp}
	}
	err := c.doIdempotent(ctx, func() error {
		resp = QueryResponse{}
		return c.post(ctx, "/v1/query", req, out)
	})
	if err != nil {
		var re *RemoteError
		if errors.As(err, &re) && re.Status == http.StatusRequestTimeout && re.Code == "" {
			// The 408 carried a partial QueryResponse body, decoded above.
			re.Code = CodeLimit
			re.Message = "query truncated by a deadline or budget"
			return &resp, re
		}
		return nil, err
	}
	return &resp, nil
}

// unreadAnswers is a query reply to decode with decodeQueryUnread.
type unreadAnswers struct{ *QueryResponse }

// Assert adds clauses through the session; Retract removes them.
func (c *Client) Assert(ctx context.Context, session, clauses string) (*UpdateResponse, error) {
	var resp UpdateResponse
	if err := c.post(ctx, "/v1/assert", UpdateRequest{Session: session, Clauses: clauses}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Retract removes clauses through the session.
func (c *Client) Retract(ctx context.Context, session, clauses string) (*UpdateResponse, error) {
	var resp UpdateResponse
	if err := c.post(ctx, "/v1/retract", UpdateRequest{Session: session, Clauses: clauses}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ReplStatus fetches /v1/repl/status (never retried: callers poll it on
// their own cadence and want the freshest answer or a fast failure).
func (c *Client) ReplStatus(ctx context.Context) (*ReplicationStats, error) {
	var out ReplicationStats
	if err := c.get(ctx, "/v1/repl/status", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches /v1/stats, retrying under the client's policy.
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	var out StatsResponse
	err := c.doIdempotent(ctx, func() error {
		out = StatsResponse{}
		return c.get(ctx, "/v1/stats", &out)
	})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Promote turns the follower into the primary (POST /v1/repl/promote, the
// router's failover).
func (c *Client) Promote(ctx context.Context) error {
	return c.post(ctx, "/v1/repl/promote", struct{}{}, &promoteResponse{})
}

// Retarget points the node at a new primary (POST /v1/repl/primary).
func (c *Client) Retarget(ctx context.Context, primary string) error {
	return c.post(ctx, "/v1/repl/primary", retargetRequest{Primary: primary}, &retargetRequest{})
}

// get fetches a GET endpoint; see do.
func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.do(ctx, http.MethodGet, path, nil, out)
}

// post sends in as a JSON request; see do.
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, path, body, out)
}

// do sends one request and decodes a 200 reply into out. A reply that
// broke off or did not decode is, to a caller, a failure below the protocol
// as much as no reply is: a *url.Error, like the one http.Client returns
// then. Any other status becomes a *RemoteError; a 408 with a decodable
// out-body (the partial-answer case) decodes out AND returns the error.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base()+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		if err := decodeBody(resp.Body, out); err != nil {
			return &url.Error{Op: method, URL: req.URL.String(), Err: err}
		}
		return nil
	case http.StatusRequestTimeout:
		// The truncation reply carries the partial result body.
		if err := decodeBody(resp.Body, out); err == nil {
			return &RemoteError{Status: resp.StatusCode}
		}
		return &RemoteError{Status: resp.StatusCode, Code: CodeLimit, Message: "truncated"}
	}
	return decodeRemoteError(resp)
}

// decodeBody decodes a reply body into out: a query reply by decodeQuery,
// which reads its answers without reflection, or by decodeQueryUnread, which
// does not read them; any other by encoding/json.
func decodeBody(r io.Reader, out any) error {
	decode := decodeQuery
	q, ok := out.(*QueryResponse)
	if u, unread := out.(unreadAnswers); unread {
		decode, q, ok = decodeQueryUnread, u.QueryResponse, true
	}
	if !ok {
		return json.NewDecoder(r).Decode(out)
	}
	body, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return decode(body, q)
}

func decodeRemoteError(resp *http.Response) error {
	re := &RemoteError{Status: resp.StatusCode}
	if s := resp.Header.Get("Retry-After"); s != "" {
		// RFC 9110 allows both forms: delta-seconds and an HTTP-date. A date
		// in the past (or clock skew) clamps to zero, not negative.
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			re.RetryAfter = time.Duration(secs) * time.Second
		} else if at, err := http.ParseTime(s); err == nil {
			if d := time.Until(at); d > 0 {
				re.RetryAfter = d
			}
		}
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		re.Code, re.Message = CodeInternal, fmt.Sprintf("undecodable error body: %v", err)
		return re
	}
	re.Code, re.Message, re.Primary = er.Code, er.Message, er.Primary
	return re
}
