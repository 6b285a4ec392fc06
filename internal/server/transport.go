package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/datalog"
	"repro/internal/resource"
	"repro/internal/wal"
)

// maxBodyBytes bounds request bodies; programs are loaded out of band, so
// a query or a handful of clauses fits easily.
const maxBodyBytes = 1 << 20

// Transport is the HTTP skin of every multilogd process, a node or the
// router in front of a fleet: one handler wrapper (drain gate, body cap,
// panic containment, one status per reply), one health pair and one drain.
// What a process serves is its own; how it is served is this. Create with
// NewTransport.
type Transport struct {
	logf      func(format string, args ...any)
	draining  atomic.Bool
	inFlight  sync.WaitGroup
	abandoned atomic.Int64 // replies that failed after they began
}

// NewTransport returns a transport that logs its lifecycle through logf,
// which may be nil.
func NewTransport(logf func(format string, args ...any)) *Transport {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Transport{logf: logf}
}

// Abandoned counts the replies that failed after they began (for
// queries.abandoned on /v1/stats).
func (t *Transport) Abandoned() int64 { return t.abandoned.Load() }

// Wrap adds in-flight tracking, the drain gate, the body cap and panic
// containment around one handler, and writes the error it returns by
// writeError — unless the reply had begun, when the status stands and the
// reply is counted as abandoned.
func (t *Transport) Wrap(h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if t.draining.Load() {
			writeError(w, ErrShuttingDown)
			return
		}
		t.inFlight.Add(1)
		defer t.inFlight.Done()
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		sw := &statusWriter{ResponseWriter: w}
		var err error
		func() {
			defer resource.Protect("server.handler", &err)
			err = h(sw, r)
		}()
		switch {
		case err == nil:
		case sw.started:
			// The reply is on its way (a client that gave up mid-body): its
			// status stands, and there is no one left to tell.
			if t.abandoned.Add(1) == 1 {
				t.logf("%s %s: reply abandoned after it began: %v (later ones are only counted: queries.abandoned)", r.Method, r.URL.Path, err)
			}
		default:
			writeError(w, err)
		}
	}
}

// statusWriter is a ResponseWriter that remembers whether its reply has
// begun, so that an error after that is not answered with a second status.
// It flushes through to the writer it wraps.
type statusWriter struct {
	http.ResponseWriter
	started bool
}

func (w *statusWriter) WriteHeader(status int) {
	w.started = true
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.started = true
	return w.ResponseWriter.Write(p)
}

// Flush flushes the wrapped writer, when it can.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// HandleHealth serves GET /v1/healthz and GET /v1/readyz from view, outside
// the drain gate: liveness answers 200 whatever the status, readiness 200
// only on "ok" and otherwise 503 with Retry-After: 1. Once the drain has
// begun, an "ok" view reads "draining".
func (t *Transport) HandleHealth(mux *http.ServeMux, view func() HealthResponse) {
	health := func() HealthResponse {
		h := view()
		if h.Status == "ok" && t.draining.Load() {
			h.Status = "draining"
		}
		return h
	}
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, health()) //nolint:errcheck // best-effort health body
	})
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, _ *http.Request) {
		h := health()
		status := http.StatusOK
		if h.Status != "ok" {
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "1")
		}
		WriteJSON(w, status, h) //nolint:errcheck // best-effort health body
	})
}

// Lifecycle is what a process hooks into Transport.Serve's drain. Either
// hook may be nil.
type Lifecycle struct {
	// Stop runs once the drain gate has closed, before the requests in
	// flight are waited out: background work that must not land during
	// the drain. It also runs when the listener fails.
	Stop func()
	// Close runs once the last request has finished, before "drained" is
	// logged: state to persist and release.
	Close func()
}

// Serve serves h on ln until ctx is done, then drains: requests that
// arrive answer 503 (Wrap's gate), connections that have not sent one are
// closed, the requests in flight finish (bounded by drainTimeout), and the
// listener closes. It returns nil on a clean drain.
func (t *Transport) Serve(ctx context.Context, ln net.Listener, h http.Handler, drainTimeout time.Duration, lc Lifecycle) error {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	closeNew := closeNewConns(hs)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	t.logf("serving on %s", ln.Addr())
	select {
	case err := <-errc:
		if lc.Stop != nil {
			lc.Stop()
		}
		return err
	case <-ctx.Done():
	}
	t.logf("draining (timeout %s)", drainTimeout)
	t.draining.Store(true)
	if lc.Stop != nil {
		lc.Stop()
	}
	sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	closeNew()
	err := hs.Shutdown(sctx)
	<-errc // Serve has returned http.ErrServerClosed
	t.inFlight.Wait()
	if lc.Close != nil {
		lc.Close()
	}
	t.logf("drained")
	return err
}

// closeNewConns hooks hs's connection states and returns the drain's first
// step: close every connection hs accepted that has not begun a request yet
// (http.StateNew), and from then on each one as it is accepted. Shutdown
// closes idle connections but waits a 5 s grace before it counts a new one
// idle — a client transport may dial a connection, send its request on
// another and pool this one — so without this step a drain of 5 s or less
// ends in context.DeadlineExceeded.
func closeNewConns(hs *http.Server) func() {
	var mu sync.Mutex
	conns := map[net.Conn]bool{}
	closing := false
	hs.ConnState = func(c net.Conn, st http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case st != http.StateNew:
			delete(conns, c)
		case closing:
			c.Close() //nolint:errcheck // the drain refuses it
		default:
			conns[c] = true
		}
	}
	return func() {
		mu.Lock()
		defer mu.Unlock()
		closing = true
		for c := range conns {
			c.Close() //nolint:errcheck // the drain refuses it
		}
	}
}

// badRequestError marks malformed transport-level input.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

// Decode reads a request body into dst strictly: a field dst does not know
// is an error, as is anything else that does not decode, and either answers
// 400 bad-request.
func Decode(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return &badRequestError{fmt.Errorf("decoding request: %w", err)}
	}
	return nil
}

// WriteJSON writes v as a JSON reply with status.
func WriteJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}

// writeError maps a typed error to its HTTP status and machine code. A
// *RemoteError, a backend's refusal, is relayed as the backend gave it; a
// *url.Error, a backend that could not be reached or whose reply broke off,
// is a transient 503.
func writeError(w http.ResponseWriter, err error) {
	status, code := http.StatusInternalServerError, CodeInternal
	message, primary := err.Error(), ""
	var retryAfter time.Duration
	var (
		remote      *RemoteError
		unreachable *url.Error
		overload    *OverloadError
		shed        *admission.OverloadError
		denied      *DeniedError
		lintErr     *LintError
		budget      *resource.ErrBudgetExceeded
		internal    *resource.InternalError
		syntax      *datalog.SyntaxError
		badReq      *badRequestError
		notPrimary  *NotPrimaryError
	)
	switch {
	case errors.As(err, &remote):
		status, code, message, primary = remote.Status, remote.Code, remote.Message, remote.Primary
		retryAfter = remote.RetryAfter
	case errors.As(err, &unreachable):
		status, code = http.StatusServiceUnavailable, CodeOverloaded
	case errors.As(err, &notPrimary):
		// 421: this node cannot serve the write; the body names who can.
		status, code = http.StatusMisdirectedRequest, CodeNotPrimary
		primary = notPrimary.Primary
	case errors.Is(err, wal.ErrCompacted):
		// 410: the requested log position is gone; re-bootstrap from the
		// snapshot.
		status, code = http.StatusGone, CodeCompacted
	case errors.Is(err, ErrRecovering):
		status, code = http.StatusServiceUnavailable, CodeRecovering
	case errors.As(err, &shed):
		// 429: the admission controller shed the request; Retry-After below
		// carries its computed backoff, not the generic transient hint.
		status, code = http.StatusTooManyRequests, CodeOverloaded
		retryAfter = shed.RetryAfter
	case errors.As(err, &overload), errors.Is(err, ErrShuttingDown):
		status, code = http.StatusServiceUnavailable, CodeOverloaded
	case errors.As(err, &denied):
		status, code = http.StatusBadRequest, CodeDenied
	case errors.As(err, &lintErr):
		status, code = http.StatusBadRequest, CodeLint
	case errors.As(err, &syntax):
		status, code = http.StatusBadRequest, CodeParse
	case errors.Is(err, ErrUnknownSession):
		status, code = http.StatusNotFound, CodeUnknownSession
	case errors.Is(err, ErrUnknownDB):
		status, code = http.StatusNotFound, CodeUnknownDB
	case errors.Is(err, resource.ErrCanceled), errors.As(err, &budget):
		status, code = http.StatusRequestTimeout, CodeLimit
	case errors.As(err, &internal):
		status, code = http.StatusInternalServerError, CodeInternal
	case errors.As(err, &badReq):
		status, code = http.StatusBadRequest, CodeBadRequest
	default:
		// Unclassified errors from parsing/validation read as client
		// errors, not server faults.
		status, code = http.StatusBadRequest, CodeBadRequest
	}
	w.Header().Set("Content-Type", "application/json")
	switch {
	case retryAfter > 0:
		// A computed backoff, rounded up to whole seconds (the header's
		// granularity), never below 1.
		w.Header().Set("Retry-After", strconv.FormatInt(max(1, int64(math.Ceil(retryAfter.Seconds()))), 10))
	case status == http.StatusServiceUnavailable:
		// Overload, drain and recovery are all transient; tell well-behaved
		// clients how long to hold off before retrying (or rotating).
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorResponse{Code: code, Message: message, Primary: primary}) //nolint:errcheck // best-effort error body
}

// replyQuery answers a query with resp and answers, its encoded JSON array
// (see writeQuery):
// 200, or 408 when err is a limit stop that left a partial result. Any other
// err is returned for Wrap to write. A brownout answer carries its age in
// the X-Multilog-Stale header too, so clients and proxies can spot
// staleness without parsing the body.
func replyQuery(w http.ResponseWriter, resp *QueryResponse, answers []byte, err error) error {
	status := http.StatusOK
	if err != nil {
		if resp == nil || !truncated(err) {
			return err
		}
		status = http.StatusRequestTimeout
	}
	if resp.StaleMS > 0 {
		w.Header().Set("X-Multilog-Stale", strconv.FormatInt(resp.StaleMS, 10))
	}
	return writeQuery(w, status, resp, answers)
}

// truncated says whether err is a limit stop: this process's governor's,
// or a backend's 408.
func truncated(err error) bool {
	var remote *RemoteError
	return resource.IsLimit(err) || errors.As(err, &remote) && remote.Status == http.StatusRequestTimeout
}

// ReplyQuery is the reply to a query a Client asked a backend, which
// returned resp and err: the backend's answers go out as they came, unread,
// when the Client's decoder kept their bytes (Answers must not have changed
// since).
func ReplyQuery(w http.ResponseWriter, resp *QueryResponse, err error) error {
	if resp == nil || resp.raw == nil {
		return replyQuery(w, resp, nil, err)
	}
	head := *resp
	head.Answers, head.raw = nil, nil
	return replyQuery(w, &head, resp.raw, err)
}

// answersOpen opens every encoded QueryResponse: Answers is its first field.
// With nil Answers, "null" follows.
var answersOpen = []byte(`{"answers":`)

// writeQuery writes resp with answers, an encoded JSON array, in the place
// of its nil Answers: the bytes WriteJSON writes for resp with those answers
// as maps. The other fields are marshalled as ever and spliced in behind the
// array; the answers are written as they are. With nil answers, resp is
// written by WriteJSON, its own Answers and all.
func writeQuery(w http.ResponseWriter, status int, resp *QueryResponse, answers []byte) error {
	if answers == nil {
		return WriteJSON(w, status, resp)
	}
	rest, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	rest = rest[len(answersOpen)+len("null"):]
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	for _, part := range [][]byte{answersOpen, answers, append(rest, '\n')} {
		if _, err := w.Write(part); err != nil {
			return err
		}
	}
	return nil
}
