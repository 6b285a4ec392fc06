package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"repro/internal/admission"
	"repro/internal/datalog"
	"repro/internal/resource"
	"repro/internal/wal"
)

// maxBodyBytes bounds request bodies; programs are loaded out of band, so
// a query or a handful of clauses fits easily.
const maxBodyBytes = 1 << 20

// Handler returns the HTTP API. Every handler contains panics (one bad
// query must not take the daemon down) and refuses new work while
// draining.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/session", s.wrap(s.handleOpen))
	mux.HandleFunc("POST /v1/session/close", s.wrap(s.handleClose))
	mux.HandleFunc("POST /v1/query", s.wrap(s.handleQuery))
	mux.HandleFunc("POST /v1/assert", s.wrap(s.handleAssert))
	mux.HandleFunc("POST /v1/retract", s.wrap(s.handleRetract))
	mux.HandleFunc("GET /v1/stats", s.wrap(s.handleStats))
	mux.HandleFunc("POST /v1/lint", s.wrap(s.handleLint))
	// Replication plane: followers bootstrap from the snapshot, then stream
	// the log tail. Status is ungated like health — the router's failover
	// logic must be able to read it under any condition short of death.
	mux.HandleFunc("GET /v1/repl/snapshot", s.wrap(s.handleReplSnapshot))
	mux.HandleFunc("GET /v1/repl/stream", s.wrap(s.handleReplStream))
	mux.HandleFunc("GET /v1/repl/status", s.handleReplStatus)
	// Cluster control, driven by the router's failover.
	mux.HandleFunc("POST /v1/repl/promote", s.wrap(s.handlePromote))
	mux.HandleFunc("POST /v1/repl/primary", s.wrap(s.handleRetarget))
	// Liveness: the process is up and handling HTTP — always 200, with the
	// recovery progress in the body. Not gated by wrap: health must answer
	// even while draining or replaying.
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		defer s.bypass(admission.Health).Done(0, false)
		writeJSON(w, http.StatusOK, s.health()) //nolint:errcheck // best-effort health body
	})
	// Readiness: 200 only when the daemon can take real traffic — recovery
	// done, not draining.
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, _ *http.Request) {
		defer s.bypass(admission.Health).Done(0, false)
		h := s.health()
		status := http.StatusOK
		if h.Status != "ok" {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, h) //nolint:errcheck // best-effort health body
	})
	return mux
}

// bypass takes a ticket for a health or replication request. These classes
// never queue and are never shed — the controller only counts them, so
// /v1/stats shows the full request mix. Safe with admission disabled.
func (s *Server) bypass(pri admission.Priority) *admission.Ticket {
	t, _ := s.adm.Admit(context.Background(), pri, 1)
	return t
}

// wrap adds in-flight tracking, the drain gate and panic containment
// around one handler.
func (s *Server) wrap(h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeError(w, ErrShuttingDown)
			return
		}
		s.inFlight.Add(1)
		defer s.inFlight.Done()
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		sw := &StatusWriter{ResponseWriter: w}
		var err error
		func() {
			defer resource.Protect("server.handler", &err)
			err = h(sw, r)
		}()
		switch {
		case err == nil:
		case sw.Started():
			// The reply is on its way (a client that gave up mid-body): its
			// status stands, and there is no one left to tell.
			if s.qAbandon.Add(1) == 1 {
				s.logf("%s %s: reply abandoned after it began: %v (later ones are only counted: queries.abandoned)", r.Method, r.URL.Path, err)
			}
		default:
			writeError(w, err)
		}
	}
}

// StatusWriter is a ResponseWriter that remembers whether its reply has
// begun, so that an error after that is not answered with a second status.
// It flushes through to the writer it wraps.
type StatusWriter struct {
	http.ResponseWriter
	started bool
}

// Started reports whether a status or a byte of the body has been written.
func (w *StatusWriter) Started() bool { return w.started }

func (w *StatusWriter) WriteHeader(status int) {
	w.started = true
	w.ResponseWriter.WriteHeader(status)
}

func (w *StatusWriter) Write(p []byte) (int, error) {
	w.started = true
	return w.ResponseWriter.Write(p)
}

// Flush flushes the wrapped writer, when it can.
func (w *StatusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) error {
	var req OpenRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	if s.recovering.Load() {
		// Sessions bind to a database view; none is complete mid-replay.
		return ErrRecovering
	}
	sess, epoch, err := s.Open(req)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, OpenResponse{
		Session:   sess.Token,
		DB:        sess.DB,
		Clearance: string(sess.Clearance),
		Mode:      string(sess.Mode),
		Epoch:     epoch,
	})
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) error {
	var req CloseRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, CloseResponse{Closed: s.sessions.Close(req.Session)})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) error {
	var req QueryRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	sess, err := s.sessions.Lookup(req.Session)
	if err != nil {
		return err
	}
	resp, answers, err := s.Query(r.Context(), sess, req)
	status := http.StatusOK
	if err != nil {
		if resp == nil || !resource.IsLimit(err) {
			return err
		}
		// Partial answers under a limit stop: 408 plus what was found.
		status = http.StatusRequestTimeout
	}
	if resp.StaleMS > 0 {
		// Brownout answer: surfaced in a header too, so clients and proxies
		// can spot staleness without parsing the body.
		w.Header().Set("X-Multilog-Stale", strconv.FormatInt(resp.StaleMS, 10))
	}
	return writeQuery(w, status, resp, answers)
}

// answersOpen opens every encoded QueryResponse: Answers is its first field.
// With nil Answers, "null" follows.
var answersOpen = []byte(`{"answers":`)

// WriteQuery writes resp as the reply to a query. The answers of a response
// a Client decoded go out as they came, unread, which is how a router
// forwards them (Answers must not have changed since); any other response is
// written as writeJSON writes it.
func WriteQuery(w http.ResponseWriter, status int, resp *QueryResponse) error {
	if resp.raw == nil {
		return writeJSON(w, status, resp)
	}
	head := *resp
	head.Answers, head.raw = nil, nil
	return writeQuery(w, status, &head, resp.raw)
}

// writeQuery writes resp with answers, an encoded JSON array, in the place
// of its nil Answers: the bytes writeJSON writes for resp with those answers
// as maps. The other fields are marshalled as ever and spliced in behind the
// array; the answers are written as they are.
func writeQuery(w http.ResponseWriter, status int, resp *QueryResponse, answers []byte) error {
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

func (s *Server) handleAssert(w http.ResponseWriter, r *http.Request) error {
	return s.handleUpdate(w, r, false)
}

func (s *Server) handleRetract(w http.ResponseWriter, r *http.Request) error {
	return s.handleUpdate(w, r, true)
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request, retract bool) error {
	if s.recovering.Load() {
		// The log is replaying; accepting a write now could interleave it
		// with records it must strictly follow.
		return ErrRecovering
	}
	var req UpdateRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	sess, err := s.sessions.Lookup(req.Session)
	if err != nil {
		return err
	}
	resp, err := s.Update(r.Context(), sess, req, retract)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) error {
	var req LintRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	resp, err := s.Lint(req)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) error {
	return writeJSON(w, http.StatusOK, s.Stats())
}

// badRequestError marks malformed transport-level input.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

func decode(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return &badRequestError{fmt.Errorf("decoding request: %w", err)}
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}

// writeError maps a typed error to its HTTP status and machine code.
func writeError(w http.ResponseWriter, err error) {
	status, code := http.StatusInternalServerError, CodeInternal
	primary := ""
	var (
		overload   *OverloadError
		shed       *admission.OverloadError
		denied     *DeniedError
		lintErr    *LintError
		budget     *resource.ErrBudgetExceeded
		internal   *resource.InternalError
		syntax     *datalog.SyntaxError
		badReq     *badRequestError
		notPrimary *NotPrimaryError
	)
	switch {
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
	if status == http.StatusServiceUnavailable {
		// Overload, drain and recovery are all transient; tell well-behaved
		// clients how long to hold off before retrying (or rotating).
		w.Header().Set("Retry-After", "1")
	}
	if shed != nil {
		// The controller's estimate of when the backlog drains, rounded up
		// to whole seconds (the header's granularity), never below 1.
		secs := int64(math.Ceil(shed.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorResponse{Code: code, Message: err.Error(), Primary: primary}) //nolint:errcheck // best-effort error body
}
