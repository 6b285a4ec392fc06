package server

import (
	"context"
	"net/http"

	"repro/internal/admission"
)

// Handler returns the HTTP API. Every handler runs under the transport's
// wrapper: it contains panics (one bad query must not take the daemon down)
// and refuses new work while draining.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/session", s.tr.Wrap(s.handleOpen))
	mux.HandleFunc("POST /v1/session/close", s.tr.Wrap(s.handleClose))
	mux.HandleFunc("POST /v1/query", s.tr.Wrap(s.handleQuery))
	mux.HandleFunc("POST /v1/assert", s.tr.Wrap(s.handleAssert))
	mux.HandleFunc("POST /v1/retract", s.tr.Wrap(s.handleRetract))
	mux.HandleFunc("GET /v1/stats", s.tr.Wrap(s.handleStats))
	mux.HandleFunc("POST /v1/lint", s.tr.Wrap(s.handleLint))
	// Replication plane: followers bootstrap from the snapshot, then stream
	// the log tail. Status is ungated like health — the router's failover
	// logic must be able to read it under any condition short of death.
	mux.HandleFunc("GET /v1/repl/snapshot", s.tr.Wrap(s.handleReplSnapshot))
	mux.HandleFunc("GET /v1/repl/stream", s.tr.Wrap(s.handleReplStream))
	mux.HandleFunc("GET /v1/repl/status", s.handleReplStatus)
	// Cluster control, driven by the router's failover.
	mux.HandleFunc("POST /v1/repl/promote", s.tr.Wrap(s.handlePromote))
	mux.HandleFunc("POST /v1/repl/primary", s.tr.Wrap(s.handleRetarget))
	// Liveness and readiness: health must answer even while draining or
	// replaying, and readiness is 200 only when the daemon can take real
	// traffic — recovery done, caught up, not draining.
	s.tr.HandleHealth(mux, func() HealthResponse {
		defer s.bypass(admission.Health).Done(0, false)
		return s.health()
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

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) error {
	var req OpenRequest
	if err := Decode(r, &req); err != nil {
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
	return WriteJSON(w, http.StatusOK, OpenResponse{
		Session:   sess.Token,
		DB:        sess.DB,
		Clearance: string(sess.Clearance),
		Mode:      string(sess.Mode),
		Epoch:     epoch,
	})
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) error {
	var req CloseRequest
	if err := Decode(r, &req); err != nil {
		return err
	}
	return WriteJSON(w, http.StatusOK, CloseResponse{Closed: s.sessions.Close(req.Session)})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) error {
	var req QueryRequest
	if err := Decode(r, &req); err != nil {
		return err
	}
	sess, err := s.sessions.Lookup(req.Session)
	if err != nil {
		return err
	}
	resp, answers, err := s.Query(r.Context(), sess, req)
	return replyQuery(w, resp, answers, err)
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
	if err := Decode(r, &req); err != nil {
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
	return WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) error {
	var req LintRequest
	if err := Decode(r, &req); err != nil {
		return err
	}
	resp, err := s.Lint(req)
	if err != nil {
		return err
	}
	return WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) error {
	return WriteJSON(w, http.StatusOK, s.Stats())
}
