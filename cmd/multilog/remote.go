package main

// remote.go is the REPL's client mode. \connect attaches the session to a
// running multilogd; while attached, login opens a server session at a
// clearance and belief mode, and queries, asserts and retracts travel over
// the JSON/HTTP protocol instead of the in-process engines. \disconnect
// returns to local mode.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/server"
)

const remoteHelp = `remote commands (connected to a multilogd):
  login <level> [mode]  open a server session (mode: fir | opt | cau)
  ?- <goals>.           query at the session's clearance and mode
  assert <clauses>      add Σ/Π clauses through the session
  retract <clauses>     remove clauses through the session
  raw <goals>           query without the belief rewrite
  stats                 show the server's counters
  timeout <dur|off>     bound each request (also applied server-side)
  \disconnect           close the session and return to local mode
  help                  this text
  quit                  leave`

// remote is the connected state: one server session (after login) plus the
// client it speaks through.
type remote struct {
	client  *server.Client
	addr    string
	db      string // requested database ("" = server's sole one)
	session string // token; empty until login
	level   string
	mode    string
}

// connectCmd handles "\connect host:port [db]".
func (r *repl) connectCmd(fields []string) error {
	if len(fields) < 2 || len(fields) > 3 {
		return fmt.Errorf(`usage: \connect host:port [db]`)
	}
	db := ""
	if len(fields) == 3 {
		db = fields[2]
	}
	// Retries ride out a daemon restart: connection errors and 503s
	// (draining, recovering) back off and re-send idempotent requests.
	client := server.NewClient(fields[1], nil).WithRetry(server.DefaultRetryPolicy())
	ctx, stop := r.queryCtx()
	defer stop()
	if err := client.Healthy(ctx); err != nil {
		return fmt.Errorf("connecting to %s: %w", fields[1], err)
	}
	if r.remote != nil {
		r.disconnectCmd() //nolint:errcheck // best-effort close of the old session
	}
	r.remote = &remote{client: client, addr: fields[1], db: db}
	fmt.Fprintf(r.out, "connected to %s; use 'login <level> [mode]' to open a session\n", fields[1])
	return nil
}

// disconnectCmd closes the server session (if any) and detaches.
func (r *repl) disconnectCmd() error {
	if r.remote == nil {
		return fmt.Errorf("not connected")
	}
	if r.remote.session != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		r.remote.client.Close(ctx, r.remote.session) //nolint:errcheck // best-effort
	}
	fmt.Fprintf(r.out, "disconnected from %s\n", r.remote.addr)
	r.remote = nil
	return nil
}

// remoteDispatch routes one line while connected. Local-only commands are
// rejected with a pointer to \disconnect.
func (r *repl) remoteDispatch(line string, fields []string) error {
	rm := r.remote
	switch fields[0] {
	case "help":
		fmt.Fprintln(r.out, remoteHelp)
		return nil
	case "login":
		if len(fields) < 2 || len(fields) > 3 {
			return fmt.Errorf("usage: login <level> [fir|opt|cau]")
		}
		mode := ""
		if len(fields) == 3 {
			mode = fields[2]
		}
		ctx, stop := r.queryCtx()
		defer stop()
		if rm.session != "" {
			rm.client.Close(ctx, rm.session) //nolint:errcheck // superseded session
			rm.session = ""
		}
		resp, err := rm.client.Open(ctx, server.OpenRequest{
			Subject: "repl", Clearance: fields[1], Mode: mode, DB: rm.db})
		if err != nil {
			return err
		}
		rm.session, rm.level, rm.mode = resp.Session, resp.Clearance, resp.Mode
		fmt.Fprintf(r.out, "cleared at %s (mode %s, db %s, epoch %d)\n",
			resp.Clearance, resp.Mode, resp.DB, resp.Epoch)
		return nil
	case "assert", "retract":
		if len(fields) < 2 {
			return fmt.Errorf("usage: %s <clauses>", fields[0])
		}
		return r.remoteUpdate(fields[0], strings.TrimSpace(strings.TrimPrefix(line, fields[0])))
	case "raw":
		if len(fields) < 2 {
			return fmt.Errorf("usage: raw <goals>")
		}
		return r.remoteQuery(strings.TrimSpace(strings.TrimPrefix(line, "raw")), true)
	case "stats":
		return r.remoteStats()
	case "timeout":
		// Shared with local mode: fall through to the main dispatcher's
		// handling by signaling unhandled.
		return r.timeoutCmd(fields)
	case "load", "d1", "engine", "proofs", "filter", "facts", "levels":
		return fmt.Errorf(`%s is local-only; \disconnect first`, fields[0])
	}
	return r.remoteQuery(line, false)
}

func (r *repl) remoteReady() error {
	if r.remote.session == "" {
		return fmt.Errorf("not logged in (use 'login <level> [mode]')")
	}
	return nil
}

// withSession runs one request with the live session token. When the
// daemon was restarted, the token names no session anymore (sessions are
// in-memory; the durable state is not): on unknown-session, withSession
// re-logins with the remembered clearance and mode and repeats the request
// once, so a restart is a one-line notice instead of a dead REPL. Safe for
// updates too: unknown-session is checked before any mutation, so the
// failed attempt changed nothing.
func (r *repl) withSession(ctx context.Context, f func(session string) error) error {
	rm := r.remote
	err := f(rm.session)
	var re *server.RemoteError
	if err == nil || !errors.As(err, &re) || re.Code != server.CodeUnknownSession || rm.level == "" {
		return err
	}
	resp, lerr := rm.client.Open(ctx, server.OpenRequest{
		Subject: "repl", Clearance: rm.level, Mode: rm.mode, DB: rm.db})
	if lerr != nil {
		return fmt.Errorf("session lost (daemon restarted?) and re-login failed: %w", lerr)
	}
	rm.session = resp.Session
	fmt.Fprintf(r.out, "(session expired — daemon restarted? re-logged-in at %s, mode %s, epoch %d)\n",
		resp.Clearance, resp.Mode, resp.Epoch)
	return f(rm.session)
}

func (r *repl) remoteQuery(line string, raw bool) error {
	if err := r.remoteReady(); err != nil {
		return err
	}
	ctx, stop := r.queryCtx()
	defer stop()
	var resp *server.QueryResponse
	err := r.withSession(ctx, func(session string) error {
		var qerr error
		resp, qerr = r.remote.client.QueryContext(ctx, server.QueryRequest{
			Session:   session,
			Query:     line,
			Raw:       raw,
			TimeoutMS: r.timeout.Milliseconds(),
		})
		return qerr
	})
	if resp == nil {
		return err
	}
	// A non-nil resp with a limit error carries the partial answers.
	n := len(resp.Answers)
	tag := "remote"
	if resp.Cached {
		tag = "remote, cached"
	}
	if n == 0 {
		fmt.Fprintf(r.out, "[%s] no\n", tag)
	} else {
		fmt.Fprintf(r.out, "[%s] %d answer(s):\n", tag, n)
	}
	for _, a := range resp.Answers {
		fmt.Fprintf(r.out, "  %s\n", formatBindings(a))
	}
	if err != nil {
		fmt.Fprintf(r.out, "  (truncated: %v)\n", err)
	}
	return nil
}

func (r *repl) remoteUpdate(verb, clauses string) error {
	if err := r.remoteReady(); err != nil {
		return err
	}
	if !strings.HasSuffix(strings.TrimSpace(clauses), ".") {
		clauses += "."
	}
	ctx, stop := r.queryCtx()
	defer stop()
	var resp *server.UpdateResponse
	err := r.withSession(ctx, func(session string) error {
		var uerr error
		if verb == "assert" {
			resp, uerr = r.remote.client.Assert(ctx, session, clauses)
		} else {
			resp, uerr = r.remote.client.Retract(ctx, session, clauses)
		}
		return uerr
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "%sed %d clause(s); epoch %d, %d cache entries invalidated\n",
		verb, resp.Changed, resp.Epoch, resp.Invalidated)
	return nil
}

func (r *repl) remoteStats() error {
	ctx, stop := r.queryCtx()
	defer stop()
	st, err := r.remote.client.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "sessions: %d open (peak %d, %d opened, %d denied)\n",
		st.Sessions.Open, st.Sessions.Peak, st.Sessions.Opened, st.Sessions.Denied)
	fmt.Fprintf(r.out, "queries:  %d served, %d errors, %d truncated\n",
		st.Queries.Served, st.Queries.Errors, st.Queries.Truncated)
	fmt.Fprintf(r.out, "cache:    %d hits, %d misses, %d evictions, %d invalidations (%d/%d entries)\n",
		st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions, st.Cache.Invalidations,
		st.Cache.Entries, st.Cache.Capacity)
	fmt.Fprintf(r.out, "plans:    %d hits, %d misses, %d compiles (%s), %d invalidations (%d/%d entries)\n",
		st.Compiled.Hits, st.Compiled.Misses, st.Compiled.Compiles,
		time.Duration(st.Compiled.CompileNS), st.Compiled.Invalidations,
		st.Compiled.Entries, st.Compiled.Capacity)
	names := make([]string, 0, len(st.Databases))
	for n := range st.Databases {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		db := st.Databases[n]
		fmt.Fprintf(r.out, "db %s:    epoch %d, |Λ|=%d |Σ|=%d |Π|=%d, %d reductions, %d updates; advances: %s\n",
			n, db.Epoch, db.Lambda, db.Sigma, db.Pi, db.Reductions, db.Updates, db.AdvanceTally)
	}
	if rp := st.Replication; rp != nil {
		switch rp.Role {
		case "router":
			fmt.Fprintf(r.out, "repl:     router → %s; %d writes acked, %d failovers, %d ack timeouts\n",
				rp.Primary, rp.WritesAcked, rp.Failovers, rp.AckTimeouts)
			fmt.Fprintf(r.out, "          ryw: %d holds, %d forwards; %d read fallbacks\n",
				rp.RYWHolds, rp.RYWForwards, rp.ReadFallback)
			for _, n := range rp.Nodes {
				bands := "all bands"
				if len(n.Bands) > 0 {
					bands = strings.Join(n.Bands, ";")
				}
				health := "healthy"
				if !n.Healthy {
					health = "UNHEALTHY"
				}
				fmt.Fprintf(r.out, "          %-8s %s (%s, applied %d, %d sessions, %s)\n",
					n.Role, n.Addr, health, n.AppliedSeq, n.Sessions, bands)
			}
		case "follower":
			sync := "synced"
			if !rp.Synced {
				sync = "SYNCING"
			}
			fmt.Fprintf(r.out, "repl:     follower of %s (%s); applied %d, heard %d, lag %d record(s)\n",
				rp.Primary, sync, rp.AppliedSeq, rp.LastHeardSeq, rp.LagRecords)
			fmt.Fprintf(r.out, "          %d frames / %d bytes received, %d resumes, %d snapshot bootstraps\n",
				rp.FramesReceived, rp.BytesReceived, rp.Resumes, rp.SnapshotBootstraps)
			if rp.LastStreamError != "" {
				fmt.Fprintf(r.out, "          last stream error: %s\n", rp.LastStreamError)
			}
		default: // primary
			fmt.Fprintf(r.out, "repl:     %s; applied %d; %d streams served, %d frames sent, %d snapshots served\n",
				rp.Role, rp.AppliedSeq, rp.StreamsServed, rp.FramesSent, rp.SnapshotsServed)
		}
	}
	return nil
}

// formatBindings renders a wire answer like term.Subst renders locally:
// sorted variables, "V/value" pairs in braces.
func formatBindings(a map[string]string) string {
	vars := make([]string, 0, len(a))
	for v := range a {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	parts := make([]string, len(vars))
	for i, v := range vars {
		parts[i] = v + "/" + a[v]
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
