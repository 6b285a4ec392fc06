package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/lattice"
	"repro/internal/multilog"
)

// Session is one authenticated connection's view of a database: a subject
// pinned to a clearance label and a default belief mode (§5.2: "the
// interpreter may use the clearance level u dictated by the user's login
// id"). Sessions are immutable after Open; all fields are read-only.
type Session struct {
	Token     string
	Subject   string
	DB        string
	Clearance lattice.Label
	Mode      multilog.Mode
}

// sessionManager tracks live sessions under a concurrent-session cap. All
// methods are safe for concurrent use.
type sessionManager struct {
	mu     sync.Mutex
	byTok  map[string]*Session
	max    int
	peak   int
	opened int64
	denied int64
	closed bool // set by drain: no new sessions
}

func newSessionManager(max int) *sessionManager {
	return &sessionManager{byTok: map[string]*Session{}, max: max}
}

// Open admits a new session, or fails with a typed *OverloadError when the
// cap is reached (the counterpart of the resource governor's budget
// errors: the server degrades by refusing admission, not by queueing
// unboundedly).
func (m *sessionManager) Open(subject, db string, clearance lattice.Label, mode multilog.Mode) (*Session, error) {
	tok, err := NewToken()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrShuttingDown
	}
	if m.max > 0 && len(m.byTok) >= m.max {
		m.denied++
		return nil, &OverloadError{Active: len(m.byTok), Max: m.max}
	}
	s := &Session{Token: tok, Subject: subject, DB: db, Clearance: clearance, Mode: mode}
	m.byTok[tok] = s
	m.opened++
	if len(m.byTok) > m.peak {
		m.peak = len(m.byTok)
	}
	return s, nil
}

// Lookup resolves a token; unknown tokens get ErrUnknownSession.
func (m *sessionManager) Lookup(token string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := m.byTok[token]; s != nil {
		return s, nil
	}
	return nil, ErrUnknownSession
}

// Close releases a session; it reports whether the token was live.
func (m *sessionManager) Close(token string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.byTok[token]; !ok {
		return false
	}
	delete(m.byTok, token)
	return true
}

// Drain stops admission; live sessions keep answering until the HTTP
// server finishes draining their in-flight requests.
func (m *sessionManager) Drain() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
}

// Stats snapshots the counters.
func (m *sessionManager) Stats() SessionStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return SessionStats{Open: len(m.byTok), Peak: m.peak, Opened: m.opened, Denied: m.denied}
}

// NewToken returns 16 bytes of hex from crypto/rand: unguessable, so a
// session cannot be hijacked by iterating small integers.
func NewToken() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: session token: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}
