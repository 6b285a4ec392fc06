package server

import "repro/internal/wal"

// The follower's apply path, for tests that feed it records one by one
// instead of through a live stream.

var ErrDiverged = errDiverged

func (s *Server) ApplyReplicated(rec wal.Record) error { return s.applyReplicated(rec) }

func (s *Server) InstallSnapshot(seq uint64, payload []byte) error {
	return s.installSnapshot(seq, payload)
}

func (s *Server) MarkSynced() { s.markSynced() }
