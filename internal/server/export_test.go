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

// WireCase is a program of the answers corpus (wireCases) and the queries
// it is asked.
type WireCase struct {
	Name, Src string
	Queries   []string
}

// WireCorpus is the answers corpus the wire identity test runs.
func WireCorpus() []WireCase {
	var out []WireCase
	for _, wc := range wireCases() {
		out = append(out, WireCase{wc.name, wc.src, wc.queries})
	}
	return out
}

// Clearances lists a loaded database's levels.
func (s *Server) Clearances(db string) []string {
	prog, err := s.program(db)
	if err != nil {
		return nil
	}
	var out []string
	for _, l := range prog.current().poset.Labels() {
		out = append(out, string(l))
	}
	return out
}
