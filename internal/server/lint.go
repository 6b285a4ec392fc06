package server

import (
	"repro/internal/analysis"
	"repro/internal/lint"
)

// Lint re-runs the full static-analysis layer — every lint pass plus the
// MLS information-flow analysis — over the named database's current
// snapshot. Loaded programs never carry error-severity findings (Load
// rejects those), but warnings and info findings survive loading, and
// updates since load can change the picture; this is the introspection
// surface for them.
func (s *Server) Lint(req LintRequest) (*LintResponse, error) {
	prog, err := s.program(req.DB)
	if err != nil {
		return nil, err
	}
	snap := prog.current()
	resp := &LintResponse{DB: prog.name, Epoch: snap.epoch}
	for _, d := range lint.MultiLog(snap.db.Database(), lint.Options{File: prog.name}) {
		resp.Diagnostics = append(resp.Diagnostics, LintDiagnostic{
			Code:     d.Code,
			Severity: d.Severity.String(),
			Line:     d.Pos.Line,
			Col:      d.Pos.Col,
			Message:  d.Message,
			Fix:      d.Fix,
		})
	}
	if resp.Diagnostics == nil {
		resp.Diagnostics = []LintDiagnostic{}
	}
	flow, err := analysis.AnalyzeFlow(snap.db.Database())
	if err != nil {
		// An inadmissible lattice is already reported as an ML004
		// diagnostic above; the flow table is simply absent.
		return resp, nil
	}
	resp.Converged = flow.Converged
	for _, pred := range flow.PredNames() {
		info := flow.Preds[pred]
		fi := LintFlowInfo{
			Pred:                 pred,
			AllLabels:            info.AllLabels,
			ClearanceIndependent: info.ClearanceIndependent,
			ModeDivergent:        info.ModeDivergent,
		}
		for _, l := range info.Sources {
			fi.Sources = append(fi.Sources, string(l))
		}
		if info.HasBound {
			fi.Bound = string(info.Bound)
		}
		resp.Flow = append(resp.Flow, fi)
	}
	return resp, nil
}
