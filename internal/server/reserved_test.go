package server

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestReservedNamesRefused: a subject cleared at l0 cannot reach the cells
// of τ's relations, which no clearance guard filters. Each hostile write —
// a Π fact planted in l1's emp relation (a write-up), a Π rule that copies
// that relation out (a read-up), and a dominate fact — is refused by lint
// ML009, as a write before the log sees it and inside a loaded program; and
// after the refusal the probe reads no planted or l1 value. With the check
// gone the write-up's probe reads eve's planted salary at l1 and the
// read-up's reads mid, alice's l1 salary, at l0.
func TestReservedNamesRefused(t *testing.T) {
	for _, c := range []struct {
		name, clauses    string
		clearance, probe string
		forbidden        string
	}{
		{"write-up", "mlrel_emp_l1(eve, salary, planted, l1).", "l1", "l1[emp(K: salary -C-> V)]", "planted"},
		{"read-up", "mlrel_emp_l1(x, y, z, l1).\nleak(V) :- mlrel_emp_l1(K, A, V, C).", "l0", "leak(V)", "mid"},
		{"dominate", "dominate(l1, l0).", "l0", "l0[emp(K: salary -C-> V)]", "mid"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var le *LintError
			if err := New(Config{}).Load("test", precisionProgram+c.clauses); !errors.As(err, &le) || !strings.Contains(le.Findings, "ML009") {
				t.Errorf("loading the program with %q: want an ML009 refusal, got %v", c.clauses, err)
			}
			s := newIncServer(t, Config{})
			prog, err := s.program("test")
			if err != nil {
				t.Fatal(err)
			}
			before := prog.current()
			writer := openSess(t, s, "l0", "")
			if _, err := s.Update(context.Background(), writer, UpdateRequest{Clauses: c.clauses}, false); !errors.As(err, &le) || !strings.Contains(le.Findings, "ML009") {
				t.Errorf("writing %q at l0: want an ML009 refusal, got %v", c.clauses, err)
			}
			if prog.current() != before {
				t.Errorf("writing %q at l0: a refused write published a new version", c.clauses)
			}
			resp, err := query(context.Background(), s, openSess(t, s, c.clearance, ""), QueryRequest{Query: c.probe})
			if err == nil {
				for _, a := range resp.Answers {
					for _, v := range a {
						if v == c.forbidden {
							t.Errorf("%s at %s answers %v: it reads %s", c.probe, c.clearance, resp.Answers, c.forbidden)
						}
					}
				}
			}
		})
	}
}
