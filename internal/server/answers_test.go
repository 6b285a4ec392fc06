package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/multilog"
	"repro/internal/resource"
	"repro/internal/term"
	"repro/internal/workload"
)

// renderAnswers is the reference rendering of answers: one var->text map per
// answer, which encoding/json turns into the wire's answer array. The server
// encodes the same bytes without the maps (encodeAnswers).
func renderAnswers(answers []multilog.Answer) []map[string]string {
	out := make([]map[string]string, len(answers))
	for i, a := range answers {
		m := make(map[string]string, len(a.Bindings))
		for v, t := range a.Bindings {
			m[v] = t.String()
		}
		out[i] = m
	}
	return out
}

// escapesProgram quotes constants that JSON must escape or that are not
// ASCII, one kind to a constant: HTML's <, > and &, a quote, a backslash,
// non-ASCII letters (quoted and bare), U+2028, U+2029, a tab, a control
// character and DEL.
const escapesProgram = "level(l0). level(l1). order(l0, l1).\n" +
	"l0[p0(k1: a -l0-> 'a<b')]. l0[p0(k11: a -l0-> 'a>b')]. l0[p0(k12: a -l0-> 'a&b')].\n" +
	"l0[p0(k2: a -l0-> 'é ü 中')].\n" +
	"l0[p0(k3: a -l0-> 'line\u2028sep')].\n" +
	"l0[p0(k4: a -l0-> 'para\u2029sep')].\n" +
	"l0[p0(k5: a -l0-> 'say \"hi\"')].\n" +
	"l0[p0(k6: a -l0-> 'back\\slash')].\n" +
	"l0[p0(k7: a -l0-> 'tab\there')].\n" +
	"l0[p0(k8: a -l0-> 'ctl\x01char')].\n" +
	"l0[p0(k9: a -l0-> 'del\x7fchar')].\n" +
	"l1[p0(k1: a -l1-> été)].\n" +
	"l1[p0('<key & q>': a -l1-> v1)].\n" +
	"l0[p1(k1: a -l0-> w)].\n" +
	"l0[p2(k1: a -l0-> x)]. l0[p2(k10: a -l0-> x)].\n" +
	"l1[q0(K: d -l1-> derived0)] :- l0[p0(K: a -C-> V)] << opt.\n"

// wireCase is one program of the wire identity test with its four query
// shapes: full scan, point, value scan, join (and, on escapesProgram, a scan
// whose order the braces of Subst.String decide).
type wireCase struct {
	name, src string
	queries   []string
}

func wireCases() []wireCase {
	cases := []wireCase{{name: "escapes", src: escapesProgram, queries: []string{
		"L[p0(K: a -C-> V)]",
		"L[p0(k1: a -C-> V)]",
		"L[p0(Ü: a -C-> 'a<b')]",
		"M[q0(K: d -D-> W)], L[p0(K: a -C-> V)]",
		// Z sorts last and binds k1 and k10: "{…, Z/k10}" < "{…, Z/k1}".
		"L[p2(Z: a -C-> V)]",
	}}}
	for seed := int64(1); seed <= 2; seed++ {
		cases = append(cases, wireCase{
			name: fmt.Sprintf("workload%d", seed),
			src: workload.ProgramSource(workload.ProgramConfig{
				Levels: 4, Facts: 120, Rules: 8, Preds: 3, Seed: seed, Poly: 0.3}),
			queries: []string{
				"L[p0(K: a -C-> V)]",
				"L[p0(k1: a -C-> V)]",
				"L[p1(K: a -C-> v1)]",
				"M[q0(K: d -D-> W)], L[p0(K: a -C-> V)]",
			},
		})
	}
	return cases
}

// postQuery sends req through the handler and returns the recorded response.
func postQuery(t *testing.T, h http.Handler, req QueryRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
	return rec
}

// encodeJSON is the reference body: writeJSON's encoding of v.
func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestQueryBodyIsEncodingJSON holds the query response body byte-identical
// to json.NewEncoder over the reference maps (renderAnswers) of answers
// computed independently on the same reduction, in every shape the handler
// writes: a 408 with partial answers, a miss, a hit, and a brownout answer
// with its X-Multilog-Stale header. It runs over generated programs and one
// whose constants need escaping, at every clearance × belief mode × {full
// scan, point, value scan, join}. Answers must come in the order of their
// bindings' Subst.String, which is the engine's answer order.
func TestQueryBodyIsEncodingJSON(t *testing.T) {
	const maxSteps = 2
	ctx := context.Background()
	for _, wc := range wireCases() {
		t.Run(wc.name, func(t *testing.T) {
			const maxInflight = 4 // one cost-4 read at a time
			var hold atomic.Bool
			parked, release := make(chan struct{}, 1), make(chan struct{})
			s := New(Config{
				QueryTimeout: time.Minute,
				MaxInflight:  maxInflight,
				MaxStale:     time.Hour,
				StreamFaults: func(ev faultinject.FileEvent, _ int64) faultinject.FileAction {
					if ev == faultinject.ServerQueryWork && hold.Load() {
						select {
						case parked <- struct{}{}:
						default:
						}
						<-release
					}
					return faultinject.FileOK
				},
			})
			if err := s.Load("wire", wc.src); err != nil {
				t.Fatal(err)
			}
			h := s.Handler()
			prog, err := s.program("wire")
			if err != nil {
				t.Fatal(err)
			}
			snap := prog.current()

			type cell struct {
				token, query string
				answers      []map[string]string
				canonical    string
			}
			var cells []cell
			truncated := 0
			for _, lvl := range snap.poset.Labels() {
				red, err := snap.reductionAt(ctx, lvl, resource.Limits{})
				if err != nil {
					t.Fatal(err)
				}
				for _, mode := range []multilog.Mode{multilog.ModeFir, multilog.ModeOpt, multilog.ModeCau} {
					sess, _, err := s.Open(OpenRequest{Subject: "w", DB: "wire", Clearance: string(lvl), Mode: string(mode)})
					if err != nil {
						t.Fatal(err)
					}
					for _, q := range wc.queries {
						goals, err := multilog.ParseGoals(q)
						if err != nil {
							t.Fatal(err)
						}
						goals = rewriteBelief(goals, mode)
						canonical := multilog.Query(goals).String()
						where := fmt.Sprintf("%s@%s %s", mode, lvl, q)
						ref := func(limits resource.Limits) ([]map[string]string, resource.Stats, bool) {
							// Under a deadline, as the server's request context.
							qctx, cancel := context.WithTimeout(ctx, time.Minute)
							defer cancel()
							found, stats, err := red.QueryPrepared(qctx, goals, limits)
							if err != nil && !resource.IsLimit(err) {
								t.Fatalf("%s: %v", where, err)
							}
							for i := 1; i < len(found); i++ {
								if found[i-1].Bindings.String() >= found[i].Bindings.String() {
									t.Fatalf("%s: answers %d and %d are out of Subst.String order: %s, %s",
										where, i-1, i, found[i-1].Bindings, found[i].Bindings)
								}
							}
							return renderAnswers(found), stats, err == nil
						}
						check := func(what string, req QueryRequest, status int, want QueryResponse) {
							t.Helper()
							rec := postQuery(t, h, req)
							if rec.Code != status {
								t.Fatalf("%s, %s: status %d, want %d: %s", where, what, rec.Code, status, rec.Body)
							}
							if got, want := rec.Body.Bytes(), encodeJSON(t, want); !bytes.Equal(got, want) {
								t.Fatalf("%s, %s: body\n%s\nwant encoding/json's\n%s", where, what, got, want)
							}
						}
						req := QueryRequest{Session: sess.Token, Query: q}

						// A step budget truncates most queries: 408 and the
						// partial answers, not cached. One it does not cut
						// is a complete miss, cached.
						limited := req
						limited.MaxSteps = maxSteps
						partial, stats, complete := ref(resource.Limits{MaxSteps: maxSteps})
						status := http.StatusRequestTimeout
						if complete {
							status = http.StatusOK
						} else {
							truncated++
						}
						check("limited", limited, status, QueryResponse{Answers: partial, Query: canonical, Epoch: snap.epoch, Stats: stats})
						answers := partial
						if !complete {
							answers, stats, _ = ref(resource.Limits{})
							check("miss", req, http.StatusOK, QueryResponse{Answers: answers, Query: canonical, Epoch: snap.epoch, Stats: stats})
						}
						check("hit", req, http.StatusOK, QueryResponse{Answers: answers, Query: canonical, Cached: true, Epoch: snap.epoch})
						cells = append(cells, cell{sess.Token, q, answers, canonical})
					}
				}
			}

			if truncated == 0 || truncated == len(cells) {
				t.Fatalf("%d of %d queries truncated at %d steps, want some and not all", truncated, len(cells), maxSteps)
			}

			// Brownout: every entry goes stale, as a write that advanced no
			// clearance leaves them; then one parked read holds the whole
			// limit and 4 × maxInflight more fill the admission queue (its
			// default bound), so every read after them is shed and answered
			// from the stale copies.
			s.cache.Invalidate("wire", snap.epoch+1, nil)
			flood, _, err := s.Open(OpenRequest{Subject: "flood", DB: "wire", Clearance: string(snap.poset.Labels()[0])})
			if err != nil {
				t.Fatal(err)
			}
			hold.Store(true)
			var readers sync.WaitGroup
			defer readers.Wait()
			defer close(release)
			for i := 0; i <= 4*maxInflight; i++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					s.Query(ctx, flood, QueryRequest{Query: fmt.Sprintf("L[p0(flood%d: a -C-> V)]", i)}) //nolint:errcheck // released at the end
				}()
				if i == 0 {
					<-parked
				}
			}
			for deadline := time.Now().Add(30 * time.Second); s.Stats().Admission.Queued < 4*maxInflight; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the admission queue never filled")
				}
			}
			for _, c := range cells {
				rec := postQuery(t, h, QueryRequest{Session: c.token, Query: c.query})
				header := rec.Header().Get("X-Multilog-Stale")
				staleMS, err := strconv.ParseInt(header, 10, 64)
				if rec.Code != http.StatusOK || err != nil || staleMS < 1 {
					t.Fatalf("%s: brownout answered %d with X-Multilog-Stale %q: %s", c.query, rec.Code, header, rec.Body)
				}
				want := encodeJSON(t, QueryResponse{Answers: c.answers, Query: c.canonical, Cached: true, Epoch: snap.epoch, StaleMS: staleMS})
				if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
					t.Fatalf("%s: brownout body\n%s\nwant encoding/json's\n%s", c.query, got, want)
				}
			}
		})
	}
}

// TestCachedHitAllocsFlatInAnswers: a cache hit writes the stored bytes, so
// a full scan of several hundred rows allocates, through the handler, at most
// a quarter more than a one-row point hit at the same session. A hit that
// encodes the answers allocates per row: 143x at 1043 rows.
func TestCachedHitAllocsFlatInAnswers(t *testing.T) {
	s := New(Config{})
	if err := s.Load("hot", workload.ProgramSource(workload.ProgramConfig{
		Levels: 4, Facts: 2000, Rules: 16, Preds: 6, Seed: 1, Poly: 0.3})); err != nil {
		t.Fatal(err)
	}
	sess, _, err := s.Open(OpenRequest{Subject: "hot", DB: "hot", Clearance: "l3", Mode: "opt"})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	scan := QueryRequest{Session: sess.Token, Query: "L[p0(K: a -C-> V)]"}
	rec := postQuery(t, h, scan)
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	rows := map[string]int{}
	for _, a := range resp.Answers {
		rows[a["K"]]++
	}
	point := QueryRequest{Session: sess.Token}
	for k, n := range rows {
		if n == 1 {
			point.Query = fmt.Sprintf("L[p0(%s: a -C-> V)]", k)
			break
		}
	}
	if len(resp.Answers) < 500 || point.Query == "" {
		t.Fatalf("the scan found %d rows over %d keys, want hundreds and a key with one", len(resp.Answers), len(rows))
	}
	postQuery(t, h, point)

	buf := new(bytes.Buffer)
	hit := func(req QueryRequest) float64 {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			buf.Reset()
			rec := httptest.NewRecorder()
			rec.Body = buf
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
			if rec.Code != http.StatusOK || !bytes.Contains(buf.Bytes(), []byte(`"cached":true`)) {
				t.Fatalf("%s: not a cache hit: %d %.200s", req.Query, rec.Code, buf)
			}
		})
	}
	scanAllocs, pointAllocs := hit(scan), hit(point)
	t.Logf("allocations per cached hit: %.0f for the %d-row scan, %.0f for a 1-row point", scanAllocs, len(resp.Answers), pointAllocs)
	if scanAllocs > 1.25*pointAllocs {
		t.Errorf("a cached hit on %d rows allocates %.0f times, a 1-row one %.0f: %.2fx, want at most 1.25x",
			len(resp.Answers), scanAllocs, pointAllocs, scanAllocs/pointAllocs)
	}
}

// TestUnboundQueryVariableAnswers: a query variable nothing binds leaves
// X ↦ X in its answer's bindings. Rendering them once looped forever, past
// the request deadline and holding the request's admission ticket.
func TestUnboundQueryVariableAnswers(t *testing.T) {
	s := New(Config{QueryTimeout: time.Second})
	if err := s.Load("test", precisionProgram); err != nil {
		t.Fatal(err)
	}
	sess := openSess(t, s, "l1", "")
	for q, want := range map[string]string{
		"X = X":                            `[{"X":"X"}]`,
		"X = Y":                            `[{"X":"Y","Y":"Y"}]`,
		"l0[emp(K: salary -C-> V)], Z = Z": "",
	} {
		done := make(chan []byte, 1)
		go func() {
			_, answers, err := s.Query(context.Background(), sess, QueryRequest{Query: q})
			if err != nil {
				t.Error(err)
			}
			done <- answers
		}()
		select {
		case answers := <-done:
			if want != "" && string(answers) != want {
				t.Errorf("%s answered %s, want %s", q, answers, want)
			}
			if want == "" && !strings.Contains(string(answers), `"Z":"Z"`) {
				t.Errorf("%s answered %s, want Z unbound in every row", q, answers)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s has not returned after 5 s under a 1 s query timeout", q)
		}
	}
}

// TestNeqBeforeItsBinderAnswers: a '!=' written before the goal that binds
// its variable answers what it does written after it, byte for byte, in
// every mode; a '!=' nothing binds answers nothing, wherever it stands.
func TestNeqBeforeItsBinderAnswers(t *testing.T) {
	s := New(Config{QueryTimeout: time.Second})
	if err := s.Load("test", `level(l0). level(l1). order(l0, l1).
	l0[p(k1: a -l0-> v1)].
	l0[p(k2: a -l0-> v2)].
	l1[p(k2: a -l1-> v3)].`); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"fir", "opt", "cau"} {
		sess := openSess(t, s, "l1", mode)
		ask := func(q string) string {
			_, answers, err := s.Query(context.Background(), sess, QueryRequest{Query: q})
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			return string(answers)
		}
		for _, pair := range [][2]string{
			{"l0[p(X: a -C-> V)], X != k1", "X != k1, l0[p(X: a -C-> V)]"},
			{"L[p(X: a -C-> V)], M[p(Y: a -D-> W)], X != Y", "X != Y, L[p(X: a -C-> V)], M[p(Y: a -D-> W)]"},
		} {
			after, before := ask(pair[0]), ask(pair[1])
			if after == "[]" {
				t.Fatalf("%s: %s answers nothing; it tests no order", mode, pair[0])
			}
			if before != after {
				t.Errorf("%s: %s answered %s, but %s answered %s", mode, pair[1], before, pair[0], after)
			}
		}
		for _, q := range []string{"X != Y", "X != Y, l0[p(K: a -C-> V)]", "l0[p(K: a -C-> V)], X != Y"} {
			if got := ask(q); got != "[]" {
				t.Errorf("%s: %s answered %s, want []", mode, q, got)
			}
		}
	}
}

// FuzzAnswersJSON holds the encoder to encoding/json over the reference maps
// for arbitrary variable names and term texts: constants (quoted when not
// bare), variables (written as they are) and compounds, with the variable
// set changing between rows — to the same set, a subset, a superset, none.
func FuzzAnswersJSON(f *testing.F) {
	for _, seed := range [][4]string{
		{"X", "Y", "a", "b"},
		{"K", "V", `<&>"\`, "é ü 中"},
		{"A\u2028", "B", "line\u2028para\u2029", "tab\tctl\x01del\x7f"},
		{"\xff", "", "bad\xffutf8\xc3", "'quoted'"},
		{"X", "X", "", "null"},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	f.Fuzz(func(t *testing.T, v1, v2, t1, t2 string) {
		answers := []multilog.Answer{
			{Bindings: term.Subst{v1: term.Const(t1), v2: term.Var(t2)}},
			{Bindings: term.Subst{v2: term.Var(t1), v1: term.Const(t2)}},
			{Bindings: term.Subst{v1: term.Comp(t2, term.Const(t1), term.Null(), term.Var(t2))}},
			{Bindings: term.Subst{v1: term.Const(t2), v2: term.Const(t1), v1 + v2: term.Null()}},
			{Bindings: term.Subst{}},
			{},
			{Bindings: term.Subst{v2: term.Const(t1), v1 + v2: term.Const(t2)}},
		}
		want, err := json.Marshal(renderAnswers(answers))
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := encodeAnswers(answers, nil); !bytes.Equal(got, want) {
			t.Fatalf("encodeAnswers wrote\n%q\nencoding/json writes\n%q", got, want)
		}
	})
}
