package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/multilog"
	"repro/internal/term"
)

// daemonBodies returns the /v1/query bodies the daemon writes for the wire
// corpus (wireCases), every query at every clearance, under firm belief.
func daemonBodies(tb testing.TB) [][]byte {
	tb.Helper()
	var bodies [][]byte
	for _, wc := range wireCases() {
		s := New(Config{})
		if err := s.Load("wire", wc.src); err != nil {
			tb.Fatal(err)
		}
		prog, err := s.program("wire")
		if err != nil {
			tb.Fatal(err)
		}
		h := s.Handler()
		for _, lvl := range prog.current().poset.Labels() {
			sess, _, err := s.Open(OpenRequest{Subject: "w", DB: "wire", Clearance: string(lvl)})
			if err != nil {
				tb.Fatal(err)
			}
			for _, q := range wc.queries {
				req, err := json.Marshal(QueryRequest{Session: sess.Token, Query: q})
				if err != nil {
					tb.Fatal(err)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(req)))
				if rec.Code != http.StatusOK {
					tb.Fatalf("%s at %s: %d %s", q, lvl, rec.Code, rec.Body)
				}
				bodies = append(bodies, rec.Body.Bytes())
			}
		}
	}
	return bodies
}

// oddBodies are query bodies off the daemon's form, each with a reason to
// leave the hand-written path for a token or for the whole body.
var oddBodies = []string{
	`{"answers":[{"X":"say \"hi\"","Y":"é ","Z":"back\\slash"}],"query":"?- q.","cached":false,"epoch":1,"stats":{"Steps":3,"FactsDerived":0,"MemoryBytes":0,"StrataCompleted":0,"Truncated":false}}` + "\n",
	"{\"answers\":[{\"X\":\"line\u2028sep é\",\"Ü\":\"v\"}],\"query\":\"q\"}",
	`{"answers":[{"X":"line\u2028sep \u00e9","\u00dc":"v"}],"query":"q"}`,
	"{\"answers\":[{\"X\":\"bad\xffutf8\xc3\"}],\"query\":\"q\"}",
	"{\"answers\":[{\"X\":\"ctl\x01byte\"}],\"query\":\"q\"}",
	`{"answers":[{"X":"1","X":"2","Y":"3"},{"X":"4"}],"query":"q"}`,
	`{"answers":null,"query":"q","cached":true,"epoch":7}`,
	`{"answers":null}`,
	`{"answers":nullx}`,
	`{"answers":[null,{"X":"a"}],"query":"q"}`,
	`{"answers":[{"X":null}],"query":"q"}`,
	`{"answers":[{"X":1}],"query":"q"}`,
	`{"answers":[],"query":"q"}`,
	`{"answers":[{}],"query":"q"}`,
	`{"answers":[{},{"X":"a"},{}]}`,
	`{"answers": [ {"X" : "a"} ] , "query" : "q" }`,
	"{\"answers\":[{\"X\":\"a\"}]\n,\"query\":\"q\"}",
	`{"answers":[{"X":"a"}],"query":"q"}` + " \r\n\t",
	`{"answers":[{"X":"a"}],"query":"q"}x`,
	`{"answers":[{"X":"a"}]}`,
	`{"answers":[{"X":"a"}]} {}`,
	`{"answers":[{"X":"a"}],"query":"q","answers":[{"Y":"b"}]}`,
	`{"answers":[{"X":"a"},{"X":"c"}],"query":"q","Answers":[{"Y":"b"}]}`,
	`{"answers":[{"X":"a"}],"query":"q","ANSWERS":null}`,
	`{"answers":[{"X":"a"}],"query":"q","epoch":"x"}`,
	`{"answers":[{"X":"a"}],"query":"q","epoch":-1}`,
	`{"answers":[{"X":"a"}],"query":"q","stats":{"Steps":1.5}}`,
	`{"answers":[{"X":"a"}],"query":"q","extra":[1,{"a":null}]}`,
	`{"answers":[{"X":"a"}],}`,
	`{"answers":[{"X":"a"`,
	`{"answers":[{"X":"a\`,
	`{"answers":[{"X":"\x"}]}`,
	`{"answers":[{"X":"a"},]}`,
	`{"answers":[{"X":"a",}]}`,
	`{"answers":[{"X"}]}`,
	`{"answers":[{"X":"a"}{"Y":"b"}]}`,
	`{"answers":{"X":"a"}}`,
	`{"answers":"x"}`,
	`{"query":"q","answers":[{"X":"a"}]}`,
	`{"ANSWERS":[{"X":"a"}]}`,
	` {"answers":[]}`,
	`{"answers":`,
	`{"answers":[`,
	`{`,
	`null`,
	`[]`,
	``,
}

// FuzzQueryResponseDecode holds decodeQuery to json.Unmarshal: the same
// QueryResponse and the same error, or both nil, on any body — and, where
// it keeps the answers' bytes for a router, those are the body's own, and
// decode to the same answers. The body comes back as it went in.
func FuzzQueryResponseDecode(f *testing.F) {
	for _, body := range daemonBodies(f) {
		f.Add(body)
	}
	for _, body := range oddBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want QueryResponse
		werr := json.Unmarshal(body, &want)
		var got QueryResponse
		in := bytes.Clone(body)
		gerr := decodeQuery(in, &got)
		if !bytes.Equal(in, body) {
			t.Fatalf("decodeQuery changed its body:\n%q\nto\n%q", body, in)
		}
		if raw := got.raw; raw != nil {
			var answers []map[string]string
			if !bytes.HasPrefix(body[len(answersOpen):], raw) || json.Unmarshal(raw, &answers) != nil ||
				!reflect.DeepEqual(answers, got.Answers) {
				t.Fatalf("body %q: kept answer bytes %q, which are not the body's answers %v", body, raw, got.Answers)
			}
			got.raw = nil
		}
		if !reflect.DeepEqual(gerr, werr) {
			t.Fatalf("body %q: error %v, json.Unmarshal's %v", body, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: decoded\n%#v\njson.Unmarshal decodes\n%#v", body, got, want)
		}
	})
}

// FuzzQueryUnreadDecode holds decodeQueryUnread, the router's decoder, to
// decodeQuery: the same error, the same answer bytes kept, and the same
// fields — but for the rows of the answers it keeps, which it never decodes.
func FuzzQueryUnreadDecode(f *testing.F) {
	for _, body := range daemonBodies(f) {
		f.Add(body)
	}
	for _, body := range oddBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want, got QueryResponse
		werr := decodeQuery(bytes.Clone(body), &want)
		gerr := decodeQueryUnread(bytes.Clone(body), &got)
		if !reflect.DeepEqual(gerr, werr) {
			t.Fatalf("body %q: error %v, decodeQuery's %v", body, gerr, werr)
		}
		if (got.raw == nil) != (want.raw == nil) || !bytes.Equal(got.raw, want.raw) {
			t.Fatalf("body %q: kept answer bytes %q, decodeQuery kept %q", body, got.raw, want.raw)
		}
		if got.raw != nil {
			if got.Answers != nil {
				t.Fatalf("body %q: decoded the answers it keeps unread", body)
			}
			got.Answers = want.Answers
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: decoded\n%#v\ndecodeQuery decodes\n%#v", body, got, want)
		}
	})
}

// rowsBody is a query body of n rows of four variables, as the daemon
// writes it: the shape of a full scan on the benchmark's program.
func rowsBody(tb testing.TB, n int) []byte {
	answers := make([]multilog.Answer, n)
	for i := range answers {
		answers[i].Bindings = term.Subst{
			"C": term.Const(fmt.Sprintf("l%d", i%4)),
			"K": term.Const(fmt.Sprintf("k%d", i)),
			"L": term.Const(fmt.Sprintf("l%d", (i+1)%4)),
			"V": term.Const(fmt.Sprintf("v%d", i*7%1000)),
		}
	}
	encoded, _ := encodeAnswers(answers, nil)
	rec := httptest.NewRecorder()
	if err := writeQuery(rec, http.StatusOK, &QueryResponse{Query: "?- L[p0(K: a -C-> V)] << opt.", Epoch: 3}, encoded); err != nil {
		tb.Fatal(err)
	}
	return rec.Body.Bytes()
}

// TestQueryDecodeAllocsOneMapPerRow: decoding N rows allocates N maps and a
// constant more (the body's string copy, the rows' slice as it grows, the
// fields after the answers). A map is what one costs in the runtime (a map
// header and a group of slots); encoding/json allocates several times that
// per row and fails the same bound.
func TestQueryDecodeAllocsOneMapPerRow(t *testing.T) {
	const n, slack = 400, 40
	var sink map[string]string
	perMap := testing.AllocsPerRun(100, func() {
		m := make(map[string]string, 4)
		for _, k := range []string{"C", "K", "L", "V"} {
			m[k] = k
		}
		sink = m
	})
	_ = sink
	body := rowsBody(t, n)
	bound := perMap*n + slack
	decode := func(name string, dec func([]byte, *QueryResponse) error) float64 {
		allocs := testing.AllocsPerRun(20, func() {
			var resp QueryResponse
			if err := dec(body, &resp); err != nil || len(resp.Answers) != n {
				t.Fatalf("%s: %d rows, %v", name, len(resp.Answers), err)
			}
		})
		t.Logf("%s: %.0f allocations for %d rows (%.2f a row; a map is %.0f)", name, allocs, n, allocs/n, perMap)
		return allocs
	}
	if got := decode("decodeQuery", decodeQuery); got > bound {
		t.Errorf("decodeQuery allocates %.0f times for %d rows, want at most %.0f (one map a row and %d more)", got, n, bound, slack)
	}
	if got := decode("json.Unmarshal", func(b []byte, r *QueryResponse) error { return json.Unmarshal(b, r) }); got <= bound {
		t.Errorf("json.Unmarshal allocates %.0f times for %d rows, within the bound of %.0f: the bound does not tell the decoders apart", got, n, bound)
	}
}

// BenchmarkClientDecodeAnswers prices what a Client does with a query
// reply's body, at one row and at a 400-row scan: read it and decode it,
// by hand (decodeBody) and, for reference, by encoding/json's reflection,
// as every client did before.
func BenchmarkClientDecodeAnswers(b *testing.B) {
	for _, n := range []int{1, 400} {
		body := rowsBody(b, n)
		for _, arm := range []struct {
			name string
			dec  func(io.Reader, *QueryResponse) error
		}{
			{"hand", func(r io.Reader, out *QueryResponse) error { return decodeBody(r, out) }},
			{"reflect", func(r io.Reader, out *QueryResponse) error { return json.NewDecoder(r).Decode(out) }},
		} {
			b.Run(fmt.Sprintf("rows=%d/decoder=%s", n, arm.name), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(body)))
				for range b.N {
					var resp QueryResponse
					if err := arm.dec(bytes.NewReader(body), &resp); err != nil || len(resp.Answers) != n {
						b.Fatalf("%d rows, %v", len(resp.Answers), err)
					}
				}
			})
		}
	}
}
