package refload

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestFrozenReply pins the reply to one request: the work the reference
// server does per request is part of the benchmark, as gen.go's load is.
func TestFrozenReply(t *testing.T) {
	rq := Request{Keys: []int{0, 1, 123456, TableKeys - 1}}
	body, err := json.Marshal(rq)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	NewTable().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ref", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get(ServiceHeader) == "" {
		t.Error("no service time in the reply")
	}
	if err := rq.Check(rec.Body.Bytes()); err != nil {
		t.Error(err)
	}
	const pinned = "b087a0ab057abb7848eda571bde5d2bc2a51e34c6f6ae947533bd4551d596e75"
	if got := fmt.Sprintf("%x", sha256.Sum256(rec.Body.Bytes())); got != pinned {
		t.Errorf("reply sha256 %s, pinned %s", got, pinned)
	}
	if err := (Request{Keys: []int{0, 2, 123456, TableKeys - 1}}).Check(rec.Body.Bytes()); err == nil {
		t.Error("Check accepts the reply to another request")
	}
}

func TestRejectsKeysOutsideTheTable(t *testing.T) {
	rec := httptest.NewRecorder()
	NewTable().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ref", bytes.NewReader([]byte(`{"keys":[200000]}`))))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status %d, want 400", rec.Code)
	}
}
