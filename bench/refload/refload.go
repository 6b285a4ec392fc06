// Package refload is the benchmark's reference load: one fixed kind of
// request against a fixed table, served by bench/refserver on the daemon's
// CPU and played by the benchmark's clients between their own ops. The
// sandbox's speed drifts by a third and more over minutes; how long this
// request takes right now says how fast the machine is right now, and the
// benchmark states its timings relative to it (see ../reference.go).
//
// Like gen.go this is part of the frozen benchmark: the work per request
// must not change, or every number measured against it does. A test pins
// the reply to a fixed request.
//
// The work is shaped like the daemon's on a query: decode a JSON body, look
// string keys up in a table too large for the caches, build one map per
// answer row, sort the rows, encode them.
package refload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"
)

const (
	// TableKeys is the size of the table: 200k string keys with two short
	// strings each, some 30 MB of map.
	TableKeys = 200000
	// KeysPerRequest keys are named by a request and rowsPerKey rows are
	// looked up for each.
	KeysPerRequest = 4
	rowsPerKey     = 8
	stride         = 7919
)

// Request names KeysPerRequest keys, each in [0, TableKeys).
type Request struct {
	Keys []int `json:"keys"`
}

// ServiceHeader is the response header that says how long the handler took,
// in nanoseconds, from reading the body to having the rows encoded. The
// response body is the sorted rows, a JSON array of objects.
const ServiceHeader = "Service-Ns"

func key(i int) string { return fmt.Sprintf("k%d", i) }

// value is what the table holds under key(i): a pure function of i, so that
// a client can check a reply without holding the table.
func value(i int) [2]string {
	return [2]string{fmt.Sprintf("v%d", (i*stride+13)%500), fmt.Sprintf("l%d", i%4)}
}

// Table is the reference server's state.
type Table map[string][2]string

func NewTable() Table {
	t := make(Table, TableKeys)
	for i := 0; i < TableKeys; i++ {
		t[key(i)] = value(i)
	}
	return t
}

// rows is the work of one request; lookup stands for the table.
func rows(keys []int, lookup func(k string, i int) [2]string) []map[string]string {
	out := make([]map[string]string, 0, len(keys)*rowsPerKey)
	for _, k := range keys {
		for j := 0; j < rowsPerKey; j++ {
			i := (k + j*stride) % TableKeys
			name := key(i)
			v := lookup(name, i)
			out = append(out, map[string]string{"K": name, "V": v[0], "C": v[1]})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a]["K"] < out[b]["K"] })
	return out
}

// ServeHTTP answers one reference request.
func (t Table) ServeHTTP(w http.ResponseWriter, q *http.Request) {
	t0 := time.Now()
	var rq Request
	if err := json.NewDecoder(q.Body).Decode(&rq); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	for _, k := range rq.Keys {
		if k < 0 || k >= TableKeys {
			http.Error(w, fmt.Sprintf("key %d is outside the table", k), http.StatusBadRequest)
			return
		}
	}
	body, err := json.Marshal(rows(rq.Keys, func(k string, _ int) [2]string { return t[k] }))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(ServiceHeader, strconv.FormatInt(time.Since(t0).Nanoseconds(), 10))
	w.Write(body) //nolint:errcheck // the client sees a short body
}

// Check says whether body is the reply rq must get.
func (rq Request) Check(body []byte) error {
	want, err := json.Marshal(rows(rq.Keys, func(_ string, i int) [2]string { return value(i) }))
	if err != nil {
		return err
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("reference request %v: %d bytes that are not the %d expected", rq.Keys, len(body), len(want))
	}
	return nil
}
