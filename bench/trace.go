package main

// Spans. The traced run records, from the benchmark's own files, one span
// around each call into a layer: name, start, end, the span that caused it
// and the op they all belong to. Spans stay in memory until the run ends
// and are then written to out/trace-<workload>.json.

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call. Parent is the ID of the causing span, 0 for an
// op's root; times are nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Phase  string `json:"phase"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const (
	phaseSetup  = "setup"
	phaseSteady = "steady"
)

// recorder collects spans. The driver goroutine and the HTTP handler
// goroutine both record, so it locks.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	phase string // "" = recording off
	spans []span
	// op is the op in flight: the traced run is one client, one request at
	// a time, and the handler middleware reads which op it is serving here.
	op atomic.Int64
	// opRoot is the root span of the op in flight.
	opRoot atomic.Int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) setPhase(p string) {
	r.mu.Lock()
	r.phase = p
	r.mu.Unlock()
}

// begin opens a span and returns its ID; 0 while recording is off.
func (r *recorder) begin(name string, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.phase == "" {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: int(r.op.Load()),
		Name: name, Phase: r.phase, Start: time.Since(r.t0).Nanoseconds()})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// handlerSpans wraps the server's handler so that everything it does for a
// request is one server.handler span under the op's client round trip.
func (r *recorder) handlerSpans(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := r.begin("server.handler", int(r.opRoot.Load()))
		next.ServeHTTP(w, req)
		r.end(id)
	})
}

func (r *recorder) write(path, workload string, seed int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanStats is the per-name aggregate the per-layer metrics are made of.
type spanStats struct {
	count  int
	busyMS float64
	p50US  float64
}

// aggregate groups the spans of one phase by name.
func aggregate(spans []span, phase string) map[string]spanStats {
	durs := map[string][]float64{}
	for _, s := range spans {
		if s.Phase == phase {
			durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start))
		}
	}
	out := map[string]spanStats{}
	for name, d := range durs {
		sort.Float64s(d)
		var sum float64
		for _, v := range d {
			sum += v
		}
		out[name] = spanStats{count: len(d), busyMS: sum / 1e6, p50US: percentile(d, 0.5) / 1e3}
	}
	return out
}
