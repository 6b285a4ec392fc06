package main

// The reference load. The sandbox this benchmark runs in is one of many on
// a host, and its speed drifts: the same seed, run after run, gave 3400 to
// 5300 ops/s on read_miss, in phases of minutes, with the daemon's own CPU
// time per op moving along. No window a run can afford averages that away.
// So every run carries a yardstick: a fixed request (refload) against a
// server of the benchmark's own (refserver) on the daemon's CPU, which each
// client plays between two of its own ops, at most once every refEvery. The
// daemon's request and the reference request then meet the same machine,
// millisecond by millisecond, and the ratio of the two holds where either
// alone moves by a third (README.md has the measurements).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"repro/bench/refload"
)

const (
	// refEvery is the shortest time between two reference requests of one
	// caller: at ≈ 0.3 ms a request, two clients load the daemon's CPU by
	// under a tenth.
	refEvery = 4 * time.Millisecond
	// minRefSamples is how many reference requests a stretch of time must
	// hold for its speed to be told. A real set-up holds a hundred and more
	// and a window thousands; the smoke test's set-ups hold a few dozen.
	minRefSamples = 8
	// refNominalMS is the reference request's median round trip on the
	// machine, and in the quiet hour, the bounds in BENCHMARK.json were set
	// in. Timings are restated as they would read at that speed.
	refNominalMS = 0.28
)

// speedOf is the machine's speed, as a share of nominal, over the stretch of
// time the reference round trips were taken in: a time measured in that
// stretch, times the result, is what it would have read at nominal speed.
func speedOf(roundtripMS []float64) (float64, error) {
	if len(roundtripMS) < minRefSamples {
		return 0, fmt.Errorf("%d reference requests, the speed of the machine needs %d", len(roundtripMS), minRefSamples)
	}
	return refNominalMS / median(roundtripMS), nil
}

// startReference execs the reference server on the CPUs of cpus.
func startReference(ctx context.Context, bin string, cpus cpuSet, dir string) (*child, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	return startChild(ctx, exec.Command(bin, "-addr-file", addrFile), cpus,
		filepath.Join(dir, "refserver.log"), addrFile, nil)
}

// probe is one caller's reference requests over one stretch of time: a
// set-up, or a client's window.
type probe struct {
	url  string
	hc   *http.Client
	r    *rand.Rand
	last time.Time // end of the latest request
	// What the requests took: the round trip as the caller saw it, and the
	// handler's own time as the server measured it.
	roundtripMS, serviceUS []float64
	spent                  time.Duration // in tick, all told
}

func newProbe(ref *child, seed int64, who int) *probe {
	return &probe{url: "http://" + ref.addr + "/ref",
		hc: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		r:  rand.New(rand.NewSource(seed<<8 | int64(128+who)))}
}

// tick is called between two ops of the caller; it plays one reference
// request if refEvery has passed since the last one ended.
func (p *probe) tick(ctx context.Context) error {
	start := time.Now()
	if start.Sub(p.last) < refEvery {
		return nil
	}
	defer func() {
		p.last = time.Now()
		p.spent += p.last.Sub(start)
	}()
	rq := refload.Request{Keys: make([]int, refload.KeysPerRequest)}
	for i := range rq.Keys {
		rq.Keys[i] = p.r.Intn(refload.TableKeys)
	}
	body, err := json.Marshal(rq)
	if err != nil {
		return err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	t0 := time.Now()
	resp, err := p.hc.Do(hr)
	if err != nil {
		return fmt.Errorf("reference request: %w", err)
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck // read to the end or failed
	roundtrip := time.Since(t0)
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("reference request: status %d: %v: %s", resp.StatusCode, err, reply)
	}
	serviceNS, err := strconv.ParseInt(resp.Header.Get(refload.ServiceHeader), 10, 64)
	if err != nil {
		return fmt.Errorf("reference request: %w", err)
	}
	p.roundtripMS = append(p.roundtripMS, float64(roundtrip.Nanoseconds())/1e6)
	p.serviceUS = append(p.serviceUS, float64(serviceNS)/1e3)
	return rq.Check(reply)
}
