package crash

import (
	"context"
	"os"
	"sync"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// daemonBin builds cmd/multilogd once per test run.
func daemonBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "multilogd-bin-")
		if err != nil {
			buildErr = err
			return
		}
		binPath, buildErr = BuildDaemon(dir)
	})
	if buildErr != nil {
		t.Fatalf("building multilogd: %v", buildErr)
	}
	return binPath
}

// fullMatrix reports whether to run every cell of the crash matrix.
// `make crash` and the CI crash job set CRASH_MATRIX=full; a plain
// `go test ./...` runs a representative subset to keep the suite quick.
func fullMatrix() bool { return os.Getenv("CRASH_MATRIX") == "full" }

// TestKillCrashRecovery is the harness entry point: for each scenario the
// daemon is killed by an injected SIGKILL at a WAL crashpoint, restarted on
// the same data directory, and checked for zero acked-write loss and
// byte-equal answers against a reference replay.
func TestKillCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness spawns child processes; skipped under -short")
	}
	bin := daemonBin(t)
	scenarios := Matrix()
	if !fullMatrix() {
		// Representative subset: one torn-tail, one pre-fsync, one
		// checkpoint crash — all under the strict fsync=always contract —
		// plus one mixed assert/retract write storm of facts, and one of
		// facts and rules.
		subset := scenarios[:0]
		for _, sc := range scenarios {
			switch sc.Name {
			case "mid-append-torn/always", "pre-fsync/always", "mid-checkpoint-temp",
				"write-storm-torn/always", "rule-storm-torn/always":
				subset = append(subset, sc)
			}
		}
		scenarios = subset
	}
	for _, sc := range scenarios {
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			h := &Harness{Bin: bin, Logf: t.Logf}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			if err := h.Run(ctx, sc); err != nil {
				t.Fatal(err)
			}
		})
	}
}
