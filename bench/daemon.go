package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

// buildDaemon compiles cmd/multilogd from the checkout the benchmark sits
// in. Its time is never part of setup_s.
func buildDaemon(ctx context.Context, repoRoot, out string) error {
	if _, err := os.Stat(filepath.Join(repoRoot, "cmd", "multilogd", "main.go")); err != nil {
		return fmt.Errorf("the benchmark runs inside a checkout of the repository: %w", err)
	}
	return goBuild(ctx, repoRoot, out, "./cmd/multilogd")
}

func goBuild(ctx context.Context, dir, out, pkg string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, pkg)
	cmd.Dir = dir
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %w\n%s", pkg, err, b)
	}
	return nil
}

// child is one running child process of the benchmark — the daemon or the
// reference server — that listens on a loopback port of its own choosing.
type child struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	done chan error // receives cmd.Wait's result once
}

// startChild starts cmd on the CPUs of cpus, its standard error going to
// logFile, and returns once the child has written its address to addrFile
// and ready, if not nil, has succeeded on it.
func startChild(ctx context.Context, cmd *exec.Cmd, cpus cpuSet, logFile, addrFile string,
	ready func(ctx context.Context, addr string) error) (*child, error) {
	logf, err := os.Create(logFile)
	if err != nil {
		return nil, err
	}
	cmd.Stderr = logf
	// The child must not outlive a benchmark that is killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := startOn(cmd, cpus); err != nil {
		logf.Close() //nolint:errcheck // nothing was written
		return nil, err
	}
	c := &child{cmd: cmd, log: logf, done: make(chan error, 1)}
	go func() { c.done <- cmd.Wait() }()
	if err := c.awaitReady(ctx, addrFile, ready); err != nil {
		c.stop() //nolint:errcheck // reporting the readiness failure
		return nil, fmt.Errorf("%s did not become ready: %w (log: %s)", filepath.Base(cmd.Path), err, logFile)
	}
	return c, nil
}

// startDaemon execs multilogd on the CPUs of cpus and a fresh data directory
// under dir, with -fsync=always and every other flag at its default, and
// returns once /v1/readyz answers 200.
func startDaemon(ctx context.Context, bin string, cpus cpuSet, dir, progFile string) (*child, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-data-dir", filepath.Join(dir, "data"), "-fsync=always", "-db", "bench="+progFile)
	return startChild(ctx, cmd, cpus, filepath.Join(dir, "multilogd.log"), addrFile,
		func(ctx context.Context, addr string) error {
			_, err := server.NewClient(addr, nil).Ready(ctx)
			return err
		})
}

func (c *child) awaitReady(ctx context.Context, addrFile string, ready func(ctx context.Context, addr string) error) error {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(60 * time.Second)
	for {
		if c.addr == "" {
			if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
				c.addr = string(b)
			}
		}
		if c.addr != "" && (ready == nil || ready(ctx, c.addr) == nil) {
			return nil
		}
		select {
		case <-tick.C:
		case err := <-c.done:
			c.done <- err
			return fmt.Errorf("exited early: %v", err)
		case <-deadline:
			return errors.New("timed out after 60s")
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// stop drains the child with SIGTERM and waits for it to exit; a child that
// ignores the drain is killed. A clean drain exits 0.
func (c *child) stop() error {
	defer c.log.Close()                   //nolint:errcheck // diagnostics only
	c.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine; Wait reports
	select {
	case err := <-c.done:
		return err
	case <-time.After(20 * time.Second):
		c.cmd.Process.Kill() //nolint:errcheck // same
		<-c.done
		return fmt.Errorf("%s ignored SIGTERM for 20s and was killed", filepath.Base(c.cmd.Path))
	}
}

// cpuSeconds reads the child's user+system CPU time from /proc, so that a
// window's CPU can be told apart from set-up's.
func (c *child) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, in clock ticks (100 Hz on Linux).
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", b)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc stat line %q", b)
	}
	return (utime + stime) / 100, nil
}

// peakRSSMB reads the child's high-water resident set from /proc.
func (c *child) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unparsable %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// newClient returns a client with a connection of its own: a closed-loop
// client has one request in flight, so one connection each.
func newClient(addr string) *server.Client {
	return server.NewClient(addr, &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
	})
}
