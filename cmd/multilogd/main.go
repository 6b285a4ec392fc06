// Command multilogd serves MultiLog belief queries over JSON/HTTP. It
// loads one or more programs at startup (each parsed, linted and reduced
// once), then answers concurrent sessions — each authenticated as a
// subject with a clearance and a default belief mode — from shared
// prepared reductions behind an invalidating result cache.
//
// Usage:
//
//	multilogd -addr :7070 -db mission=prog.mlg          # serve one program
//	multilogd -addr :7070 -db a=a.mlg -db b=b.mlg       # serve several
//	multilogd -d1                                       # serve the paper's D1
//	multilogd -d1 -data-dir /var/lib/multilogd          # durable: WAL + checkpoints
//
// With -data-dir, every load, assert and retract is appended to a
// checksummed write-ahead log and (under -fsync=always, the default)
// fsynced before it is acknowledged; background checkpoints bound replay
// time, and a restart recovers the exact acknowledged state — databases
// already in the log are recovered from it, not re-read from their -db
// files. While recovery replays, /v1/healthz reports progress, /v1/readyz
// returns 503, and writes are refused with code "recovering".
//
// Endpoints (see internal/server/protocol.go for the wire types):
//
//	POST /v1/session  /v1/session/close  /v1/query  /v1/assert  /v1/retract
//	POST /v1/lint     (full static-analysis report + per-predicate flow table)
//	GET  /v1/stats    /v1/healthz    /v1/readyz
//
// With -pprof-addr, a separate listener serves net/http/pprof
// (/debug/pprof/*) for live CPU and heap profiles; /v1/stats reports the
// compiled engine's plan-cache counters alongside the result cache's.
//
// SIGINT/SIGTERM drains: open sessions are closed, in-flight requests
// finish (bounded by -drain), a final checkpoint is written, and the
// process exits 0 on a clean drain.
//
// # Overload protection
//
// An adaptive admission controller (-max-inflight cost units, AIMD-tuned,
// CoDel-style queue-delay shedding) sits in front of query and write
// handling; health and replication traffic always bypasses it. Shed
// requests get HTTP 429 with a Retry-After hint, and — with -max-stale —
// reads may instead be answered from recently invalidated cache entries,
// marked by an X-Multilog-Stale header. -max-inflight 0 turns the
// controller off.
//
// # Replication
//
// multilogd also runs as a fleet (the router is internal/replica; both
// halves of replication are internal/server's):
//
//	multilogd -d1 -data-dir p/ -addr :7070                                # primary
//	multilogd -role follower -data-dir f1/ -primary :7070 -addr :7071     # follower
//	multilogd -role follower -data-dir f2/ -primary :7070 -addr :7072     # follower
//	multilogd -role router -primary :7070 -replica :7071 -replica :7072   # front door
//
// A follower is the same server with the same lifecycle as a primary,
// drain included: it bootstraps from the primary's newest checkpoint,
// streams the WAL tail, applies every record through the same code path
// the original write took, and serves read-only queries; writes sent to it
// come back HTTP 421 with the primary's address. The router pins read
// sessions to replicas (optionally by clearance band: -replica
// addr=l0;l1), holds a session's reads until its last write is visible
// (read-your-writes), acks writes only after every live replica applied
// them, and promotes the most-caught-up follower when the primary dies. Replication requires the
// primary to run -fsync=always, so everything streamed is durable.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the -pprof-addr mux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/multilog"
	"repro/internal/replica"
	"repro/internal/resource"
	"repro/internal/server"
	"repro/internal/wal"
)

// dbFlags collects repeated -db name=path pairs.
type dbFlags []struct{ name, path string }

func (d *dbFlags) String() string { return fmt.Sprintf("%d databases", len(*d)) }

func (d *dbFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("-db wants name=path, got %q", v)
	}
	*d = append(*d, struct{ name, path string }{name, path})
	return nil
}

// replicaFlags collects repeated -replica addr[=band1;band2] specs.
type replicaFlags []replica.BackendSpec

func (r *replicaFlags) String() string { return fmt.Sprintf("%d replicas", len(*r)) }

func (r *replicaFlags) Set(v string) error {
	addr, bandsStr, hasBands := strings.Cut(v, "=")
	if addr == "" {
		return fmt.Errorf("-replica wants addr[=band1;band2], got %q", v)
	}
	spec := replica.BackendSpec{Addr: addr}
	if hasBands {
		for _, b := range strings.Split(bandsStr, ";") {
			if b = strings.TrimSpace(b); b != "" {
				spec.Bands = append(spec.Bands, b)
			}
		}
	}
	*r = append(*r, spec)
	return nil
}

// options carries the parsed command line.
type options struct {
	dbs          dbFlags
	useD1        bool
	addr         string
	addrFile     string
	maxSessions  int
	cacheEntries int
	queryTimeout time.Duration
	drain        time.Duration
	maxFacts     int64
	maxSteps     int64
	maxInflight  int
	maxStale     time.Duration
	quiet        bool
	pprofAddr    string

	dataDir       string
	fsync         string
	fsyncInterval time.Duration
	ckptInterval  time.Duration
	ckptEvery     int64
	crashPlan     string

	role          string
	primary       string
	replicas      replicaFlags
	ackTimeout    time.Duration
	rywHold       time.Duration
	probeInterval time.Duration
	rebootstrap   bool
}

func main() {
	var o options
	flag.Var(&o.dbs, "db", "database to serve, as name=path (repeatable)")
	flag.BoolVar(&o.useD1, "d1", false, "serve the paper's Figure 10 database D1 as \"d1\"")
	flag.StringVar(&o.addr, "addr", "127.0.0.1:7070", "listen address")
	flag.StringVar(&o.addrFile, "addr-file", "", "write the bound listen address to this file once listening (for :0)")
	flag.IntVar(&o.maxSessions, "max-sessions", 256, "concurrent-session cap (negative = uncapped)")
	flag.IntVar(&o.cacheEntries, "cache", 4096, "result-cache capacity in entries (negative = disabled)")
	flag.DurationVar(&o.queryTimeout, "query-timeout", 10*time.Second, "per-request wall-clock ceiling (negative = none)")
	flag.DurationVar(&o.drain, "drain", 10*time.Second, "shutdown drain timeout")
	flag.Int64Var(&o.maxFacts, "max-facts", 0, "per-request derived-fact budget (0 = unlimited)")
	flag.Int64Var(&o.maxSteps, "max-steps", 0, "per-request evaluation-step budget (0 = unlimited)")
	flag.IntVar(&o.maxInflight, "max-inflight", 64, "admission control: peak concurrent query/write cost units (0 = admission off)")
	flag.DurationVar(&o.maxStale, "max-stale", 0, "brownout: serve invalidated cache entries up to this old while shedding (0 = never stale)")
	flag.BoolVar(&o.quiet, "quiet", false, "suppress the event log")
	flag.StringVar(&o.pprofAddr, "pprof-addr", "", "serve net/http/pprof (/debug/pprof/*) on this address (empty = disabled)")
	flag.StringVar(&o.dataDir, "data-dir", "", "durability directory for the WAL and checkpoints (empty = in-memory only)")
	flag.StringVar(&o.fsync, "fsync", "always", "WAL fsync policy: always (ack ⇒ durable), interval, or never")
	flag.DurationVar(&o.fsyncInterval, "fsync-interval", 50*time.Millisecond, "background fsync cadence under -fsync=interval")
	flag.DurationVar(&o.ckptInterval, "checkpoint-interval", 30*time.Second, "background checkpoint cadence (negative = timed checkpoints off)")
	flag.Int64Var(&o.ckptEvery, "checkpoint-every", 1024, "also checkpoint after this many new log records (negative = off)")
	flag.StringVar(&o.crashPlan, "crashplan", "", "WAL fault-injection plan, e.g. kill@wal.append.written:3 (crash-harness use)")
	flag.StringVar(&o.role, "role", "primary", "node role: primary, follower, or router")
	flag.StringVar(&o.primary, "primary", "", "primary address (required for -role follower and router)")
	flag.Var(&o.replicas, "replica", "read replica for -role router, as addr[=band1;band2] (repeatable)")
	flag.DurationVar(&o.ackTimeout, "ack-timeout", 5*time.Second, "router: per-replica write-ack deadline before it is dropped from the quorum")
	flag.DurationVar(&o.rywHold, "ryw-hold", 2*time.Second, "router: how long a read waits for its replica to reach the session's last-write epoch")
	flag.DurationVar(&o.probeInterval, "probe-interval", 250*time.Millisecond, "router: backend health-probe cadence")
	flag.BoolVar(&o.rebootstrap, "rebootstrap-on-diverge", false, "follower: on divergence, wipe local state and re-bootstrap from the primary instead of halting")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "multilogd:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	// The profiling listener is separate from the API address on purpose:
	// it is never exposed by default, and an operator can firewall it
	// independently of the query plane.
	if o.pprofAddr != "" {
		ln, err := net.Listen("tcp", o.pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof-addr: %w", err)
		}
		go http.Serve(ln, nil) //nolint:errcheck // best-effort debug listener
	}
	switch o.role {
	case "", "primary", "follower":
		return runNode(o)
	case "router":
		return runRouter(o)
	}
	return fmt.Errorf("unknown -role %q (want primary, follower or router)", o.role)
}

// baseConfig builds the server config shared by the primary and follower
// roles.
func baseConfig(o options) server.Config {
	cfg := server.Config{
		MaxSessions:        o.maxSessions,
		CacheEntries:       o.cacheEntries,
		QueryTimeout:       o.queryTimeout,
		Limits:             resource.Limits{MaxFacts: o.maxFacts, MaxSteps: o.maxSteps},
		CheckpointInterval: o.ckptInterval,
		CheckpointEvery:    o.ckptEvery,
		MaxInflight:        o.maxInflight,
		MaxStale:           o.maxStale,
	}
	if !o.quiet {
		logger := log.New(os.Stderr, "multilogd: ", log.LstdFlags)
		cfg.Logf = logger.Printf
	}
	return cfg
}

// openStore opens the WAL directory with the parsed fsync policy and
// crash plan.
func openStore(o options, logf func(string, ...any)) (*wal.Store, *wal.Recovery, faultinject.FilePlan, error) {
	mode, err := wal.ParseSyncMode(o.fsync)
	if err != nil {
		return nil, nil, nil, err
	}
	hook, err := faultinject.ParseFilePlan(o.crashPlan)
	if err != nil {
		return nil, nil, nil, err
	}
	store, recovery, err := wal.Open(wal.Options{
		Dir: o.dataDir, Sync: mode, SyncInterval: o.fsyncInterval,
		Hook: hook, Logf: logf,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return store, recovery, hook, nil
}

// listen binds the address and publishes it via -addr-file.
func listen(o options) (net.Listener, error) {
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return nil, err
	}
	if o.addrFile != "" {
		if err := os.WriteFile(o.addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close() //nolint:errcheck // exiting anyway
			return nil, err
		}
	}
	return ln, nil
}

// runNode runs a primary or a follower: server.New, then Recover and Serve.
// A follower's Serve streams the primary's log into it.
func runNode(o options) error {
	cfg := baseConfig(o)
	if o.role == "follower" {
		switch {
		case o.dataDir == "":
			return fmt.Errorf("-role follower needs -data-dir (the mirrored WAL is the follower's durability)")
		case o.primary == "":
			return fmt.Errorf("-role follower needs -primary")
		case len(o.dbs) > 0 || o.useD1:
			return fmt.Errorf("a follower mirrors the primary's databases; drop -db/-d1")
		}
		cfg.Role, cfg.PrimaryAddr, cfg.RebootstrapOnDiverge = server.RoleFollower, o.primary, o.rebootstrap
	}

	// Boot loads: the programs named on the command line. With a data
	// directory, these reach the server through recovery, which skips any
	// database already recovered from the log.
	bootLoads := map[string]string{}
	if o.useD1 {
		bootLoads["d1"] = multilog.D1Source
	}
	for _, db := range o.dbs {
		src, err := os.ReadFile(db.path)
		if err != nil {
			return err
		}
		bootLoads[db.name] = string(src)
	}

	var store *wal.Store
	var recovery *wal.Recovery
	if o.dataDir != "" {
		var hook faultinject.FilePlan
		var err error
		store, recovery, hook, err = openStore(o, cfg.Logf)
		if err != nil {
			return err
		}
		cfg.WAL = store
		// The same crash plan drives the replication stream's faults
		// (corrupt/short/kill at repl.stream.frame, apply faults on a
		// follower); wal events are consumed by the store itself. A promoted
		// follower becomes the fleet's stream source, so it carries the plan
		// a primary would.
		cfg.StreamFaults = hook
		if cfg.Role == server.RolePrimary && o.fsync != "always" && cfg.Logf != nil {
			cfg.Logf("warning: -fsync=%s: followers may receive records the primary has not yet made durable", o.fsync)
		}
	} else if o.crashPlan != "" {
		return fmt.Errorf("-crashplan needs -data-dir")
	}

	srv := server.New(cfg)
	// A follower serves whatever its primary has, from nothing at first.
	nothingToServe := func() error {
		if cfg.Role == server.RolePrimary && len(srv.Databases()) == 0 {
			return fmt.Errorf("nothing to serve: give -db name=path or -d1")
		}
		return nil
	}
	if store == nil {
		for name, src := range bootLoads {
			if err := srv.Load(name, src); err != nil {
				return fmt.Errorf("loading %q: %w", name, err)
			}
		}
		if err := nothingToServe(); err != nil {
			return err
		}
	}

	ln, err := listen(o)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// With durability, recovery runs while the listener is already up:
	// /v1/healthz answers (with replay progress) from the first moment, the
	// server lifts its write gate when Recover returns, and a follower
	// resumes its stream from where the recovered log ends.
	recErr := make(chan error, 1)
	if store != nil {
		rctx, cancel := context.WithCancel(ctx)
		defer cancel()
		ctx = rctx
		go func() {
			err := srv.Recover(recovery, bootLoads)
			if err == nil {
				err = nothingToServe()
			}
			if err != nil {
				cancel() // bring Serve down; the drain still closes the WAL
			}
			recErr <- err
		}()
	} else {
		recErr <- nil
	}

	serveErr := srv.Serve(ctx, ln, o.drain)
	if rerr := <-recErr; rerr != nil {
		return rerr
	}
	return serveErr
}

func runRouter(o options) error {
	if o.primary == "" {
		return fmt.Errorf("-role router needs -primary")
	}
	if o.dataDir != "" || len(o.dbs) > 0 || o.useD1 {
		return fmt.Errorf("the router holds no data; drop -data-dir/-db/-d1")
	}
	rcfg := replica.RouterConfig{
		Primary:       o.primary,
		Replicas:      o.replicas,
		AckTimeout:    o.ackTimeout,
		RYWHold:       o.rywHold,
		ProbeInterval: o.probeInterval,
	}
	if !o.quiet {
		logger := log.New(os.Stderr, "multilogd: ", log.LstdFlags)
		rcfg.Logf = logger.Printf
	}
	router, err := replica.NewRouter(rcfg)
	if err != nil {
		return err
	}
	ln, err := listen(o)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return router.Serve(ctx, ln, o.drain)
}
