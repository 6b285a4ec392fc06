#!/bin/sh
# serve_smoke.sh — end-to-end smoke test for the multilogd serving stack:
# generate a workload program, start the daemon, storm it with serveload
# (concurrent sessions + assert/retract churn), cross-check /v1/stats, and
# verify a clean SIGTERM drain; then crash and restart a durable daemon, run
# a follower of it through its whole lifecycle, and a router in front of
# both through its own, and restart the follower after a write it missed.
# Run via `make serve-smoke`.
set -eu

GO=${GO:-go}
PORT=${SERVE_SMOKE_PORT:-7071}
ADDR=127.0.0.1:$PORT
FADDR=127.0.0.1:$((PORT + 1))
RADDR=127.0.0.1:$((PORT + 2))
TMP=$(mktemp -d)
DPID=
FPID=
RPID=
cleanup() {
    [ -n "$DPID" ] && kill "$DPID" 2>/dev/null || true
    [ -n "$FPID" ] && kill "$FPID" 2>/dev/null || true
    [ -n "$RPID" ] && kill "$RPID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

$GO build -o "$TMP/multilogd" ./cmd/multilogd
$GO build -o "$TMP/serveload" ./cmd/serveload

"$TMP/serveload" -emit "$TMP/smoke.mlg" -levels 4 -facts 300 -rules 16 -preds 4 -seed 7

"$TMP/multilogd" -addr "$ADDR" -db smoke="$TMP/smoke.mlg" -drain 5s &
DPID=$!

"$TMP/serveload" -addr "$ADDR" -wait 10s \
    -sessions 16 -queries 40 -updates 8 -levels 4 -preds 4 -seed 7

# Graceful drain: SIGTERM must stop the daemon with exit 0.
kill -TERM "$DPID"
if ! wait "$DPID"; then
    echo "serve-smoke: daemon exited nonzero after SIGTERM" >&2
    DPID=
    exit 1
fi
DPID=

# Restart-and-verify: run the daemon durably, write a fact, SIGKILL it
# (no drain, no final checkpoint), restart on the same data directory, and
# prove the acknowledged write survived recovery.
"$TMP/multilogd" -addr "$ADDR" -db smoke="$TMP/smoke.mlg" \
    -data-dir "$TMP/data" -fsync always -drain 5s &
DPID=$!

"$TMP/serveload" -addr "$ADDR" -ready -wait 10s \
    -clearance l0 -assert 'l0[p0(smokedurable: a -l0-> yes)].'

kill -KILL "$DPID"
wait "$DPID" 2>/dev/null || true
DPID=

"$TMP/multilogd" -addr "$ADDR" -db smoke="$TMP/smoke.mlg" \
    -data-dir "$TMP/data" -fsync always -drain 5s &
DPID=$!

"$TMP/serveload" -addr "$ADDR" -ready -wait 10s \
    -clearance l0 -query 'l0[p0(smokedurable: a -l0-> V)]' -expect 1

# Follower lifecycle: boot a follower of the durable primary, wait until it
# has caught up (/v1/readyz 200), hold one query's answers byte for byte to
# the primary's, then SIGTERM it: exit 0 and a "drained" log line.
"$TMP/multilogd" -role follower -primary "$ADDR" -addr "$FADDR" \
    -data-dir "$TMP/follower" -drain 5s 2> "$TMP/follower.log" &
FPID=$!

QUERY='L[p0(K: a -C-> V)]'
"$TMP/serveload" -addr "$FADDR" -ready -wait 10s -clearance l3 -query "$QUERY" > "$TMP/follower.out"
"$TMP/serveload" -addr "$ADDR" -ready -wait 10s -clearance l3 -query "$QUERY" > "$TMP/primary.out"
if ! cmp -s "$TMP/primary.out" "$TMP/follower.out"; then
    echo "serve-smoke: the follower's answers differ from the primary's" >&2
    diff "$TMP/primary.out" "$TMP/follower.out" >&2 || true
    exit 1
fi

# Router lifecycle: boot a router in front of the primary and the follower,
# hold its answers to the same query byte for byte to the primary's, then
# SIGTERM it: exit 0 and a "drained" log line, as a node drains.
"$TMP/multilogd" -role router -primary "$ADDR" -replica "$FADDR" -addr "$RADDR" \
    -drain 5s 2> "$TMP/router.log" &
RPID=$!

"$TMP/serveload" -addr "$RADDR" -ready -wait 10s -clearance l3 -query "$QUERY" > "$TMP/router.out"
if ! cmp -s "$TMP/primary.out" "$TMP/router.out"; then
    echo "serve-smoke: the router's answers differ from the primary's" >&2
    diff "$TMP/primary.out" "$TMP/router.out" >&2 || true
    exit 1
fi

kill -TERM "$RPID"
if ! wait "$RPID"; then
    echo "serve-smoke: router exited nonzero after SIGTERM" >&2
    cat "$TMP/router.log" >&2
    RPID=
    exit 1
fi
RPID=
if ! grep -q 'drained' "$TMP/router.log"; then
    echo "serve-smoke: the router's drain logged no \"drained\" line" >&2
    cat "$TMP/router.log" >&2
    exit 1
fi

kill -TERM "$FPID"
if ! wait "$FPID"; then
    echo "serve-smoke: follower exited nonzero after SIGTERM" >&2
    cat "$TMP/follower.log" >&2
    FPID=
    exit 1
fi
FPID=
if ! grep -q 'drained' "$TMP/follower.log"; then
    echo "serve-smoke: the follower's drain logged no \"drained\" line" >&2
    cat "$TMP/follower.log" >&2
    exit 1
fi

# Follower restart: write once on the primary while the follower is down,
# restart the follower on its data directory (it recovers what it had, then
# streams the record it missed) and hold its answers byte for byte to the
# primary's again.
"$TMP/serveload" -addr "$ADDR" -ready -wait 10s \
    -clearance l0 -assert 'l0[p0(smokerestart: a -l0-> yes)].'
"$TMP/multilogd" -role follower -primary "$ADDR" -addr "$FADDR" \
    -data-dir "$TMP/follower" -drain 5s 2> "$TMP/follower.log" &
FPID=$!

"$TMP/serveload" -addr "$FADDR" -ready -wait 10s -clearance l3 -query "$QUERY" > "$TMP/follower.out"
"$TMP/serveload" -addr "$ADDR" -ready -wait 10s -clearance l3 -query "$QUERY" > "$TMP/primary.out"
if ! grep -q smokerestart "$TMP/primary.out"; then
    echo "serve-smoke: the primary's answers lack the write made while the follower was down" >&2
    cat "$TMP/primary.out" >&2
    exit 1
fi
if ! cmp -s "$TMP/primary.out" "$TMP/follower.out"; then
    echo "serve-smoke: the restarted follower's answers differ from the primary's" >&2
    diff "$TMP/primary.out" "$TMP/follower.out" >&2 || true
    cat "$TMP/follower.log" >&2
    exit 1
fi

kill -TERM "$FPID"
if ! wait "$FPID"; then
    echo "serve-smoke: restarted follower exited nonzero after SIGTERM" >&2
    cat "$TMP/follower.log" >&2
    FPID=
    exit 1
fi
FPID=

kill -TERM "$DPID"
if wait "$DPID"; then
    DPID=
    echo "serve-smoke: ok (storm + crash-restart durability + follower and router lifecycles + follower restart)"
else
    echo "serve-smoke: recovered daemon exited nonzero after SIGTERM" >&2
    DPID=
    exit 1
fi
