#!/bin/sh
# Loopback smoke test for the countnetd wire protocol, as a real
# process pair: start countnetd on an ephemeral port, drive it with
# two concurrent `countnet load` clients, then SIGTERM it under a
# third in-flight load and require a clean Strict-validated drain
# (exit 0 and the "drain ok" line).  While the first daemon serves, a
# second one started on its port must refuse with a usage error (exit
# 2 and a "countnetd:" line on stderr).  A second countnetd is then
# stopped the same way under one lone connection: the one connection
# countnetd polls before it parks in read(2), so that stop lands in
# the middle of a poll, and its stop line must report polled reads.
# A third countnetd serves a 4-shard fabric (--shards 4, one certified
# topology spawned four times): it must announce "C(16,16) x4 shards",
# carry a mixed Inc/Dec load, and drain clean when stopped under load.
#
# Run from the repository root, after `dune build`:
#   sh scripts/serve_smoke.sh
set -eu

COUNTNETD=${COUNTNETD:-_build/default/bin/countnetd.exe}
COUNTNET=${COUNTNET:-_build/default/bin/countnet.exe}
OUT=$(mktemp)
ERR=$(mktemp)
trap 'rm -f "$OUT" "$ERR"' EXIT

fail() {
  echo "serve-smoke: $1" >&2
  echo "--- countnetd output ---" >&2
  cat "$OUT" >&2
  exit 1
}

# Start countnetd (extra flags in "$@") with its output in $OUT; sets
# DAEMON and PORT.
start_daemon() {
  "$COUNTNETD" --width 16 --out-width 16 --validate strict "$@" >"$OUT" 2>&1 &
  DAEMON=$!
  # The first stdout line carries the bound port; poll for it.
  PORT=
  for _ in $(seq 1 50); do
    PORT=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\) .*/\1/p' "$OUT")
    [ -n "$PORT" ] && break
    sleep 0.1
  done
  [ -n "$PORT" ] || fail "countnetd never reported its port"
  echo "serve-smoke: countnetd (pid $DAEMON) on port $PORT"
}

# SIGTERM mid-load (load flags in "$@"): the rig must survive the
# shutdown (exit 0, counting disconnects) and the daemon must drain
# clean.
stop_under_load() {
  "$COUNTNET" load --port "$PORT" --ops 2000000 "$@" >/dev/null &
  LOAD=$!
  sleep 0.3
  kill -TERM "$DAEMON"
  wait "$LOAD" || fail "mid-shutdown load run failed"
  if wait "$DAEMON"; then :; else fail "countnetd exited non-zero after SIGTERM"; fi
  grep -q "drain ok" "$OUT" || fail "no clean drain reported"
  echo "serve-smoke: ok ($(grep 'drain ok' "$OUT"))"
}

start_daemon
# A second daemon on the busy port (timeout: a daemon that did bind
# would serve until killed).
timeout 10 "$COUNTNETD" --port "$PORT" >/dev/null 2>"$ERR" && CODE=0 || CODE=$?
[ "$CODE" -eq 2 ] || fail "a second countnetd on busy port $PORT exited $CODE, not 2"
grep -q "^countnetd: " "$ERR" || fail "a second countnetd on busy port $PORT printed no countnetd: line"
echo "serve-smoke: busy port refused ($(cat "$ERR"))"
# Two concurrent clients, connection churn via distinct short runs.
"$COUNTNET" load --port "$PORT" --clients 2 --conns 2 --ops 400 \
  --dec-ratio 0.3 --skew zipf:1.1 &
LOAD1=$!
"$COUNTNET" load --port "$PORT" --clients 2 --conns 2 --ops 400 &
LOAD2=$!
wait "$LOAD1" || fail "first load run failed"
wait "$LOAD2" || fail "second load run failed"
stop_under_load --clients 2 --conns 2 --arrival closed:0.0002

# A lone closed-loop connection: each request lands inside the poll.
start_daemon
stop_under_load --clients 1 --conns 1
POLLED=$(sed -n 's/.* \([0-9]*\) reads polled.*/\1/p' "$OUT")
[ "${POLLED:-0}" -gt 0 ] || fail "the lone connection never took a read from the poll"
echo "serve-smoke: $(grep 'reads polled' "$OUT" | sed 's/^countnetd: //')"

# A sharded fabric daemon: the same load, Inc and Dec mixed, then a stop
# under load.
start_daemon --shards 4
grep -q "C(16,16) x4 shards" "$OUT" || fail "no 4-shard fabric in the listening line"
"$COUNTNET" load --port "$PORT" --clients 2 --conns 2 --ops 400 --dec-ratio 0.3 \
  || fail "fabric load run failed"
stop_under_load --clients 2 --conns 2 --arrival closed:0.0002
