#!/usr/bin/env bash
# Crash-recovery soak: start stcpsd with a WAL directory, ingest a
# stream, SIGKILL it mid-stream, restart it over the same WAL, feed the
# rest, and diff /v1/query output against an uninterrupted run. The same
# scenario runs in-process as `go test -run TestCrashRecovery ./...`;
# this script exercises it against the real built binary over real
# pipes, signals and HTTP.
set -euo pipefail
cd "$(dirname "$0")/.."

LINES=${SOAK_LINES:-400}
HALF=$((LINES / 2))
PORT_CLEAN=${SOAK_PORT_CLEAN:-18473}
PORT_CRASH=${SOAK_PORT_CRASH:-18474}

work=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$work"
}
trap cleanup EXIT

echo "soak: building stcpsd"
go build -o "$work/stcpsd" ./cmd/stcpsd

cat > "$work/events.json" <<'EOF'
[
  {"id": "E.hot", "layer": "cyber",
   "roles": [{"name": "x", "source": "S.temp", "window": 2, "maxAge": 100}],
   "when": "x.temp > 30"},
  {"id": "E.warm", "layer": "cyber",
   "roles": [{"name": "x", "source": "S.temp", "window": 2}],
   "when": "x.temp > 20", "interval": true}
]
EOF

echo "soak: generating $LINES-line feed"
go run scripts/genfeed.go -n "$LINES" > "$work/feed.jsonl"
head -n "$HALF" "$work/feed.jsonl" > "$work/feed.first"
tail -n +"$((HALF + 1))" "$work/feed.jsonl" > "$work/feed.rest"

# ingested_count PORT -> the daemon's /v1/stats ingested counter (no jq:
# runners and laptops both have grep).
ingested_count() {
  curl -sf "http://127.0.0.1:$1/v1/stats" 2>/dev/null | grep -o '"ingested":[0-9]*' | head -1 | cut -d: -f2 || true
}

# wait_ingested PORT N: poll /v1/stats until the daemon has ingested N.
wait_ingested() {
  local port=$1 want=$2 i
  for i in $(seq 1 600); do
    if [ "$(ingested_count "$port")" = "$want" ]; then return 0; fi
    sleep 0.05
  done
  echo "soak: daemon on :$port never reached ingested=$want (got '$(ingested_count "$port")')" >&2
  return 1
}

# start_daemon WALDIR PORT FIFO LOG: run stcpsd reading from FIFO and
# leave its pid in $daemon_pid. (No command substitution: the FIFO open
# blocks until a writer appears, which would hang a $() capture.)
daemon_pid=""
start_daemon() {
  local waldir=$1 port=$2 fifo=$3 log=$4
  "$work/stcpsd" -events "$work/events.json" \
    -wal-dir "$waldir" -fsync always -http "127.0.0.1:$port" \
    < "$fifo" > /dev/null 2> "$log" &
  daemon_pid=$!
  pids+=("$daemon_pid")
}

query() { curl -sf "http://127.0.0.1:$1/v1/query"; }

echo "soak: uninterrupted reference run"
mkfifo "$work/pipe_clean"
start_daemon "$work/wal_clean" "$PORT_CLEAN" "$work/pipe_clean" "$work/clean.log"
clean_pid=$daemon_pid
exec 3> "$work/pipe_clean"
cat "$work/feed.jsonl" >&3
wait_ingested "$PORT_CLEAN" "$LINES"
query "$PORT_CLEAN" > "$work/clean.query.json"
exec 3>&-
wait "$clean_pid"

echo "soak: crash run — SIGKILL mid-stream after $HALF lines"
mkfifo "$work/pipe_crash"
start_daemon "$work/wal_crash" "$PORT_CRASH" "$work/pipe_crash" "$work/crash.log"
crash_pid=$daemon_pid
exec 4> "$work/pipe_crash"
cat "$work/feed.first" >&4
wait_ingested "$PORT_CRASH" "$HALF"
kill -9 "$crash_pid"
wait "$crash_pid" 2>/dev/null || true
exec 4>&-
rm -f "$work/pipe_crash"

echo "soak: restart over the same WAL, feed the rest"
mkfifo "$work/pipe_restart"
start_daemon "$work/wal_crash" "$PORT_CRASH" "$work/pipe_restart" "$work/restart.log"
restart_pid=$daemon_pid
exec 5> "$work/pipe_restart"
cat "$work/feed.rest" >&5
wait_ingested "$PORT_CRASH" "$((LINES - HALF))"
query "$PORT_CRASH" > "$work/crash.query.json"
exec 5>&-
wait "$restart_pid"

grep -q 'stcpsd: wal' "$work/restart.log" || {
  echo "soak: restart log missing WAL recovery line:" >&2
  cat "$work/restart.log" >&2
  exit 1
}

echo "soak: diffing /v1/query output"
if ! diff -u "$work/clean.query.json" "$work/crash.query.json"; then
  echo "soak: FAIL — post-recovery /v1/query differs from uninterrupted run" >&2
  exit 1
fi

recovered=$(grep -o 'recovered=[0-9]*' "$work/restart.log" | head -1)
echo "soak: OK — /v1/query byte-identical after SIGKILL + recovery ($recovered)"
