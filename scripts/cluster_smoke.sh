#!/usr/bin/env bash
# Cluster smoke: start a real 3-node stcpsd cluster (wire forwarding,
# replication, scatter-gather query) next to a single-node reference
# daemon, feed both the same observation stream, and diff every
# gateway's /v1/query against the reference. Then SIGKILL one member
# mid-run, feed a second phase, and diff again — acked ingest must
# survive the kill and the surviving gateways must still serve the full
# merged stream from the replicas. The same scenario runs in-process as
# `go test -run TestDaemonClusterEndToEnd ./cmd/stcpsd` and
# `go test ./internal/cluster/clustertest`; this script exercises it
# against the real built binary over real sockets, pipes and signals.
set -euo pipefail
cd "$(dirname "$0")/.."

LINES=${SMOKE_LINES:-180}
BASE=${SMOKE_PORT_BASE:-18480}
WIRE=($((BASE)) $((BASE + 1)) $((BASE + 2)))
HTTP=($((BASE + 3)) $((BASE + 4)) $((BASE + 5)))
REF_HTTP=$((BASE + 6))
CLUSTER="127.0.0.1:${WIRE[0]}/127.0.0.1:${HTTP[0]},127.0.0.1:${WIRE[1]}/127.0.0.1:${HTTP[1]},127.0.0.1:${WIRE[2]}/127.0.0.1:${HTTP[2]}"

work=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$work"
}
trap cleanup EXIT

echo "smoke: building stcpsd"
go build -o "$work/stcpsd" ./cmd/stcpsd

# One detector per cell-local sensor: each event's input stream lives
# wholly inside one partition (the differential contract; see
# docs/cluster.md on cross-partition composition).
{
  echo '['
  for c in 0 1 2 3 4 5 6 7 8; do
    sep=','
    [ "$c" = 8 ] && sep=''
    echo "  {\"id\": \"E.high.$c\", \"layer\": \"sensor\"," \
         "\"roles\": [{\"name\": \"x\", \"source\": \"SR$c\", \"window\": 1}]," \
         "\"when\": \"x.v > 5\"}$sep"
  done
  echo ']'
} > "$work/events.json"

echo "smoke: generating ${LINES}x2 record feed"
go run scripts/genclusterfeed.go -n "$LINES" > "$work/feed1.jsonl"
go run scripts/genclusterfeed.go -start "$LINES" -n "$LINES" > "$work/feed2.jsonl"

# wait_healthz PORT: poll until the daemon serves.
wait_healthz() {
  local port=$1 i
  for i in $(seq 1 200); do
    if curl -sf "http://127.0.0.1:$port/v1/healthz" > /dev/null 2>&1; then return 0; fi
    sleep 0.05
  done
  echo "smoke: daemon on :$port never served" >&2
  return 1
}

# ingested_count PORT -> the daemon's /v1/stats ingested counter.
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
  echo "smoke: daemon on :$port never reached ingested=$want (got '$(ingested_count "$port")')" >&2
  return 1
}

echo "smoke: starting single-node reference daemon on :$REF_HTTP"
mkfifo "$work/pipe_ref"
"$work/stcpsd" -events "$work/events.json" -observer smoke \
  -http "127.0.0.1:$REF_HTTP" \
  < "$work/pipe_ref" > /dev/null 2> "$work/ref.log" &
pids+=($!)
exec 3> "$work/pipe_ref"

echo "smoke: starting 3-node cluster"
node_pids=()
for i in 0 1 2; do
  mkfifo "$work/pipe_$i"
  "$work/stcpsd" -events "$work/events.json" -observer smoke \
    -tcp "127.0.0.1:${WIRE[$i]}" -http "127.0.0.1:${HTTP[$i]}" \
    -cluster "$CLUSTER" -node-id "$i" -replicas 1 \
    < "$work/pipe_$i" > /dev/null 2> "$work/node$i.log" &
  node_pids+=($!)
  pids+=($!)
done
# Hold every cluster stdin open for the daemons' lifetime.
exec 4> "$work/pipe_0" 5> "$work/pipe_1" 6> "$work/pipe_2"

wait_healthz "$REF_HTTP"
for i in 0 1 2; do wait_healthz "${HTTP[$i]}"; done

echo "smoke: phase 1 — $LINES records through node 0's wire listener"
go run scripts/genclusterfeed.go -tcp "127.0.0.1:${WIRE[0]}" -n "$LINES"
cat "$work/feed1.jsonl" >&3
wait_ingested "$REF_HTTP" "$LINES"

echo "smoke: diffing every gateway against the reference"
for i in 0 1 2; do
  go run scripts/clusterdiff.go \
    "http://127.0.0.1:${HTTP[$i]}/v1/query" \
    "http://127.0.0.1:$REF_HTTP/v1/query"
done

# The ingress node must actually have forwarded and replicated —
# otherwise the diff proved a single-node path, not the cluster.
stats=$(curl -sf "http://127.0.0.1:${HTTP[0]}/v1/stats")
for counter in forwarded replicated; do
  val=$(echo "$stats" | grep -o "\"$counter\":[0-9]*" | head -1 | cut -d: -f2)
  if [ -z "$val" ] || [ "$val" = "0" ]; then
    echo "smoke: FAIL — node 0 reports $counter=$val" >&2
    exit 1
  fi
done

echo "smoke: SIGKILL node 2, phase 2 — $LINES more records"
kill -9 "${node_pids[2]}"
wait "${node_pids[2]}" 2>/dev/null || true
go run scripts/genclusterfeed.go -tcp "127.0.0.1:${WIRE[0]}" -start "$LINES" -n "$LINES"
cat "$work/feed2.jsonl" >&3
wait_ingested "$REF_HTTP" "$((LINES * 2))"

echo "smoke: diffing surviving gateways against the reference (replica fallback)"
for i in 0 1; do
  go run scripts/clusterdiff.go \
    "http://127.0.0.1:${HTTP[$i]}/v1/query" \
    "http://127.0.0.1:$REF_HTTP/v1/query"
done

echo "smoke: OK — 3-node scatter-gather byte-identical to single node, before and after SIGKILL"
