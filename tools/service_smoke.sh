#!/usr/bin/env bash
# service_smoke.sh BUILD_DIR — end-to-end smoke of the service layer
# (EngineSession behind ficond), run by the CI service-smoke job:
#
#   1. boot ficond on a Unix socket,
#   2. fire a batch of concurrent mixed requests at it through
#      `ficon_cli --connect` (xargs -P drives real client processes),
#   3. diff every client result line against the one-shot
#      `ficon_cli --json` line for the same request — the two paths must
#      be bit-identical, error replies included,
#   4. send the evaluate lines again to the same daemon: their results
#      must not change, and the daemon's VmSize must not grow by more than
#      256 MiB (a connection thread that is never joined keeps its 8 MiB
#      stack mapped),
#   5. shut the daemon down cleanly.
#
# Exits non-zero on the first divergence or daemon crash.
set -euo pipefail

BUILD_DIR=${1:?usage: service_smoke.sh BUILD_DIR}
FICOND="$BUILD_DIR/tools/ficond"
CLI="$BUILD_DIR/examples/ficon_cli"
SOCK="${TMPDIR:-/tmp}/ficon_service_smoke_$$.sock"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/ficon_service_smoke_$$.XXXXXX")"

cleanup() {
  [ -n "${DAEMON_PID:-}" ] && kill "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK" "$SOCK"
}
trap cleanup EXIT

echo "== booting ficond on $SOCK"
"$FICOND" --circuit apte --socket "$SOCK" --workers 4 &
DAEMON_PID=$!
for _ in $(seq 100); do
  [ -S "$SOCK" ] && break
  kill -0 "$DAEMON_PID" 2>/dev/null || { echo "ficond died at boot"; exit 1; }
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "ficond never created $SOCK"; exit 1; }

# The request mix: cheap evaluates across models/weights plus low-effort
# anneals across seeds — 100 requests that succeed — and 4 that fail
# inside an executor (an effort whose move count overflows, an expression
# for the wrong module count), one arg-line each.
MIX="$WORK/requests.txt"
EVALUATES=80
: > "$MIX"
for i in $(seq 0 $((EVALUATES - 1))); do
  case $((i % 4)) in
    0) echo "--op evaluate --model ir --gamma 0.4" ;;
    1) echo "--op evaluate --model fixed --grid 120" ;;
    2) echo "--op evaluate --model none" ;;
    3) echo "--op evaluate --model ir --alpha 2 --beta 0.5" ;;
  esac >> "$MIX"
done
for i in $(seq 1 20); do
  echo "--op anneal --effort 0.05 --seed $i" >> "$MIX"
done
OK_COUNT=$(wc -l < "$MIX")
for i in 1 2; do
  echo "--op anneal --effort 1e12 --seed $i" >> "$MIX"
  echo '--op evaluate --expression "0 1 V"' >> "$MIX"
done
TOTAL=$(wc -l < "$MIX")
ERROR_COUNT=$((TOTAL - OK_COUNT))

echo "== firing $TOTAL concurrent requests through ficon_cli --connect"
# Each line becomes one client process; -P 16 keeps the daemon's queue
# and executors genuinely concurrent. Output order is per-file, so the
# diff below is stable. The line reaches the shell as $1 untouched (-d
# keeps xargs from eating its quotes) and is split shell-style by eval.
# Exit 1 is a request that finished non-ok; 2 (usage) and 3 (transport)
# still fail the batch.
run_batch() { # $1 = request lines, $2 = extra args, $3 = out dir
  mkdir -p "$3"
  nl -ba "$1" | xargs -d '\n' -P 16 -I{} bash -c '
    set -euo pipefail
    n="${1%%	*}"
    eval "args=(${1#*	})"
    # shellcheck disable=SC2086
    '"$CLI"' --circuit apte '"$2"' "${args[@]}" \
      > "'"$3"'/$(printf %03d "$n").json" || [ $? -eq 1 ]
  ' _ {}
}
vm_size_kb() { awk '/^VmSize:/ { print $2 }' "/proc/$DAEMON_PID/status"; }
run_batch "$MIX" "--connect $SOCK" "$WORK/client"
VM_FIRST=$(vm_size_kb)
echo "== re-running the same mix one-shot (--json)"
run_batch "$MIX" "--json" "$WORK/oneshot"

echo "== diffing client vs one-shot result lines"
cat "$WORK"/client/*.json > "$WORK/client.jsonl"
cat "$WORK"/oneshot/*.json > "$WORK/oneshot.jsonl"
# A run in which every request errors would diff clean; pin the split.
for f in "$WORK/oneshot.jsonl" "$WORK/client.jsonl"; do
  ok=$(grep -c '"status":"ok"' "$f" || true)
  err=$(grep -c '"status":"error"' "$f" || true)
  if [ "$ok" -ne "$OK_COUNT" ] || [ "$err" -ne "$ERROR_COUNT" ]; then
    echo "$f: $ok ok / $err error lines, want $OK_COUNT / $ERROR_COUNT"
    exit 1
  fi
done
diff -u "$WORK/oneshot.jsonl" "$WORK/client.jsonl"
echo "   $TOTAL/$TOTAL bit-identical"

echo "== sending the $EVALUATES evaluate lines to the same daemon again"
head -n "$EVALUATES" "$MIX" > "$WORK/evaluates.txt"
run_batch "$WORK/evaluates.txt" "--connect $SOCK" "$WORK/again"
VM_SECOND=$(vm_size_kb)
cat "$WORK"/again/*.json |
  diff -u <(head -n "$EVALUATES" "$WORK/oneshot.jsonl") -
echo "   $EVALUATES/$EVALUATES bit-identical;" \
  "daemon VmSize $VM_FIRST kB -> $VM_SECOND kB"
if [ $((VM_SECOND - VM_FIRST)) -gt $((256 * 1024)) ]; then
  echo "ficond's VmSize grew by more than 256 MiB over $EVALUATES connections"
  exit 1
fi

echo "== shutting ficond down"
kill "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

echo "service smoke: OK"
