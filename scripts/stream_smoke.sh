#!/bin/sh
# Streaming smoke: boot pdeserved behind a pdegw gateway, drive long
# NDJSON trajectories through the fleet with pdeload -stream, and assert
# the streaming plane end to end:
#   - every offered stream completes with a "done":true summary, zero 5xx
#   - the first frame lands well before the trajectory finishes
#     (TTFF p50 share < 25% of total latency)
#   - the backend's frames-streamed and chord factorization-reuse counters
#     moved, and the gateway's stream-proxy counters moved
#   - both processes drain cleanly on SIGTERM while a stream is in flight
# Run from the repository root; also available as `make stream-smoke`.
#
# Env knobs (defaults are CI-sized):
#   SMOKE_BACKEND    backend address    (default 127.0.0.1:18085)
#   SMOKE_GW         gateway address    (default 127.0.0.1:18095)
#   SMOKE_STEPS      steps per stream   (default 256)
#   SMOKE_RATE       offered streams/s  (default 4)
#   SMOKE_DURATION   load duration      (default 5s)
set -eu

cd "$(dirname "$0")/.."

BACKEND="${SMOKE_BACKEND:-127.0.0.1:18085}"
GW="${SMOKE_GW:-127.0.0.1:18095}"
STEPS="${SMOKE_STEPS:-256}"
RATE="${SMOKE_RATE:-4}"
DURATION="${SMOKE_DURATION:-5s}"
TMP="$(mktemp -d)"
# Every PID starts empty (set -u) and is killed on its own: an empty PID in
# a shared kill list makes kill reject the whole list.
GW_PID="" SRV_PID=""
cleanup() {
	for pid in $GW_PID $SRV_PID; do
		kill "$pid" 2>/dev/null || true
	done
	rm -rf "$TMP"
}
trap cleanup EXIT

echo "== build"
go build -o "$TMP/pdeserved" ./cmd/pdeserved
go build -o "$TMP/pdegw" ./cmd/pdegw
go build -o "$TMP/pdeload" ./cmd/pdeload

echo "== boot pdeserved on $BACKEND, pdegw on $GW"
"$TMP/pdeserved" -addr "$BACKEND" -debug-addr "" >"$TMP/server.log" 2>&1 &
SRV_PID=$!
"$TMP/pdegw" -addr "$GW" -backends "http://$BACKEND" >"$TMP/gateway.log" 2>&1 &
GW_PID=$!

wait_healthy() {
	i=0
	until curl -fsS "http://$1/healthz" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -ge 50 ]; then
			echo "$2 never became healthy" >&2
			cat "$TMP/server.log" "$TMP/gateway.log" >&2
			exit 1
		fi
		sleep 0.1
	done
}
wait_healthy "$BACKEND" "backend"
wait_healthy "$GW" "gateway"

echo "== pdeload -stream: $RATE streams/s x $STEPS steps for $DURATION through the gateway"
# pdeload exits 1 itself when no stream succeeded; that is the liveness gate.
# n=10 (200 unknowns) makes each step cost real solver time, and 256
# steps amortize the first step's full Newton + factorization, so the
# TTFF-vs-total share measures streaming, not HTTP setup overhead.
"$TMP/pdeload" -url "http://$GW" -stream -steps "$STEPS" \
	-problem burgers2d -n 10 -rate "$RATE" -duration "$DURATION" \
	-out "$TMP/stream.json"

json_num() {
	sed -n "s/^.*\"$1\": \([0-9.eE+-]*\).*$/\1/p" "$TMP/stream.json" | head -1
}

echo "== report assertions"
STREAMS="$(json_num streams_done)"
FRAMES="$(json_num frames_total)"
SERVER_5XX="$(json_num server_5xx)"
TTFF_SHARE="$(json_num ttff_share_p50)"
[ -n "$STREAMS" ] && [ "$STREAMS" -ge 1 ] || {
	echo "no stream completed: streams_done=$STREAMS" >&2
	cat "$TMP/stream.json" >&2
	exit 1
}
[ "$FRAMES" = "$((STREAMS * STEPS))" ] || {
	echo "frame count mismatch: $FRAMES frames for $STREAMS streams of $STEPS steps" >&2
	exit 1
}
[ "${SERVER_5XX:-0}" = "0" ] || {
	echo "saw $SERVER_5XX 5xx responses" >&2
	exit 1
}
awk -v s="$TTFF_SHARE" 'BEGIN { exit !(s > 0 && s < 0.25) }' || {
	echo "first frame did not arrive early: ttff_share_p50=$TTFF_SHARE (want < 0.25)" >&2
	exit 1
}

echo "== metrics assertions"
curl -fsS "http://$BACKEND/metrics" >"$TMP/backend.metrics"
for METRIC in pdeserve_frames_streamed_total pdeserve_jacobian_refactorizations_total pdeserve_jacobian_reuses_total; do
	grep -q "^$METRIC [1-9]" "$TMP/backend.metrics" || {
		echo "backend counter $METRIC did not move" >&2
		grep "^$METRIC" "$TMP/backend.metrics" >&2 || true
		exit 1
	}
done
curl -fsS "http://$GW/metrics" >"$TMP/gateway.metrics"
for METRIC in pdegw_streams_proxied_total pdegw_stream_frames_total; do
	grep -q "^$METRIC [1-9]" "$TMP/gateway.metrics" || {
		echo "gateway counter $METRIC did not move" >&2
		exit 1
	}
done
grep -q '^pdegw_requests_total{code="5' "$TMP/gateway.metrics" && {
	echo "gateway answered 5xx:" >&2
	grep '^pdegw_requests_total' "$TMP/gateway.metrics" >&2
	exit 1
}

echo "== SIGTERM drain with a stream in flight"
curl -sS -N -X POST -H 'Content-Type: application/json' \
	-d "{\"problem\":\"burgers2d\",\"n\":8,\"steps\":256,\"seed\":3,\"deadline_ms\":25000}" \
	"http://$GW/v1/stream" -o "$TMP/drain.ndjson" &
CURL_PID=$!
# Let the stream commit (first frames flushed), then drain the gateway and
# the backend while it is still marching.
sleep 0.4
kill -TERM "$GW_PID"
wait "$CURL_PID" || {
	echo "in-flight stream failed during drain" >&2
	exit 1
}
wait_exit() {
	i=0
	while kill -0 "$1" 2>/dev/null; do
		i=$((i + 1))
		if [ "$i" -ge 300 ]; then
			echo "$2 did not exit within 30s of SIGTERM" >&2
			exit 1
		fi
		sleep 0.1
	done
	wait "$1" 2>/dev/null || {
		echo "$2 exited non-zero on drain" >&2
		cat "$TMP/server.log" "$TMP/gateway.log" >&2
		exit 1
	}
}
wait_exit "$GW_PID" "gateway"
grep -q "drained cleanly" "$TMP/gateway.log" || {
	echo "gateway log missing clean-drain marker" >&2
	cat "$TMP/gateway.log" >&2
	exit 1
}
kill -TERM "$SRV_PID"
wait_exit "$SRV_PID" "backend"
grep -q "drained cleanly" "$TMP/server.log" || {
	echo "backend log missing clean-drain marker" >&2
	cat "$TMP/server.log" >&2
	exit 1
}
LINES="$(wc -l <"$TMP/drain.ndjson")"
[ "$LINES" = "257" ] || {
	echo "drained stream truncated: $LINES lines, want 257 (256 frames + summary)" >&2
	tail -2 "$TMP/drain.ndjson" >&2
	exit 1
}
tail -1 "$TMP/drain.ndjson" | grep -q '"done":true' || {
	echo "drained stream missing its done summary:" >&2
	tail -1 "$TMP/drain.ndjson" >&2
	exit 1
}

echo "OK"
