#!/bin/sh
# Cluster smoke: boot three pdeserved backends and a pdegw gateway, drive
# load through the gateway, SIGKILL one backend mid-run, and assert the
# fleet plane actually worked — zero 5xx across the whole run, a recorded
# failover and eviction, the killed backend's circuit breaker walking
# open → half-open → closed around the kill and restart, the ring
# re-adding the restarted backend, batch metrics moving, warm cache hits
# on the pinned backends, and a clean SIGTERM drain of the gateway. The
# gateway's breakers open on the first failure (-breaker-threshold 1) and
# wait the fixed 2-sweep window before a half-open probe. The retry
# budget's 429 denial needs a backend whose solves fail while its
# readiness probe answers, which a shell script cannot stage;
# TestGatewayRetryBudgetDenied (internal/cluster) covers it. Run from the
# repository root; also available as `make cluster-smoke`.
#
# Env knobs (defaults are CI-sized):
#   SMOKE_GW_ADDR    gateway address    (default 127.0.0.1:18090)
#   SMOKE_BASE_PORT  first backend port (default 18091)
#   SMOKE_RATE       offered rps        (default 120)
#   SMOKE_DURATION   per-stage load     (default 3s)
set -eu

cd "$(dirname "$0")/.."

GW_ADDR="${SMOKE_GW_ADDR:-127.0.0.1:18090}"
BASE_PORT="${SMOKE_BASE_PORT:-18091}"
RATE="${SMOKE_RATE:-120}"
DURATION="${SMOKE_DURATION:-3s}"
TMP="$(mktemp -d)"
B1_PORT="$BASE_PORT"
B2_PORT=$((BASE_PORT + 1))
B3_PORT=$((BASE_PORT + 2))
# Every PID starts empty (set -u) and is killed on its own: an empty PID in
# a shared kill list makes kill reject the whole list.
GW_PID="" B1_PID="" B2_PID="" B3_PID=""
cleanup() {
	for pid in $GW_PID $B1_PID $B2_PID $B3_PID; do
		kill "$pid" 2>/dev/null || true
	done
	rm -rf "$TMP"
}
trap cleanup EXIT

echo "== build"
go build -o "$TMP/pdeserved" ./cmd/pdeserved
go build -o "$TMP/pdegw" ./cmd/pdegw
go build -o "$TMP/pdeload" ./cmd/pdeload

wait_healthy() { # url logfile
	i=0
	until curl -fsS "$1/healthz" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -ge 50 ]; then
			echo "$1 never became healthy" >&2
			cat "$2" >&2
			exit 1
		fi
		sleep 0.1
	done
}

echo "== boot 3 pdeserved backends on ports $B1_PORT-$B3_PORT"
"$TMP/pdeserved" -addr "127.0.0.1:$B1_PORT" -debug-addr "" >"$TMP/b1.log" 2>&1 &
B1_PID=$!
"$TMP/pdeserved" -addr "127.0.0.1:$B2_PORT" -debug-addr "" >"$TMP/b2.log" 2>&1 &
B2_PID=$!
"$TMP/pdeserved" -addr "127.0.0.1:$B3_PORT" -debug-addr "" >"$TMP/b3.log" 2>&1 &
B3_PID=$!
wait_healthy "http://127.0.0.1:$B1_PORT" "$TMP/b1.log"
wait_healthy "http://127.0.0.1:$B2_PORT" "$TMP/b2.log"
wait_healthy "http://127.0.0.1:$B3_PORT" "$TMP/b3.log"

BACKENDS="http://127.0.0.1:$B1_PORT,http://127.0.0.1:$B2_PORT,http://127.0.0.1:$B3_PORT"
echo "== boot pdegw on $GW_ADDR fronting $BACKENDS"
"$TMP/pdegw" -addr "$GW_ADDR" -backends "$BACKENDS" \
	-probe-interval 200ms -breaker-threshold 1 \
	>"$TMP/gw.log" 2>&1 &
GW_PID=$!
wait_healthy "http://$GW_ADDR" "$TMP/gw.log"

echo "== stage 1: warm the fleet through the gateway"
"$TMP/pdeload" -url "http://$GW_ADDR" -rate "$RATE" -duration "$DURATION" \
	-problem burgers-steady -n 5 -seed-spread 1 \
	-re 1.0 -re-step 0.01 -re-count 4 -out "$TMP/stage1.json"
grep -q '"server_5xx": 0' "$TMP/stage1.json" || {
	echo "stage 1 saw 5xx responses" >&2
	cat "$TMP/stage1.json" >&2
	exit 1
}

# One problem shape pins to exactly one backend; kill that one, so the
# stage provably exercises the failover walk rather than an idle member.
OWNER_PORT="$(curl -fsS "http://$GW_ADDR/metrics" |
	grep '^pdegw_backend_routed_total{' | sort -t' ' -k2 -rn | head -1 |
	sed 's/.*127\.0\.0\.1:\([0-9]*\)".*/\1/')"
case "$OWNER_PORT" in
"$B1_PORT") OWNER_PID=$B1_PID ;;
"$B2_PORT") OWNER_PID=$B2_PID ;;
"$B3_PORT") OWNER_PID=$B3_PID ;;
*)
	echo "could not identify the pinned backend (got '$OWNER_PORT')" >&2
	exit 1
	;;
esac

echo "== stage 2: SIGKILL the pinned backend (port $OWNER_PORT) mid-load"
(sleep 1 && kill -KILL "$OWNER_PID" 2>/dev/null || true) &
KILLER_PID=$!
"$TMP/pdeload" -url "http://$GW_ADDR" -rate "$RATE" -duration "$DURATION" \
	-problem burgers-steady -n 5 -seed-spread 1 \
	-re 1.0 -re-step 0.01 -re-count 4 -out "$TMP/stage2.json"
wait "$KILLER_PID" 2>/dev/null || true

echo "== zero-5xx: killing a backend never surfaced a server error"
grep -q '"server_5xx": 0' "$TMP/stage2.json" || {
	echo "gateway surfaced 5xx while a backend died" >&2
	cat "$TMP/stage2.json" >&2
	exit 1
}
grep -q '"transport_errors": 0' "$TMP/stage2.json" || {
	echo "gateway dropped connections while a backend died" >&2
	cat "$TMP/stage2.json" >&2
	exit 1
}

echo "== gateway metrics: failover, eviction and batching all moved"
METRICS="$(curl -fsS "http://$GW_ADDR/metrics")"
echo "$METRICS" | grep -q '^pdegw_failovers_total [1-9]' || {
	echo "no failovers counted after the backend kill" >&2
	echo "$METRICS" | grep '^pdegw_' >&2
	exit 1
}
echo "$METRICS" | grep -q '^pdegw_evictions_total [1-9]' || {
	echo "dead backend was never evicted" >&2
	echo "$METRICS" | grep '^pdegw_' >&2
	exit 1
}
echo "$METRICS" | grep -q '^pdegw_batches_total [1-9]' || {
	echo "no batch windows flushed" >&2
	echo "$METRICS" | grep '^pdegw_' >&2
	exit 1
}
echo "$METRICS" | grep '^pdegw_failovers_total\|^pdegw_evictions_total\|^pdegw_readds_total\|^pdegw_batches_total\|^pdegw_batch_deduped_total\|^pdegw_healthy_backends'

echo "== breaker: the killed backend's circuit opened"
echo "$METRICS" | grep 'pdegw_breaker_transitions_total{.*to="open"' | grep -q ' [1-9]' || {
	echo "no breaker opened after the backend kill" >&2
	echo "$METRICS" | grep 'pdegw_breaker' >&2
	exit 1
}

echo "== ring re-add: restart the killed backend on the same port"
"$TMP/pdeserved" -addr "127.0.0.1:$OWNER_PORT" -debug-addr "" >"$TMP/b2b.log" 2>&1 &
OWNER_PID=$!
case "$OWNER_PORT" in
"$B1_PORT") B1_PID=$OWNER_PID ;;
"$B2_PORT") B2_PID=$OWNER_PID ;;
"$B3_PORT") B3_PID=$OWNER_PID ;;
esac
wait_healthy "http://127.0.0.1:$OWNER_PORT" "$TMP/b2b.log"
i=0
until curl -fsS "http://$GW_ADDR/metrics" | grep -q '^pdegw_healthy_backends 3'; do
	i=$((i + 1))
	if [ "$i" -ge 100 ]; then
		echo "gateway never re-added the restarted backend" >&2
		curl -fsS "http://$GW_ADDR/cluster" >&2 || true
		exit 1
	fi
	sleep 0.1
done
curl -fsS "http://$GW_ADDR/metrics" | grep -q '^pdegw_readds_total [1-9]' || {
	echo "re-add not counted" >&2
	exit 1
}

echo "== breaker: open -> half-open trial -> closed after the restart"
i=0
until curl -fsS "http://$GW_ADDR/metrics" |
	grep 'pdegw_breaker_transitions_total{.*to="closed"' | grep -q ' [1-9]'; do
	i=$((i + 1))
	if [ "$i" -ge 100 ]; then
		echo "breaker never reclosed after the backend restart" >&2
		curl -fsS "http://$GW_ADDR/metrics" | grep 'pdegw_breaker' >&2
		exit 1
	fi
	sleep 0.1
done
BREAKER="$(curl -fsS "http://$GW_ADDR/metrics" | grep 'pdegw_breaker_transitions_total')"
echo "$BREAKER" | grep 'to="half_open"' | grep -q ' [1-9]' || {
	echo "breaker closed without a half-open trial" >&2
	echo "$BREAKER" >&2
	exit 1
}
echo "$BREAKER"

echo "== warm cache: pinned backends served repeats from their caches"
HOT=0
for PORT in "$B1_PORT" "$B2_PORT" "$B3_PORT"; do
	if curl -fsS "http://127.0.0.1:$PORT/metrics" 2>/dev/null |
		grep -q '^pdeserve_cache_hits_total [1-9]'; then
		HOT=$((HOT + 1))
	fi
done
if [ "$HOT" -lt 1 ]; then
	echo "no backend saw cache hits; shape affinity broken" >&2
	exit 1
fi
echo "backends with warm caches: $HOT"

echo "== SIGTERM drain of the gateway"
kill -TERM "$GW_PID"
i=0
while kill -0 "$GW_PID" 2>/dev/null; do
	i=$((i + 1))
	if [ "$i" -ge 100 ]; then
		echo "gateway did not exit within 10s of SIGTERM" >&2
		exit 1
	fi
	sleep 0.1
done
wait "$GW_PID" 2>/dev/null || {
	echo "gateway exited non-zero on drain" >&2
	cat "$TMP/gw.log" >&2
	exit 1
}
grep -q "drained cleanly" "$TMP/gw.log" || {
	echo "gateway log missing clean-drain marker" >&2
	cat "$TMP/gw.log" >&2
	exit 1
}

echo "OK"
