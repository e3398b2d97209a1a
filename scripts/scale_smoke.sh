#!/bin/sh
# Scale smoke: boot pdeserved with an autoscaler range (-min-workers 1
# -max-workers 4), ramp open-loop load through it, and assert the pool
# provably adapts — the workers gauge rises off the floor during the ramp
# and settles back to it when load stops, scale-up resizes are counted,
# responses stay bit-identical to a fixed-size server, the whole run sees
# zero 5xx, and SIGTERM drains cleanly. Every solve runs serial
# (-solve-procs defaults to 1), so the pool scales by workers alone. Run
# from the repository root; also available as `make scale-smoke`.
#
# Env knobs (defaults are CI-sized):
#   SMOKE_ADDR       elastic server address (default 127.0.0.1:18085)
#   SMOKE_FIXED_ADDR fixed server address   (default 127.0.0.1:18086)
#   SMOKE_RAMP       ramp profile           (default 40:400:4)
#   SMOKE_DURATION   total ramp duration    (default 6s)
set -eu

cd "$(dirname "$0")/.."

ADDR="${SMOKE_ADDR:-127.0.0.1:18085}"
FIXED_ADDR="${SMOKE_FIXED_ADDR:-127.0.0.1:18086}"
RAMP="${SMOKE_RAMP:-100:1000:4}"
DURATION="${SMOKE_DURATION:-6s}"
TMP="$(mktemp -d)"
# Every PID starts empty (set -u) and is killed on its own: an empty PID in
# a shared kill list makes kill reject the whole list.
SRV_PID="" FIXED_PID=""
cleanup() {
	for pid in $SRV_PID $FIXED_PID; do
		kill "$pid" 2>/dev/null || true
	done
	rm -rf "$TMP"
}
trap cleanup EXIT

echo "== build"
go build -o "$TMP/pdeserved" ./cmd/pdeserved
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

# metric NAME URL — print the value of a single-sample metric.
metric() {
	curl -fsS "http://$2/metrics" | awk -v m="$1" '$1 == m { print $2 }'
}

echo "== boot elastic pdeserved on $ADDR (1..4 workers, 50ms ticks)"
"$TMP/pdeserved" -addr "$ADDR" -debug-addr "" \
	-min-workers 1 -max-workers 4 -scale-interval 50ms \
	-scale-up-queue 2 -scale-idle-ticks 4 -cache-off >"$TMP/srv.log" 2>&1 &
SRV_PID=$!
echo "== boot fixed pdeserved on $FIXED_ADDR (pinned at 1 worker)"
"$TMP/pdeserved" -addr "$FIXED_ADDR" -debug-addr "" \
	-workers 1 -cache-off >"$TMP/fixed.log" 2>&1 &
FIXED_PID=$!
wait_healthy "http://$ADDR" "$TMP/srv.log"
wait_healthy "http://$FIXED_ADDR" "$TMP/fixed.log"

grep -q "autoscaler armed" "$TMP/srv.log" || {
	echo "elastic server did not arm the autoscaler" >&2
	cat "$TMP/srv.log" >&2
	exit 1
}
if [ "$(metric pdeserve_workers "$ADDR")" != "1" ]; then
	echo "elastic server did not start at the 1-worker floor" >&2
	exit 1
fi

echo "== ramp $RAMP rps over $DURATION, sampling the workers gauge"
"$TMP/pdeload" -url "http://$ADDR" -ramp "$RAMP" -duration "$DURATION" \
	-concurrency 256 -problem burgers-steady -n 12 -seed-spread 8 \
	-re 1.0 -re-step 0.01 -re-count 8 -out "$TMP/ramp.json" \
	>"$TMP/load.log" 2>"$TMP/load.err" &
LOAD_PID=$!
PEAK=1
while kill -0 "$LOAD_PID" 2>/dev/null; do
	W="$(metric pdeserve_workers "$ADDR" || echo "$PEAK")"
	if [ -n "$W" ] && [ "$W" -gt "$PEAK" ]; then PEAK=$W; fi
	sleep 0.1
done
wait "$LOAD_PID" || {
	echo "pdeload exited non-zero" >&2
	cat "$TMP/load.err" >&2
	exit 1
}
grep '^pdeload: ramp step' "$TMP/load.err" || {
	echo "pdeload printed no per-step ramp summaries" >&2
	cat "$TMP/load.err" >&2
	exit 1
}

echo "== the pool scaled up under the ramp (peak sampled: $PEAK workers)"
if [ "$PEAK" -lt 2 ]; then
	echo "workers gauge never rose above the floor during the ramp" >&2
	curl -fsS "http://$ADDR/metrics" | grep '^pdeserve_workers\|^pdeserve_resizes' >&2 || true
	exit 1
fi
METRICS="$(curl -fsS "http://$ADDR/metrics")"
echo "$METRICS" | grep -q '^pdeserve_resizes_total{direction="up"' || {
	echo "no scale-up resize was counted" >&2
	echo "$METRICS" | grep '^pdeserve_' >&2
	exit 1
}
grep -q '"server_5xx": 0' "$TMP/ramp.json" || {
	echo "ramp saw 5xx responses" >&2
	cat "$TMP/ramp.json" >&2
	exit 1
}
grep -q '"ramp_steps"' "$TMP/ramp.json" || {
	echo "report carries no ramp_steps breakdown" >&2
	cat "$TMP/ramp.json" >&2
	exit 1
}

echo "== idle: the pool settles back to the floor"
i=0
until [ "$(metric pdeserve_workers "$ADDR")" = "1" ]; do
	i=$((i + 1))
	if [ "$i" -ge 100 ]; then
		echo "pool never scaled back down to the 1-worker floor" >&2
		curl -fsS "http://$ADDR/metrics" | grep '^pdeserve_workers\|^pdeserve_resizes' >&2
		exit 1
	fi
	sleep 0.1
done
METRICS="$(curl -fsS "http://$ADDR/metrics")"
echo "$METRICS" | grep -q '^pdeserve_resizes_total{direction="down",reason="idle"' || {
	echo "no idle scale-down was counted" >&2
	exit 1
}
echo "$METRICS" | grep '^pdeserve_workers\|^pdeserve_solve_procs\|^pdeserve_resizes_total'

echo "== bit-identity: elastic (post-resize-history) vs fixed 1-worker server"
for SEED in 3 5 7; do
	BODY="{\"problem\":\"burgers-steady\",\"n\":7,\"seed\":$SEED,\"re\":1.25}"
	A="$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$BODY" "http://$ADDR/v1/solve" |
		sed -E 's/"(queue|solve)_seconds":[0-9eE.+-]+//g')"
	B="$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$BODY" "http://$FIXED_ADDR/v1/solve" |
		sed -E 's/"(queue|solve)_seconds":[0-9eE.+-]+//g')"
	if [ "$A" != "$B" ]; then
		echo "seed $SEED diverged between elastic and fixed pools:" >&2
		echo "elastic: $A" >&2
		echo "fixed:   $B" >&2
		exit 1
	fi
done
echo "3/3 seeds bit-identical"

echo "== SIGTERM drain"
kill -TERM "$SRV_PID"
i=0
while kill -0 "$SRV_PID" 2>/dev/null; do
	i=$((i + 1))
	if [ "$i" -ge 100 ]; then
		echo "server did not exit within 10s of SIGTERM" >&2
		exit 1
	fi
	sleep 0.1
done
wait "$SRV_PID" 2>/dev/null || {
	echo "server exited non-zero on drain" >&2
	cat "$TMP/srv.log" >&2
	exit 1
}
grep -q "drained cleanly" "$TMP/srv.log" || {
	echo "log missing clean-drain marker" >&2
	cat "$TMP/srv.log" >&2
	exit 1
}
kill -TERM "$FIXED_PID" 2>/dev/null || true

echo "OK"
