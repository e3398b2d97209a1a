#!/bin/sh
# Process smoke: only what needs real processes. Builds hybridpde,
# pdeserved and pdegw, boots pdegw over two pdeserved plus a standalone
# pdeserved -chaos, and checks with curl that
#   - each binary parses its flags and boots: hybridpde writes its -out
#     files, every server answers /healthz;
#   - pdeserved -chaos logs "chaos mode" and answers an analog solve 200,
#     and a -min-workers/-max-workers range logs "autoscaler armed";
#   - one /v1/solve and one /v1/stream cross the gateway;
#   - after the backend that owns a shape is SIGKILLed, a burst of
#     sequential solves of that shape through pdegw gets no 5xx;
#   - SIGTERM with a stream in flight: the stream still ends in its
#     "done":true line, and every process logs "drained cleanly" and
#     exits 0.
# Everything else the serving tier promises is checked by go test ./...
# Run from the repository root; also available as `make smoke`. It listens
# on loopback ports 18180-18183.
set -eu

cd "$(dirname "$0")/.."

GW=127.0.0.1:18180
B1=127.0.0.1:18181
B2=127.0.0.1:18182
CHAOS=127.0.0.1:18183
TMP="$(mktemp -d)"
# Every PID starts empty (set -u) and is killed on its own: an empty PID in
# a shared kill list makes kill reject the whole list.
GW_PID="" B1_PID="" B2_PID="" CHAOS_PID="" CURL_PID=""
cleanup() {
	for pid in $GW_PID $B1_PID $B2_PID $CHAOS_PID $CURL_PID; do
		kill "$pid" 2>/dev/null || true
	done
	rm -rf "$TMP"
}
trap cleanup EXIT

fail() { # message [file...]: print the message and the files, exit 1
	echo "$1" >&2
	shift
	for f in "$@"; do
		cat "$f" >&2
	done
	exit 1
}

wait_healthy() { # addr logfile
	i=0
	until curl -fsS "http://$1/healthz" >/dev/null 2>&1; do
		i=$((i + 1))
		[ "$i" -lt 100 ] || fail "$1 never answered /healthz" "$2"
		sleep 0.1
	done
}

post() { # addr path body outfile: POST a JSON body, print the status (000: no answer)
	curl -sS -o "$4" -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
		-d "$3" "http://$1$2" || true
}

lines() { # file: its line count, without wc's padding
	echo $(($(wc -l <"$1")))
}

echo "== build"
go build -o "$TMP/" ./cmd/hybridpde ./cmd/pdeserved ./cmd/pdegw

echo "== hybridpde writes its figure files under -out"
"$TMP/hybridpde" -exp fig2 -quick -out "$TMP/fig2" >"$TMP/fig2.txt" 2>&1 ||
	fail "hybridpde -exp fig2 -quick exited non-zero" "$TMP/fig2.txt"
ls "$TMP/fig2/"*.ppm >/dev/null 2>&1 || fail "hybridpde -out wrote no .ppm file"

echo "== boot two backends, a chaos server and the gateway"
"$TMP/pdeserved" -addr "$B1" -debug-addr "" -workers 2 >"$TMP/b1.log" 2>&1 &
B1_PID=$!
"$TMP/pdeserved" -addr "$B2" -debug-addr "" -min-workers 1 -max-workers 2 -scale-interval 50ms \
	>"$TMP/b2.log" 2>&1 &
B2_PID=$!
"$TMP/pdeserved" -addr "$CHAOS" -debug-addr "" -chaos >"$TMP/chaos.log" 2>&1 &
CHAOS_PID=$!
wait_healthy "$B1" "$TMP/b1.log"
wait_healthy "$B2" "$TMP/b2.log"
wait_healthy "$CHAOS" "$TMP/chaos.log"
"$TMP/pdegw" -addr "$GW" -backends "http://$B1,http://$B2" -probe-interval 100ms >"$TMP/gw.log" 2>&1 &
GW_PID=$!
wait_healthy "$GW" "$TMP/gw.log"

echo "== boot markers"
grep -q "chaos mode" "$TMP/chaos.log" || fail "pdeserved -chaos logged no chaos-mode banner" "$TMP/chaos.log"
grep -q "autoscaler armed" "$TMP/b2.log" || fail "-min-workers/-max-workers did not arm the autoscaler" "$TMP/b2.log"

echo "== chaos: an analog solve is served 200"
code=$(post "$CHAOS" /v1/solve '{"problem":"burgers2d","n":2,"seed":3,"analog":true}' "$TMP/chaos.json")
[ "$code" = 200 ] || fail "chaos solve answered $code" "$TMP/chaos.json" "$TMP/chaos.log"

echo "== one solve and one stream through the gateway"
code=$(post "$GW" /v1/solve '{"problem":"burgers-steady","n":5,"seed":1}' "$TMP/solve.json")
[ "$code" = 200 ] && grep -q '"converged":true' "$TMP/solve.json" ||
	fail "gateway solve answered $code" "$TMP/solve.json" "$TMP/gw.log"
code=$(post "$GW" /v1/stream '{"problem":"burgers2d","n":4,"seed":7,"steps":8}' "$TMP/stream.ndjson")
[ "$code" = 200 ] && [ "$(lines "$TMP/stream.ndjson")" = 9 ] &&
	tail -n 1 "$TMP/stream.ndjson" | grep -q '"done":true' ||
	fail "gateway stream answered $code, want 8 frames and a done line" "$TMP/stream.ndjson"

echo "== SIGKILL the backend that owns the shape, then a burst through the gateway"
OWNED='^pdeserve_requests_total{problem="burgers-steady",code="200"} 1$'
if curl -fsS "http://$B1/metrics" | grep -q "$OWNED"; then
	kill -KILL "$B1_PID"
	wait "$B1_PID" 2>/dev/null || true
	B1_PID="" SURVIVOR_PID=$B2_PID SURVIVOR_LOG="$TMP/b2.log"
else
	kill -KILL "$B2_PID"
	wait "$B2_PID" 2>/dev/null || true
	B2_PID="" SURVIVOR_PID=$B1_PID SURVIVOR_LOG="$TMP/b1.log"
fi
i=1
while [ "$i" -le 20 ]; do
	code=$(post "$GW" /v1/solve "{\"problem\":\"burgers-steady\",\"n\":5,\"seed\":$((i + 1))}" "$TMP/burst.json")
	[ "$code" = 200 ] || fail "burst solve $i answered $code after the backend kill" "$TMP/burst.json" "$TMP/gw.log"
	i=$((i + 1))
done

echo "== SIGTERM every process with a stream in flight"
# An analog-seeded 256-step stream runs for about 0.7 s on a 2-vCPU VM (its
# first frame after ≈10 ms), so the 50 ms poll below sends SIGTERM with
# most of the stream still to come.
curl -sS -N -X POST -H 'Content-Type: application/json' \
	-d '{"problem":"burgers2d","n":8,"seed":3,"steps":256,"analog":true,"deadline_ms":25000}' \
	"http://$GW/v1/stream" -o "$TMP/drain.ndjson" &
CURL_PID=$!
i=0
until [ -s "$TMP/drain.ndjson" ]; do
	i=$((i + 1))
	[ "$i" -lt 200 ] || fail "the drain stream never sent its first frame" "$TMP/gw.log"
	sleep 0.05
done
AT_TERM=$(lines "$TMP/drain.ndjson")
kill -TERM "$GW_PID" "$SURVIVOR_PID" "$CHAOS_PID"
[ "$AT_TERM" -lt 257 ] || fail "the stream ended before SIGTERM ($AT_TERM lines): nothing was in flight"
wait "$CURL_PID" || fail "the in-flight stream failed during the drain" "$TMP/gw.log" "$SURVIVOR_LOG"
CURL_PID=""
[ "$(lines "$TMP/drain.ndjson")" = 257 ] && tail -n 1 "$TMP/drain.ndjson" | grep -q '"done":true' ||
	fail "the drained stream was cut short ($(lines "$TMP/drain.ndjson") lines, want 256 frames and a done line)"

for proc in "gateway $GW_PID $TMP/gw.log" "backend $SURVIVOR_PID $SURVIVOR_LOG" "chaos $CHAOS_PID $TMP/chaos.log"; do
	set -- $proc
	i=0
	while kill -0 "$2" 2>/dev/null; do
		i=$((i + 1))
		[ "$i" -lt 300 ] || fail "$1 did not exit within 30s of SIGTERM" "$3"
		sleep 0.1
	done
	wait "$2" || fail "$1 exited non-zero on drain" "$3"
	grep -q "drained cleanly" "$3" || fail "$1 logged no clean-drain marker" "$3"
done
GW_PID="" B1_PID="" B2_PID="" CHAOS_PID=""

echo "OK"
