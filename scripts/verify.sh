#!/bin/sh
# Tier-1 verification: the full build (warnings are errors) + test suite,
# then a live-metrics smoke (ldp_serve + ldp_replay_trace with
# --metrics-out: snapshots must parse and the final row must reconcile
# with the report), the threaded
# subsystems (sharded server, batched sockets, realtime replay, response
# cache, TLS transport) again under ThreadSanitizer (-DLDP_SANITIZE=thread),
# and the connection-lifetime tests (TCP reconnect, destroy-in-callback,
# timeout expiry, TLS handshake/resumption, sharded TCP accept), the
# registry cells the server, proxy and replay count into (read after
# Stop() for the final snapshot), the compiled-answer differential test
# and the compiled-zone memory test (the offsets into each zone's block),
# the name and trace codecs (their own offset arithmetic over wire-form
# names, with the name oracle) and zone building, signing, transfer and
# reconstruction (RRsets move within a name's type-sorted vector on an
# add, so a pointer kept across one reads freed memory) and the
# distributed replay's frame decoders and agent lifecycle, and the proxy's
# ID ring under the scenario pack's spoofed flood (slots written and
# reclaimed across a wrap), under AddressSanitizer (-DLDP_SANITIZE=address).
#
#   scripts/verify.sh [--skip-tsan]   # skips both sanitizer stages
set -eu

cd "$(dirname "$0")/.."

echo "== tier 1: build + ctest =="
# The tier-1 build is warning-free and stays so: any compiler warning
# (-Wall -Wextra, CMakeLists.txt) fails it.
cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j2

echo "== metrics smoke: live JSONL snapshots reconcile =="
SMOKE=$(mktemp -d)
SERVE_PID=""
PROXY_PID=""
ATTACK_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  [ -n "$PROXY_PID" ] && kill "$PROXY_PID" 2>/dev/null || true
  [ -n "$ATTACK_PID" ] && kill "$ATTACK_PID" 2>/dev/null || true
  rm -rf "$SMOKE"
}
trap cleanup EXIT
cat > "$SMOKE/zone.db" <<'EOF'
$ORIGIN example.com.
@ 3600 IN SOA ns1 admin 1 2 3 4 300
@ IN NS ns1
ns1 IN A 192.0.2.53
www IN A 192.0.2.200
EOF
awk 'BEGIN { for (i = 0; i < 2000; i++)
  printf "%d.%09d 10.0.0.%d:5000 127.0.0.1:5353 udp www.example.com. IN A %d - 1232\n",
         int(i / 500), (i % 500) * 2000000, i % 200 + 1, i % 65536 }' \
  > "$SMOKE/trace.txt"
./build/tools/ldp_serve --listen 127.0.0.1:0 --stats-interval-s 0 \
  --metrics-out "$SMOKE/server_metrics.jsonl" --metrics-interval-ms 200 \
  "$SMOKE/zone.db" > "$SMOKE/serve.out" 2>&1 &
SERVE_PID=$!
i=0
while [ "$i" -lt 50 ]; do
  grep -q "serving on" "$SMOKE/serve.out" 2>/dev/null && break
  sleep 0.1
  i=$((i + 1))
done
PORT=$(sed -n 's/.*serving on [0-9.]*:\([0-9]*\).*/\1/p' "$SMOKE/serve.out")
[ -n "$PORT" ] || { echo "metrics smoke: server never came up"; exit 1; }
./build/tools/ldp_replay_trace --trace "$SMOKE/trace.txt" \
  --server "127.0.0.1:$PORT" --fast \
  --metrics-out "$SMOKE/replay_metrics.jsonl" --metrics-interval-ms 200 \
  > "$SMOKE/replay.out" 2>&1
grep -q "reconcile: OK" "$SMOKE/replay.out" || {
  echo "metrics smoke: replay reconcile failed"; cat "$SMOKE/replay.out"
  exit 1
}
# Without a query timeout no query could time out, so the tool refuses.
if ./build/tools/ldp_replay_trace --trace "$SMOKE/trace.txt" \
     --server "127.0.0.1:$PORT" --timeout-ms 0 > "$SMOKE/no_timeout.out" 2>&1 \
   || ! grep -q -- "--timeout-ms" "$SMOKE/no_timeout.out"; then
  echo "metrics smoke: --timeout-ms 0 was not refused by name"
  cat "$SMOKE/no_timeout.out"
  exit 1
fi
# Counts outside [1, 65535], integer flags that do not parse, ports
# outside [0, 65535], a negative idle timeout and out-of-range distributed
# replay settings exit 2 before the trace is read (the missing trace file
# would exit 1), before any replay thread starts and before any agent is
# spawned.
for counts in "--distributors -1" "--queriers 65536" "--timeout-ms abc" \
              "--follow-dst --dst-port 70000" "--tls-port x" \
              "--tcp-idle-timeout-ms -1" "--agents abc" "--chunk 0" \
              "--window -1" "--metrics-interval-ms x"; do
  # shellcheck disable=SC2086
  if ./build/tools/ldp_replay_trace --trace "$SMOKE/no-such-trace" \
       --server "127.0.0.1:$PORT" $counts > "$SMOKE/counts.out" 2>&1; then
    status=0
  else
    status=$?
  fi
  if [ "$status" -ne 2 ]; then
    echo "metrics smoke: $counts exited $status, not 2"
    cat "$SMOKE/counts.out"
    exit 1
  fi
done
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""
python3 - "$SMOKE/replay_metrics.jsonl" "$SMOKE/server_metrics.jsonl" <<'EOF'
import json, sys
for path in sys.argv[1:]:
    rows = [json.loads(line) for line in open(path)]
    assert rows, path + ": no snapshot rows"
    for i, row in enumerate(rows):
        assert row["seq"] == i, path + ": seq gap"
        for name, c in row["counters"].items():
            assert c["total"] >= 0 and c["delta"] >= 0, (path, name)
        for name, h in row["histograms"].items():
            assert h["p50"] <= h["p95"] <= h["p99"], (path, name)
last = [json.loads(line) for line in open(sys.argv[1])][-1]["counters"]
sent = last["replay.sent"]["total"]
acct = (last["replay.answered"]["total"] + last["replay.timed_out"]["total"]
        + last["replay.send_failed"]["total"])
assert sent == acct, "sent %d != accounted %d" % (sent, acct)
print("metrics smoke: %d sent, fully accounted; all rows parse" % sent)
EOF

echo "== hierarchy smoke: replay through ldp_proxy, zero loss =="
./build/tools/ldp_zone_tool hierarchy "$SMOKE/hier" \
  --tlds 2 --slds 2 --hosts 2 --queries 400 --qps 2000
./build/tools/ldp_serve --listen 127.0.0.1:0 --views "$SMOKE/hier/views.txt" \
  --threads 1 --stats-interval-s 0 > "$SMOKE/hier_serve.out" 2>&1 &
SERVE_PID=$!
i=0
while [ "$i" -lt 50 ]; do
  grep -q "serving on" "$SMOKE/hier_serve.out" 2>/dev/null && break
  sleep 0.1
  i=$((i + 1))
done
META_PORT=$(sed -n 's/.*serving on [0-9.]*:\([0-9]*\).*/\1/p' \
  "$SMOKE/hier_serve.out")
[ -n "$META_PORT" ] || { echo "hierarchy smoke: meta server never came up"
  cat "$SMOKE/hier_serve.out"; exit 1; }
# The proxy keeps no flow table: the old flow flags are unknown flags now
# and exit 2 before any socket is bound (the timeout ends a proxy that
# would relay).
if timeout 10 ./build/tools/ldp_proxy --meta "127.0.0.1:$META_PORT" \
     --views "$SMOKE/hier/views.txt" --loopback-alias --flow-capacity 4096 \
     > "$SMOKE/bad_flow.out" 2>&1; then
  status=0
else
  status=$?
fi
if [ "$status" -ne 2 ] || ! grep -q -- "flow-capacity" "$SMOKE/bad_flow.out"
then
  echo "hierarchy smoke: ldp_proxy --flow-capacity exited $status, not 2"
  cat "$SMOKE/bad_flow.out"
  exit 1
fi
./build/tools/ldp_proxy --meta "127.0.0.1:$META_PORT" \
  --views "$SMOKE/hier/views.txt" --loopback-alias \
  --metrics-out "$SMOKE/hier_proxy.jsonl" \
  --stats-interval-s 0 > "$SMOKE/hier_proxy.out" 2>&1 &
PROXY_PID=$!
i=0
while [ "$i" -lt 50 ]; do
  grep -q "proxying" "$SMOKE/hier_proxy.out" 2>/dev/null && break
  sleep 0.1
  i=$((i + 1))
done
RELAY_PORT=$(sed -n 's/.*on port \([0-9]*\).*/\1/p' "$SMOKE/hier_proxy.out")
[ -n "$RELAY_PORT" ] || { echo "hierarchy smoke: proxy never came up"
  cat "$SMOKE/hier_proxy.out"; exit 1; }
./build/tools/ldp_replay_trace --trace "$SMOKE/hier/queries.txt" \
  --server "127.0.0.1:$META_PORT" --follow-dst --loopback-dst \
  --dst-port "$RELAY_PORT" --distributors 1 --queriers 1 \
  --timeout-ms 2000 --retransmits 2 \
  --metrics-out "$SMOKE/hier_replay.jsonl" \
  > "$SMOKE/hier_replay.out" 2>&1
grep -q "reconcile: OK" "$SMOKE/hier_replay.out" || {
  echo "hierarchy smoke: replay reconcile failed"
  cat "$SMOKE/hier_replay.out"; exit 1
}
SENT=$(sed -n 's/^sent \([0-9]*\), answered.*/\1/p' "$SMOKE/hier_replay.out")
ANSWERED=$(sed -n 's/^sent [0-9]*, answered \([0-9]*\).*/\1/p' \
  "$SMOKE/hier_replay.out")
[ -n "$SENT" ] && [ "$SENT" = "$ANSWERED" ] || {
  echo "hierarchy smoke: lost queries (sent=$SENT answered=$ANSWERED)"
  cat "$SMOKE/hier_replay.out" "$SMOKE/hier_proxy.out"; exit 1
}
kill -TERM "$PROXY_PID"; wait "$PROXY_PID"; PROXY_PID=""
kill -TERM "$SERVE_PID"; wait "$SERVE_PID"; SERVE_PID=""
# The proxy's final metrics row: nothing arrived for an address it does not
# emulate, no relay leg failed, no reply went astray, no ring slot was
# reclaimed, and none is still held.
python3 - "$SMOKE/hier_proxy.jsonl" <<'EOF'
import json, sys
rows = [json.loads(line) for line in open(sys.argv[1])]
assert rows, "hierarchy smoke: no proxy metrics rows"
last = rows[-1]["counters"]
for name in ("proxy.passed_through", "proxy.meta_send_errors",
             "proxy.evicted_drops", "proxy.reclaimed"):
    assert last[name]["total"] == 0, "%s = %d" % (name, last[name]["total"])
pending = rows[-1]["gauges"]["proxy.pending"]
assert pending == 0, "proxy.pending = %d" % pending
print("hierarchy smoke: proxy passed_through, meta_send_errors, "
      "evicted_drops, reclaimed and pending all 0")
EOF
echo "hierarchy smoke: $SENT queries proxied, all answered"

echo "== scenario smoke: attack overlay + anycast catchment =="
# Same hierarchy testbed, but the proxy emulates two anycast sites: the
# catchment map routes the legit client group (127.77/16) to "far" (25 ms
# injected RTT) and everything else — including the attack replay from
# 127.0.0.1 — to "near". A bounded NXDOMAIN flood rides alongside; at
# smoke rates the legit traffic must still see zero loss, and the per-site
# split must be visible offline via ldp_trace_stats --by-site.
./build/tools/ldp_serve --listen 127.0.0.1:0 --views "$SMOKE/hier/views.txt" \
  --threads 1 --stats-interval-s 0 > "$SMOKE/sc_serve.out" 2>&1 &
SERVE_PID=$!
i=0
while [ "$i" -lt 50 ]; do
  grep -q "serving on" "$SMOKE/sc_serve.out" 2>/dev/null && break
  sleep 0.1
  i=$((i + 1))
done
META_PORT=$(sed -n 's/.*serving on [0-9.]*:\([0-9]*\).*/\1/p' \
  "$SMOKE/sc_serve.out")
[ -n "$META_PORT" ] || { echo "scenario smoke: meta server never came up"
  cat "$SMOKE/sc_serve.out"; exit 1; }
cat > "$SMOKE/catchment.txt" <<'EOF'
route 127.77.0.0/16 far
default near
EOF
./build/tools/ldp_proxy --meta "127.0.0.1:$META_PORT" \
  --views "$SMOKE/hier/views.txt" --loopback-alias \
  --sites near:0,far:25 --catchment "$SMOKE/catchment.txt" \
  --metrics-out "$SMOKE/sc_proxy.jsonl" --metrics-interval-ms 200 \
  --stats-interval-s 0 > "$SMOKE/sc_proxy.out" 2>&1 &
PROXY_PID=$!
i=0
while [ "$i" -lt 50 ]; do
  grep -q "proxying" "$SMOKE/sc_proxy.out" 2>/dev/null && break
  sleep 0.1
  i=$((i + 1))
done
RELAY_PORT=$(sed -n 's/.*on port \([0-9]*\).*/\1/p' "$SMOKE/sc_proxy.out")
[ -n "$RELAY_PORT" ] || { echo "scenario smoke: proxy never came up"
  cat "$SMOKE/sc_proxy.out"; exit 1; }
grep -q "anycast sites" "$SMOKE/sc_proxy.out" || {
  echo "scenario smoke: proxy did not announce its anycast sites"
  cat "$SMOKE/sc_proxy.out"; exit 1; }
# Attack-only trace (--sample 0): a bounded random-subdomain flood shaped
# against the same testbed, replayed in the background as a second client.
./build/tools/ldp_mutate_trace --in "$SMOKE/hier/queries.txt" \
  --out "$SMOKE/attack.txt" --sample 0 \
  --attack nxdomain --attack-qps 500 --attack-duration-s 1 \
  > "$SMOKE/sc_mutate.out" 2>&1 || {
  echo "scenario smoke: attack trace generation failed"
  cat "$SMOKE/sc_mutate.out"; exit 1; }
./build/tools/ldp_replay_trace --trace "$SMOKE/attack.txt" \
  --server "127.0.0.1:$META_PORT" --follow-dst --loopback-dst \
  --dst-port "$RELAY_PORT" --distributors 1 --queriers 1 \
  --timeout-ms 2000 --retransmits 2 > "$SMOKE/sc_attack.out" 2>&1 &
ATTACK_PID=$!
./build/tools/ldp_replay_trace --trace "$SMOKE/hier/queries.txt" \
  --server "127.0.0.1:$META_PORT" --follow-dst --loopback-dst \
  --dst-port "$RELAY_PORT" --local-addr 127.77.0.9 \
  --distributors 1 --queriers 1 --timeout-ms 2000 --retransmits 2 \
  > "$SMOKE/sc_legit.out" 2>&1
wait "$ATTACK_PID" || { ATTACK_PID=""; echo "scenario smoke: attack replay failed"
  cat "$SMOKE/sc_attack.out"; exit 1; }
ATTACK_PID=""
SENT=$(sed -n 's/^sent \([0-9]*\), answered.*/\1/p' "$SMOKE/sc_legit.out")
ANSWERED=$(sed -n 's/^sent [0-9]*, answered \([0-9]*\).*/\1/p' \
  "$SMOKE/sc_legit.out")
[ -n "$SENT" ] && [ "$SENT" = "$ANSWERED" ] || {
  echo "scenario smoke: legit traffic lost under bounded flood" \
       "(sent=$SENT answered=$ANSWERED)"
  cat "$SMOKE/sc_legit.out" "$SMOKE/sc_proxy.out"; exit 1
}
kill -TERM "$PROXY_PID"; wait "$PROXY_PID"; PROXY_PID=""
kill -TERM "$SERVE_PID"; wait "$SERVE_PID"; SERVE_PID=""
./build/tools/ldp_trace_stats --by-site "$SMOKE/sc_proxy.jsonl" \
  > "$SMOKE/sc_bysite.out" 2>&1 || {
  echo "scenario smoke: --by-site failed"; cat "$SMOKE/sc_bysite.out"; exit 1; }
# Both sites must have caught traffic: far = the legit group the catchment
# routed there, near = the attack replay under the default route.
awk '/site (near|far)/ { if ($4 + 0 > 0) seen++ } END { exit seen == 2 ? 0 : 1 }' \
  "$SMOKE/sc_bysite.out" || {
  echo "scenario smoke: per-site load split not visible"
  cat "$SMOKE/sc_bysite.out"; exit 1
}
echo "scenario smoke: $SENT legit queries answered under flood," \
     "both sites caught traffic"

echo "== distrib smoke: 2-agent replay, zero loss, merged metrics =="
./build/tools/ldp_serve --listen 127.0.0.1:0 --stats-interval-s 0 \
  "$SMOKE/zone.db" > "$SMOKE/dist_serve.out" 2>&1 &
SERVE_PID=$!
i=0
while [ "$i" -lt 50 ]; do
  grep -q "serving on" "$SMOKE/dist_serve.out" 2>/dev/null && break
  sleep 0.1
  i=$((i + 1))
done
PORT=$(sed -n 's/.*serving on [0-9.]*:\([0-9]*\).*/\1/p' "$SMOKE/dist_serve.out")
[ -n "$PORT" ] || { echo "distrib smoke: server never came up"; exit 1; }
# Trace timing (not --fast): the zero-loss assertion needs the paced rate,
# not a 1-core burst that overflows receive buffers.
./build/tools/ldp_replay_trace --trace "$SMOKE/trace.txt" \
  --server "127.0.0.1:$PORT" --agents 2 \
  --metrics-out "$SMOKE/dist_metrics.jsonl" --metrics-interval-ms 200 \
  > "$SMOKE/dist_replay.out" 2>&1
grep -q "reconcile: OK" "$SMOKE/dist_replay.out" || {
  echo "distrib smoke: reconcile failed"; cat "$SMOKE/dist_replay.out"
  exit 1
}
MERGED_SENT=$(sed -n 's/^merged: sent \([0-9]*\),.*/\1/p' \
  "$SMOKE/dist_replay.out")
MERGED_ANSWERED=$(sed -n 's/^merged: sent [0-9]*, answered \([0-9]*\).*/\1/p' \
  "$SMOKE/dist_replay.out")
[ "$MERGED_SENT" = "2000" ] && [ "$MERGED_ANSWERED" = "2000" ] || {
  echo "distrib smoke: lost queries (sent=$MERGED_SENT answered=$MERGED_ANSWERED)"
  cat "$SMOKE/dist_replay.out"; exit 1
}
kill -TERM "$SERVE_PID"; wait "$SERVE_PID"; SERVE_PID=""
# Offline fold of the per-agent streams must agree with the live merge.
./build/tools/ldp_trace_stats merge --out "$SMOKE/dist_folded.jsonl" \
  "$SMOKE/dist_metrics.agent0.jsonl" "$SMOKE/dist_metrics.agent1.jsonl"
python3 - "$SMOKE/dist_folded.jsonl" <<'EOF'
import json, sys
rows = [json.loads(line) for line in open(sys.argv[1])]
assert rows, "no folded rows"
sent = rows[-1]["counters"]["replay.sent"]["total"]
assert sent == 2000, "folded sent %d != 2000" % sent
print("distrib smoke: 2 agents, 2000 sent, 2000 answered, fold agrees")
EOF

echo "== datapath smoke: serve+replay over the UDP socket path =="
# Paced replay (not --fast) with a retransmit budget, like the other
# smokes: the zero-loss assertion must measure the datapath, not a 1-core
# burst overflowing buffers.
./build/tools/ldp_serve --listen 127.0.0.1:0 --stats-interval-s 0 \
  "$SMOKE/zone.db" > "$SMOKE/dp_serve.out" 2>&1 &
SERVE_PID=$!
i=0
while [ "$i" -lt 50 ]; do
  grep -q "serving on" "$SMOKE/dp_serve.out" 2>/dev/null && break
  sleep 0.1
  i=$((i + 1))
done
PORT=$(sed -n 's/.*serving on [0-9.]*:\([0-9]*\).*/\1/p' "$SMOKE/dp_serve.out")
[ -n "$PORT" ] || { echo "datapath smoke: server never came up"
  cat "$SMOKE/dp_serve.out"; exit 1; }
# --metrics-out makes the tool print "reconcile: OK/FAIL" (snapshot
# counters vs final report); without it no reconcile line exists and the
# grep below could never pass.
./build/tools/ldp_replay_trace --trace "$SMOKE/trace.txt" \
  --server "127.0.0.1:$PORT" --timeout-ms 2000 --retransmits 2 \
  --metrics-out "$SMOKE/dp_metrics.jsonl" > "$SMOKE/dp_replay.out" 2>&1
grep -q "reconcile: OK" "$SMOKE/dp_replay.out" || {
  echo "datapath smoke: replay reconcile failed"
  cat "$SMOKE/dp_replay.out"; exit 1
}
SENT=$(sed -n 's/^sent \([0-9]*\), answered.*/\1/p' "$SMOKE/dp_replay.out")
ANSWERED=$(sed -n 's/^sent [0-9]*, answered \([0-9]*\).*/\1/p' \
  "$SMOKE/dp_replay.out")
[ "$SENT" = "2000" ] && [ "$SENT" = "$ANSWERED" ] || {
  echo "datapath smoke: lost queries (sent=$SENT answered=$ANSWERED)"
  cat "$SMOKE/dp_replay.out"; exit 1
}
kill -TERM "$SERVE_PID"; wait "$SERVE_PID"; SERVE_PID=""
echo "datapath smoke: $SENT queries, all answered"

echo "== tool flags: bad values exit 2 by name =="
# Each case would otherwise serve or relay, so the timeout ends a tool that
# did not refuse. An empty NAME means only the exit status is checked (an
# unknown flag is refused with the usage text).
flag_case() {
  NAME="$1"; shift
  if timeout 10 "$@" > "$SMOKE/flag_case.out" 2>&1; then
    status=0
  else
    status=$?
  fi
  if [ "$status" -ne 2 ] || \
     { [ -n "$NAME" ] && ! grep -q -- "$NAME" "$SMOKE/flag_case.out"; }; then
    echo "tool flags: '$*' exited $status, not 2${NAME:+ naming $NAME}"
    cat "$SMOKE/flag_case.out"
    exit 1
  fi
}
flag_case "" ./build/tools/ldp_serve --listen 127.0.0.1:0 \
  --datapath epoll "$SMOKE/zone.db"
flag_case "--stats-interval-s" ./build/tools/ldp_serve \
  --listen 127.0.0.1:0 --stats-interval-s abc "$SMOKE/zone.db"
flag_case "--threads" ./build/tools/ldp_proxy --meta 127.0.0.1:1 \
  --addresses 127.0.0.1 --threads x
flag_case "--rate" ./build/tools/ldp_make_workload --model broot \
  --duration 1 --rate abc --out "$SMOKE/flag_case.bin"
flag_case "--sample" ./build/tools/ldp_mutate_trace \
  --in "$SMOKE/flag_case_missing.bin" --out "$SMOKE/flag_case.bin" --sample 2
echo "tool flags: unknown and unparsable values refused"

echo "== tls smoke: serve+replay over DoT, zero loss =="
# Same shape as the datapath smoke, but the replay rides DNS-over-TLS to
# the server's DoT listener (session resumption included: the querier
# redials per source). Skips cleanly on builds without OpenSSL.
if ./build/tools/ldp_datapath_probe --tls > "$SMOKE/tls_probe.out" 2>&1; then
  ./build/tools/ldp_serve --listen 127.0.0.1:0 --tls --stats-interval-s 0 \
    "$SMOKE/zone.db" > "$SMOKE/tls_serve.out" 2>&1 &
  SERVE_PID=$!
  i=0
  while [ "$i" -lt 50 ]; do
    grep -q "tls on" "$SMOKE/tls_serve.out" 2>/dev/null && break
    sleep 0.1
    i=$((i + 1))
  done
  PORT=$(sed -n 's/.*serving on [0-9.]*:\([0-9]*\).*/\1/p' \
    "$SMOKE/tls_serve.out")
  TLS_PORT=$(sed -n 's/^tls on [0-9.]*:\([0-9]*\).*/\1/p' \
    "$SMOKE/tls_serve.out")
  [ -n "$PORT" ] && [ -n "$TLS_PORT" ] || {
    echo "tls smoke: server never published its DoT port"
    cat "$SMOKE/tls_serve.out"; exit 1; }
  ./build/tools/ldp_replay_trace --trace "$SMOKE/trace.txt" \
    --server "127.0.0.1:$PORT" --tls --tls-port "$TLS_PORT" \
    --timeout-ms 2000 \
    --metrics-out "$SMOKE/tls_metrics.jsonl" \
    > "$SMOKE/tls_replay.out" 2>&1
  grep -q "reconcile: OK" "$SMOKE/tls_replay.out" || {
    echo "tls smoke: replay reconcile failed"
    cat "$SMOKE/tls_replay.out"; exit 1
  }
  SENT=$(sed -n 's/^sent \([0-9]*\), answered.*/\1/p' "$SMOKE/tls_replay.out")
  ANSWERED=$(sed -n 's/^sent [0-9]*, answered \([0-9]*\).*/\1/p' \
    "$SMOKE/tls_replay.out")
  [ "$SENT" = "2000" ] && [ "$SENT" = "$ANSWERED" ] || {
    echo "tls smoke: lost queries (sent=$SENT answered=$ANSWERED)"
    cat "$SMOKE/tls_replay.out"; exit 1
  }
  kill -TERM "$SERVE_PID"; wait "$SERVE_PID"; SERVE_PID=""
  echo "tls smoke: $SENT queries over DoT, all answered"
else
  echo "tls smoke: skipped ($(cat "$SMOKE/tls_probe.out"))"
fi

echo "== docs: EXPERIMENTS.md command lines match tool --help, Figs 6 and 9 match their JSON =="
python3 - <<'EOF'
import re, subprocess, sys

text = open("EXPERIMENTS.md").read()
known = {}
failures = []
# Every ./build/tools/ldp_* invocation inside a code block: each --flag it
# passes must be advertised by that tool's --help (stale docs fail here).
for line in text.splitlines():
    m = re.search(r"(?:\./)?build/tools/(ldp_\w+)", line)
    if not m or line.lstrip().startswith("#"):
        continue
    tool = m.group(1)
    if tool not in known:
        out = subprocess.run(["./build/tools/" + tool, "--help"],
                             capture_output=True, text=True)
        known[tool] = set(re.findall(r"--[\w-]+", out.stdout + out.stderr))
    for flag in re.findall(r"--[\w-]+", line.split(m.group(0), 1)[1]):
        if flag not in known[tool]:
            failures.append("%s: %s not in --help (line: %s)"
                            % (tool, flag, line.strip()))
# The scenario cookbook must keep exercising the attack/anycast surface:
# if these flags disappear from EXPERIMENTS.md the cookbook has gone stale
# (the generic check above only validates lines that exist).
for needed in ["--attack", "--sites", "--catchment", "--by-site",
               "--local-addr"]:
    if needed not in text:
        failures.append("EXPERIMENTS.md: scenario cookbook no longer uses "
                        + needed)
# Headline figures quoted from a committed bench JSON must be the JSON's.
# Fig 9: the summary row's measured cell and the first paragraph of its
# section quote the served and send-window rates, rounded to 0.1k q/s,
# with the host CPU count they were measured on.
import json
fig9 = json.load(open("BENCH_fig9.json"))
rates = {"%.1fk q/s" % (fig9[key] / 1000)
         for key in ("after_served_rate_qps", "after_send_window_rate_qps")}
cpus = "%d host CPU" % fig9["host_cpus"]
row = next((l for l in text.splitlines() if l.startswith("| Fig 9 ")), "")
cell = row.split("|")[3] if row.count("|") > 3 else ""
section = text.split("### Figure 9", 1)[-1].split("\n\n")[1]
for where, quoted in (("summary row", cell), ("Figure 9 section", section)):
    for rate in sorted(rates):
        if rate not in quoted:
            failures.append("EXPERIMENTS.md Fig 9 %s does not quote %s "
                            "(BENCH_fig9.json)" % (where, rate))
    if cpus not in quoted:
        failures.append("EXPERIMENTS.md Fig 9 %s does not say '%s'"
                        % (where, cpus))
    # Any other rate there is stale, except the paper's own figure.
    stale = set(re.findall(r"(?<!paper's )\b[\d.]+k q/s", quoted)) - rates
    if stale:
        failures.append("EXPERIMENTS.md Fig 9 %s quotes %s, not in "
                        "BENCH_fig9.json" % (where, ", ".join(sorted(stale))))
# Fig 6: the summary row's measured cell quotes the largest |p25| and
# |p75| across the six traces ("p25 within ±X ms", rounded to 0.001 ms),
# with the host CPU count they were measured on.
fig6 = json.load(open("BENCH_fig6.json"))
traces = ("broot", "syn0", "syn1", "syn2", "syn3", "syn4")
row = next((l for l in text.splitlines() if l.startswith("| Fig 6 ")), "")
cell = row.split("|")[3] if row.count("|") > 3 else ""
for q in ("p25", "p75"):
    worst = "%s within ±%.3f ms" % (
        q, max(abs(fig6["%s_%s_ms" % (t, q)]) for t in traces))
    if worst not in cell:
        failures.append("EXPERIMENTS.md Fig 6 summary row does not quote "
                        "'%s' (BENCH_fig6.json)" % worst)
if "%d host CPU" % fig6["host_cpus"] not in cell:
    failures.append("EXPERIMENTS.md Fig 6 summary row does not say '%d "
                    "host CPU'" % fig6["host_cpus"])
if failures:
    print("\n".join(failures))
    sys.exit(1)
print("docs: %d tool invocations checked against --help; Fig 6 quartiles "
      "and Fig 9 rates match their JSON" % len(known))
EOF

echo "== fuzz: ASan harnesses, corpus replay + bounded runs =="
# Builds the fuzz preset (libFuzzer under clang, bundled standalone driver
# under gcc) and gives each harness a bounded -runs budget over its
# checked-in corpus, so any new crash — including a regression on a landed
# reproducer — fails verification. Skips only if the preset cannot build.
if cmake -B build-fuzz -S . -DLDP_SANITIZE=address -DLDP_FUZZ=ON \
     > "$SMOKE/fuzz_configure.out" 2>&1 \
   && cmake --build build-fuzz -j"$(nproc)" --target \
        fuzz_wire fuzz_zone fuzz_framing fuzz_distrib fuzz_answer \
        > "$SMOKE/fuzz_build.out" 2>&1; then
  for target in wire zone framing distrib answer; do
    ./build-fuzz/tests/fuzz/fuzz_$target "tests/fuzz/corpus/$target" \
      -runs=20000 -max_len=4096 -artifact_prefix="$SMOKE/" \
      > "$SMOKE/fuzz_$target.out" 2>&1 || {
      echo "fuzz smoke: fuzz_$target failed"
      tail -20 "$SMOKE/fuzz_$target.out"
      exit 1
    }
  done
  echo "fuzz smoke: 5 harnesses, corpus replay + 20000 bounded runs, clean"
else
  echo "fuzz smoke: skipped (fuzz preset failed to configure or build)"
  tail -5 "$SMOKE/fuzz_build.out" "$SMOKE/fuzz_configure.out" 2>/dev/null || true
fi

if [ "${1:-}" = "--skip-tsan" ]; then
  echo "== sanitizers: skipped =="
  exit 0
fi

echo "== tsan: threaded subsystems =="
cmake -B build-tsan -S . -DLDP_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$(nproc)" --target \
  net_test sharded_server_test response_cache_test \
  server_test replay_realtime_test metrics_test stats_test proxy_relay_test \
  distrib_test hashring_test datapath_test tls_test \
  scenario_test
ctest --test-dir build-tsan --output-on-failure \
  -R 'net_test|sharded_server_test|response_cache_test|server_test|replay_realtime_test|metrics_test|stats_test|proxy_relay_test|distrib_test|hashring_test|datapath_test|tls_test|scenario_test'

echo "== asan: socket + replay lifetime paths, registry cells, name offset arithmetic, zone storage, compiled-zone block, distrib, proxy ID ring =="
cmake -B build-asan -S . -DLDP_SANITIZE=address >/dev/null
cmake --build build-asan -j"$(nproc)" --target \
  net_test replay_realtime_test datapath_test \
  tls_test sharded_server_test compiled_answer_test compiled_memory_test \
  dns_name_test name_oracle_test trace_test zone_test dns_message_test \
  proxy_relay_test metrics_test server_test \
  workload_test zoneconstruct_test axfr_test distrib_test scenario_test
ctest --test-dir build-asan --output-on-failure \
  -R 'net_test|replay_realtime_test|datapath_test|tls_test|sharded_server_test|compiled_answer_test|compiled_memory_test|dns_name_test|name_oracle_test|trace_test|zone_test|dns_message_test|proxy_relay_test|metrics_test|server_test|workload_test|zoneconstruct_test|axfr_test|distrib_test|scenario_test'

echo "verify: OK"
