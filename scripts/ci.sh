#!/bin/sh
# CI smoke: build everything (library, CLI, examples, bench harness),
# run the full test suite (once at the default pool width and once with
# SLC_JOBS=4 so registry compilation runs on 4 domains), run every example
# program, exercise the CLI (including the observability surface:
# --metrics / --trace-out, the -j byte-identity cross-checks, and the
# daemon's /status introspection endpoints + slc top), then regenerate
# the benchmark trajectory JSON (writes BENCH_PR9.json at the
# repo root, with ratios against the most recent tracked BENCH_PR*.json).
# Run from the repository root.
set -eu

dune build @runtest
dune build bin examples bench

# One stepping kernel: the domain pool is used by registry compilation
# only. Outside lib/core/pool.*, Sl_core.Pool may appear in lib/ only in
# the registry and in the /status "jobs" read, and Domain.spawn only in
# the pool itself.
echo "--- parallel-path guard"
stray=$(grep -rln 'Pool\.' lib --include='*.ml' --include='*.mli' \
          | grep -v -e '^lib/core/pool\.ml' -e '^lib/runtime/registry\.ml' \
                    -e '^lib/serve/introspect\.ml' || true)
[ -z "$stray" ] || { echo "Pool used outside the registry: $stray"; exit 1; }
[ "$(grep -c 'Pool\.' lib/serve/introspect.ml)" -eq 1 ] \
  && grep -q 'Pool\.default_jobs ()' lib/serve/introspect.ml \
  || { echo "introspect.ml may only read Pool.default_jobs ()"; exit 1; }
stray=$(grep -rln 'Domain\.spawn' lib | grep -v '^lib/core/pool\.ml$' || true)
[ -z "$stray" ] || { echo "Domain.spawn outside the pool: $stray"; exit 1; }

# The whole suite again with the process-default pool width forced to 4:
# registry compilation (the one ?jobs-defaulted path) now runs its
# parallel code under the existing pins.
echo "--- dune runtest with SLC_JOBS=4"
SLC_JOBS=4 dune runtest --force

# Examples are documentation that must keep executing.
for ex in quickstart ltl_classification buchi_decomposition \
          ctl_classification security_monitor model_checking; do
  echo "--- examples/$ex"
  dune exec "examples/$ex.exe" > /dev/null
done

# CLI smoke: one subcommand of each flavour.
dune exec bin/slc.exe -- classify "a & F !a" > /dev/null
dune exec bin/slc.exe -- stats "G (a -> F !a)" > /dev/null
dune exec bin/slc.exe -- theorems > /dev/null

# Runtime-monitoring smoke: the checked-in example props/trace pair must
# produce exactly this verdict summary, with exit code 1 (violations
# found, inputs well-formed).
echo "--- slc monitor smoke"
status=0
out=$(dune exec bin/slc.exe -- monitor --props examples/monitor.props \
        --trace examples/monitor.events) || status=$?
[ "$status" -eq 1 ]
echo "$out" | grep -q \
  "summary: traces=2 events=7 props=5 monitors=3 violations=3 vacuous=2 live=1 tripped=2 retired_admissible=1"
echo "$out" | grep -q "VIOLATION G (a -> X !a) at event 4"
echo "$out" | grep -Fq 'props: 5 loaded, 3 distinct monitor(s), 2 vacuous'

# Parallel byte-identity: the same monitor run at -j 1 and -j 4 must
# produce byte-for-byte identical reports (modulo the wall-clock
# events_per_s rate, which differs between any two runs), and the
# rank-based complement must print the identical automaton. These are
# the end-to-end form of the jobs-invariance QCheck pins.
echo "--- slc -j byte-identity smoke"
j1=$(mktemp /tmp/slc-ci.XXXXXX.j1) ; j4=$(mktemp /tmp/slc-ci.XXXXXX.j4)
for j in 1 4; do
  status=0
  dune exec bin/slc.exe -- monitor -j "$j" --props examples/monitor.props \
    --trace examples/monitor.events --json > "$j1.raw" || status=$?
  [ "$status" -eq 1 ]
  sed 's/"events_per_s": [0-9.]*/"events_per_s": X/' "$j1.raw" \
    > "$([ "$j" -eq 1 ] && echo "$j1" || echo "$j4")"
done
rm -f "$j1.raw"
diff "$j1" "$j4" || { echo "monitor -j 1 vs -j 4 reports differ"; exit 1; }
dune exec bin/slc.exe -- complement -j 1 "F a" > "$j1"
dune exec bin/slc.exe -- complement -j 4 "F a" > "$j4"
diff "$j1" "$j4" || { echo "complement -j 1 vs -j 4 differ"; exit 1; }
rm -f "$j1" "$j4"

# Observability smoke: the same run with metrics collection on must keep
# the same exit code and verdict summary, print the engine/registry
# metric families in the Prometheus exposition, and emit well-formed
# trace-event JSONL (one JSON object per line).
echo "--- slc monitor --metrics smoke"
trace_out=$(mktemp /tmp/slc-ci.XXXXXX.trace.jsonl)
status=0
mout=$(dune exec bin/slc.exe -- monitor --props examples/monitor.props \
         --trace examples/monitor.events --metrics - \
         --trace-out "$trace_out") || status=$?
[ "$status" -eq 1 ]
echo "$mout" | grep -q \
  "summary: traces=2 events=7 props=5 monitors=3 violations=3 vacuous=2 live=1 tripped=2 retired_admissible=1"
for metric in engine_events_total engine_chunks_total \
              engine_retired_tripped_total engine_retired_admissible_total \
              engine_live_monitors engine_chunk_latency_ns_count \
              engine_minor_words_total registry_props_total \
              registry_monitors_total registry_hashcons_hits_total \
              registry_compile_ns_count ltl_translate_runs_total \
              nfa_determinize_runs_total digraph_scc_runs_total; do
  echo "$mout" | grep -q "^$metric" \
    || { echo "missing metric: $metric"; exit 1; }
done
echo "$mout" | grep -q "^engine_events_total 7$"
echo "$mout" | grep -q "^registry_hashcons_hits_total 2$"
python3 -c '
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert lines, "trace JSONL is empty"
for l in lines:
    ev = json.loads(l)
    assert ev["ph"] == "X" and "name" in ev and "dur" in ev, ev
print(f"trace JSONL ok: {len(lines)} events")
' "$trace_out"
rm -f "$trace_out"

# Compile-cache smoke: a cold run against an empty cache directory must
# store entries and change nothing about the report; the warm rerun must
# serve every probe from the cache (cache_hits_total = distinct sources,
# cache_misses_total = 0); and the cached reports — cold, warm, warm at
# -j 4 — must be byte-identical to the uncached report (modulo the
# wall-clock events_per_s rate). This is the end-to-end form of the
# cold = warm = uncached test pin.
echo "--- slc --cache cold/warm smoke"
cache_dir=$(mktemp -d /tmp/slc-ci-cache.XXXXXX)
nocache=$(mktemp /tmp/slc-ci.XXXXXX.nocache)
cached=$(mktemp /tmp/slc-ci.XXXXXX.cached)
run_monitor_on() { # run_monitor_on OUT TRACE [extra flags...]
  _out=$1; _trace=$2; shift 2
  status=0
  dune exec bin/slc.exe -- monitor --props examples/monitor.props \
    --trace "$_trace" --json "$@" > "$_out.raw" || status=$?
  [ "$status" -eq 1 ]
  sed 's/"events_per_s": [0-9.]*/"events_per_s": X/' "$_out.raw" > "$_out"
  rm -f "$_out.raw"
}
run_monitor() { # run_monitor OUT [extra flags...]
  _o=$1; shift
  run_monitor_on "$_o" examples/monitor.events "$@"
}
run_monitor "$nocache"
run_monitor "$cached" --cache "$cache_dir"   # cold: misses, stores
diff "$nocache" "$cached" || { echo "cold cached report differs"; exit 1; }
[ "$(ls "$cache_dir" | wc -l)" -gt 0 ] || { echo "cold run stored nothing"; exit 1; }
run_monitor "$cached" --cache "$cache_dir"   # warm: every probe hits
diff "$nocache" "$cached" || { echo "warm cached report differs"; exit 1; }
run_monitor "$cached" --cache "$cache_dir" -j 4
diff "$nocache" "$cached" || { echo "warm -j 4 cached report differs"; exit 1; }
status=0
wout=$(dune exec bin/slc.exe -- monitor --props examples/monitor.props \
         --trace examples/monitor.events --cache "$cache_dir" \
         --metrics -) || status=$?
[ "$status" -eq 1 ]
echo "$wout" | grep -q "^cache_hits_total 5$" \
  || { echo "warm run did not hit the cache"; exit 1; }
echo "$wout" | grep -q "^cache_misses_total 0$" \
  || { echo "warm run missed the cache"; exit 1; }
# SLC_CACHE is the env-default spelling of --cache.
status=0
SLC_CACHE="$cache_dir" dune exec bin/slc.exe -- monitor \
  --props examples/monitor.props --trace examples/monitor.events --json \
  > "$cached.raw" || status=$?
[ "$status" -eq 1 ]
sed 's/"events_per_s": [0-9.]*/"events_per_s": X/' "$cached.raw" > "$cached"
rm -f "$cached.raw"
diff "$nocache" "$cached" || { echo "SLC_CACHE report differs"; exit 1; }
rm -f "$nocache" "$cached"

# Session snapshot/resume smoke: feed the first half of the stream and
# snapshot, resume in a fresh process on the second half, and the final
# report must be byte-identical to the uninterrupted run (modulo the
# wall-clock events_per_s rate) — at -j 1, at -j 4, and resuming with a
# warm --cache (the registry is recompiled from the cache and must
# fingerprint identically). A corrupted snapshot must refuse to resume
# with exit 2, never a wrong-but-running session.
echo "--- slc monitor --snapshot/--resume smoke"
snap=$(mktemp /tmp/slc-ci.XXXXXX.slsession)
half1=$(mktemp /tmp/slc-ci.XXXXXX.half1)
half2=$(mktemp /tmp/slc-ci.XXXXXX.half2)
resumed=$(mktemp /tmp/slc-ci.XXXXXX.resumed)
full=$(mktemp /tmp/slc-ci.XXXXXX.full)
nlines=$(wc -l < examples/monitor.events)
mid=$((nlines / 2))
head -n "$mid" examples/monitor.events > "$half1"
tail -n +"$((mid + 1))" examples/monitor.events > "$half2"
for j in 1 4; do
  run_monitor "$full" -j "$j"
  status=0
  dune exec bin/slc.exe -- monitor -j "$j" --props examples/monitor.props \
    --trace "$half1" --snapshot "$snap" > /dev/null || status=$?
  [ "$status" -le 1 ] || { echo "snapshot run failed"; exit 1; }
  run_monitor_on "$resumed" "$half2" -j "$j" --resume "$snap"
  diff "$full" "$resumed" \
    || { echo "resumed -j $j report differs from uninterrupted"; exit 1; }
done
# Resume with a warm compile cache: recompiled-from-cache registry must
# accept the snapshot and reproduce the same report.
sess_cache_dir=$(mktemp -d /tmp/slc-ci-cache.XXXXXX)
run_monitor "$full"
status=0
dune exec bin/slc.exe -- monitor --props examples/monitor.props \
  --trace "$half1" --cache "$sess_cache_dir" --snapshot "$snap" > /dev/null \
  || status=$?
[ "$status" -le 1 ] || { echo "cached snapshot run failed"; exit 1; }
run_monitor_on "$resumed" "$half2" --resume "$snap" --cache "$sess_cache_dir"
diff "$full" "$resumed" \
  || { echo "cache-warmed resume report differs"; exit 1; }
# Periodic snapshots leave a valid final snapshot behind.
status=0
dune exec bin/slc.exe -- monitor --props examples/monitor.props \
  --trace examples/monitor.events --snapshot "$snap" --snapshot-every 2 \
  > /dev/null || status=$?
[ "$status" -eq 1 ] || { echo "--snapshot-every run failed"; exit 1; }
# A corrupted snapshot must exit 2.
printf garbage > "$snap"
status=0
dune exec bin/slc.exe -- monitor --props examples/monitor.props \
  --trace "$half2" --resume "$snap" > /dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || { echo "corrupt snapshot not rejected"; exit 1; }
# ... and a snapshot from a different registry must exit 2 too.
dune exec bin/slc.exe -- monitor --props examples/monitor.props \
  --trace "$half1" --snapshot "$snap" > /dev/null || true
otherprops=$(mktemp /tmp/slc-ci.XXXXXX.props)
printf 'G a\n' > "$otherprops"
status=0
dune exec bin/slc.exe -- monitor --props "$otherprops" \
  --trace "$half2" --resume "$snap" > /dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || { echo "foreign snapshot not rejected"; exit 1; }
rm -f "$snap" "$half1" "$half2" "$resumed" "$full" "$otherprops"
rm -rf "$sess_cache_dir"

# Pack smoke: compile the example props into one artifact, list it back.
echo "--- slc pack/unpack smoke"
pack=$(mktemp /tmp/slc-ci.XXXXXX.slpack)
dune exec bin/slc.exe -- pack --props examples/monitor.props -o "$pack" \
  | grep -q "packed 5 props (3 distinct monitors)"
dune exec bin/slc.exe -- unpack "$pack" | grep -q "alphabet: 2"
# Corruption must read as a clean CLI error, not a crash.
printf garbage > "$pack"
status=0
dune exec bin/slc.exe -- unpack "$pack" > /dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || { echo "corrupt pack not rejected"; exit 1; }
rm -f "$pack"
rm -rf "$cache_dir"

# Version smoke: the CLI must advertise the artifact kinds it reads.
echo "--- slc version smoke"
vout=$(dune exec bin/slc.exe -- version)
echo "$vout" | grep -q "^slc 1.0.0$"
echo "$vout" | grep -q "artifact format: sl-artifact/1"
echo "$vout" | grep -q "dfa(1), buchi(2), digraph(3), pack(4), session(5)"
echo "$vout" | grep -q "sl-monitor-report/1"
echo "$vout" | grep -q "sl-status/1"

# Serving smoke: the daemon must agree with the offline pipeline.
# Two concurrent clients split the example stream by trace (per-trace
# event order is the only order that matters); client A fires SIGHUP
# mid-stream, so the hot reload lands with traces in flight. The union
# of the served verdict records, order-normalized, must byte-diff clean
# against the offline `slc monitor --json` report — at -j 1 and -j 4.
# The daemon binary is invoked directly (everything is already built;
# `dune exec` would contend on the build lock with the daemon running).
echo "--- slc serve smoke"
SLC=_build/default/bin/slc.exe
servedir=$(mktemp -d /tmp/slc-ci-serve.XXXXXX)
sock="$servedir/sl.sock"
wait_sock() {
  i=0
  while [ ! -S "$sock" ]; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "daemon never bound $sock"; exit 1; }
    sleep 0.1
  done
}
scrape() { # scrape PATH OUT  — one-shot HTTP GET over the stream socket
  printf 'GET %s HTTP/1.0\r\n\r\n' "$1" \
    | python3 -c '
import socket, sys
s = socket.socket(socket.AF_UNIX); s.settimeout(30)
s.connect(sys.argv[1]); s.sendall(sys.stdin.buffer.read())
s.shutdown(socket.SHUT_WR)
buf = b""
while True:
    d = s.recv(1 << 16)
    if not d: break
    buf += d
sys.stdout.buffer.write(buf)
' "$sock" > "$2"
}
# Split the example stream by trace id (per-trace event order is all
# that matters; the two clients interleave freely).
awk '$1 == "req-1"' examples/monitor.events > "$servedir/a.events"
awk '$1 == "req-2"' examples/monitor.events > "$servedir/b.events"
for j in 1 4; do
  status=0
  dune exec bin/slc.exe -- monitor -j "$j" --props examples/monitor.props \
    --trace examples/monitor.events --json > "$servedir/offline.json" \
    || status=$?
  [ "$status" -eq 1 ]
  python3 scripts/serve_norm.py offline "$servedir/offline.json" \
    > "$servedir/offline.norm"
  "$SLC" serve -j "$j" --props examples/monitor.props --socket "$sock" \
    --quiet 2> "$servedir/serve.log" &
  daemon=$!
  wait_sock
  python3 scripts/serve_client.py "$sock" "$servedir/a.events" \
    "$servedir/a.out" --hup "$daemon" --at-line 2 &
  clienta=$!
  python3 scripts/serve_client.py "$sock" "$servedir/b.events" \
    "$servedir/b.out" &
  clientb=$!
  wait "$clienta"; wait "$clientb"
  kill -TERM "$daemon"; wait "$daemon" \
    || { echo "serve -j $j did not shut down cleanly"; exit 1; }
  python3 scripts/serve_norm.py served "$servedir/a.out" "$servedir/b.out" \
    > "$servedir/served.norm"
  diff "$servedir/offline.norm" "$servedir/served.norm" \
    || { echo "served verdicts differ from offline at -j $j"; exit 1; }
done
[ ! -S "$sock" ] || { echo "stale socket left behind"; exit 1; }

# Snapshot-then-restart: SIGTERM writes the session snapshot; a fresh
# daemon --resume's it, takes the second half of the stream, and its
# summary counters must equal the uninterrupted run's.
echo "--- slc serve snapshot/restart smoke"
nlines=$(wc -l < examples/monitor.events)
mid=$((nlines / 2))
head -n "$mid" examples/monitor.events > "$servedir/half1"
tail -n +"$((mid + 1))" examples/monitor.events > "$servedir/half2"
"$SLC" serve --props examples/monitor.props --socket "$sock" \
  --snapshot "$servedir/snap" --quiet 2>> "$servedir/serve.log" &
daemon=$!
wait_sock
python3 scripts/serve_client.py "$sock" "$servedir/half1" "$servedir/h1.out"
kill -TERM "$daemon"; wait "$daemon" \
  || { echo "snapshot shutdown failed"; exit 1; }
[ -s "$servedir/snap" ] || { echo "no snapshot written"; exit 1; }
"$SLC" serve --props examples/monitor.props --socket "$sock" \
  --resume "$servedir/snap" --quiet 2>> "$servedir/serve.log" &
daemon=$!
wait_sock
python3 scripts/serve_client.py "$sock" "$servedir/half2" "$servedir/h2.out"
# Scrape /metrics over the same socket while the daemon is still up.
scrape /metrics "$servedir/metrics.out"
# The introspection endpoints, on the same one-shot HTTP path: every
# body must be valid sl-status/1 JSON, and /monitors' per-monitor
# census must equal the uninterrupted offline report's verdict counts
# even though this daemon only stepped the second half itself (the
# census reads the resumed trace table, not process-local counters).
echo "--- slc serve /status introspection smoke"
scrape /status "$servedir/status.out"
python3 scripts/status_check.py status "$servedir/status.out"
scrape /healthz "$servedir/healthz.out"
python3 scripts/status_check.py healthz "$servedir/healthz.out"
scrape /traces "$servedir/traces.out"
python3 scripts/status_check.py traces "$servedir/traces.out"
scrape /monitors "$servedir/monitors.out"
python3 scripts/status_check.py monitors "$servedir/monitors.out" \
  "$servedir/offline.json"
# slc top: --once --json emits the raw /status body; the dashboard
# renders without a terminal.
echo "--- slc top smoke"
"$SLC" top --socket "$sock" --once --json > "$servedir/top.json"
python3 scripts/status_check.py status "$servedir/top.json"
"$SLC" top --socket "$sock" --once | grep -q "slc top" \
  || { echo "slc top dashboard missing header"; exit 1; }
kill -TERM "$daemon"; wait "$daemon" \
  || { echo "resumed daemon shutdown failed"; exit 1; }
grep -q "HTTP/1.0 200 OK" "$servedir/metrics.out"
# engine_events_total counts events fed in THIS process: the resumed
# daemon stepped only the second half (4 of the 7 events) itself.
grep -q "^engine_events_total 4$" "$servedir/metrics.out"
grep -q "^serve_connections_total 2$" "$servedir/metrics.out"
grep -q "^serve_bytes_in_total" "$servedir/metrics.out"
# The resumed run's final summary must carry the uninterrupted totals
# (2 traces, 7 events, 2 tripped / 1 admissible / 1 live monitors).
grep -q '"type": "summary", "traces": 2, "events": 7, "props": 5, "monitors": 3, "tripped": 2, "retired_admissible": 1, "live": 1' \
  "$servedir/h2.out" \
  || { echo "resumed serve summary differs from uninterrupted"; exit 1; }

# Soak: a million events through the socket, byte-equivalent
# (order-normalized) to the offline monitor — at -j 1 and -j 4.
echo "--- slc serve soak (1M events)"
python3 -c '
import random, sys
rng = random.Random(20260808)
with open(sys.argv[1], "w") as f:
    for _ in range(1_000_000):
        f.write(f"s{rng.randrange(16)} {rng.randrange(2)}\n")
' "$servedir/soak.events"
for j in 1 4; do
  status=0
  "$SLC" monitor -j "$j" --props examples/monitor.props \
    --trace "$servedir/soak.events" --json > "$servedir/soak.json" \
    || status=$?
  [ "$status" -le 1 ] || { echo "offline soak run failed"; exit 1; }
  python3 scripts/serve_norm.py offline "$servedir/soak.json" \
    > "$servedir/soak-offline.norm"
  "$SLC" serve -j "$j" --props examples/monitor.props --socket "$sock" \
    --quiet 2>> "$servedir/serve.log" &
  daemon=$!
  wait_sock
  # Stream the million events in the background and scrape the
  # introspection endpoints mid-soak: every body must parse as valid
  # sl-status/1 JSON while the engine is under load.
  python3 scripts/serve_client.py "$sock" "$servedir/soak.events" \
    "$servedir/soak.out" &
  soaker=$!
  for probe in 1 2 3; do
    scrape /status "$servedir/soak-status.out"
    python3 scripts/status_check.py status "$servedir/soak-status.out" \
      > /dev/null
    scrape /healthz "$servedir/soak-healthz.out"
    python3 scripts/status_check.py healthz "$servedir/soak-healthz.out" \
      > /dev/null
    sleep 0.2
  done
  echo "mid-soak /status scrapes ok"
  wait "$soaker" || { echo "soak client failed"; exit 1; }
  # Stream fully fed: the per-monitor census must now equal the offline
  # report's verdict counts exactly.
  scrape /monitors "$servedir/soak-monitors.out"
  python3 scripts/status_check.py monitors "$servedir/soak-monitors.out" \
    "$servedir/soak.json"
  kill -TERM "$daemon"; wait "$daemon" \
    || { echo "soak daemon shutdown failed"; exit 1; }
  python3 scripts/serve_norm.py served "$servedir/soak.out" \
    > "$servedir/soak-served.norm"
  diff "$servedir/soak-offline.norm" "$servedir/soak-served.norm" \
    || { echo "soak: served verdicts differ from offline at -j $j"; exit 1; }
done
rm -rf "$servedir"

# Bench smoke + perf trajectory, then the warn-only regression report
# against the previous PR's tracked trajectory (microbench noise on a
# shared container makes a hard gate flaky; the byte-identity checks
# above are the gates).
dune exec bench/main.exe -- bench json
if [ -f BENCH_PR9.json ] && [ -f BENCH_PR10.json ]; then
  python3 scripts/bench_diff.py BENCH_PR9.json BENCH_PR10.json || true
fi
