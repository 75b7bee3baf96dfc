#!/usr/bin/env bash
# bench.sh — run the core benchmark set and emit a machine-readable
# BENCH_core.json snapshot of the engine's performance.
#
# Usage:
#   scripts/bench.sh [-o OUTPUT.json] [-count N] [-chaosload]
#
# -count N forwards to `go test -count N`. The default is a single
# iteration, which keeps the CI smoke run fast; pass -count 3 (or more)
# when collecting numbers worth comparing.
#
# Always appended: an "obs_overhead" panel interleaving the exploration
# benchmark with instrumentation off / recorder on / recorder plus the
# continuous profiler, recording the overhead of each against "off".
#
# -chaosload appends a service-latency panel: it boots a single-node
# server and a 3-node cluster on localhost, drives each with the
# chaosload driver, and records the explore latency distribution
# (p50/p95/p99) of both topologies under "chaosload" in the JSON — the
# cluster numbers include the forwarding hop, so the delta is the cost
# of any-node ingress.
#
# Environment:
#   BENCHTIME  go test -benchtime value     (default 3x)
#   COUNT      fallback for -count          (default 1)
#   PATTERN    benchmark regexp             (default: the core perf set below)
#
# The JSON maps each benchmark to all its ns/op samples plus their minimum
# (the most reproducible point statistic on a noisy machine), their median
# and their spread as the interquartile range (nearest-rank quartiles;
# zero below four samples). For proper
# statistics across two snapshots, keep the raw `go test` output and use
# benchstat:
#
#   scripts/bench.sh -o /tmp/new.json        # raw output in /tmp/new.json.txt
#   benchstat /tmp/old.json.txt /tmp/new.json.txt
set -euo pipefail
cd "$(dirname "$0")/.."

out=BENCH_core.json
count=${COUNT:-1}
chaospanel=0
# getopts is single-character-only, so parse -count (and -o) by hand.
while [ $# -gt 0 ]; do
  case "$1" in
    -o)
      [ $# -ge 2 ] || { echo "bench.sh: -o needs a file argument" >&2; exit 2; }
      out=$2; shift 2 ;;
    -count)
      [ $# -ge 2 ] || { echo "bench.sh: -count needs a number" >&2; exit 2; }
      case "$2" in
        ''|*[!0-9]*) echo "bench.sh: -count wants a positive integer, got '$2'" >&2; exit 2 ;;
      esac
      count=$2; shift 2 ;;
    -chaosload)
      chaospanel=1; shift ;;
    *)
      echo "usage: scripts/bench.sh [-o OUTPUT.json] [-count N] [-chaosload]" >&2; exit 2 ;;
  esac
done

benchtime=${BENCHTIME:-3x}
pattern=${PATTERN:-'^(BenchmarkTable31|BenchmarkTable32|BenchmarkFigure4|BenchmarkSampledExplore|BenchmarkSampledAccuracy|BenchmarkAblationMRCTBuild|BenchmarkAblationStackDistVsAnalytical|BenchmarkMicroIntersect|BenchmarkMicroMRCTDedup|BenchmarkIngest)$'}

raw="$out.txt"
go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -count "$count" -benchmem . | tee "$raw"

# Each result line carries value/unit pairs: ns/op always, B/op and
# allocs/op from -benchmem, the GC panel metrics (gcs/op,
# gc-pause-ns/op) emitted by measureGC in bench_test.go, and the
# accuracy metrics of BenchmarkSampledAccuracy. The JSON keeps every
# ns/op sample plus its minimum, the per-op minimum of each GC panel
# metric (minimum, as for ns/op, being the most reproducible point
# statistic on a noisy machine), and the last value of each accuracy
# metric (deterministic: the benchmark's seeds are fixed).
awk -v benchtime="$benchtime" -v count="$count" -v pattern="$pattern" '
function noteMin(tab, name, v) {
  if (!((name) in tab) || v + 0 < tab[name] + 0) tab[name] = v
}
# rank(list, q) sorts the comma-separated samples and returns the
# nearest-rank q-quantile.
function rank(list, q,    v, m, i, j, t) {
  m = split(list, v, ",")
  for (i = 2; i <= m; i++)
    for (j = i; j > 1 && v[j - 1] + 0 > v[j] + 0; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
  i = int(q * m + 0.5); if (i < 1) i = 1; if (i > m) i = m
  return v[i]
}
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: /, ""); cpu = $0 }
$1 ~ /^Benchmark/ && $3 ~ /^[0-9]/ {
  name = $1
  sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
  for (f = 3; f + 1 <= NF; f += 2) {
    v = $f; unit = $(f + 1)
    if (unit == "ns/op") {
      if (!(name in samples)) { order[++n] = name; min[name] = v }
      samples[name] = samples[name] (samples[name] ? "," : "") v
      if (v + 0 < min[name] + 0) min[name] = v
    } else if (unit == "B/op")            noteMin(bytesop, name, v)
    else if (unit == "allocs/op")         noteMin(allocs, name, v)
    else if (unit == "gcs/op")            noteMin(gcs, name, v)
    else if (unit == "gc-pause-ns/op")    noteMin(gcpause, name, v)
    else if (unit ~ /^(median-rel-err|p90-rel-err|ci95-coverage|cells)$/) {
      if (!((name, unit) in acc)) accunits[name] = accunits[name] " " unit
      acc[name, unit] = v
    }
  }
}
END {
  printf "{\n"
  printf "  \"benchtime\": \"%s\",\n", benchtime
  printf "  \"count\": %d,\n", count
  printf "  \"pattern\": \"%s\",\n", pattern
  printf "  \"goos\": \"%s\",\n", goos
  printf "  \"goarch\": \"%s\",\n", goarch
  printf "  \"cpu\": \"%s\",\n", cpu
  printf "  \"results\": {\n"
  for (i = 1; i <= n; i++) {
    name = order[i]
    nsamp = split(samples[name], tmp, ",")
    iqr = nsamp >= 4 ? rank(samples[name], 0.75) - rank(samples[name], 0.25) : 0
    printf "    \"%s\": {\"ns_per_op_min\": %s, \"ns_per_op_median\": %s, \"ns_per_op_iqr\": %s, \"ns_per_op\": [%s]", \
      name, min[name], rank(samples[name], 0.5), iqr, samples[name]
    if (name in bytesop) printf ", \"bytes_per_op\": %s", bytesop[name]
    if (name in allocs)  printf ", \"allocs_per_op\": %s", allocs[name]
    if (name in gcs)     printf ", \"gcs_per_op\": %s", gcs[name]
    if (name in gcpause) printf ", \"gc_pause_ns_per_op\": %s", gcpause[name]
    nacc = split(accunits[name], units, " ")
    for (u = 1; u <= nacc; u++) printf ", \"%s\": %s", units[u], acc[name, units[u]]
    printf "}%s\n", (i < n ? "," : "")
  }
  printf "  }\n}\n"
}' "$raw" > "$out"

# Observability-overhead panel: the engine benchmark with instrumentation
# off, with a recorder on, and with recorder plus continuous profiler.
# `go test -count N` repeats the whole set in order, so the three cases
# interleave (A/B/A/B) and the deltas are robust to machine drift. The
# overhead percentages come from the per-case ns/op minima; the
# acceptance bar is on+profiler within 2% of off.
# OBS_BENCHTIME/OBS_COUNT override the main knobs here: overhead deltas
# in the low percents need more iterations than the core set's smoke
# defaults to rise above run-to-run noise.
obsraw="$out.obs.txt"
go test -run '^$' -bench '^BenchmarkExploreObs$' -benchtime "${OBS_BENCHTIME:-$benchtime}" \
  -count "${OBS_COUNT:-$count}" -benchmem ./internal/core | tee "$obsraw"
awk '
$1 ~ /^BenchmarkExploreObs\// && $3 ~ /^[0-9]/ {
  name = $1; sub(/-[0-9]+$/, "", name); sub(/^BenchmarkExploreObs\//, "", name)
  if (!(name in min) || $3 + 0 < min[name] + 0) min[name] = $3
}
END {
  split("off on on+profiler", cases, " ")
  printf ",\"obs_overhead\": {"
  sep = ""
  for (i = 1; i <= 3; i++) {
    k = cases[i]
    if (k in min) { printf "%s\"%s_ns_per_op_min\": %s", sep, k, min[k]; sep = ", " }
  }
  if ("off" in min && min["off"] + 0 > 0) {
    if ("on" in min)
      printf "%s\"recorder_overhead_pct\": %.2f", sep, 100 * (min["on"] - min["off"]) / min["off"]
    if ("on+profiler" in min)
      printf ", \"recorder_profiler_overhead_pct\": %.2f", 100 * (min["on+profiler"] - min["off"]) / min["off"]
  }
  printf "}\n}\n"
}' "$obsraw" > "$out.obspanel"
{
  sed '$d' "$out"
  cat "$out.obspanel"
} > "$out.merged" && mv "$out.merged" "$out"
rm -f "$out.obspanel"

# Design-space panel: the default-space evaluation with the analytical
# cuts on (pruned) and off (exhaustive — the identical computation over
# every candidate cell). Records both minima, the speedup the cuts buy,
# and the prune-rate custom metric (fraction of candidate cells the
# A_zero and alpha-threshold cuts skipped; the acceptance bar, also
# asserted by TestExploreSpaceDefaultPruneRate, is >= 0.30).
dseraw="$out.dse.txt"
go test -run '^$' -bench '^BenchmarkSpaceExplore$' -benchtime "$benchtime" \
  -count "$count" . | tee "$dseraw"
awk '
$1 ~ /^BenchmarkSpaceExplore\// && $3 ~ /^[0-9]/ {
  name = $1; sub(/-[0-9]+$/, "", name); sub(/^BenchmarkSpaceExplore\//, "", name)
  if (!(name in min) || $3 + 0 < min[name] + 0) min[name] = $3
  for (f = 3; f + 1 <= NF; f += 2)
    if ($(f + 1) == "prune-rate") rate = $f
}
END {
  printf ",\"dse_space\": {"
  sep = ""
  if ("pruned" in min)     { printf "\"pruned_ns_per_op_min\": %s", min["pruned"]; sep = ", " }
  if ("exhaustive" in min) { printf "%s\"exhaustive_ns_per_op_min\": %s", sep, min["exhaustive"]; sep = ", " }
  if ("pruned" in min && "exhaustive" in min && min["pruned"] + 0 > 0)
    { printf "%s\"speedup_vs_exhaustive\": %.2f", sep, min["exhaustive"] / min["pruned"]; sep = ", " }
  if (rate != "") printf "%s\"prune_rate\": %s", sep, rate
  printf "}\n}\n"
}' "$dseraw" > "$out.dsepanel"
{
  sed '$d' "$out"
  cat "$out.dsepanel"
} > "$out.merged" && mv "$out.merged" "$out"
rm -f "$out.dsepanel"

# Optional service-latency panel: the same chaosload run against one node
# and against a 3-node cluster, so the JSON records what the forwarding
# hop costs at the tail. Kept off the default path — it boots servers.
if [ "$chaospanel" = 1 ]; then
  tmp=$(mktemp -d)
  pids=()
  panel_cleanup() {
    for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$tmp"
  }
  trap panel_cleanup EXIT

  go build -o "$tmp/cachedse" ./cmd/cachedse
  go build -o "$tmp/chaosload" ./cmd/chaosload
  wait_up() {
    for _ in $(seq 1 100); do
      curl -sf "$1/healthz" > /dev/null 2>&1 && return 0
      sleep 0.1
    done
    echo "bench.sh: server did not come up on $1" >&2
    return 1
  }

  n=${CHAOS_N:-96} conc=${CHAOS_CONCURRENCY:-8} refs=${CHAOS_REFS:-4000}

  # Single node.
  "$tmp/cachedse" serve -addr 127.0.0.1:18371 -store "$tmp/s1" -workers 2 -queue 16 \
    > "$tmp/log-single.txt" 2>&1 &
  pids+=($!)
  wait_up http://127.0.0.1:18371
  "$tmp/chaosload" -addr http://127.0.0.1:18371 -n "$n" -concurrency "$conc" \
    -refs "$refs" -json "$tmp/single.json" >&2
  kill "${pids[0]}" 2>/dev/null || true

  # Three nodes, requests round-robin across all of them.
  peers="a=http://127.0.0.1:18372,b=http://127.0.0.1:18373,c=http://127.0.0.1:18374"
  for i in a:18372 b:18373 c:18374; do
    id=${i%%:*} port=${i##*:}
    "$tmp/cachedse" serve -addr "127.0.0.1:$port" -store "$tmp/s-$id" -workers 2 -queue 16 \
      -node-id "$id" -peers "$peers" > "$tmp/log-$id.txt" 2>&1 &
    pids+=($!)
  done
  wait_up http://127.0.0.1:18372; wait_up http://127.0.0.1:18373; wait_up http://127.0.0.1:18374
  "$tmp/chaosload" -addrs http://127.0.0.1:18372,http://127.0.0.1:18373,http://127.0.0.1:18374 \
    -n "$n" -concurrency "$conc" -refs "$refs" -json "$tmp/cluster3.json" >&2

  # Splice the panel into the snapshot before the closing brace.
  {
    sed '$d' "$out"
    printf ',"chaosload": {\n"single_node": '
    cat "$tmp/single.json"
    printf ',"cluster_3node": '
    cat "$tmp/cluster3.json"
    printf '}\n}\n'
  } > "$out.merged" && mv "$out.merged" "$out"
fi

echo "wrote $out (raw output in $raw)" >&2
