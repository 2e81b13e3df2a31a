#!/usr/bin/env bash
# bench_core.sh — run the batch-at-a-time hot-path benchmarks and emit
# BENCH_core.json (archived by CI next to BENCH_adaptive.json).
#
# Three benchmark families feed the artifact:
#   - CoreHotPath* (package dbs3): the whole pipelined-join and aggregate
#     pipelines at the default batch grain vs batch grain 1 — the ns/op
#     comparison of the batched data plane against the per-tuple protocol.
#   - JoinProbe*/AggregateTuple* (internal/operator): the probe/group hot
#     path per tuple (the scalar join probe, OnBatch over one-tuple runs),
#     hash-keyed (current) vs the frozen string-key baseline — the
#     allocs/op comparison for the key representation.
#   - ServeWideRow* (internal/server): a 13-integer-column result streamed
#     through the full HTTP stack, NDJSON vs binary columnar — the
#     bytes-per-row comparison for the wire encodings.
#
# The script FAILS (CI gate) when:
#   - allocs/op of BenchmarkCoreHotPathPipelinedJoinBatched regresses above
#     the committed baseline MAX_PIPELINED_JOIN_ALLOCS,
#   - the batched pipelined join is not at least MIN_JOIN_SPEEDUP faster
#     than the grain-1 per-tuple protocol (both variants exclude GC from
#     timed sections, so the ratio is stable enough to gate on),
#   - the hash-keyed probe path stops allocating >= 50% less than the
#     string-key baseline (allocs/op are deterministic, unlike ns/op), or
#   - the columnar wire encoding stops being >= MIN_WIRE_BYTES_REDUCTION
#     denser than NDJSON on the wide-row serve benchmark (bytes/row is
#     deterministic for a fixed dataset).
#
# The speedup is a ratio between two runs on the same machine, but it still
# depends on the machine's parallelism (both pipelines run 4 threads), so
# the artifact records GOMAXPROCS and the CPU count under "machine": read a
# speedup only next to the core count it was measured at.
#
# Usage: ./scripts/bench_core.sh [pipeline-benchtime] [micro-benchtime] [out.json]
set -euo pipefail
cd "$(dirname "$0")/.."

# Committed baseline: BenchmarkCoreHotPathPipelinedJoinBatched measures
# ~464 allocs/op after the vectorized data plane (run-batched emission,
# flat join index, arena concat); 700 gives headroom for Go-runtime drift
# while still catching any per-tuple allocation creeping back into the
# probe or routing path (each one adds 40k+ allocs to this benchmark).
MAX_PIPELINED_JOIN_ALLOCS=700
# The batched data plane must hold at least a 2x speedup over the
# per-tuple grain-1 protocol on the pipelined-join pipeline.
MIN_JOIN_SPEEDUP=2.0
# The columnar encoding must stay at least 3x denser than NDJSON on the
# 13-integer-column wide-row result.
MIN_WIRE_BYTES_REDUCTION=3.0

PIPE_BENCHTIME="${1:-30x}"
MICRO_BENCHTIME="${2:-100000x}"
OUT="${3:-BENCH_core.json}"
RAW="$(mktemp)"
MACHINE_DIR="$(mktemp -d)"
trap 'rm -rf "$RAW" "$MACHINE_DIR"' EXIT

# The parallelism the benchmarks see: GOMAXPROCS and runtime.NumCPU as the
# Go runtime reports them under this environment.
cat > "$MACHINE_DIR/machine.go" <<'GO'
package main

import (
	"fmt"
	"runtime"
)

func main() { fmt.Println(runtime.GOMAXPROCS(0), runtime.NumCPU()) }
GO
read -r GOMAXPROCS_N NUM_CPU_N < <(go run "$MACHINE_DIR/machine.go")

go test -run '^$' -bench 'CoreHotPath' \
  -benchmem -benchtime "$PIPE_BENCHTIME" -count 1 . | tee "$RAW"
go test -run '^$' -bench 'JoinProbe|AggregateTuple' \
  -benchmem -benchtime "$MICRO_BENCHTIME" -count 1 ./internal/operator/ | tee -a "$RAW"
go test -run '^$' -bench 'ServeWideRow' \
  -benchmem -benchtime "$PIPE_BENCHTIME" -count 1 ./internal/server/ | tee -a "$RAW"

# Fold benchmark lines into JSON and compute the summary ratios the
# acceptance criteria read: batched-vs-grain-1 speedups, the probe-path
# allocs reduction vs the string-key baseline, and the NDJSON-vs-columnar
# bytes-per-row reduction.
awk '
  function metric(bench, name) { return m[bench "\x1f" name] }
  /^Benchmark/ {
    bench = $1
    sub(/-[0-9]+$/, "", bench)  # strip the GOMAXPROCS suffix
    if (n++) body = body ","
    body = body sprintf("\n    {\"name\":\"%s\",\"iterations\":%s,\"metrics\":{", bench, $2)
    first = 1
    for (i = 3; i < NF; i += 2) {
      if (!first) body = body ","
      first = 0
      body = body sprintf("\"%s\":%s", $(i+1), $i)
      m[bench "\x1f" $(i+1)] = $i
    }
    body = body "}}"
  }
  END {
    print "{"
    printf "  \"benchmarks\": [%s\n  ],\n", body
    jb = metric("BenchmarkCoreHotPathPipelinedJoinBatched", "ns/op")
    jg = metric("BenchmarkCoreHotPathPipelinedJoinGrain1", "ns/op")
    ab = metric("BenchmarkCoreHotPathAggregateBatched", "ns/op")
    ag = metric("BenchmarkCoreHotPathAggregateGrain1", "ns/op")
    ja = metric("BenchmarkCoreHotPathPipelinedJoinBatched", "allocs/op")
    ph = metric("BenchmarkJoinProbeHashKey", "allocs/op")
    ps = metric("BenchmarkJoinProbeStringKey", "allocs/op")
    gh = metric("BenchmarkAggregateTupleHashKey", "allocs/op")
    gs = metric("BenchmarkAggregateTupleStringKey", "allocs/op")
    wn = metric("BenchmarkServeWideRowNDJSON", "bytes/row")
    wc = metric("BenchmarkServeWideRowColumnar", "bytes/row")
    printf "  \"summary\": {\n"
    printf "    \"pipelined_join_speedup\": %.3f,\n", jg / jb
    printf "    \"pipelined_join_batched_allocs_per_op\": %d,\n", ja
    printf "    \"aggregate_speedup\": %.3f,\n", ag / ab
    printf "    \"probe_allocs_reduction_pct\": %.1f,\n", (1 - ph / ps) * 100
    printf "    \"aggregate_key_allocs_reduction_pct\": %.1f,\n", (1 - gh / gs) * 100
    printf "    \"wide_row_bytes_per_row_ndjson\": %.1f,\n", wn
    printf "    \"wide_row_bytes_per_row_columnar\": %.1f,\n", wc
    printf "    \"wide_row_bytes_reduction\": %.3f\n", wn / wc
    printf "  },\n"
    printf "  \"baseline\": {\"max_pipelined_join_allocs_per_op\": %d, \"min_join_speedup\": %.1f, \"min_wire_bytes_reduction\": %.1f},\n", maxallocs, minspeedup, minwire
    printf "  \"machine\": {\"gomaxprocs\": %d, \"num_cpu\": %d},\n", gomaxprocs, numcpu
    cmd = "date -u +%Y-%m-%dT%H:%M:%SZ"; cmd | getline ts; close(cmd)
    printf "  \"generated\": \"%s\",\n", ts
    printf "  \"benchtime\": {\"pipeline\": \"%s\", \"micro\": \"%s\"}\n", pbt, mbt
    print "}"
    # Gates.
    status = 0
    if (ja == "" || ja + 0 > maxallocs) {
      printf "bench_core: pipelined-join allocs/op %s exceeds committed baseline %d\n", ja, maxallocs > "/dev/stderr"
      status = 1
    }
    if (jb == "" || jg == "" || jg / jb < minspeedup) {
      printf "bench_core: pipelined-join speedup %.3f below the %.1fx floor\n", jg / jb, minspeedup > "/dev/stderr"
      status = 1
    }
    if (ps == "" || ph == "" || (1 - ph / ps) * 100 < 50) {
      printf "bench_core: probe-path allocs reduction %.1f%% below the 50%% floor\n", (1 - ph / ps) * 100 > "/dev/stderr"
      status = 1
    }
    if (wn == "" || wc == "" || wn / wc < minwire) {
      printf "bench_core: wide-row bytes reduction %.3f below the %.1fx floor\n", wn / wc, minwire > "/dev/stderr"
      status = 1
    }
    exit status
  }
' gomaxprocs="$GOMAXPROCS_N" numcpu="$NUM_CPU_N" maxallocs="$MAX_PIPELINED_JOIN_ALLOCS" minspeedup="$MIN_JOIN_SPEEDUP" minwire="$MIN_WIRE_BYTES_REDUCTION" pbt="$PIPE_BENCHTIME" mbt="$MICRO_BENCHTIME" "$RAW" > "$OUT"

grep -q '"name":"Benchmark' "$OUT" || { echo "bench_core: no benchmark results captured" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 -c "import json; d = json.load(open('$OUT')); assert d['benchmarks'] and d['summary']"
fi
echo "wrote $OUT"
