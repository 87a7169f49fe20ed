#!/bin/sh
# Tier-1 CI pipeline, as named stages:
#
#   ./ci.sh              run every stage, in order
#   ./ci.sh build fmt    run only the named stages
#   ./ci.sh list         print the stage names and exit
#
# Stages (CI.md maps each gate to the invariant it protects):
#
#   build    dune build
#   fmt      dune build @fmt (skipped when ocamlformat is not installed)
#   runtest  dune runtest (alcotest/qcheck suites, bench+check smoke rules)
#   check    differential-oracle smoke battery, fixed seed, plus
#            multilevel and product-network (torus:4x4x4) CLI smokes
#   chaos    the same battery under fault injection — faults may cost
#            work, never correctness
#   doc      dune build @doc-private — the libraries are private, so the
#            plain @doc alias is empty (skipped when odoc is not
#            installed). The perf-docs check (every gate counter
#            backtick-quoted in PERFORMANCE.md) is a runtest case.
#   serve    bfly_serve smoke: coalescing, one-shot byte-identity,
#            admission control, and a concurrent 4-client TCP replay
#            byte-identical to the sequential one, drained by SIGTERM
#   loadgen  deterministic load replay: committed-baseline gate
#            (deterministic fields, cross-machine), the data-center
#            fabric mix against its own committed baseline, self-baseline
#            latency gate (p99/throughput within slack), and — on boxes
#            with enough cores — a concurrency speedup check
#   campaign random-regular bisection campaign smoke: a small seed x size
#            sub-grid at one domain, zero per-instance drift against the
#            committed CAMPAIGN_*.json full run, statistical oracle green
#   warm     warm-cache determinism: second bench run serves from cache,
#            values byte-identical
#   resume   interrupted exact search resumes to the uninterrupted value
#   compare  bench --compare against the committed baseline: experiment
#            outputs, gate counters and oracle summary must not drift
#   perfbench  the benchmark's own tests (python3 perfbench/test_bench.py):
#            BENCHMARK.json contract, and injected wrong outputs fail a run
#
# Every run ends with a per-stage wall-clock summary; under GitHub
# Actions the same rows are appended to $GITHUB_STEP_SUMMARY as a
# markdown table (one row per stage, accumulated across the per-stage
# workflow steps).
set -eu

cd "$(dirname "$0")"

ALL_STAGES="build fmt runtest check chaos doc serve loadgen campaign warm resume compare perfbench"
BASELINE=BENCH_2026-08-08.json
CAMPAIGN_BASELINE=CAMPAIGN_2026-08-08.json
LOADGEN_BASELINE=LOADGEN_2026-08-08.json
LOADGEN_TRACE=bench/loadgen_trace.ndjson
LOADGEN_DC_BASELINE=LOADGEN_DC_2026-08-08.json
LOADGEN_DC_TRACE=bench/loadgen_dc_trace.ndjson

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

# doc_get FILE PATH... — print fields of a JSON run document, one per line
doc_get() {
  dune exec -- bin/bfly_tool.exe doc get "$@"
}

# ---- stages ----

stage_build() {
  dune build
}

stage_fmt() {
  if command -v ocamlformat >/dev/null 2>&1; then
    dune build @fmt
  else
    echo "ocamlformat not installed; skipping @fmt check"
  fi
}

stage_runtest() {
  dune runtest
}

# `dune runtest` already runs the smoke battery via the bin/dune rule;
# running it explicitly keeps a visible, non-cached pass in the CI log and
# fails loudly (non-zero exit) on any solver disagreement.
stage_check() {
  dune exec -- bin/bfly_tool.exe check --smoke --seed 42 --rounds 5
  # multilevel partitioner smoke: must produce a validated bisection (the
  # subcommand exits non-zero when the witness fails Invariants) at a size
  # the flat kernels also handle, so regressions surface before the
  # bench-scale sweeps
  dune exec -- bin/bfly_tool.exe bw ml butterfly 64
  # product-network smoke: the heuristic on a small 3-D torus must land
  # exactly on the certified closed form 2N/a_max = 32 (the oracle battery
  # above already runs the full sandwich family; this pins the CLI path)
  out=$(dune exec -- bin/bfly_tool.exe bw ml --graph torus:4x4x4)
  echo "$out"
  case $out in
  *"BW <= 32"*) ;;
  *)
    echo "FAIL: torus:4x4x4 heuristic drifted from the certified width 32" >&2
    exit 1
    ;;
  esac
}

# Same differential suite with every fault class armed (disk I/O errors,
# corrupted cache entries, crashing pool tasks, spurious deadline expiry)
# at a fixed seed: any changed oracle verdict, escaped injected exception,
# or shrunken domain pool fails the run.
stage_chaos() {
  dune exec -- bin/bfly_tool.exe check --smoke --chaos --seed 7 --rounds 5
}

stage_doc() {
  if command -v odoc >/dev/null 2>&1; then
    # every library here is private (no public_name), so the plain @doc
    # alias builds nothing; @doc-private is the alias that renders them
    # all — lib/serve included
    dune build @doc-private
  else
    echo "odoc not installed; skipping @doc-private check"
  fi
}

# Query-service smoke: a small trace with six duplicate requests must
# coalesce into one solve ("batch":6 on every copy), the served output
# must be byte-identical to the one-shot subcommand's stdout, and a
# shrunken admission bound must produce explicit "overloaded" rejections.
stage_serve() {
  trace="$scratch/serve-trace.ndjson"
  out="$scratch/serve-out.ndjson"
  : > "$trace"
  i=1
  while [ "$i" -le 6 ]; do
    echo '{"id":"dup'"$i"'","job":"bw","solver":"kl","network":"butterfly","n":16,"seed":7}' >> "$trace"
    i=$((i + 1))
  done
  echo '{"id":"spec","job":"bw","solver":"spectral","network":"butterfly","n":16}' >> "$trace"
  echo '{"id":"mos","job":"mos","j":8}' >> "$trace"
  echo '{"id":"stats","job":"stats"}' >> "$trace"

  BFLY_CACHE_DIR="$scratch/serve-cache" dune exec -- bin/bfly_tool.exe serve \
    < "$trace" > "$out" 2> "$scratch/serve-err.log"
  cat "$scratch/serve-err.log"

  ok_count=$(grep -c '"ok":true' "$out")
  [ "$ok_count" -eq 9 ] || {
    echo "FAIL: expected 9 ok responses, got $ok_count" >&2
    cat "$out" >&2
    exit 1
  }
  batch6=$(grep -c '"batch":6' "$out")
  [ "$batch6" -eq 6 ] || {
    echo "FAIL: 6 duplicate requests should coalesce into one solve of width 6 (got $batch6 responses with \"batch\":6)" >&2
    cat "$out" >&2
    exit 1
  }

  # byte-identity through the CLI's flag-to-field path: each cold one-shot
  # subcommand's stdout must equal the output field of the matching single
  # served request (doc get prints it with one extra newline). The bw exact
  # request leaves solver to its default.
  while IFS='|' read -r args request; do
    echo "$request" > "$trace"
    BFLY_CACHE_DIR="$scratch/serve-cache" dune exec -- bin/bfly_tool.exe serve \
      < "$trace" > "$out" 2> /dev/null
    doc_get "$out" output < /dev/null > "$scratch/served.txt" || {
      echo "FAIL: $request was not served:" >&2
      cat "$out" >&2
      exit 1
    }
    # shellcheck disable=SC2086 # $args is the subcommand's word list
    dune exec -- bin/bfly_tool.exe $args --no-cache < /dev/null \
      > "$scratch/oneshot.txt"
    echo >> "$scratch/oneshot.txt"
    cmp -s "$scratch/served.txt" "$scratch/oneshot.txt" || {
      echo "FAIL: served output of $request differs from 'bfly_tool $args'" >&2
      diff "$scratch/served.txt" "$scratch/oneshot.txt" >&2 || true
      exit 1
    }
  done <<'PAIRS'
bw ml butterfly 64|{"job":"bw","solver":"ml","network":"butterfly","n":64}
bw exact butterfly 8|{"job":"bw","network":"butterfly","n":8}
expansion mesh:2x4 -k 2 --exact|{"job":"expansion","network":"mesh:2x4","k":2,"exact":true}
mos 8|{"job":"mos","j":8}
PAIRS

  # admission control: 10 distinct jobs against a queue bound of 2 — the
  # transport reads the whole burst before solving, so exactly 8 must be
  # rejected with "overloaded"
  : > "$trace"
  j=1
  while [ "$j" -le 10 ]; do
    echo '{"id":"q'"$j"'","job":"mos","j":'"$j"'}' >> "$trace"
    j=$((j + 1))
  done
  BFLY_CACHE_DIR="$scratch/serve-cache" dune exec -- \
    bin/bfly_tool.exe serve --queue 2 < "$trace" > "$out" 2> /dev/null
  rejected=$(grep -c '"error":"overloaded"' "$out")
  [ "$rejected" -eq 8 ] || {
    echo "FAIL: queue bound 2 against 10 requests should reject 8, got $rejected" >&2
    cat "$out" >&2
    exit 1
  }

  # concurrent TCP smoke: a live server on an ephemeral port, 4 clients
  # replaying the committed trace concurrently. The replay's response
  # payloads must be byte-identical to the sequential in-process replay
  # of the same schedule (loadgen --compare diffs the fingerprints), and
  # SIGTERM must drain cleanly: exit 0 and a summary line on stderr.
  port_file="$scratch/serve-port"
  BFLY_CACHE_DIR="$scratch/serve-cache" dune exec -- bin/bfly_tool.exe serve \
    --tcp 127.0.0.1:0 --port-file "$port_file" \
    > /dev/null 2> "$scratch/serve-tcp.log" &
  serve_pid=$!
  i=0
  while [ ! -s "$port_file" ] && [ "$i" -lt 100 ]; do
    sleep 0.1
    i=$((i + 1))
  done
  [ -s "$port_file" ] || {
    echo "FAIL: serve --tcp never wrote its port file" >&2
    cat "$scratch/serve-tcp.log" >&2
    exit 1
  }
  addr=$(cat "$port_file")
  BFLY_CACHE_DIR="$scratch/serve-cache" dune exec -- bin/bfly_tool.exe \
    loadgen --trace "$LOADGEN_TRACE" --seed 2 --clients 4 --repeat 3 \
    --sequential --json "$scratch/lg-seq.json" > /dev/null
  BFLY_CACHE_DIR="$scratch/serve-cache" dune exec -- bin/bfly_tool.exe \
    loadgen --trace "$LOADGEN_TRACE" --seed 2 --clients 4 --repeat 3 \
    --connect "tcp:$addr" --compare "$scratch/lg-seq.json" --no-timing \
    > /dev/null || {
    echo "FAIL: concurrent TCP replay drifted from the sequential replay" >&2
    cat "$scratch/serve-tcp.log" >&2
    exit 1
  }
  kill -TERM "$serve_pid"
  wait "$serve_pid" || {
    echo "FAIL: serve --tcp did not drain cleanly on SIGTERM" >&2
    cat "$scratch/serve-tcp.log" >&2
    exit 1
  }
  grep -q "served" "$scratch/serve-tcp.log" || {
    echo "FAIL: drained server logged no summary line" >&2
    cat "$scratch/serve-tcp.log" >&2
    exit 1
  }
  echo "serve: coalescing, byte-identity, admission control and TCP drain OK"
}

# Deterministic load replay and the latency regression gate. Three parts:
# the committed baseline's deterministic fields (schedule and output
# fingerprints) must be reproducible on any machine; a self-recorded
# baseline must gate p99/throughput within the slack factor on this
# machine; and when the box has enough cores, concurrent serving must
# actually outrun the sequential replay.
stage_loadgen() {
  # cross-machine deterministic gate against the committed document
  BFLY_CACHE_DIR="$scratch/lg-cache" dune exec -- bin/bfly_tool.exe \
    loadgen --trace "$LOADGEN_TRACE" --seed 1 --clients 4 --repeat 10 \
    --compare "$LOADGEN_BASELINE" --no-timing > /dev/null
  # data-center mix: the fabric-job trace (ml/exact/spectral on meshes,
  # tori, bcubes, plus malformed-request probes) against its own
  # committed baseline — deterministic fields only, cross-machine
  BFLY_CACHE_DIR="$scratch/lg-dc-cache" dune exec -- bin/bfly_tool.exe \
    loadgen --trace "$LOADGEN_DC_TRACE" --seed 1 --clients 4 --repeat 10 \
    --compare "$LOADGEN_DC_BASELINE" --no-timing > /dev/null
  # same-machine latency gate: record, re-run, compare with slack — this
  # is the stage that fails on an injected p99/throughput regression
  BFLY_CACHE_DIR="$scratch/lg-cache" dune exec -- bin/bfly_tool.exe \
    loadgen --trace "$LOADGEN_TRACE" --seed 1 --clients 4 --repeat 10 \
    --json "$scratch/lg-here.json" > /dev/null
  BFLY_CACHE_DIR="$scratch/lg-cache" dune exec -- bin/bfly_tool.exe \
    loadgen --trace "$LOADGEN_TRACE" --seed 1 --clients 4 --repeat 10 \
    --compare "$scratch/lg-here.json" --slack 5 > /dev/null
  # concurrency speedup: 4 workers vs the 1-domain sequential replay,
  # cold caches both sides. Only meaningful with real cores to spread
  # over, so it is guarded — laptops and 1-core runners skip it.
  cores=$(nproc 2>/dev/null || echo 1)
  if [ "$cores" -ge 4 ]; then
    BFLY_DOMAINS=1 dune exec -- bin/bfly_tool.exe loadgen \
      --trace "$LOADGEN_TRACE" --seed 3 --clients 4 --repeat 3 \
      --sequential --no-cache --json "$scratch/lg-1.json" > /dev/null
    BFLY_DOMAINS=4 dune exec -- bin/bfly_tool.exe loadgen \
      --trace "$LOADGEN_TRACE" --seed 3 --clients 4 --repeat 3 \
      --workers 4 --no-cache --json "$scratch/lg-4.json" > /dev/null
    seq_qps=$(doc_get "$scratch/lg-1.json" timing/achieved_qps)
    conc_qps=$(doc_get "$scratch/lg-4.json" timing/achieved_qps)
    echo "sequential $seq_qps qps; 4-worker concurrent $conc_qps qps"
    awk "BEGIN { exit !($conc_qps >= 2 * $seq_qps) }" || {
      echo "FAIL: 4 workers did not reach 2x the sequential throughput" >&2
      exit 1
    }
  else
    echo "skipping speedup check ($cores cores < 4)"
  fi
  echo "loadgen: deterministic replay and latency gate OK"
}

# Campaign smoke: replay a small sub-grid of the committed full campaign
# at one domain with a fresh cache. The determinism contract makes the
# sub-grid's per-instance [edges, certified LB, ml, spectral] rows
# byte-comparable against the committed document (--compare exits
# non-zero on any drift), and the per-instance statistical oracle must
# stay green. The JSON lands in _build/ so the workflow can upload it as
# a per-compiler artifact.
stage_campaign() {
  mkdir -p _build
  BFLY_DOMAINS=1 BFLY_CACHE_DIR="$scratch/campaign-cache" dune exec -- \
    bin/bfly_tool.exe campaign --degree 3 --sizes 64,128 --seeds 3 \
    --json _build/campaign_smoke.json --compare "$CAMPAIGN_BASELINE"
}

# Warm-cache determinism: run the bench smoke suite twice against a fresh
# result-cache directory. The second (warm) run must serve from the cache
# — nonzero cache.hit, zero exact B&B search nodes in the gate snapshot —
# and both runs must produce byte-identical measured values.
stage_warm() {
  BFLY_CACHE_DIR="$scratch/cache" dune exec -- bench/main.exe --smoke \
    --json "$scratch/cold.json" --values "$scratch/cold-values.json" \
    > "$scratch/cold.log"
  BFLY_CACHE_DIR="$scratch/cache" dune exec -- bench/main.exe --smoke \
    --json "$scratch/warm.json" --values "$scratch/warm-values.json" \
    > "$scratch/warm.log"

  cmp "$scratch/cold-values.json" "$scratch/warm-values.json" || {
    echo "FAIL: warm-cache run changed measured values" >&2
    exit 1
  }

  # the pre-Bechamel "gate" snapshot, not the post-Bechamel "metrics"
  # dump, whose micro-benchmark iterations keep ticking the counters
  cold_nodes=$(doc_get "$scratch/cold.json" gate/exact.bb.nodes)
  warm_nodes=$(doc_get "$scratch/warm.json" gate/exact.bb.nodes)
  warm_hits=$(doc_get "$scratch/warm.json" gate/cache.hit)
  warm_misses=$(doc_get "$scratch/warm.json" gate/cache.miss)
  echo "cold: bb nodes $cold_nodes; warm: bb nodes $warm_nodes," \
    "cache hits $warm_hits, misses $warm_misses"
  [ "$cold_nodes" -gt 0 ] || {
    echo "FAIL: cold run did not search (bb nodes = $cold_nodes)" >&2
    exit 1
  }
  [ "$warm_hits" -gt 0 ] || {
    echo "FAIL: warm run had no cache hits" >&2
    exit 1
  }
  [ "$warm_nodes" -eq 0 ] || {
    echo "FAIL: warm run re-searched (bb nodes = $warm_nodes)" >&2
    exit 1
  }
}

# Deadline/resume determinism: an exact search interrupted by a step
# budget must return a certified interval, and resuming from its
# checkpoint must land on the same value an uninterrupted run computes.
stage_resume() {
  baseline=$(BFLY_CACHE_DIR="$scratch/exact-a" dune exec -- \
    bin/bfly_tool.exe bw exact butterfly 8)
  baseline_bw=${baseline##* = }
  echo "baseline: $baseline"

  first=$(BFLY_CACHE_DIR="$scratch/exact-b" dune exec -- \
    bin/bfly_tool.exe bw exact butterfly 8 --max-nodes 200)
  echo "budgeted: $first"
  case $first in
  *"BW in ["*)
    resumed=$(BFLY_CACHE_DIR="$scratch/exact-b" dune exec -- \
      bin/bfly_tool.exe bw exact butterfly 8 --resume)
    echo "resumed:  $resumed"
    resumed_bw=${resumed##* = }
    [ "$resumed_bw" = "$baseline_bw" ] || {
      echo "FAIL: resumed value '$resumed_bw' != baseline '$baseline_bw'" >&2
      exit 1
    }
    ;;
  *"BW = $baseline_bw"*)
    # the budget sufficed outright; the determinism claim is trivially met
    echo "budgeted run completed within budget"
    ;;
  *)
    echo "FAIL: unexpected budgeted output '$first'" >&2
    exit 1
    ;;
  esac
}

# Counter-based regression gate: re-run the deterministic bench stages
# (full reproduction tables + oracle battery, no Bechamel) and diff
# experiment outputs, gate counters and the oracle summary against the
# committed baseline. The domain count and cache state are pinned because
# both feed the compared counters.
stage_compare() {
  BFLY_DOMAINS=1 BFLY_CACHE_DIR="$scratch/compare-cache" dune exec -- \
    bench/main.exe --compare "$BASELINE" > "$scratch/compare.log" || {
    tail -n 20 "$scratch/compare.log" >&2
    exit 1
  }
  tail -n 1 "$scratch/compare.log"
}

# The benchmark's own tests: BENCHMARK.json keeps its contract and
# matches perfbench/metrics.json, the serve schedule is a pure function
# of the seed, and a run fed a wrong output or a wrong probe answer is
# marked failed.
stage_perfbench() {
  python3 perfbench/test_bench.py
}

# ---- driver ----

case "${1-}" in
list)
  echo "$ALL_STAGES"
  exit 0
  ;;
esac

stages="$*"
[ -n "$stages" ] || stages=$ALL_STAGES
for s in $stages; do
  case " $ALL_STAGES " in
  *" $s "*) ;;
  *)
    echo "unknown stage '$s' (available: $ALL_STAGES)" >&2
    exit 2
    ;;
  esac
done

summary=""
for s in $stages; do
  echo "== $s =="
  t0=$(date +%s)
  "stage_$s"
  t1=$(date +%s)
  summary="$summary$(printf '  %-8s %4ds' "$s" $((t1 - t0)))
"
  # Under GitHub Actions, accumulate the same timings as one markdown
  # table in the job summary. The workflow runs one stage per step, each
  # a fresh ci.sh process, so the header is written only when the
  # summary file is still empty — later steps append bare rows and the
  # table joins up across steps.
  if [ -n "${GITHUB_STEP_SUMMARY-}" ]; then
    if [ ! -s "$GITHUB_STEP_SUMMARY" ]; then
      printf '| stage | wall |\n| --- | ---: |\n' >> "$GITHUB_STEP_SUMMARY"
    fi
    printf '| %s | %ss |\n' "$s" $((t1 - t0)) >> "$GITHUB_STEP_SUMMARY"
  fi
done

echo "---- stage timings ----"
printf '%s' "$summary"
echo "CI OK"
