#!/usr/bin/env bash
# Local CI: release build + full test suite, sanitizer passes (ASan, UBSan,
# TSan — each pure, in its own build directory), a perf smoke over the
# matching kernels, a multi-core scaling check over the sharded batch
# dispatch pipeline, the end-to-end benchmark's delivery oracle, the
# gryphon-analyze invariant leg, and the lint leg (clang-tidy). See
# docs/static-analysis.md for the full matrix.
#
#   tools/ci.sh             # release + asan + ubsan + tsan + chaos +
#                           # failover + perf + scaling + churn + sim-scale +
#                           # e2e + analyze + lint
#   tools/ci.sh release     # just the release leg
#   tools/ci.sh tsan        # just the ThreadSanitizer leg
#   tools/ci.sh asan ubsan  # any subset, in order
#   tools/ci.sh chaos       # fault-injection sweep over extra seeds
#   tools/ci.sh failover    # broker-kill/promote sweep under ASan + bench gate
#   tools/ci.sh scaling     # mt_throughput sharded-dispatch scaling check
#   tools/ci.sh churn       # covering/delta control-plane churn check
#   tools/ci.sh sim-scale   # parallel sim engine: equivalence + scale sweep
#   tools/ci.sh e2e         # end-to-end benchmark: self-test + oracle runs
#   tools/ci.sh analyze     # gryphon-analyze self-test + live-tree run
#
# The TSan leg runs the tests labeled `concurrency` (the snapshot /
# worker-pipeline races are what TSan is here to catch); the ASan, UBSan
# and release legs run everything. The perf leg reuses the release build to
# run micro_bench on the compiled-vs-mutable kernel pair plus the
# standalone compiled_pst_bench, leaving BENCH_micro_kernels.json and
# BENCH_compiled_pst.json at the repo root as uploadable artifacts. The
# analyze leg runs tools/analyze (plane purity, lock order, hot-path
# allocations, protocol exhaustiveness) with its dependency-free fallback
# frontend as the gate, repeats the run on the libclang frontend when
# clang.cindex is importable, and leaves gryphon-analyze-findings.json as
# an uploadable artifact. The lint leg runs clang-tidy when the binary
# exists (any diagnostic fails) and is skipped with a notice otherwise, so
# it degrades gracefully on GCC-only hosts.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
if [[ $# -gt 0 ]]; then
  LEGS=("$@")
else
  LEGS=(release asan ubsan tsan chaos failover perf scaling churn sim-scale e2e analyze lint)
fi

# NOLINT budget enforced alongside clang-tidy (policy in .clang-tidy). The
# tree is currently NOLINT-free; raising this requires a written
# justification next to the new marker.
NOLINT_BUDGET=0

run_analyze() {
  echo "=== [analyze] gryphon-analyze fixture self-test ==="
  python3 tools/test_analyze.py

  echo "=== [analyze] gryphon-analyze over the live tree (fallback frontend) ==="
  python3 tools/analyze/gryphon_analyze.py --root . --frontend fallback \
    --json gryphon-analyze-findings.json

  if python3 -c "import clang.cindex" >/dev/null 2>&1; then
    echo "=== [analyze] gryphon-analyze over the live tree (libclang frontend) ==="
    cmake -B build -S . >/dev/null  # compile_commands.json for the cindex args
    python3 tools/analyze/gryphon_analyze.py --root . --frontend cindex \
      --json gryphon-analyze-findings.json
  else
    echo "=== [analyze] clang.cindex not importable; libclang pass skipped ==="
    echo "    (install python3-clang to run both frontends)"
  fi
  echo "analyze artifact: gryphon-analyze-findings.json"
}

run_e2e() {
  # The end-to-end benchmark (e2ebench/, BENCHMARK.json) drives live broker
  # networks and checks every delivery against an oracle; a run exits
  # non-zero on any missing, duplicate or spurious delivery, a failed
  # subscribe, or generator lag past its limit. The self-test first proves
  # the oracle rejects injected faults, then one short run per gated
  # workload puts that oracle in front of every broker change.
  echo "=== [e2e] end-to-end benchmark self-test ==="
  python3 e2ebench/run.py --selftest
  local workload
  for workload in pair-tcp-fanout line3-churn; do
    echo "=== [e2e] $workload: 5 s oracle-checked run ==="
    python3 e2ebench/run.py --workload "$workload" --seconds 5 --trace 0
  done
}

run_lint() {
  echo "=== [lint] configure (compilation database) ==="
  cmake -B build -S . >/dev/null

  echo "=== [lint] NOLINT budget (max $NOLINT_BUDGET) ==="
  local nolints
  nolints=$(grep -rn 'NOLINT(' src/ --include='*.h' --include='*.cpp' | wc -l)
  echo "NOLINT markers in src/: $nolints"
  if (( nolints > NOLINT_BUDGET )); then
    echo "ci.sh: NOLINT budget exceeded ($nolints > $NOLINT_BUDGET)" >&2
    exit 1
  fi

  if command -v clang-tidy >/dev/null 2>&1; then
    echo "=== [lint] clang-tidy over src/ ==="
    local srcs
    mapfile -t srcs < <(find src -name '*.cpp' | sort)
    # --warnings-as-errors in .clang-tidy mirrors Checks: any diagnostic is
    # a non-zero exit. --quiet keeps the output to the diagnostics.
    if command -v run-clang-tidy >/dev/null 2>&1; then
      run-clang-tidy -p build -quiet "${srcs[@]}"
    else
      clang-tidy -p build --quiet "${srcs[@]}"
    fi
  else
    echo "=== [lint] clang-tidy not found; skipping the tidy pass ==="
    echo "    (install clang-tidy to run the full lint leg)"
  fi
}

run_leg() {
  local leg="$1" dir sanitize
  case "$leg" in
    release) dir=build          sanitize=""          ;;
    asan)    dir=build-asan     sanitize="address"   ;;
    ubsan)   dir=build-ubsan    sanitize="undefined" ;;
    tsan)    dir=build-tsan     sanitize="thread"    ;;
    chaos)   dir=build          sanitize=""          ;;
    failover) dir=build-asan    sanitize="address"   ;;
    perf)    dir=build          sanitize=""          ;;
    scaling) dir=build          sanitize=""          ;;
    churn)   dir=build          sanitize=""          ;;
    sim-scale) dir=build        sanitize=""          ;;
    e2e)     run_e2e; return ;;
    analyze) run_analyze; return ;;
    lint)    run_lint; return ;;
    *)
      echo "ci.sh: unknown leg '$leg' (release|asan|ubsan|tsan|chaos|failover|perf|scaling|churn|sim-scale|e2e|analyze|lint)" >&2
      exit 2
      ;;
  esac

  echo "=== [$leg] configure + build ==="
  cmake -B "$dir" -S . -DGRYPHON_SANITIZE="$sanitize" >/dev/null
  cmake --build "$dir" -j "$JOBS"

  if [[ "$leg" == chaos ]]; then
    # Fault-injection sweep (docs/fault-tolerance.md): the chaos suite runs
    # its three baked-in seeds every time; GRYPHON_CHAOS_SEED adds one more
    # per pass, so this leg widens the explored fault schedules on every
    # run while staying reproducible from the log.
    # Run the binary directly: ctest pins --gtest_filter to the test names
    # discovered at build time, which would silently skip the env seed's
    # instantiations.
    for seed in 11 42 20260806; do
      echo "=== [chaos] fault-injection suite, extra seed $seed ==="
      GRYPHON_CHAOS_SEED="$seed" "$dir/tests/chaos_tests"
    done
    return
  fi

  if [[ "$leg" == failover ]]; then
    # Broker-kill failover sweep (docs/fault-tolerance.md § Replication):
    # kill the middle broker of the line mid-run with a hot standby
    # attached, promote it, redial the neighbors, and hold the exactly-once
    # multiset oracle. Runs under ASan so the promotion / log-rebase /
    # identity-takeover paths are watched for lifetime bugs; the five
    # baked-in seeds run in every suite pass and GRYPHON_CHAOS_SEED widens
    # the sweep here (binary run directly, same reason as the chaos leg).
    for seed in 7 1337 20260809; do
      echo "=== [failover] broker-kill/promote sweep, extra seed $seed ==="
      GRYPHON_CHAOS_SEED="$seed" "$dir/tests/chaos_tests" \
        --gtest_filter='*FailoverChaosTest*'
    done
    echo "=== [failover] failover_bench: hot-path delta + promote cost ==="
    # Trimmed point; the bench exits non-zero itself when a trial's
    # redelivered multiset diverges from the retained-delivery oracle.
    "$dir/bench/failover_bench" 300 10
    python3 - <<'PY'
import json, sys
data = json.load(open("BENCH_failover.json"))
fo = data["failover"]
if not fo["valid"]:
    print(f"[failover] FAIL: {fo['invalid_reason']}", file=sys.stderr)
    sys.exit(1)
print(f"[failover] {fo['trials']} trials: promote p50 "
      f"{fo['promote_p50_us']:.1f} us, first redelivery p50 "
      f"{fo['first_redelivery_p50_us']:.1f} us; publish-path p50 overhead "
      f"{data['publish_path']['p50_overhead_ratio']:.2f}x")
PY
    echo "failover artifact: BENCH_failover.json"
    return
  fi

  if [[ "$leg" == perf ]]; then
    echo "=== [perf] kernel smoke: micro_bench compiled vs mutable ==="
    "$dir/bench/micro_bench" \
      --benchmark_filter='PstMatch(Compiled|Mutable)' \
      --benchmark_min_time=0.2 \
      --benchmark_out=BENCH_micro_kernels.json \
      --benchmark_out_format=json
    echo "=== [perf] kernel smoke: compiled_pst_bench ==="
    # Trimmed point (2k subs, few passes) — the smoke guards against the
    # compiled path regressing below the mutable walk, not absolute numbers;
    # run the binary with no args for the full 10k acceptance measurement.
    "$dir/bench/compiled_pst_bench" 2000 500 5
    echo "=== [perf] dispatch smoke: mt_throughput sharded batch pipeline ==="
    # Trimmed sweep (2k subs, 200ms/point, threads capped at nproc). The
    # regression comparison — parallel points must not fall below the
    # single-thread baseline — is only meaningful on hosts that can run the
    # points in parallel, so it is skipped with a notice whenever the bench
    # reports scaling_valid:false (the JSON then carries
    # results_invalid_reason instead of speedups).
    "$dir/bench/mt_throughput" 2000 200 "$(nproc)"
    python3 - <<'PY'
import json, sys
data = json.load(open("BENCH_mt_throughput.json"))
if not data["scaling_valid"]:
    print(f"[perf] scaling_valid=false, skipping regression comparison: "
          f"{data['results_invalid_reason']}")
    sys.exit(0)
regressed = [p for p in data["results"] if p.get("speedup_vs_1", 1.0) < 0.9]
for p in regressed:
    print(f"[perf] REGRESSION: {p['threads']} threads ran at "
          f"{p['speedup_vs_1']:.2f}x the single-thread baseline", file=sys.stderr)
sys.exit(1 if regressed else 0)
PY
    echo "perf artifacts: BENCH_micro_kernels.json BENCH_compiled_pst.json BENCH_mt_throughput.json"
    return
  fi

  if [[ "$leg" == scaling ]]; then
    # Multi-core scaling acceptance for the sharded batch data plane:
    # >= 2x at 4 threads/4 shards, asserted only where the claim is
    # honest — scaling_valid:true and at least 4 hardware threads. On
    # smaller hosts the leg still runs the sweep (exercising the batch
    # pipeline) but reports why no scaling claim is checked.
    echo "=== [scaling] mt_throughput, threads capped at hardware concurrency ==="
    "$dir/bench/mt_throughput" 5000 500 "$(nproc)"
    python3 - <<'PY'
import json, sys
data = json.load(open("BENCH_mt_throughput.json"))
hw = data["hardware_concurrency"]
if not data["scaling_valid"]:
    print(f"[scaling] no claim checked: {data['results_invalid_reason']}")
    sys.exit(0)
if hw < 4:
    print(f"[scaling] no claim checked: only {hw} hardware threads (need >= 4 "
          f"for the 4-shard acceptance point)")
    sys.exit(0)
point = next((p for p in data["results"] if p["threads"] == 4), None)
if point is None:
    print("[scaling] no 4-thread point in the sweep", file=sys.stderr)
    sys.exit(1)
speedup = point["speedup_vs_1"]
print(f"[scaling] 4 threads / 4 shards: {speedup:.2f}x vs single thread "
      f"(per-shard events: {point['per_shard_events']})")
if speedup < 2.0:
    print(f"[scaling] FAIL: expected >= 2.0x at 4 shards, got {speedup:.2f}x",
          file=sys.stderr)
    sys.exit(1)
PY
    return
  fi

  if [[ "$leg" == churn ]]; then
    # Control-plane churn acceptance for the covering/delta work, gated on
    # the statistics that are stable run-to-run:
    #   1. The delta-compile p50 must sit >= 5x below the full-recompile
    #      p50 at the 100k point — a ratio over the identical op sequence
    #      on the same host, valid on any hardware, and far from the
    #      boundary (observed ~75-100x; a broken segment-reuse path
    #      collapses it to ~1x). The p99 ratio is reported (and asserted
    #      >= 5x in the full BENCH_churn.json artifact) but not gated
    #      here: the delta tail is dominated by rare mass-demotion ops,
    #      so a 120-op CI sample puts 3-4x run-to-run noise on it.
    #   2. The full-recompile p50 (the freeze+compile pipeline itself,
    #      stable within a few percent) must not regress >20% over
    #      tools/churn_baseline.json. Absolute latency only compares
    #      within like hardware, so this gate is skipped with a notice
    #      when the host's hardware_concurrency differs from the
    #      baseline's — the same honesty rule as the scaling leg.
    # Trimmed sweep (10k + 100k points); run churn_bench with no
    # arguments for the full 1M acceptance measurement.
    echo "=== [churn] control-plane churn: covering + delta compilation ==="
    "$dir/bench/churn_bench" 100000 60 1.0
    python3 - <<'PY'
import json, sys
data = json.load(open("BENCH_churn.json"))
base = json.load(open("tools/churn_baseline.json"))
point = next((s for s in data["sizes"]
              if s["subscriptions"] == base["subscriptions"]), None)
if point is None:
    print(f"[churn] no {base['subscriptions']}-subscription point in the sweep",
          file=sys.stderr)
    sys.exit(1)
full_p50 = point["full"]["compile_p50_us"]
delta_p50 = point["delta"]["compile_p50_us"]
speedup = full_p50 / delta_p50 if delta_p50 > 0 else 0.0
print(f"[churn] {base['subscriptions']} subs: delta compile p50 "
      f"{delta_p50:.0f} us vs full recompile {full_p50:.0f} us "
      f"({speedup:.1f}x; p99 ratio {point['compile_p99_speedup']:.1f}x)")
if speedup < 5.0:
    print(f"[churn] FAIL: delta compile p50 must be >= 5x below the full "
          f"recompile, got {speedup:.1f}x", file=sys.stderr)
    sys.exit(1)
hw = data["hardware_concurrency"]
if hw != base["hardware_concurrency"]:
    print(f"[churn] absolute-latency regression gate skipped: host has {hw} "
          f"hardware threads, baseline was recorded with "
          f"{base['hardware_concurrency']}")
    sys.exit(0)
limit = base["full_compile_p50_us"] * 1.2
if full_p50 > limit:
    print(f"[churn] REGRESSION: full-recompile p50 {full_p50:.0f} us exceeds "
          f"the baseline {base['full_compile_p50_us']:.0f} us by more than 20%",
          file=sys.stderr)
    sys.exit(1)
print(f"[churn] full-recompile p50 {full_p50:.0f} us within 20% of the "
      f"baseline {base['full_compile_p50_us']:.0f} us")
PY
    echo "churn artifact: BENCH_churn.json"
    return
  fi

  if [[ "$leg" == sim-scale ]]; then
    # Parallel discrete-event engine acceptance on the reduced (~200 broker)
    # sweep: every (point, protocol) pair must report the serial and
    # parallel engine runs bit-identical (same_outcome over all
    # deterministic SimResult fields) and a clean delivery oracle. The
    # >= 2x parallel speedup claim is asserted only where it is honest —
    # scaling_valid:true, which the bench grants only on hosts with >= 4
    # hardware threads; elsewhere the JSON records the reason instead.
    echo "=== [sim-scale] sim_scale_bench reduced sweep ==="
    "$dir/bench/sim_scale_bench" --ci --out BENCH_sim_scale.json
    python3 - <<'PY'
import json, sys
data = json.load(open("BENCH_sim_scale.json"))
rows = [(p["name"], r) for p in data["points"] for r in p["protocols"]]
bad_eq = [(n, r["protocol"]) for n, r in rows if not r["serial_parallel_identical"]]
bad_oracle = [(n, r["protocol"]) for n, r in rows
              if r["missing_deliveries"] or r["spurious_deliveries"]
              or r["duplicate_deliveries"]]
for n, proto in bad_eq:
    print(f"[sim-scale] FAIL: serial != parallel at {n}/{proto}", file=sys.stderr)
for n, proto in bad_oracle:
    print(f"[sim-scale] FAIL: delivery oracle violated at {n}/{proto}", file=sys.stderr)
if bad_eq or bad_oracle:
    sys.exit(1)
print(f"[sim-scale] {len(rows)} (point, protocol) runs: serial/parallel identical, "
      f"oracle clean")
if not data["scaling_valid"]:
    print(f"[sim-scale] speedup claim skipped: {data['scaling_reason']}")
    sys.exit(0)
wan = next(p for p in data["points"] if p["name"].startswith("wan"))
lm = next(r for r in wan["protocols"] if r["protocol"] == "link-matching")
print(f"[sim-scale] {wan['name']} link-matching: {lm['speedup']:.2f}x with "
      f"{data['parallel_threads']} threads")
if lm["speedup"] < 2.0:
    print(f"[sim-scale] FAIL: expected >= 2.0x parallel speedup, got "
          f"{lm['speedup']:.2f}x", file=sys.stderr)
    sys.exit(1)
PY
    echo "sim-scale artifact: BENCH_sim_scale.json"
    return
  fi

  echo "=== [$leg] test ==="
  if [[ "$leg" == tsan ]]; then
    # TSan slows execution ~10x; run only the tests labeled for it.
    TSAN_OPTIONS="halt_on_error=1" \
      ctest --test-dir "$dir" --output-on-failure -L concurrency
  else
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
  fi
}

for leg in "${LEGS[@]}"; do
  run_leg "$leg"
done
echo "ci.sh: all legs passed"
