#!/usr/bin/env bash
# Six-way verification matrix (DESIGN.md Sec 8 "Verification"):
#
#   1. plain       RelWithDebInfo build + full ctest (tier-1)
#   2. asan-ubsan  AddressSanitizer + UndefinedBehaviorSanitizer, -Werror
#   3. tsan        ThreadSanitizer over the concurrency-sensitive suites
#   4. tsa         clang -Werror=thread-safety over the util/mutex.h
#                  capability annotations + the negative-compile ctest;
#                  skipped (with a notice) when clang++ is not installed —
#                  GCC has no thread-safety analysis
#   5. lint        bate_lint (always) + clang-tidy (when installed)
#   6. bench-smoke the controller-loop benchmark first (perfbench/run.py
#                  --selftest, then one short run of every BENCHMARK.json
#                  workload at --trace 0 and one at --trace 1, the traced
#                  pass whose stage sums need every event's span path; any
#                  non-zero exit, including a failed output check, fails
#                  the leg; the traced steady_testbed6 run must read
#                  solver.warm_hit_ratio >= 0.9 and solver.pivots_per_round
#                  <= 300); bench_solver + bench_milp with a
#                  tiny rep count; validates the emitted BENCH json against
#                  the schema (tools/bench_report.h), diffs both against the
#                  committed baselines (timing for the solver bench; node
#                  counts and warm timing for the MILP bench) and holds each
#                  scheduler-construction case under a CPU ceiling; bench_system
#                  at a reduced arrival count with an absolute floor on
#                  admissions/sec and a ceiling on p99 reply latency; the
#                  SLO-ledger crosscheck gate (measured availability must
#                  match the shared simulator arithmetic within 1e-9 across
#                  a link-flap chaos run that degrades at least one
#                  demand); bate_top --once --json --check
#                  against a live --serve stack; then runs the obs-overhead
#                  gate (bench_solver --obs-overhead: with metrics, the SLO
#                  ledger and the time-series store enabled, the median
#                  per-pair on/off ratio over alternating-order pairs must
#                  stay within 3% of BATE_OBS_OFF=1, DESIGN.md Sec 9)
#
# Every leg uses the CMakePresets.json presets, so a CI runner and a
# developer shell run the identical configuration. Legs can be selected:
#   tools/ci.sh            # all six
#   tools/ci.sh plain tsa  # just those
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT=$PWD

legs=("$@")
if [ ${#legs[@]} -eq 0 ]; then
  legs=(plain asan-ubsan tsan tsa lint bench-smoke)
fi

banner() { printf '\n=== ci.sh: %s ===\n' "$*"; }

run_preset() {  # <configure-preset> [ctest args...]
  local preset=$1; shift
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$(nproc)"
  ctest --preset "$preset" "$@"
}

for leg in "${legs[@]}"; do
  case "$leg" in
    plain)
      banner "plain RelWithDebInfo + full ctest"
      run_preset dev
      ;;
    asan-ubsan)
      banner "AddressSanitizer + UBSan"
      run_preset asan-ubsan
      ;;
    tsan)
      banner "ThreadSanitizer (concurrency suites)"
      run_preset tsan
      ;;
    tsa)
      if command -v clang++ >/dev/null 2>&1; then
        banner "Thread Safety Analysis (clang -Werror=thread-safety)"
        run_preset tsa
      else
        echo "ci.sh: clang++ not installed; skipping the tsa leg (GCC has" \
             "no thread-safety analysis)" >&2
      fi
      ;;
    lint)
      banner "bate_lint"
      cmake --preset dev
      cmake --build --preset dev -j "$(nproc)" --target bate_lint
      "build/dev/tools/bate_lint" "$ROOT"
      if command -v clang-tidy >/dev/null 2>&1; then
        banner "clang-tidy (tidy preset)"
        cmake --preset tidy
        cmake --build --preset tidy -j "$(nproc)"
      else
        echo "ci.sh: clang-tidy not installed; skipping the tidy leg" >&2
      fi
      ;;
    bench-smoke)
      banner "perfbench: selftest + one untraced and one traced run per BENCHMARK.json workload"
      python3 perfbench/run.py --selftest
      for workload in $(python3 -c 'import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$ROOT/BENCHMARK.json"); do
        for trace in 0 1; do
          result=$(python3 perfbench/run.py --workload "$workload" \
            --seconds 25 --trace "$trace" --seed 9001)
          printf '%s\n' "$result"
          if [ "$workload" = steady_testbed6 ] && [ "$trace" = 1 ]; then
            # Restart gate: each scheduling round after the first restarts
            # from the previous round's basis, translated by demand
            # identity (DESIGN.md Sec 5.1). Cold rounds read 0 and about
            # 611 pivots per round; restarts read 1 and under 200.
            printf '%s\n' "$result" | tail -n 1 | python3 -c '
import json, sys
m = json.loads(sys.stdin.read())["metrics"]
hit = m["solver.warm_hit_ratio"]["value"]
pivots = m["solver.pivots_per_round"]["value"]
print("restart gate: warm_hit_ratio %.3f (>= 0.9), pivots_per_round %.1f (<= 300)"
      % (hit, pivots))
sys.exit(0 if hit >= 0.9 and pivots <= 300 else 1)'
          fi
        done
      done
      banner "bench-smoke (bench_solver + bench_milp --reps 1 + schema validation)"
      cmake --preset dev
      cmake --build --preset dev -j "$(nproc)" --target bench_solver bench_milp bench_report_tool
      smoke_json=$(mktemp /tmp/BENCH_solver_smoke.XXXXXX.json)
      "build/dev/bench/bench_solver" --reps 1 --out "$smoke_json"
      "build/dev/bench/bench_solver" --validate "$smoke_json"
      if [ -f "$ROOT/BENCH_solver.json" ]; then
        # Regression gate against the committed baseline. The threshold is
        # deliberately loose (3.0 = 4x slower): a --reps 1 run on a loaded
        # CI box is noisy, and the gate only needs to catch order-of-
        # magnitude perf mistakes; the committed BENCH files carry the real
        # trajectory.
        "build/dev/tools/bench_report" --compare "$ROOT/BENCH_solver.json" \
          "$smoke_json" --max-regress 3.0
      fi
      # Per-case ceiling on scheduler construction at y=3 (the construct_*
      # cases are the only ones carrying cpu_ms). The median gate above
      # passes a slowdown confined to five of its cases, such as a return
      # of the 2^|U| pattern enumeration: IBM and FITI took 160 and 507 ms
      # of CPU with it, about 21 and 14 ms without, and ATT, the slowest case
      # now, takes about 32 ms.
      "build/dev/tools/bench_report" --max "$smoke_json" \
        --metric cpu_ms --ceiling 120
      rm -f "$smoke_json"
      smoke_json=$(mktemp /tmp/BENCH_milp_smoke.XXXXXX.json)
      "build/dev/bench/bench_milp" --reps 1 --out "$smoke_json"
      "build/dev/bench/bench_milp" --validate "$smoke_json"
      if [ -f "$ROOT/BENCH_milp.json" ]; then
        # Search-quality gate: node counts are deterministic, so the median
        # per-case growth over the committed baseline is a tight 0.5 (fail
        # beyond 1.5x more nodes) — a branching or cut regression shows up
        # here long before it shows up in wall time. The timing gate mirrors
        # the solver bench's loose 3.0 for --reps 1 noise on a loaded box.
        "build/dev/tools/bench_report" --compare "$ROOT/BENCH_milp.json" \
          "$smoke_json" --metric nodes --max-regress 0.5
        "build/dev/tools/bench_report" --compare "$ROOT/BENCH_milp.json" \
          "$smoke_json" --metric warm_median_ms --max-regress 3.0
      fi
      rm -f "$smoke_json"
      banner "bench_system smoke (20k arrivals, admission-pipeline gates)"
      cmake --build --preset dev -j "$(nproc)" --target bench_system
      smoke_json=$(mktemp /tmp/BENCH_system_smoke.XXXXXX.json)
      "build/dev/bench/bench_system" --arrivals 20000 --out "$smoke_json"
      "build/dev/bench/bench_system" --validate "$smoke_json"
      # Absolute gates: the committed BENCH_system.json runs 56k
      # admissions/sec at 100k arrivals with a p99 of a few ms; the smoke
      # floor/ceiling leave a wide margin for a loaded CI box while still
      # failing if the pipeline degenerates to per-request behaviour (the
      # retired inline path ran at a few hundred admissions/sec, 1-2 orders
      # below the floor; EXPERIMENTS.md).
      "build/dev/tools/bench_report" --min "$smoke_json" \
        --metric admissions_per_sec --floor 10000
      "build/dev/tools/bench_report" --max "$smoke_json" \
        --metric p99_reply_us --ceiling 200000
      # SLO-ledger crosscheck gate (ISSUE 10): the slo chaos case replays
      # the ledger's transition log through the shared availability
      # arithmetic; the reported availability must match to 1e-9 (it is
      # exactly 0 in practice — same integers, same division), and the case
      # must actually exercise demands, not vacuously pass on an empty
      # ledger, and must replay at least one degraded window.
      "build/dev/tools/bench_report" --min "$smoke_json" \
        --metric slo_demands --floor 100
      "build/dev/tools/bench_report" --min "$smoke_json" \
        --metric slo_degraded_demands --floor 1
      "build/dev/tools/bench_report" --max "$smoke_json" \
        --metric slo_crosscheck_max_abs_err --ceiling 0.000000001
      rm -f "$smoke_json"
      banner "bate_top --check against a live bench_system stack"
      cmake --build --preset dev -j "$(nproc)" --target bate_top
      port_file=$(mktemp /tmp/bate_top_port.XXXXXX)
      rm -f "$port_file"  # --serve creates it once the ledger is populated
      # Self-terminating serve window: if anything below fails, set -e
      # exits and the background stack still dies on its own deadline.
      "build/dev/bench/bench_system" --serve 60 --port-file "$port_file" \
        --slo-arrivals 300 &
      serve_pid=$!
      for _ in $(seq 1 150); do
        [ -s "$port_file" ] && break
        sleep 0.2
      done
      if [ ! -s "$port_file" ]; then
        echo "ci.sh: serve stack never published its port" >&2
        kill "$serve_pid" 2>/dev/null || true
        exit 1
      fi
      "build/dev/tools/bate_top" --once --json \
        --port "$(cat "$port_file")" >/dev/null
      "build/dev/tools/bate_top" --once --check --port "$(cat "$port_file")"
      kill "$serve_pid" 2>/dev/null || true
      wait "$serve_pid" 2>/dev/null || true
      rm -f "$port_file"
      banner "obs-overhead gate (metrics on vs off incl. ledger + series, 3% budget)"
      "build/dev/bench/bench_solver" --obs-overhead
      ;;
    *)
      echo "ci.sh: unknown leg '$leg' (plain|asan-ubsan|tsan|tsa|lint|bench-smoke)" >&2
      exit 2
      ;;
  esac
done

banner "all legs passed"
