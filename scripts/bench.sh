#!/usr/bin/env bash
# Unified bench runner (ROADMAP item: "unified bench runner + perf CI").
#
# Builds and runs every JSON-emitting bench harness (paper figures/tables,
# ablations, soaks), collects their BENCH_*.json outputs from the build
# dir, and merges them into one schema'd report:
#
#   <prefix>/BENCH_report.json   { "schema": "pamix-bench-report/v1",
#                                  "smoke": bool,
#                                  "benches": { "fig5": {...}, ... } }
#
# With --check, the fresh results are compared against the committed
# baselines at the repo root:
#   * every key matching a throughput pattern (*_mmps, *_mrps, *_mmsgs,
#     *_mb_s[_N]) must be >= baseline * (1 - tolerance)
#   * every fresh key named like a steady-state pool-miss counter
#     (pool_misses; the simulated MU's staging growth is exempt) must be 0
# Tolerance defaults to 0.10 (the "fail on >10% rate drop" CI contract);
# override with --tolerance F for noisy shared runners.
#
# All benches run under PAMIX_BENCH_STRICT_ALLOC=1, so each binary's own
# strict gate (pool misses, mechanism-engaged counters) also applies.
#
# Usage: scripts/bench.sh [--smoke] [--check] [--tolerance F] [bench...]
#        PREFIX=dir scripts/bench.sh       (build-dir prefix, default: build)
# Benches: fig5 endpoints fig6 fig7 fig8 fig9 fig10 table2 table3 ctxhash amrpc scale
#          commthread rectchunk
# (table1 prints its rows but emits no JSON, so it is not part of the report.)
# `scale` runs the DES scenario engine; its smoke mode keeps only the
# 32/64-node calibration geometries, whose virtual-time keys are exact and
# therefore still comparable against the committed full-run baseline.
set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${PREFIX:-build}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

smoke=0
check=0
tolerance=0.10
selected=()
while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) smoke=1 ;;
    --check) check=1 ;;
    --tolerance) tolerance="$2"; shift ;;
    -*) echo "unknown option: $1" >&2; exit 2 ;;
    *) selected+=("$1") ;;
  esac
  shift
done

# bench name -> binary -> json file, plus smoke-scale env overrides.
benches=(fig5 endpoints fig6 fig7 fig8 fig9 fig10 table2 table3 ctxhash amrpc scale commthread rectchunk)
binary_of() {
  case "$1" in
    fig5)    echo fig5_message_rate ;;
    endpoints) echo fig5_endpoints ;;
    fig6)    echo fig6_barrier ;;
    fig7)    echo fig7_allreduce_latency ;;
    fig8)    echo fig8_allreduce_bw ;;
    fig9)    echo fig9_bcast_bw ;;
    fig10)   echo fig10_rect_bcast ;;
    table2)  echo table2_mpi_latency ;;
    table3)  echo table3_neighbor_throughput ;;
    ctxhash) echo ablate_context_hash ;;
    commthread) echo ablate_commthread ;;
    amrpc)   echo amrpc_soak ;;
    scale)   echo scale_scenarios ;;
    rectchunk) echo ablate_rect_chunk ;;
    *) echo "unknown bench: $1" >&2; exit 2 ;;
  esac
}
json_of() {
  case "$1" in
    ctxhash) echo BENCH_ctxhash.json ;;
    *)       echo "BENCH_$1.json" ;;
  esac
}
smoke_env() {
  case "$1" in
    fig5)    echo "PAMIX_FIG5_MSGS=2000" ;;
    endpoints) echo "PAMIX_EPBENCH_MSGS=2000" ;;
    fig6)    echo "PAMIX_FIG6_ITERS=200" ;;
    fig7)    echo "PAMIX_FIG7_ITERS=50 PAMIX_FIG7_BW_ITERS=2 PAMIX_FIG7_SW_ITERS=64" ;;
    fig8)    echo "PAMIX_FIG8_ITERS=2" ;;
    fig9)    echo "PAMIX_FIG9_ITERS=2" ;;
    fig10)   echo "PAMIX_FIG10_ITERS=2" ;;
    table2)  echo "PAMIX_TABLE2_ITERS=300" ;;
    table3)  echo "PAMIX_TABLE3_KB=64" ;;
    ctxhash) echo "PAMIX_CTXHASH_MSGS=500" ;;
    commthread) echo "PAMIX_ABLCOMM_ITERS=300 PAMIX_ABLCOMM_MSGS=2000" ;;
    amrpc)   echo "PAMIX_BENCH_AMRPC_ITERS=500" ;;
    scale)   echo "PAMIX_SCALE_SMOKE=1" ;;
    rectchunk) echo "PAMIX_RECTCHUNK_SMOKE=1" ;;
  esac
}

if [ ${#selected[@]} -eq 0 ]; then
  selected=("${benches[@]}")
fi

targets=()
for b in "${selected[@]}"; do targets+=("$(binary_of "$b")"); done

echo "==> configure + build: ${targets[*]}"
cmake -B "${prefix}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${prefix}" -j "${jobs}" --target "${targets[@]}"

for b in "${selected[@]}"; do
  bin="$(binary_of "$b")"
  json="$(json_of "$b")"
  envs="PAMIX_BENCH_STRICT_ALLOC=1"
  if [ "${smoke}" = 1 ]; then envs="${envs} $(smoke_env "$b")"; fi
  echo "==> [${b}] ${envs} ./bench/${bin}"
  ( cd "${prefix}" && env ${envs} "./bench/${bin}" )
  test -s "${prefix}/${json}" || { echo "missing ${prefix}/${json}" >&2; exit 1; }
done

echo "==> merging $(ls "${prefix}"/BENCH_*.json | wc -l) result files"
SMOKE="${smoke}" PREFIX="${prefix}" python3 - "${selected[@]}" <<'PY'
import json, os, sys

prefix = os.environ["PREFIX"]
report = {
    "schema": "pamix-bench-report/v1",
    "smoke": os.environ.get("SMOKE") == "1",
    "benches": {},
}
names = {"ctxhash": "BENCH_ctxhash.json"}
for b in sys.argv[1:]:
    path = os.path.join(prefix, names.get(b, f"BENCH_{b}.json"))
    with open(path) as f:
        report["benches"][b] = json.load(f)
out = os.path.join(prefix, "BENCH_report.json")
with open(out, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f"  report written to {out}")
PY

if [ "${check}" = 1 ]; then
  echo "==> regression check vs committed baselines (tolerance ${tolerance})"
  TOL="${tolerance}" PREFIX="${prefix}" python3 - "${selected[@]}" <<'PY'
import json, os, re, sys

prefix = os.environ["PREFIX"]
tol = float(os.environ["TOL"])
rate_re = re.compile(r"(_mmps|_mrps|_mmsgs|_mb_s(_\d+)?)$")
# Pool-miss counters: some are measured-phase gated (committed as 0), some
# count the whole run including cold-start (committed nonzero). A key is
# enforced as zero exactly when its committed baseline says zero — that is
# the bench declaring its counter steady-state-gated. Benches without a
# baseline must start clean. The simulated MU's staging growth
# (mu_staging_misses) is never a pool_misses key, so it is exempt.
miss_re = re.compile(r"(^|[._])pool_misses$")
names = {"ctxhash": "BENCH_ctxhash.json"}

failures, checked = [], 0
for b in sys.argv[1:]:
    fname = names.get(b, f"BENCH_{b}.json")
    base_path = fname  # committed baseline at the repo root
    with open(os.path.join(prefix, fname)) as f:
        fresh = json.load(f)
    base = None
    if os.path.exists(base_path):
        with open(base_path) as f:
            base = json.load(f)
    for key, val in fresh.items():
        if not miss_re.search(key) or val == 0:
            continue
        if base is None or base.get(key, 0) == 0:
            failures.append(f"{b}:{key} = {val} (strict-alloc miss, expected 0)")
    if base is None:
        print(f"  {b:8s} no committed baseline, rates unchecked")
        continue
    for key, ref in base.items():
        if not rate_re.search(key) or key not in fresh:
            continue
        checked += 1
        floor = ref * (1.0 - tol)
        status = "ok" if fresh[key] >= floor else "FAIL"
        if status == "FAIL":
            failures.append(
                f"{b}:{key} = {fresh[key]:.4g}, baseline {ref:.4g} "
                f"(floor {floor:.4g})")
        print(f"  {b:8s} {key:32s} {fresh[key]:>12.4g}  vs {ref:>12.4g}  {status}")

print(f"  {checked} rate keys checked")
if failures:
    print("regression check FAILED:", file=sys.stderr)
    for f_ in failures:
        print(f"  {f_}", file=sys.stderr)
    sys.exit(1)
print("  regression check passed")
PY
fi

echo "==> bench run complete"
