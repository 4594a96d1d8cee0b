#!/usr/bin/env bash
# Repository check.
#
# Full mode (default, what CI always runs):
#   1. tier-1 verify: configure + build + ctest (includes the osp_lint
#      selftest + clean-tree pass registered as ctest tests);
#   2. bench-JSON schema check: every BENCH_*.json artifact parses and
#      carries the keys the perf trajectory depends on;
#   3. invariant lint: scripts/osp_lint.py fixture selftest + the src/
#      tree pass (redundant with ctest when GTest/Python are present —
#      explicit here so a missing interpreter can't silently drop it);
#   4. clang-tidy baseline: scripts/run_tidy.sh diffs the curated check
#      set against scripts/tidy_baseline.txt (SKIPs with a notice when
#      clang-tidy is not installed; the CI analysis job requires it);
#   5. examples smoke: runs osp_cli end to end off the policy/scenario
#      registries (list, gen | run and gen | stats pipes over the random,
#      regular, fixed-load and capacity families, the README quickstart
#      `gen regular --sigma 8 | run --alg hashpr:tab`, `run --alg
#      hashpr:filt --trials 5`, `run --alg round-robin`, `run --trials
#      50` at OSP_THREADS=1 and 3 (cmp: one line, the same), a capacity of
#      2^32 - 1 played under randpr and greedy:first, bench grids, a
#      config-file sweep, the ranker and sustained modes, --dry-run, the
#      catalog drift gate), its one-line error paths (malformed flags,
#      `run --trials` 0 and 1000000001, unknown policies, rankers and
#      scenarios, --workers without --sustained, a bad config line, a
#      negative element capacity in an instance file, a --capacity or
#      --service-rate past 2^32 - 1),
#      quickstart and the three other examples (and video_streaming's
#      one-line error on a negative argument), `solve` on the lemma9
#      ell = 3 instance within 60 s with branch and bound's exact 27, and
#      the console-only benches (bench_theorem1, bench_fractional,
#      bench_ablation, whose console output at OSP_THREADS=1 and 3 is
#      cmp'd), so none of them can silently rot, and checks that
#      a bench which cannot write its artifact exits 1 with one line;
#   6. shard smoke: bench --shard / merge bit-identity round trip, and
#      the gap, overlap, fingerprint-mismatch and corrupted-row errors;
#   7. deterministic artifacts: BENCH_adversarial/uniform/capacity.json
#      regenerate byte-identically and re-pass their gates (the paper's
#      bounds included), a fresh BENCH_router.json makes the committed
#      one's decisions (check_bench_json.py --same-decisions), and the
#      theorem3 smoke grid shards/merges bit-identically;
#   8. benchmark smoke: perfbench/run.py builds the benchmark from src/
#      and runs every workload for one second; a build error or a failed
#      oracle exits non-zero;
#   9. ASan/UBSan build of the engine-critical tests (the schedule
#      generators, the trace reader and partial-credit play included)
#      plus a sanitized `bench_router --smoke`, whose rankers/sustained
#      rows must equal the rows of the osp_cli lines docs/BENCHMARKS.md
#      lists for them;
#  10. TSan: a -DOSP_SANITIZE=thread build of the threaded suites
#      (test_engine's 1/2/5-thread batch determinism, test_serve's
#      workers-1/2/4 equivalence) and the sustained serving smoke at
#      --workers 4, under scripts/tsan.supp — a data race in the barrier
#      or tally-merge paths fails the check even when the deterministic
#      output happens to look right.
#
# Quick mode (scripts/check.sh --quick, for local iteration):
#   runs stages 1-3 only and PRINTS the stages it skipped, so what CI
#   will additionally run is always visible.  CI never uses --quick; a
#   change is not green until the full script passes.
#
# Tidy mode (scripts/check.sh --tidy): stage 4 alone, for iterating on
#   tidy findings without rebuilding the world.
set -euo pipefail
cd "$(dirname "$0")/.."

mode=full
for arg in "$@"; do
  case "$arg" in
    --quick) mode=quick ;;
    --tidy) mode=tidy ;;
    *) echo "usage: scripts/check.sh [--quick | --tidy]" >&2; exit 2 ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 2)"

# expect_error PATTERN COMMAND...: COMMAND must fail with exit status 1
# (a one-line error, not a crash) and print PATTERN on stderr.
expect_error() {
  local pattern="$1"
  shift
  local status=0
  "$@" 2> build/check_err.txt || status=$?
  if [[ "${status}" -ne 1 ]] || ! grep -q -- "${pattern}" build/check_err.txt
  then
    echo "expected exit 1 and '${pattern}' (got ${status}) from: $*" >&2
    cat build/check_err.txt >&2
    exit 1
  fi
  rm -f build/check_err.txt
}

if [[ "${mode}" == "tidy" ]]; then
  echo "== clang-tidy baseline (scripts/run_tidy.sh) =="
  scripts/run_tidy.sh
  exit 0
fi

echo "== tier-1: configure + build + ctest =="
cmake -B build -S .
cmake --build build -j "${jobs}"
(cd build && ctest --output-on-failure -j "${jobs}")

echo
echo "== bench artifacts: BENCH_*.json schema check =="
python3 scripts/check_bench_json.py

echo
echo "== invariant lint: osp_lint selftest + src/ tree =="
python3 scripts/osp_lint.py --selftest
python3 scripts/osp_lint.py

if [[ "${mode}" == "quick" ]]; then
  echo
  echo "== quick mode: SKIPPED stages (CI runs them all) =="
  echo "   - clang-tidy baseline (scripts/run_tidy.sh; or check.sh --tidy)"
  echo "   - examples smoke (osp_cli + the examples + console-only benches)"
  echo "   - shard smoke (bench --shard / merge bit-identity)"
  echo "   - benchmark smoke (perfbench/run.py, every workload, 1 s)"
  echo "   - ASan/UBSan suites + bench_router --smoke"
  echo "   - TSan threaded suites + sustained smoke"
  echo "== all quick checks passed =="
  exit 0
fi

echo
echo "== clang-tidy baseline (scripts/run_tidy.sh) =="
scripts/run_tidy.sh

echo
echo "== examples smoke: osp_cli (registry-driven) + the examples + console-only benches =="
./build/osp_cli list > /dev/null
./build/osp_cli gen random --seed 3 | ./build/osp_cli run --alg randpr
# The README quickstart, a hashed factory over several trials, and the
# rotating-cursor baseline.
./build/osp_cli gen regular --sigma 8 | ./build/osp_cli run --alg hashpr:tab
./build/osp_cli gen random --seed 3 |
  ./build/osp_cli run - --alg hashpr:filt --trials 5
./build/osp_cli gen random --seed 3 | ./build/osp_cli run - --alg round-robin
# `run --trials N` plays its trials on the shared runner: the worker count
# must not change a digit of its line.
./build/osp_cli gen random --seed 3 > build/check_run.txt
for threads in 1 3; do
  OSP_THREADS="$threads" ./build/osp_cli run build/check_run.txt \
    --alg randpr --trials 50 > "build/check_run_$threads.txt"
done
cmp build/check_run_1.txt build/check_run_3.txt
rm -f build/check_run.txt build/check_run_1.txt build/check_run_3.txt
./build/osp_cli gen regular --m 12 --sigma 3 | ./build/osp_cli stats - \
  > /dev/null
# The fixed-load sampler and the capacity family through the instance
# file reader.
./build/osp_cli gen fixedload --seed 3 | ./build/osp_cli stats - > /dev/null
./build/osp_cli gen capacity --cap-max 4 --seed 3 |
  ./build/osp_cli run - --alg randpr
# A capacity of 2^32 - 1 is valid and plays: a decision buffer is sized by
# min(b(u), |C(u)|), never by the capacity alone.
printf '%s\n' 'osp-instance v1' 'sets 2' '1' '1' 'elements 1' \
  '4294967295 0 1' > build/check_bigcap.txt
for alg in randpr greedy:first; do
  ./build/osp_cli run build/check_bigcap.txt --alg "$alg" --trials 1
done
rm -f build/check_bigcap.txt
./build/osp_cli bench --scenario random --alg randpr,greedy:maxw --trials 50
# --dry-run prints the expanded cell grid and must run nothing.
./build/osp_cli bench --scenario engine/ladder --alg randpr,greedy:maxw \
  --dry-run | grep -q "dry run, nothing executed"
# Malformed flags and unknown specs are one-line errors that name the
# flag or enumerate the catalog.
expect_error "--shard" ./build/osp_cli bench --scenario random --shard 3/2 \
  --out build/check_x.part
expect_error "registered policies" ./build/osp_cli run --alg no-such-policy \
  /dev/null
expect_error "--m" ./build/osp_cli gen random --m not-a-number
# run bounds --trials like bench does, before it reads an instance.
expect_error "--trials must be in" ./build/osp_cli run --trials 0 /dev/null
expect_error "--trials must be in" ./build/osp_cli run --trials 1000000001 \
  /dev/null
# Numbers are digits only and fit their type: a negative element capacity
# must not load as 4294967295, nor a capacity or service rate past
# 2^32 - 1 narrow silently.
printf '%s\n' 'osp-instance v1' 'sets 2' '1' '1' 'elements 1' '-1 0 1' \
  > build/check_negcap.txt
expect_error "capacity '-1' at line 6" ./build/osp_cli stats \
  build/check_negcap.txt
rm -f build/check_negcap.txt
expect_error "--capacity" ./build/osp_cli gen video --capacity 4294967297
expect_error "--service-rate" ./build/osp_cli gen video \
  --service-rate 4294967296
# Config-file scenario (with a sweep axis) and the buffered-ranker mode.
printf '%s\n' 'scenario = regular' 'm = 12' 'sigma = 3' 'sweep.k = 2,3' \
  > build/check_demo.cfg
./build/osp_cli bench --config build/check_demo.cfg --alg randpr --trials 20
./build/osp_cli bench --scenario router/buffered-smoke \
  --ranker randPr,drop-tail --trials 4
# Sustained serving runtime: a multi-worker smoke run (each row carries a
# serial-reference cross-check) and the unknown-scenario error path,
# which must enumerate the catalog rather than fail bare.
./build/osp_cli bench --scenario sustained/steady-smoke --sustained \
  --workers 2
expect_error "registered scenarios" ./build/osp_cli bench \
  --scenario sustained/no-such --sustained
# --workers without --sustained is an error naming the flag, never
# silently ignored.
expect_error "--workers" ./build/osp_cli bench --scenario random \
  --alg randpr --workers 4
expect_error "--workers" ./build/osp_cli bench \
  --scenario router/buffered-smoke --ranker randPr --trials 2 --workers 4
# An unknown ranker fails with the catalog before --json creates its
# artifact file.
expect_error "registered rankers" ./build/osp_cli bench \
  --scenario router/buffered-smoke --ranker randPr,no-such --json badranker
if [[ -e BENCH_badranker.json ]]; then
  echo "an unknown ranker left BENCH_badranker.json behind" >&2
  exit 1
fi
# Config errors name the file:line and the offending key.
printf '%s\n' 'scenario = regular' 'frobnicate = 1' > build/bad.cfg
expect_error "bad.cfg:2" ./build/osp_cli bench --config build/bad.cfg
expect_error "frobnicate" ./build/osp_cli bench --config build/bad.cfg
# docs/CATALOG.md is generated output: regenerate and fail on drift.
./build/osp_cli list --markdown | diff -u docs/CATALOG.md -
./build/quickstart > /dev/null
for example in video_streaming multihop_routing adversarial_gadget; do
  "./build/$example" > /dev/null
done
expect_error "num_streams" ./build/video_streaming -5
# `solve` never hangs: on lemma9 at ell = 3 the simplex stops at its pivot
# limit and only the LP row is lost, while branch and bound still proves
# the optimum, 27.
./build/osp_cli gen adversarial/lemma9 --ell 3 > build/check_l9.txt
status=0
timeout 60 ./build/osp_cli solve build/check_l9.txt > build/check_solve.txt ||
  status=$?
if [[ "${status}" -ne 0 ]] ||
    ! grep -Eq '^ *branch & bound +27 +exact$' build/check_solve.txt; then
  echo "osp_cli solve on lemma9 ell=3 did not print branch & bound 27," \
    "exact (exit ${status}):" >&2
  cat build/check_solve.txt >&2
  exit 1
fi
rm -f build/check_l9.txt build/check_solve.txt
# The benches without an artifact: each must run to completion (a ratio
# cell whose optimum branch and bound cannot prove exits non-zero).
for bench in theorem1 fractional; do
  OSP_THREADS=1 "./build/bench_$bench" > /dev/null
done
# bench_ablation measures through Session::measure on the shared runner:
# its console output must be the same at 1 and 3 workers.
for threads in 1 3; do
  OSP_THREADS="$threads" ./build/bench_ablation \
    > "build/check_ablation_$threads.txt"
done
cmp build/check_ablation_1.txt build/check_ablation_3.txt
rm -f build/check_ablation_1.txt build/check_ablation_3.txt
# A bench that fails prints one line and exits 1, never an abort: with a
# directory in its artifact's place, bench_capacity's JSON sink throws
# before any measurement runs.
rm -rf build/probe && mkdir -p build/probe/BENCH_capacity.json
status=0
(cd build/probe && ../bench_capacity > /dev/null 2> err.txt) || status=$?
if [[ "${status}" -ne 1 ]] ||
    ! grep -qx "error: cannot open BENCH_capacity.json for writing" \
      build/probe/err.txt ||
    grep -q "terminate called" build/probe/err.txt; then
  echo "bench_capacity did not fail with one line (exit ${status}):" >&2
  cat build/probe/err.txt >&2
  exit 1
fi
rm -rf build/probe

echo
echo "== shard smoke: bench --shard / merge bit-identity =="
# The sharding contract end to end: the dry-run cell list, a 3-shard
# split of a small sweep, the partial-format validator, and a merge that
# must reproduce the unsharded BENCH artifact byte for byte.  CI's
# shard-matrix job runs the same check over the larger catalog sweeps.
rm -f BENCH_shardsmoke.json build/shardsmoke_*.part build/shardsmoke_merged.json
./build/osp_cli bench --scenario engine/ladder --alg randpr,greedy:maxw \
  --trials 3 --seed 11 --dry-run > /dev/null
./build/osp_cli bench --scenario engine/ladder --alg randpr,greedy:maxw \
  --trials 3 --seed 11 --json shardsmoke > /dev/null
for i in 0 1 2; do
  ./build/osp_cli bench --scenario engine/ladder --alg randpr,greedy:maxw \
    --trials 3 --seed 11 --json shardsmoke \
    --shard "$i/3" --out "build/shardsmoke_$i.part" > /dev/null
done
python3 scripts/check_bench_json.py build/shardsmoke_*.part
./build/osp_cli merge build/shardsmoke_*.part --out build/shardsmoke_merged.json
cmp BENCH_shardsmoke.json build/shardsmoke_merged.json
# Malformed merges fail with an enumerated error, not a merge: a missing
# slice (gap), the same slice twice (overlap), and a slice of another
# seed's grid (fingerprint mismatch).
expect_error "gap" ./build/osp_cli merge build/shardsmoke_0.part \
  build/shardsmoke_2.part --out build/shardsmoke_bad.json
expect_error "overlap" ./build/osp_cli merge build/shardsmoke_0.part \
  build/shardsmoke_0.part build/shardsmoke_1.part build/shardsmoke_2.part \
  --out build/shardsmoke_bad.json
./build/osp_cli bench --scenario engine/ladder --alg randpr,greedy:maxw \
  --trials 3 --seed 12 --json shardsmoke \
  --shard 0/3 --out build/shardsmoke_alien.part > /dev/null
expect_error "fingerprint mismatch" ./build/osp_cli merge \
  build/shardsmoke_alien.part build/shardsmoke_1.part build/shardsmoke_2.part \
  --out build/shardsmoke_bad.json
# A row line that is not one JSON object of scalars (line 8 is the first
# row) fails the merge with its file:line, and the partial validator.
sed '8s/"policy":"/"policy":/' build/shardsmoke_1.part \
  > build/shardsmoke_corrupt.part
expect_error "shardsmoke_corrupt.part:8:" ./build/osp_cli merge \
  build/shardsmoke_0.part build/shardsmoke_corrupt.part \
  build/shardsmoke_2.part --out build/shardsmoke_bad.json
expect_error "line 8" python3 scripts/check_bench_json.py \
  build/shardsmoke_corrupt.part
rm -f BENCH_shardsmoke.json build/shardsmoke_*.part \
  build/shardsmoke_merged.json

echo
echo "== deterministic artifacts: regenerate + gates + shard smoke =="
# BENCH_adversarial/uniform/capacity.json have no wall-clock fields:
# regenerating them must reproduce the committed artifacts byte for byte
# (which pins every Rng stream the grids draw) and re-pass the gates in
# check_bench_json.py, the paper's bounds included.  The theorem3 smoke
# grid then exercises the adversarial families through the generic shard
# pipeline at N in {1, 2}.
# The results are thread-count-independent; OSP_THREADS pins only the
# preamble's recorded worker count to the committed value.
for bench in adversarial uniform capacity; do
  OSP_THREADS=1 "./build/bench_$bench" > /dev/null
done
git diff --exit-code BENCH_adversarial.json BENCH_uniform.json \
  BENCH_capacity.json
python3 scripts/check_bench_json.py BENCH_adversarial.json \
  BENCH_uniform.json BENCH_capacity.json
# BENCH_router.json carries wall-clock fields, so only its decisions are
# compared: every row, timing fields aside.  The fresh run writes into
# build/, not the repository root, so a slow host is never judged
# against the committed throughput floors.
(cd build && OSP_THREADS=1 ./bench_router > /dev/null)
python3 scripts/check_bench_json.py --same-decisions BENCH_router.json \
  build/BENCH_router.json
rm -f build/BENCH_router.json
rm -f BENCH_advsmoke.json build/advsmoke_*
./build/osp_cli bench --scenario adversarial/theorem3-smoke \
  --alg randpr,greedy:first --trials 25 --seed 11 --json advsmoke > /dev/null
for n in 1 2; do
  for ((i = 0; i < n; ++i)); do
    ./build/osp_cli bench --scenario adversarial/theorem3-smoke \
      --alg randpr,greedy:first --trials 25 --seed 11 --json advsmoke \
      --shard "$i/$n" --out "build/advsmoke_${n}_$i.part" > /dev/null
  done
  python3 scripts/check_bench_json.py build/advsmoke_"${n}"_*.part
  ./build/osp_cli merge build/advsmoke_"${n}"_*.part \
    --out "build/advsmoke_merged_$n.json"
  cmp BENCH_advsmoke.json "build/advsmoke_merged_$n.json"
done
rm -f BENCH_advsmoke.json build/advsmoke_*

echo
echo "== benchmark smoke: perfbench builds from src/ and its oracles pass =="
python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 0 \
  > /dev/null

echo
echo "== sanitizers: ASan/UBSan build of fuzz + engine + generator + partial + queue tests =="
cmake -B build-asan -S . -DOSP_SANITIZE=ON
cmake --build build-asan -j "${jobs}" --target test_fuzz test_engine test_game test_instance test_rand_pr test_gen test_trace test_net test_partial test_queue test_serve bench_router osp_cli
(cd build-asan && ctest --output-on-failure -R 'test_(fuzz|engine|game|instance|rand_pr|gen|trace|net|partial|queue|serve)$')

echo
echo "== sanitizers: bench_router --smoke (heap vs sort cross-check) =="
(cd build-asan && ./bench_router --smoke)

echo
echo "== parity: bench_router rows == their documented osp_cli lines =="
# docs/BENCHMARKS.md lists the osp_cli line that reproduces each rankers
# and sustained row of BENCH_router.json.  On the smoke artifact, the
# router/buffered-smoke rankers rows and the sustained/steady-smoke
# workers=1 rows must equal those lines' rows, in order, in every field
# but timing: check_bench_json.py's --same-decisions comparison.
(cd build-asan \
  && rm -f BENCH_parity_rankers.json BENCH_parity_sustained.json \
  && ./osp_cli bench --scenario router/buffered-smoke \
    --ranker randPr,by-weight,drop-tail,random-drop --seed 200 \
    --json parity_rankers > /dev/null \
  && ./osp_cli bench --scenario sustained/steady-smoke --sustained \
    --ranker randPr,drop-tail --workers 1 --seed 500 \
    --json parity_sustained > /dev/null)
python3 - build-asan <<'EOF'
import pathlib, sys
sys.path.insert(0, "scripts")
from check_bench_json import check_same_decisions, load_results
build = pathlib.Path(sys.argv[1])
def listed(r):
    if r["sweep"] == "rankers":
        return r["scenario"].startswith("router/buffered-smoke")
    return (r["sweep"] == "sustained" and r["workers"] == 1
            and r["scenario"] == "sustained/steady-smoke")
want = [r for r in load_results(build / "BENCH_router_smoke.json")
        if listed(r)]
got = (load_results(build / "BENCH_parity_rankers.json")
       + load_results(build / "BENCH_parity_sustained.json"))
if not want:
    sys.exit("the smoke artifact has none of the listed rows")
rows = check_same_decisions("bench_router smoke rows vs their osp_cli lines",
                            want, got)
print(f"{rows} bench_router rows reproduced by osp_cli")
EOF
rm -f build-asan/BENCH_parity_rankers.json \
  build-asan/BENCH_parity_sustained.json

echo
echo "== TSan: threaded suites + sustained smoke (race detection) =="
# The determinism proofs (batch runner at 1/2/5 threads, serve workers
# 1/2/4 vs the serial reference) assert equal OUTPUT; ThreadSanitizer
# asserts the stronger property that no memory location is ever touched
# by two threads without a happens-before edge, so a benign-looking race
# cannot hide behind a lucky schedule.  scripts/tsan.supp is empty on
# purpose.
cmake -B build-tsan -S . -DOSP_SANITIZE=thread
cmake --build build-tsan -j "${jobs}" --target test_engine test_serve osp_cli
export TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan.supp"
(cd build-tsan && ctest --output-on-failure -R 'test_(engine|serve)')
./build-tsan/osp_cli bench --scenario sustained/steady-smoke --sustained \
  --workers 4
unset TSAN_OPTIONS

echo
echo "== all checks passed =="
