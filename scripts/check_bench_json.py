#!/usr/bin/env python3
"""Schema check for the BENCH_*.json perf-trajectory artifacts.

Every bench binary emits a machine-readable JSON file next to its console
table; downstream tooling (and the per-PR perf trajectory) keys on a small
set of invariants that a bench refactor could silently break.  This script
validates, with the standard library only:

  * every BENCH_*.json parses as strict JSON (no NaN/Infinity literals);
  * the shared preamble is intact: {"bench": <str>, "threads": <int >= 1>,
    "results": [<object>, ...]} with a non-empty results array;
  * bench-specific invariants:
      - engine:  per-workload rows carry the mode throughputs and factors
                 (seed/flat/block/batch elements-per-sec, flat_speedup,
                 block_vs_flat, batch_speedup); the block-vs-flat gate is
                 checked PER ROW against a per-workload floor (the old
                 single-gate-on-the-largest-workload check was blind to
                 sigma-dependent regressions on the smaller shapes); the
                 largest_summary row carries threads and the gate fields;
      - router:  "throughput" sweep rows carry speedup_vs_sort and
                 cross_check; "sustained" rows (the
                 multi-link serving runtime) carry the full steady-state
                 counter set — drop taxonomy summing to the drop total,
                 window-goodput aggregates, serve/drop latency
                 percentiles, per-stream starvation counters — with a
                 passing serial-reference cross_check, and exactly one
                 sustained_summary row whose packets_per_sec gate is MET
                 against SUSTAINED_MIN_PACKETS_PER_SEC;
      - adversarial: the competitive-ratio dashboard.  theorem3 rows must
                 keep deterministic benefit <= 1 against opt >= the
                 planted sigma^(k-1) witness, with randPr strictly beating
                 every deterministic baseline per cell; weaklb/lemma9 rows
                 carry witnesses equal to the documented planted values
                 (t and ell^3) and ratios above calibrated per-cell floors
                 tracking the t/ln t and ell^3/polylog envelopes; opt
                 never drops below the witness, lp_upper (when computed)
                 dominates opt, and the three summary rows all gate MET;
      - uniform, capacity: every row of a sweep with a paper bound
                 (RATIO_BOUNDS) keeps its measured ratio <= that bound,
                 per row: Corollary 7, Theorems 5 and 6, and Theorem 4;
  * every numeric value is finite.

Files beginning with the "osp-shard 1" magic are validated as sharded
partial-result files instead (`osp_cli bench --shard i/N --out PART`):
manifest header (bench, 16-hex fingerprint, shard i/N with i < N, cell
range begin..end/total, threads >= 1), `---` separator, one
`row <cell> <json>` line per row (sequential global cell indices, each
JSON a non-empty object of finite scalar values, strict as above), and
a `total <rows>` footer matching the slice size — docs/BENCHMARKS.md
documents the grammar.  Directories only glob BENCH_*.json; pass partial files
explicitly.

With --same-decisions, two artifacts of one bench are compared instead:
their results rows must be equal, in order, once the fields that wall-clock
timing decides are dropped (TIMING_FIELDS on every row, plus
SUMMARY_TIMING_FIELDS on the sustained_summary row, whose worker count and
gate are picked by timing).  It is how a freshly regenerated
BENCH_router.json is held to the committed one's decisions without judging
the fresh run's throughput.

Usage: scripts/check_bench_json.py [file-or-dir ...]
       (defaults to the repository root; exits non-zero on any violation)
       scripts/check_bench_json.py --same-decisions COMMITTED FRESH
       scripts/check_bench_json.py --describe
       (prints the validated field lists — the same tuples the checks
       iterate, so the printed schema can never drift from the validator;
       docs/BENCHMARKS.md documents the semantics)
"""

import json
import math
import pathlib
import re
import sys

ENGINE_WORKLOAD_KEYS = (
    "workload", "m", "n", "trials",
    "seed_elements_per_sec", "flat_elements_per_sec",
    "block_elements_per_sec", "batch_elements_per_sec",
    "flat_speedup", "block_speedup", "block_vs_flat", "batch_speedup",
)
ENGINE_SUMMARY_KEYS = (
    "label", "threads", "flat_speedup_vs_seed",
    "block_speedup_vs_seed", "block_vs_flat", "speedup_vs_seed",
)
ROUTER_THROUGHPUT_KEYS = (
    "path", "buffer", "slots", "packets", "seconds", "slots_per_sec",
    "speedup_vs_sort", "cross_check",
)
ROUTER_SUSTAINED_KEYS = (
    "scenario", "ranker", "links", "workers", "streams", "service_rate",
    "buffer", "window", "slots", "packets", "served", "dropped",
    "refused_dead", "evictions", "cascade_drops", "leftover",
    "goodput", "window_goodput_mean", "window_goodput_min",
    "serve_p50", "serve_p90", "serve_p99",
    "drop_p50", "drop_p90", "drop_p99",
    "streams_starved", "starved_slots_max", "starved_share",
    "seconds", "packets_per_sec", "cross_check",
)
ROUTER_SUSTAINED_SUMMARY_KEYS = (
    "label", "ranker", "workers", "packets_per_sec",
    "min_packets_per_sec", "gate",
)

ADVERSARIAL_ROW_KEYS = (
    "sweep", "scenario", "policy", "deterministic", "trials",
    "alg_mean", "alg_ci95", "witness", "opt", "opt_exact", "lp_upper",
    "ratio", "bound",
)
# Per-family shape key carried by every adversarial per-cell row.
ADVERSARIAL_SHAPE_KEYS = {"theorem3": ("sigma", "k"), "weaklb": ("t",),
                          "lemma9": ("ell",)}
ADVERSARIAL_SUMMARY_KEYS = (
    "sweep", "family", "cells", "policies", "det_alg_max",
    "det_ratio_min", "randpr_margin_min", "gate",
)

# Per-workload floors for the block-vs-flat factor, sized ~30-40%% below
# the values measured on the reference container so scheduler noise
# cannot flap CI while a real kernel regression still trips them.  The
# old gate checked only the largest workload, whose sigma~16 rows gain
# most from block batching -- a regression confined to the small-sigma
# shapes was invisible.  Workloads not listed get
# BLOCK_VS_FLAT_DEFAULT_FLOOR, which just catches "block path slower
# than flat".
BLOCK_VS_FLAT_FLOORS = {
    # reference run (fused-histogram block kernel): 1.37 / 1.75 /
    # 1.65 / 2.07 / 2.11 / 2.22 in the order below
    "legacy/64": 1.0,
    "legacy/1024": 1.2,
    "legacy/4096": 1.15,
    "router/32k": 1.4,
    "router/128k": 1.4,
    "overload/256k": 1.5,
}
BLOCK_VS_FLAT_DEFAULT_FLOOR = 0.9

# Floor for the sustained runtime's steady-state packet rate (the best
# randPr worker count on the full sustained/steady scenario), sized well
# below the reference-container measurement for the same noise headroom
# as the block_vs_flat floors.  This constant is the source of truth;
# bench_router.cpp mirrors it to print the gate line.
SUSTAINED_MIN_PACKETS_PER_SEC = 2.0e6

# Per-cell competitive-ratio floors for the adversarial lower-bound
# sweeps, sized ~35% below the smallest ratio ANY policy (deterministic
# or randPr) measures on the reference grids, so trial noise cannot flap
# CI while a broken gadget (or a bug inflating E[alg]) still trips them.
# The floors track the paper's envelopes: t/ln t for the Section 4.2
# warm-up, and Omega(ell^3 / polylog ell) for the Lemma 9 distribution
# (opt = ell^3 planted while every online algorithm keeps polylog
# benefit).  A grid cell with no floor entry fails the check, so growing
# the catalog sweep forces a calibrated floor here.
WEAKLB_RATIO_FLOORS = {
    # reference minima across policies: 1.80 / 2.73 / 3.56 / 5.22 /
    # 6.88 / 9.80 in the order below
    4: 1.15, 6: 1.75, 8: 2.3, 12: 3.4, 16: 4.5, 24: 6.4,
}
LEMMA9_RATIO_FLOORS = {
    # reference minima across policies: 2.40 / 7.04 / 17.45 / 30.0
    2: 1.55, 3: 4.5, 4: 11.0, 5: 19.5,
}

# The paper's upper bound on each ratio sweep of BENCH_uniform.json and
# BENCH_capacity.json: every row of the sweep must carry the bound column
# named here and keep ratio <= bound.  A sweep mapped to None has no bound
# column (uniform_capacity reports Theorem 4's shape only); a sweep not
# listed fails the check, so a new sweep must declare its bound here.
RATIO_BOUNDS = {
    "uniform": {"corollary7": "cor7_bound", "theorem5": "thm5_bound",
                "theorem6": "thm6_bound"},
    "capacity": {"random_capacity": "thm4_bound", "uniform_capacity": None},
}


def fail(path, message):
    raise SystemExit(f"check_bench_json: {path}: {message}")


def require_keys(path, row, keys, context):
    for key in keys:
        if key not in row:
            fail(path, f"{context} is missing required key '{key}'")


def check_finite(path, value, context):
    if isinstance(value, float) and not math.isfinite(value):
        fail(path, f"{context} holds a non-finite number ({value!r})")
    if isinstance(value, dict):
        for k, v in value.items():
            check_finite(path, v, f"{context}.{k}")
    if isinstance(value, list):
        for i, v in enumerate(value):
            check_finite(path, v, f"{context}[{i}]")


def check_engine(path, results):
    summaries = [r for r in results if r.get("workload") == "largest_summary"]
    workloads = [r for r in results if r.get("workload") != "largest_summary"]
    if not workloads:
        fail(path, "engine bench has no per-workload rows")
    for row in workloads:
        context = f"workload row {row.get('workload')!r}"
        require_keys(path, row, ENGINE_WORKLOAD_KEYS, context)
        floor = BLOCK_VS_FLAT_FLOORS.get(row["workload"],
                                         BLOCK_VS_FLAT_DEFAULT_FLOOR)
        if row["block_vs_flat"] < floor:
            fail(path, f"{context}: block_vs_flat {row['block_vs_flat']:.3f} "
                       f"is below its per-workload floor {floor}")
    if len(summaries) != 1:
        fail(path, f"expected exactly one largest_summary row, "
                   f"found {len(summaries)}")
    require_keys(path, summaries[0], ENGINE_SUMMARY_KEYS,
                 "largest_summary row")
    labels = {r["workload"] for r in workloads}
    if summaries[0]["label"] not in labels:
        fail(path, "largest_summary.label names no measured workload")


def check_router(path, results):
    throughput = [r for r in results if r.get("sweep") == "throughput"]
    if not throughput:
        fail(path, "router bench has no throughput sweep rows")
    for row in throughput:
        require_keys(path, row, ROUTER_THROUGHPUT_KEYS, "throughput row")
        if row["path"] not in ("sort", "heap"):
            fail(path, f"throughput row has unknown path {row['path']!r}")
        if not row["cross_check"]:
            fail(path, "throughput row records a failed heap-vs-sort "
                       "cross_check")

    sustained = [r for r in results if r.get("sweep") == "sustained"]
    if not sustained:
        fail(path, "router bench has no sustained runtime rows")
    for row in sustained:
        context = (f"sustained row {row.get('scenario')!r}"
                   f"/{row.get('ranker')!r}")
        require_keys(path, row, ROUTER_SUSTAINED_KEYS, context)
        if row["cross_check"] != "pass":
            fail(path, f"{context} records a failed serial-reference "
                       f"cross_check")
        if row["packets"] != row["served"] + row["dropped"]:
            fail(path, f"{context}: served + dropped != packets")
        taxonomy = (row["refused_dead"] + row["evictions"]
                    + row["cascade_drops"] + row["leftover"])
        if taxonomy != row["dropped"]:
            fail(path, f"{context}: drop taxonomy sums to {taxonomy}, "
                       f"not the {row['dropped']} dropped packets")
        for key in ("goodput", "starved_share"):
            if not 0.0 <= row[key] <= 1.0:
                fail(path, f"{context}: {key} {row[key]!r} outside [0, 1]")
        # Window ratios are >= 0 but can exceed 1: a frame offered at the
        # end of one window may complete (deliver) early in the next.
        for key in ("window_goodput_mean", "window_goodput_min"):
            if row[key] < 0.0:
                fail(path, f"{context}: {key} {row[key]!r} is negative")
    summaries = [r for r in results if r.get("sweep") == "sustained_summary"]
    if len(summaries) != 1:
        fail(path, f"expected exactly one sustained_summary row, "
                   f"found {len(summaries)}")
    require_keys(path, summaries[0], ROUTER_SUSTAINED_SUMMARY_KEYS,
                 "sustained_summary row")
    if summaries[0]["gate"] != "MET":
        fail(path, f"sustained_summary gate is {summaries[0]['gate']!r}")
    if summaries[0]["packets_per_sec"] < SUSTAINED_MIN_PACKETS_PER_SEC:
        fail(path, f"sustained packets_per_sec "
                   f"{summaries[0]['packets_per_sec']:.3g} is below the "
                   f"floor {SUSTAINED_MIN_PACKETS_PER_SEC:.3g}")


def check_adversarial(path, results):
    eps = 1e-9
    families = {"theorem3": [], "weaklb": [], "lemma9": []}
    summaries = []
    for row in results:
        sweep = row.get("sweep")
        if sweep == "summary":
            summaries.append(row)
        elif sweep in families:
            families[sweep].append(row)
        else:
            fail(path, f"adversarial row has unknown sweep {sweep!r}")

    for family, rows in families.items():
        if not rows:
            fail(path, f"adversarial bench has no {family!r} rows")
        shape_keys = ADVERSARIAL_SHAPE_KEYS[family]
        for row in rows:
            context = (f"{family} row {row.get('scenario')!r}"
                       f"/{row.get('policy')!r}")
            require_keys(path, row, ADVERSARIAL_ROW_KEYS + shape_keys,
                         context)
            for key in ("deterministic", "opt_exact"):
                if not isinstance(row[key], bool):
                    fail(path, f"{context}: {key!r} is not a bool")
            if row["alg_mean"] <= 0 or row["ratio"] <= 0:
                fail(path, f"{context}: alg_mean/ratio must be positive")
            # The planted witness is a certified feasible packing, so any
            # denominator below it means the offline solver regressed.
            if row["opt"] < row["witness"] - eps:
                fail(path, f"{context}: opt {row['opt']!r} is below the "
                           f"planted witness {row['witness']!r}")
            # lp_upper is 0 when the cell was too large for the simplex;
            # when computed it must dominate the exact/witness optimum.
            if row["lp_upper"] != 0 and row["lp_upper"] < row["opt"] - 1e-6:
                fail(path, f"{context}: lp_upper {row['lp_upper']!r} is "
                           f"below opt {row['opt']!r}")

    # Theorem 3: deterministic benefit <= 1 while opt >= sigma^(k-1), and
    # randPr must beat every deterministic baseline on the same cell.
    by_cell = {}
    for row in families["theorem3"]:
        context = (f"theorem3 row {row.get('scenario')!r}"
                   f"/{row.get('policy')!r}")
        witness = float(row["sigma"] ** (row["k"] - 1))
        if abs(row["witness"] - witness) > eps:
            fail(path, f"{context}: witness {row['witness']!r} != "
                       f"sigma^(k-1) = {witness}")
        if abs(row["bound"] - witness) > eps:
            fail(path, f"{context}: bound {row['bound']!r} != "
                       f"sigma^(k-1) = {witness}")
        if row["deterministic"] and row["alg_mean"] > 1.0 + eps:
            fail(path, f"{context}: deterministic benefit "
                       f"{row['alg_mean']!r} exceeds the Theorem 3 "
                       f"guarantee of 1")
        by_cell.setdefault(row["scenario"], []).append(row)
    for cell, rows in by_cell.items():
        det = [r for r in rows if r["deterministic"]]
        rand = [r for r in rows if not r["deterministic"]]
        if not det:
            fail(path, f"theorem3 cell {cell!r} has no deterministic rows")
        if len(rand) != 1:
            fail(path, f"theorem3 cell {cell!r} has {len(rand)} randomized "
                       f"rows, expected exactly one (randPr)")
        det_max = max(r["alg_mean"] for r in det)
        if rand[0]["alg_mean"] <= det_max:
            fail(path, f"theorem3 cell {cell!r}: randPr E[benefit] "
                       f"{rand[0]['alg_mean']:.4g} does not beat the best "
                       f"deterministic baseline ({det_max:.4g})")

    for family, floors, shape_key, witness_of in (
            ("weaklb", WEAKLB_RATIO_FLOORS, "t", lambda s: float(s)),
            ("lemma9", LEMMA9_RATIO_FLOORS, "ell", lambda s: float(s ** 3))):
        for row in families[family]:
            context = (f"{family} row {row.get('scenario')!r}"
                       f"/{row.get('policy')!r}")
            shape = row[shape_key]
            if abs(row["witness"] - witness_of(shape)) > eps:
                fail(path, f"{context}: witness {row['witness']!r} does "
                           f"not match the documented planted value for "
                           f"{shape_key}={shape}")
            if shape not in floors:
                fail(path, f"{context}: no calibrated ratio floor for "
                           f"{shape_key}={shape} (add one to "
                           f"{family.upper()}_RATIO_FLOORS)")
            if row["ratio"] < floors[shape]:
                fail(path, f"{context}: ratio {row['ratio']:.4g} is below "
                           f"its floor {floors[shape]} for "
                           f"{shape_key}={shape}")

    if len(summaries) != 3:
        fail(path, f"expected exactly 3 adversarial summary rows, "
                   f"found {len(summaries)}")
    seen = set()
    for row in summaries:
        context = f"summary row {row.get('family')!r}"
        require_keys(path, row, ADVERSARIAL_SUMMARY_KEYS, context)
        seen.add(row["family"])
        if row["gate"] != "MET":
            fail(path, f"{context}: gate is {row['gate']!r}")
        if row["family"] == "theorem3":
            if row["det_alg_max"] > 1.0 + eps:
                fail(path, f"{context}: det_alg_max {row['det_alg_max']!r} "
                           f"exceeds the Theorem 3 guarantee of 1")
            if row["randpr_margin_min"] <= 0:
                fail(path, f"{context}: randpr_margin_min "
                           f"{row['randpr_margin_min']!r} is not positive — "
                           f"randPr must beat every deterministic baseline")
    if seen != set(families):
        fail(path, f"summary families {sorted(seen)} != "
                   f"{sorted(families)}")


def check_ratio_bounds(path, results, bounds):
    seen = set()
    for i, row in enumerate(results):
        sweep = row.get("sweep")
        if sweep not in bounds:
            fail(path, f"results[{i}] has unknown sweep {sweep!r} (known: "
                       f"{', '.join(sorted(bounds))})")
        seen.add(sweep)
        key = bounds[sweep]
        if key is None:
            continue
        context = f"results[{i}] ({sweep})"
        require_keys(path, row, ("ratio", key), context)
        if row["ratio"] > row[key]:
            fail(path, f"{context}: ratio {row['ratio']:.4g} exceeds the "
                       f"paper's {key} {row[key]:.4g}")
    missing = set(bounds) - seen
    if missing:
        fail(path, f"no rows for sweep(s) {', '.join(sorted(missing))}")


BENCH_CHECKS = {"engine": check_engine, "router": check_router,
                "adversarial": check_adversarial,
                "uniform": lambda path, results: check_ratio_bounds(
                    path, results, RATIO_BOUNDS["uniform"]),
                "capacity": lambda path, results: check_ratio_bounds(
                    path, results, RATIO_BOUNDS["capacity"])}

# Row fields that wall-clock timing decides; --same-decisions ignores them.
TIMING_FIELDS = ("seconds", "packets_per_sec", "slots_per_sec",
                 "speedup_vs_sort")
SUMMARY_TIMING_FIELDS = ("workers", "gate")


def decisions(row):
    """The row without the fields that wall-clock timing decides."""
    dropped = TIMING_FIELDS
    if row.get("sweep") == "sustained_summary":
        dropped += SUMMARY_TIMING_FIELDS
    return {k: v for k, v in row.items() if k not in dropped}


def check_same_decisions(label, want_rows, got_rows):
    """Fails unless the two row lists make the same decisions, in order."""
    if len(want_rows) != len(got_rows):
        fail(label, f"{len(got_rows)} rows where {len(want_rows)} were "
                    f"expected")
    for i, (want, got) in enumerate(zip(want_rows, got_rows)):
        want, got = decisions(want), decisions(got)
        if want != got:
            keys = sorted(k for k in set(want) | set(got)
                          if want.get(k) != got.get(k))
            fail(label, f"row {i} ({want.get('sweep')!r}) differs in "
                        f"{', '.join(keys)}: expected "
                        f"{ {k: want.get(k) for k in keys} }, got "
                        f"{ {k: got.get(k) for k in keys} }")
    return len(want_rows)


def load_results(path):
    try:
        return json.loads(pathlib.Path(path).read_text(),
                          parse_constant=reject_constant)["results"]
    except (OSError, ValueError, KeyError, TypeError) as err:
        fail(path, f"cannot read its results rows: {err!r}")


def reject_constant(value):
    raise ValueError(f"non-finite JSON literal {value!r}")


# ----------------------------------------------------------------------
# Sharded partial-result files (osp_cli bench --shard i/N --out PART).

SHARD_MAGIC = "osp-shard 1"
SHARD_HEX_FINGERPRINT = re.compile(r"^[0-9a-f]{16}$")


def check_partial(path, text):
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    pos = 0

    def take(prefix):
        nonlocal pos
        if pos >= len(lines) or not lines[pos].startswith(prefix):
            got = lines[pos] if pos < len(lines) else "<eof>"
            fail(path, f"line {pos + 1}: expected '{prefix}...', got {got!r}")
        value = lines[pos][len(prefix):]
        pos += 1
        return value

    if take("") != SHARD_MAGIC:  # full first line must be the magic
        fail(path, f"line 1: first line is not '{SHARD_MAGIC}'")
    bench = take("bench ")
    if not bench:
        fail(path, "line 2: empty bench name")
    fingerprint = take("fingerprint ")
    if not SHARD_HEX_FINGERPRINT.fullmatch(fingerprint):
        fail(path, f"line 3: fingerprint {fingerprint!r} is not 16 "
                   f"lowercase hex digits")
    shard = take("shard ")
    m = re.fullmatch(r"(\d+)/(\d+)", shard)
    if not m or not int(m.group(1)) < int(m.group(2)):
        fail(path, f"line 4: shard {shard!r} is not i/N with 0 <= i < N")
    cells = take("cells ")
    m = re.fullmatch(r"(\d+)\.\.(\d+)/(\d+)", cells)
    if not m:
        fail(path, f"line 5: cells {cells!r} is not begin..end/total")
    begin, end, total = (int(g) for g in m.groups())
    if not begin <= end <= total:
        fail(path, f"line 5: cell range violates begin <= end <= total")
    threads = take("threads ")
    if not threads.isdigit() or int(threads) < 1:
        fail(path, f"line 6: threads {threads!r} is not a positive integer")
    if take("") != "---":
        fail(path, "line 7: missing '---' header separator")

    rows = 0
    while pos < len(lines) and lines[pos].startswith("row "):
        where = f"line {pos + 1}"
        cell, _, text = lines[pos][4:].partition(" ")
        if not cell.isdigit() or int(cell) != begin + rows:
            fail(path, f"{where}: row cell {cell!r} breaks the "
                       f"sequential order from {begin}")
        try:
            row = json.loads(text, parse_constant=reject_constant)
        except ValueError as err:
            fail(path, f"{where}: row is not strict JSON: {err}")
        if (not isinstance(row, dict) or not row
                or any(isinstance(v, (dict, list)) for v in row.values())):
            fail(path, f"{where}: row is not a non-empty object of "
                       f"scalar values")
        check_finite(path, row, where)
        pos += 1
        rows += 1

    footer = take("total ")
    if not footer.isdigit() or int(footer) != rows:
        fail(path, f"footer 'total {footer}' does not match the {rows} "
                   f"row lines present (truncated file?)")
    if rows != end - begin:
        fail(path, f"{rows} rows but the manifest slice holds "
                   f"{end - begin} cells")
    if pos != len(lines):
        fail(path, f"line {pos + 1}: trailing content after the footer")
    return rows


def check_file(path):
    text = path.read_text()
    if text.startswith(SHARD_MAGIC):
        return check_partial(path, text)
    try:
        doc = json.loads(text, parse_constant=reject_constant)
    except ValueError as err:
        fail(path, f"does not parse as strict JSON: {err}")
    if not isinstance(doc, dict):
        fail(path, "top level is not an object")
    require_keys(path, doc, ("bench", "threads", "results"), "document")
    if not isinstance(doc["bench"], str) or not doc["bench"]:
        fail(path, "'bench' is not a non-empty string")
    if not isinstance(doc["threads"], int) or doc["threads"] < 1:
        fail(path, "'threads' is not a positive integer")
    results = doc["results"]
    if not isinstance(results, list) or not results:
        fail(path, "'results' is not a non-empty array")
    for i, row in enumerate(results):
        if not isinstance(row, dict) or not row:
            fail(path, f"results[{i}] is not a non-empty object")
    check_finite(path, doc, "document")
    extra = BENCH_CHECKS.get(doc["bench"])
    if extra is not None:
        extra(path, results)
    return len(results)


def collect(args):
    if not args:
        args = [pathlib.Path(__file__).resolve().parent.parent]
    files = []
    for arg in args:
        p = pathlib.Path(arg)
        if p.is_dir():
            files.extend(sorted(p.glob("BENCH_*.json")))
        else:
            files.append(p)
    return files


def describe():
    """Prints the validated schema from the same tuples check_file uses."""
    print("BENCH_*.json schema (what this script validates):")
    print("  document preamble: bench (non-empty str), threads (int >= 1),")
    print("                     results (non-empty array of objects)")
    print("  engine workload row keys: " + ", ".join(ENGINE_WORKLOAD_KEYS))
    print("  engine largest_summary row keys: "
          + ", ".join(ENGINE_SUMMARY_KEYS))
    print("  router throughput row keys: " + ", ".join(ROUTER_THROUGHPUT_KEYS))
    print("  router sustained row keys: " + ", ".join(ROUTER_SUSTAINED_KEYS))
    print("  router sustained_summary row keys: "
          + ", ".join(ROUTER_SUSTAINED_SUMMARY_KEYS))
    print("  adversarial row keys: " + ", ".join(ADVERSARIAL_ROW_KEYS))
    for family, keys in sorted(ADVERSARIAL_SHAPE_KEYS.items()):
        print(f"    + {family} shape keys: " + ", ".join(keys))
    print("  adversarial summary row keys: "
          + ", ".join(ADVERSARIAL_SUMMARY_KEYS))
    print("  weaklb per-t ratio floors (t/ln t envelope):")
    for t, floor in sorted(WEAKLB_RATIO_FLOORS.items()):
        print(f"    t={t}: >= {floor}")
    print("  lemma9 per-ell ratio floors (ell^3/polylog envelope):")
    for ell, floor in sorted(LEMMA9_RATIO_FLOORS.items()):
        print(f"    ell={ell}: >= {floor}")
    print("  uniform/capacity ratio gates (per row, ratio <= bound):")
    for bench, sweeps in RATIO_BOUNDS.items():
        for sweep, key in sweeps.items():
            print(f"    {bench} {sweep}: "
                  + (f"ratio <= {key}" if key else "no bound column"))
    print("  block_vs_flat per-workload floors "
          "(default %s):" % BLOCK_VS_FLAT_DEFAULT_FLOOR)
    for workload, floor in sorted(BLOCK_VS_FLAT_FLOORS.items()):
        print(f"    {workload}: >= {floor}")
    print("  sustained packets_per_sec floor: >= %.3g"
          % SUSTAINED_MIN_PACKETS_PER_SEC)
    print("  every numeric value finite; strict JSON (no NaN/Infinity)")
    print("--same-decisions ignores: " + ", ".join(TIMING_FIELDS)
          + "; on sustained_summary also " + ", ".join(SUMMARY_TIMING_FIELDS))
    print("partial-result files (magic '%s'):" % SHARD_MAGIC)
    print("  header: bench <name>, fingerprint <16 hex>, shard i/N (i < N),")
    print("          cells begin..end/total (begin <= end <= total),")
    print("          threads <int >= 1>, then '---'")
    print("  rows: 'row <cell> <json>' lines with sequential cells from")
    print("        begin, each JSON a non-empty object of finite scalars")
    print("  footer: 'total <rows>' matching both the row lines and the slice")
    return 0


def main(argv):
    if "--describe" in argv[1:]:
        return describe()
    if argv[1:2] == ["--same-decisions"]:
        if len(argv) != 4:
            raise SystemExit("usage: check_bench_json.py --same-decisions "
                             "COMMITTED FRESH")
        committed, fresh = argv[2], argv[3]
        rows = check_same_decisions(f"{fresh} vs {committed}",
                                    load_results(committed),
                                    load_results(fresh))
        print(f"check_bench_json: {fresh}: same decisions as {committed} "
              f"({rows} rows)")
        return 0
    files = collect(argv[1:])
    if not files:
        raise SystemExit("check_bench_json: no BENCH_*.json files found")
    for path in files:
        rows = check_file(path)
        print(f"check_bench_json: {path.name}: OK ({rows} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
