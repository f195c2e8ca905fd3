#!/usr/bin/env python3
"""Bench perf-regression gate.

Compares a freshly emitted bench JSON (BENCH_sim_throughput.json,
BENCH_fleet_health.json, BENCH_ota_transport.json, BENCH_fleet_10k.json)
against the committed baseline and fails when any gated column
regressed.

Three column families are gated:

- ``speedup*`` ratios must not *drop* by more than the tolerance
  (default 20%). Only ratios, never absolute MIPS or verdict rates: a
  ratio (superblock-vs-interpretive, pooled-vs-serial) divides out the
  host's raw speed, so the gate is meaningful on CI hardware that is
  faster or slower than the machine that produced the committed
  baseline. The benches (bench/bench_util.h) write each gated ratio as
  the median over repeated rounds of a ratio of CPU times taken inside
  one round, and only for one-thread cells. A pooled row's serial CPU /
  pooled CPU ratio is written as ``cpu_speedup*`` and its wall ratio
  as ``wall_*``; this gate reads neither (a pooled row is gated on its
  ``count_*`` columns). Other absolute perf numbers stay visible in the
  uploaded artifacts for human eyes.
- ``resident_*`` byte counts must not *grow* by more than the
  tolerance. Unlike wall-clock numbers these ARE host-independent --
  they count deterministic data-structure bytes (copy-on-write pages,
  page tables, log arenas), so an absolute comparison is exact and a
  growth regression is a real memory-diet regression
  (bench_fleet_10k's resident_bytes_per_device).
- ``count_*`` work counters must *equal* the baseline exactly. They
  count deterministic work (instructions, blocks and dispatches at a
  fixed cycle budget, verdict edges, convictions, bytes shipped and
  retransmitted): same seed, same counts, on any host and any pool
  size. They cannot be noisy, so any difference is a behaviour change
  and fails -- it doubles as a determinism oracle. A deliberate change
  re-baselines.

Each row's absolute ``*_ms`` columns are printed next to its ratios,
for information only (never gated): a ratio can fall because its
denominator (the serial row) got faster, and the log should show it.

A fresh run is compared only with baseline rows recorded in the same
``mode``: a ``--smoke`` run and a full run measure different workloads
(a smoke run is shorter, so its ratios read differently), and gating
one against the other is meaningless. A baseline document holds its
full-mode rows at the top level and may carry a ``smoke`` key holding
the document a ``--smoke`` run wrote (the committed baselines hold
the per-column median of several runs, with ``baseline_runs`` saying
how many). A fresh run whose mode
the baseline has no rows for is treated like a missing baseline
(exit 2). Within the chosen block, rows are matched by identity key
(``policy`` for the sim bench, ``threads`` for the fleet bench). A row or speedup column present in
the baseline but missing from the fresh run fails the gate (a silently
dropped measurement is how regressions hide); a *new* column with no
baseline is noted and passes. The fresh run's own ``ok`` differential
gate must also be true.

Pool sizes follow the host: the benches sweep {1, 2, 4} threads capped
at the host's hardware threads and record the cap as ``pool_cap``. A
baseline row whose ``threads`` exceeds the fresh run's ``pool_cap`` is
skipped with a note (this host cannot run it), and a row whose
``threads`` differs from its baseline's (bench_fleet_10k's
``windowed-pooled``, which runs on the largest pool) keeps its
``count_*`` and ``resident_*`` gates but not its ratios.

Usage:
    check_bench_regression.py FRESH BASELINE [--tolerance 0.20]

Self-test (runs this usage on synthetic documents):
    python3 scripts/test_check_bench_regression.py

Exit status: 0 pass, 1 regression (or malformed input), 2 missing
baseline file or no baseline rows of the fresh run's mode
(pass-with-warning: first run after adding a bench or a mode).

Stdlib only -- no third-party imports; CI runs it with the system
python3.
"""

import argparse
import json
import sys


def row_key(row):
    """Identity of a result row: whichever of the known keys it carries."""
    for key in ("policy", "threads"):
        if key in row:
            return f"{key}={row[key]}"
    return None


def speedup_columns(row):
    return {
        k: v
        for k, v in row.items()
        if k.startswith("speedup") and isinstance(v, (int, float))
    }


def resident_columns(row):
    """Absolute memory metrics: gated against *growth*, not loss."""
    return {
        k: v
        for k, v in row.items()
        if k.startswith("resident_") and isinstance(v, (int, float))
    }


def count_columns(row):
    """Deterministic work counters: gated for exact equality."""
    return {
        k: v
        for k, v in row.items()
        if k.startswith("count_") and isinstance(v, (int, float))
    }


def ms_columns(row):
    """Absolute timings, printed beside the ratios but never gated."""
    return {
        k: v
        for k, v in row.items()
        if k.endswith("_ms") and isinstance(v, (int, float))
    }


def rows_of(doc):
    """The result-row list of a bench document, keyed by row identity."""
    for key in ("policies", "rows"):
        rows = doc.get(key)
        if isinstance(rows, list):
            indexed = {}
            for row in rows:
                rk = row_key(row)
                if rk is not None:
                    indexed[rk] = row
            return indexed
    return {}


def baseline_for_mode(baseline, mode):
    """The baseline block recorded in ``mode``: the document itself or its
    ``smoke`` block, whichever carries that mode; None when neither does."""
    blocks = [baseline]
    smoke = baseline.get("smoke")
    if isinstance(smoke, dict):
        blocks.append(smoke)
    for block in blocks:
        if block.get("mode") == mode:
            return block
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="bench JSON emitted by this run")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="max fractional speedup loss before failing (default 0.20)",
    )
    args = parser.parse_args()

    try:
        with open(args.fresh) as f:
            fresh = json.load(f)
    except (OSError, ValueError) as err:
        print(f"FAIL: cannot read fresh result {args.fresh}: {err}")
        return 1
    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except OSError as err:
        # First run after a bench was added: nothing to compare against.
        print(f"WARN: no baseline ({err}); commit the fresh JSON to arm the gate")
        return 2
    except ValueError as err:
        print(f"FAIL: baseline {args.baseline} is not JSON: {err}")
        return 1

    mode = fresh.get("mode")
    baseline = baseline_for_mode(baseline, mode)
    if baseline is None:
        print(f"WARN: baseline {args.baseline} has no rows of mode {mode!r}; "
              "record a run of that mode to arm the gate")
        return 2
    print(f"comparing {mode!r}-mode rows")

    failures = []
    if fresh.get("ok") is not True:
        failures.append("fresh run's own differential gate reported ok=false")

    fresh_rows = rows_of(fresh)
    pool_cap = fresh.get("pool_cap")
    for rk, base_row in rows_of(baseline).items():
        threads = base_row.get("threads")
        fresh_row = fresh_rows.get(rk)
        if (fresh_row is None and isinstance(pool_cap, int)
                and isinstance(threads, int) and threads > pool_cap):
            print(f"note  {rk:<24} skipped: baseline row needs {threads} "
                  f"threads, this host's pool cap is {pool_cap}")
            continue
        if fresh_row is None:
            failures.append(f"{rk}: row present in baseline, missing from fresh run")
            continue
        # A row run on another pool size than its baseline (the host's
        # cap differs) keeps its count and resident gates, which do not
        # depend on the pool; its ratios are not comparable.
        same_pool = threads is None or fresh_row.get("threads") == threads
        if not same_pool:
            print(f"note  {rk:<24} ratios not gated: baseline ran on "
                  f"{threads} threads, fresh run on {fresh_row.get('threads')}")
        fresh_ms = ms_columns(fresh_row)
        for col, base_val in ms_columns(base_row).items():
            fresh_val = fresh_ms.get(col)
            fresh_txt = "-" if fresh_val is None else f"{fresh_val:10.2f}ms"
            print(
                f"{'info':>4}  {rk:<24} {col:<20} "
                f"baseline {base_val:10.2f}ms  fresh {fresh_txt}"
            )
        fresh_cols = speedup_columns(fresh_row)
        for col, base_val in speedup_columns(base_row).items():
            if base_val <= 0 or not same_pool:
                continue
            fresh_val = fresh_cols.get(col)
            if fresh_val is None:
                failures.append(f"{rk}: column {col} dropped from fresh run")
                continue
            loss = (base_val - fresh_val) / base_val
            verdict = "FAIL" if loss > args.tolerance else "ok"
            print(
                f"{verdict:>4}  {rk:<24} {col:<20} "
                f"baseline {base_val:6.2f}x  fresh {fresh_val:6.2f}x  "
                f"({-loss:+6.1%})"
            )
            if loss > args.tolerance:
                failures.append(
                    f"{rk}: {col} regressed {loss:.1%} "
                    f"({base_val:.2f}x -> {fresh_val:.2f}x)"
                )
        for col in fresh_cols.keys() - speedup_columns(base_row).keys():
            print(f"note  {rk:<24} {col:<20} new column, no baseline")

        fresh_mem = resident_columns(fresh_row)
        for col, base_val in resident_columns(base_row).items():
            if base_val <= 0:
                continue
            fresh_val = fresh_mem.get(col)
            if fresh_val is None:
                failures.append(f"{rk}: column {col} dropped from fresh run")
                continue
            growth = (fresh_val - base_val) / base_val
            verdict = "FAIL" if growth > args.tolerance else "ok"
            print(
                f"{verdict:>4}  {rk:<24} {col:<20} "
                f"baseline {base_val:10.0f}B  fresh {fresh_val:10.0f}B  "
                f"({growth:+6.1%})"
            )
            if growth > args.tolerance:
                failures.append(
                    f"{rk}: {col} grew {growth:.1%} "
                    f"({base_val:.0f}B -> {fresh_val:.0f}B)"
                )
        for col in fresh_mem.keys() - resident_columns(base_row).keys():
            print(f"note  {rk:<24} {col:<20} new column, no baseline")

        fresh_counts = count_columns(fresh_row)
        for col, base_val in count_columns(base_row).items():
            fresh_val = fresh_counts.get(col)
            if fresh_val is None:
                failures.append(f"{rk}: column {col} dropped from fresh run")
                continue
            verdict = "ok" if fresh_val == base_val else "FAIL"
            print(
                f"{verdict:>4}  {rk:<24} {col:<20} "
                f"baseline {base_val:10}   fresh {fresh_val:10}"
            )
            if fresh_val != base_val:
                failures.append(
                    f"{rk}: {col} changed ({base_val} -> {fresh_val})"
                )
        for col in fresh_counts.keys() - count_columns(base_row).keys():
            print(f"note  {rk:<24} {col:<20} new column, no baseline")

    # Rows the fresh run has but the baseline lacks are not a failure
    # (a new measurement is arriving, the mirror of the new-column
    # case) -- but they must not pass *silently*, or the new rows never
    # get committed as baselines and stay ungated forever.
    baseline_rows = rows_of(baseline)
    for rk in sorted(fresh_rows.keys() - baseline_rows.keys()):
        print(
            f"note  {rk:<24} new row, no baseline -- "
            "commit the fresh JSON to gate it"
        )

    if failures:
        print(f"\nFAIL: {len(failures)} regression(s) beyond "
              f"{args.tolerance:.0%} tolerance or changed count(s):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nPASS: no speedup or resident-memory regression beyond "
          f"{args.tolerance:.0%} tolerance, every count unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
