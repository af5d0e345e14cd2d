#!/usr/bin/env python3
"""Compare two bench_suite --json files: exact columns and throughput.

Usage:
    tools/compare_bench.py BASELINE.json CURRENT.json [--threshold 0.10]
        [--github-annotations] [--fail-on-regression]

Rows are matched on (scenario, family, k, rounds). Two gates apply to every
row present on both sides:

  * Exact gate. At a fixed seed the deterministic columns (solution,
    comm_words, engine_rounds, processed_edges, worker_forks) are a pure
    function of the code, so any change in them is a behaviour change: the
    run exits 1, whatever the load and with or without
    --fail-on-regression. A column missing from either row is not compared.
    bench_suite reports these columns from its first rep, whose seed is
    --seed itself, so they do not depend on --reps; both files must still
    come from the same --seed and --reps, since the timing medians do.
    A change that moves them on purpose re-cuts the baseline and says why.
  * Timing band. The relative change in seconds_median is reported; a row
    slower than baseline by more than the threshold counts as a regression,
    faster by more than the threshold as an improvement.

Rows present on only one side never fail the run, but each is called out
explicitly: a NEW ROW line (new scenarios are how the grid grows — the row
becomes pinned when the next baseline is checked in) or a REMOVED ROW line
(a pinned row disappearing usually means a renamed scenario or an
over-narrow filter, and deserves a look).

Timing regressions fail the run only with --fail-on-regression. CI gates
on them at a loose threshold against BENCH_scale025.json, the CI-scale
baseline; shared runners are noisy, and bench_suite medians at --scale 0.25
swing more than the quiet-machine threshold on their own.

The comparison checks the machine's 1-minute load average first
(--load-threshold, default 0.2): above it, other work was competing for the
CPU while the current numbers were taken, so every row is marked UNTRUSTED,
timing regressions are reported as warnings only, and --fail-on-regression
is suppressed — a busy runner must not turn timer noise into a red build.
Load does not touch the exact gate.
"""

import argparse
import json
import os
import sys


EXACT_COLUMNS = ("solution", "comm_words", "engine_rounds",
                 "processed_edges", "worker_forks")


def row_key(row):
    return (row["scenario"], row["family"], row["k"], row["rounds"])


def load(path):
    with open(path) as fh:
        data = json.load(fh)
    if "rows" not in data:
        raise SystemExit(f"{path}: not a bench_suite JSON (no 'rows')")
    return data


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative slowdown that counts as a regression")
    parser.add_argument("--github-annotations", action="store_true",
                        help="emit ::warning:: lines for regressions")
    parser.add_argument("--fail-on-regression", action="store_true")
    parser.add_argument("--load-threshold", type=float, default=0.2,
                        help="1-minute load average above which the "
                             "comparison is marked untrusted and cannot fail "
                             "the run")
    args = parser.parse_args()

    try:
        load1 = os.getloadavg()[0]
    except OSError:
        load1 = 0.0  # platform without getloadavg: nothing to distrust
    untrusted = load1 > args.load_threshold
    if untrusted:
        msg = (f"1-minute load average {load1:.2f} exceeds "
               f"{args.load_threshold:.2f} — the machine was busy; timings "
               f"below are UNTRUSTED and regressions will not fail the run")
        print(f"WARNING: {msg}")
        if args.github_annotations:
            print(f"::warning title=bench comparison untrusted::{msg}")

    base = load(args.baseline)
    cur = load(args.current)
    if base.get("scale") != cur.get("scale"):
        raise SystemExit(
            f"scale mismatch: baseline ran at {base.get('scale')}, current at "
            f"{cur.get('scale')} — compare against the baseline checked in "
            f"for that scale (BENCH_scale1.json is scale 1.0, "
            f"BENCH_scale025.json is the CI scale)")
    for field in ("seed", "reps"):
        if base.get(field) != cur.get(field):
            raise SystemExit(
                f"{field} mismatch: baseline ran with {field} "
                f"{base.get(field)}, current with {cur.get(field)} — the "
                f"exact columns depend on --seed and the timing medians on "
                f"--reps, so rerun with the baseline's --seed and --reps")
    base_rows = {row_key(r): r for r in base["rows"]}
    cur_rows = {row_key(r): r for r in cur["rows"]}

    regressions, improvements, steady, changed = [], [], [], []
    for key, cur_row in cur_rows.items():
        base_row = base_rows.get(key)
        if base_row is None:
            continue
        for column in EXACT_COLUMNS:
            if column in base_row and column in cur_row and \
                    base_row[column] != cur_row[column]:
                changed.append((key, column, base_row[column],
                                cur_row[column]))
        b = base_row["seconds_median"]
        c = cur_row["seconds_median"]
        if b <= 0:
            continue
        change = (c - b) / b  # positive = slower
        entry = (key, b, c, change)
        if change > args.threshold:
            regressions.append(entry)
        elif change < -args.threshold:
            improvements.append(entry)
        else:
            steady.append(entry)

    only_base = sorted(set(base_rows) - set(cur_rows))
    only_cur = sorted(set(cur_rows) - set(base_rows))

    def fmt(key):
        scenario, family, k, rounds = key
        tag = "[UNTRUSTED] " if untrusted else ""
        return f"{tag}{scenario}/{family} k={k} rounds={rounds}"

    print(f"compared {len(cur_rows)} rows against {args.baseline} "
          f"(threshold ±{args.threshold:.0%}, load {load1:.2f})")
    if changed:
        print("\nEXACT COLUMNS CHANGED:")
        for key, column, b, c in sorted(changed):
            label = f"{key[0]}/{key[1]} k={key[2]} rounds={key[3]}"
            print(f"  {label:55s} {column}: {b} -> {c}")
            if args.github_annotations:
                print(f"::error title=bench exact column changed::{label}: "
                      f"{column} {b} -> {c}")
    for title, entries in (("REGRESSIONS", regressions),
                           ("improvements", improvements)):
        if not entries:
            continue
        print(f"\n{title}:")
        for key, b, c, change in sorted(entries, key=lambda e: -abs(e[3])):
            print(f"  {fmt(key):55s} {b:.4f}s -> {c:.4f}s "
                  f"({change:+.1%})")
            if title == "REGRESSIONS" and args.github_annotations:
                print(f"::warning title=bench regression::{fmt(key)}: "
                      f"{b:.4f}s -> {c:.4f}s ({change:+.1%})")
    print(f"\nwithin threshold: {len(steady)} rows")
    if only_base:
        print("\nremoved rows (in baseline, missing from current):")
        for key in only_base:
            print(f"  REMOVED ROW {fmt(key)}")
            if args.github_annotations:
                print(f"::warning title=bench row removed::{fmt(key)} is in "
                      f"the baseline but missing from the current run — "
                      f"renamed scenario, or an over-narrow filter?")
    if only_cur:
        print("\nnew rows (no baseline yet):")
        for key in only_cur:
            median = cur_rows[key]["seconds_median"]
            print(f"  NEW ROW {fmt(key)} median {median:.4f}s")
            if args.github_annotations:
                print(f"::notice title=new bench row::{fmt(key)}: "
                      f"{median:.4f}s — no baseline to compare against; "
                      f"pinned once the next baseline is checked in")

    if changed:
        print(f"\nFAIL: {len(changed)} exact value(s) changed — the code's "
              f"output moved; re-cut the baseline if that is intended")
        return 1
    if regressions and args.fail_on_regression:
        if untrusted:
            print("\nUNTRUSTED COMPARISON: regressions found but the machine "
                  "was busy — not failing the run. Re-run on a quiet machine "
                  "before trusting (or acting on) these numbers.")
            return 0
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
