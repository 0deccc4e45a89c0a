#!/usr/bin/env python3
"""Diff two BENCH_*.json trajectories and annotate the deltas.

Usage:
    bench_diff.py BASELINE.json CURRENT.json [--threshold PCT]

Compares per-(row, column) QPS between a baseline trajectory (the
previous main-branch artifact, or the committed bench/baselines/ snapshot)
and the current run, printing a GitHub-flavoured markdown table plus
``::warning::`` / ``::notice::`` workflow annotations.

Warn-only by design: the exit code is always 0. CI benchmark runners are
noisy shared machines, so a QPS drop here is a prompt
to look at the curves, never a red build. Trajectories recorded at a
different corpus scale or on a different core count are reported as
incomparable instead of being diffed into nonsense.
"""

import argparse
import json
import sys


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def cells(doc):
    """(row, column) -> QPS for every supported cell with a positive time."""
    out = {}
    for row in doc.get("rows", []):
        for column, cell in row.get("cells", {}).items():
            if not cell.get("supported", False):
                continue
            seconds = cell.get("seconds", 0.0)
            results = cell.get("results", 0)
            if seconds > 0 and results > 0:
                out[(row["row"], column)] = results / seconds
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        help="percent QPS drop that triggers a ::warning:: (default 10)",
    )
    args = parser.parse_args()

    try:
        base_doc = load(args.baseline)
        cur_doc = load(args.current)
    except (OSError, json.JSONDecodeError) as e:
        print(f"::notice::bench-diff skipped: cannot load trajectories ({e})")
        return 0

    print(f"## Bench trajectory diff ({cur_doc.get('benchmark', '?')})")
    print(
        f"baseline: `{base_doc.get('git_sha', 'unknown')}` "
        f"({base_doc.get('compiler', '?')}, nproc {base_doc.get('nproc', '?')}, "
        f"{base_doc.get('sentences', '?')} sentences)"
    )
    print(
        f"current:  `{cur_doc.get('git_sha', 'unknown')}` "
        f"({cur_doc.get('compiler', '?')}, nproc {cur_doc.get('nproc', '?')}, "
        f"{cur_doc.get('sentences', '?')} sentences)"
    )

    # Apples-to-apples gate: corpus scale defines the workload, so a scale
    # mismatch is never comparable. A core-count mismatch (e.g. the
    # committed baseline was recorded on a 1-CPU dev container, CI runners
    # have more) still gets a diff — cross-machine deltas are indicative,
    # not alarming, so they are noted instead of warned about.
    if base_doc.get("sentences") != cur_doc.get("sentences"):
        print(
            "::notice::bench-diff skipped: sentences differs "
            f"({base_doc.get('sentences')} vs {cur_doc.get('sentences')}); "
            "trajectories are not comparable"
        )
        return 0
    cross_machine = base_doc.get("nproc") != cur_doc.get("nproc")
    if cross_machine:
        print(
            "::notice::bench-diff: nproc differs "
            f"({base_doc.get('nproc')} vs {cur_doc.get('nproc')}); diffing "
            "anyway, but treat deltas as cross-machine indications only"
        )

    base = cells(base_doc)
    cur = cells(cur_doc)
    shared = sorted(set(base) & set(cur))
    if not shared:
        print("::notice::bench-diff: no overlapping cells to compare")
        return 0

    print()
    print("| row | column | baseline QPS | current QPS | delta |")
    print("|---|---|---:|---:|---:|")
    regressions = []
    for key in shared:
        b, c = base[key], cur[key]
        delta = 100.0 * (c - b) / b
        row, column = key
        print(f"| {row} | {column} | {b:,.0f} | {c:,.0f} | {delta:+.1f}% |")
        if delta < -args.threshold:
            regressions.append((row, column, delta))

    missing = sorted(set(base) - set(cur))
    for row, column in missing:
        print(f"::notice::bench-diff: cell {row}/{column} vanished from the run")

    if regressions and cross_machine:
        print(
            f"::notice::bench-diff: {len(regressions)} cell(s) differ more "
            f"than {args.threshold:.0f}% QPS, but the runs came from machines "
            "with different core counts — regenerate a same-machine baseline "
            "before reading anything into it"
        )
    elif regressions:
        worst = min(regressions, key=lambda r: r[2])
        print(
            f"::warning::bench-diff: {len(regressions)} cell(s) regressed more "
            f"than {args.threshold:.0f}% QPS; worst is {worst[0]}/{worst[1]} "
            f"at {worst[2]:+.1f}% (warn-only: CI bench runners are noisy — "
            "compare the uploaded curves before reacting)"
        )
    else:
        print(
            f"::notice::bench-diff: no cell regressed more than "
            f"{args.threshold:.0f}% QPS across {len(shared)} cells"
        )

    return 0


if __name__ == "__main__":
    sys.exit(main())
