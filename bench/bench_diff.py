#!/usr/bin/env python3
"""Diff two BENCH_*.json trajectories and annotate the deltas.

Usage:
    bench_diff.py BASELINE.json CURRENT.json [--threshold PCT]
                  [--ratio NUM_COL DEN_COL]

Compares per-(row, column) QPS between a baseline trajectory (the
previous main-branch artifact, or the committed bench/baselines/ snapshot)
and the current run, printing a GitHub-flavoured markdown table plus
``::warning::`` / ``::notice::`` workflow annotations.

``--ratio NUM DEN`` additionally reports the per-row QPS ratio between two
columns of the *same* run (e.g. ``--ratio Coalesced PerText`` for
BENCH_plan_cache.json: how much faster coalesced batches run than per-text
execution), for baseline and current side by side, plus the geometric mean. A geomean below 1.0 in the
current run (the numerator column lost to the denominator) draws a
``::warning::``; like everything here it never fails the build.

Warn-only by design: the exit code is always 0. CI benchmark runners are
noisy shared machines, so a QPS drop here is a prompt
to look at the curves, never a red build. Trajectories recorded at a
different corpus scale or on a different core count are reported as
incomparable instead of being diffed into nonsense.
"""

import argparse
import json
import math
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


def ratios(qps, num_col, den_col):
    """row -> QPS(num_col) / QPS(den_col) for rows holding both cells."""
    out = {}
    for (row, column), value in qps.items():
        if column != num_col:
            continue
        den = qps.get((row, den_col))
        if den:
            out[row] = value / den
    return out


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def print_ratio_report(base, cur, num_col, den_col, cross_machine):
    """The --ratio section: per-row NUM/DEN QPS ratios, both trajectories."""
    base_r = ratios(base, num_col, den_col)
    cur_r = ratios(cur, num_col, den_col)
    if not cur_r:
        print(
            f"::notice::bench-diff: no rows hold both {num_col} and "
            f"{den_col} cells; --ratio skipped"
        )
        return
    print()
    print(f"### {num_col} / {den_col} QPS ratio (>1.0 = {num_col} faster)")
    print()
    print("| row | baseline | current |")
    print("|---|---:|---:|")
    # Length-then-lexical sort keeps Q2 ahead of Q10.
    for row in sorted(cur_r, key=lambda r: (len(r), r)):
        b = f"{base_r[row]:.2f}x" if row in base_r else "—"
        print(f"| {row} | {b} | {cur_r[row]:.2f}x |")
    gm = geomean(list(cur_r.values()))
    base_gm = geomean(list(base_r.values())) if base_r else None
    base_text = f" (baseline {base_gm:.2f}x)" if base_gm is not None else ""
    print(f"| **geomean** | {f'{base_gm:.2f}x' if base_gm else '—'} "
          f"| **{gm:.2f}x** |")
    if gm < 1.0 and not cross_machine:
        print(
            f"::warning::bench-diff: geomean {num_col}/{den_col} QPS ratio "
            f"is {gm:.2f}x{base_text} — the {num_col} column lost to "
            f"{den_col} overall (warn-only; check the per-row table)"
        )
    else:
        print(
            f"::notice::bench-diff: geomean {num_col}/{den_col} QPS ratio "
            f"{gm:.2f}x{base_text} over {len(cur_r)} rows"
        )


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
    parser.add_argument(
        "--ratio",
        nargs=2,
        metavar=("NUM_COL", "DEN_COL"),
        help="also report the per-row NUM_COL/DEN_COL QPS ratio",
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

    if args.ratio:
        print_ratio_report(base, cur, args.ratio[0], args.ratio[1],
                           cross_machine)
    return 0


if __name__ == "__main__":
    sys.exit(main())
