#!/usr/bin/env python3
"""Sweep the conjecture experiments over desk-scale instances.

Usage:
    python scripts/conjecture_sweep.py [--seed S] [--wide] [--json]

Runs the counting, minimal-non-face, cyclic-sieving and maximality
experiments and prints one table per experiment.  --seed draws the 200
(MAXIMALITY_SAMPLES) words of each sampled maximality instance.  --wide adds
a few slower instances (D4 with k = 2, B4, larger dihedral types) to the
counting and non-face sweeps.  Every report runs and prints; the script then
exits 1 if an assertion-backed experiment failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from subwordlab.experiments import (
    COUNT_INSTANCES,
    NONFACE_INSTANCES,
    WIDE_COUNTS,
    WIDE_NONFACES,
    run_count_experiment,
    run_csp_experiment,
    run_maximality_experiment,
    run_nonface_experiment,
)


def show(report) -> None:
    print(f"== {report.name} [{report.verdict}] ({report.elapsed_ms:.0f} ms)")
    for row in report.rows:
        print("   " + ", ".join(f"{key}={value}" for key, value in row.items()))
    print()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--wide", action="store_true", help="include slower instances")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    reports = [
        run_count_experiment(WIDE_COUNTS if args.wide else COUNT_INSTANCES),
        run_nonface_experiment(WIDE_NONFACES if args.wide else NONFACE_INSTANCES),
        run_csp_experiment(),
        run_maximality_experiment(seed=args.seed),
    ]
    if args.json:
        print(json.dumps([r.as_dict() for r in reports], indent=2, sort_keys=True))
    else:
        for report in reports:
            show(report)
    return 1 if any(r.verdict == "fail" for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
