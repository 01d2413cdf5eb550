#!/usr/bin/env python3
"""subwordlab benchmark: four seeded workloads, checked outputs, one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload deep-rank --seed 0 --seconds 10 --trace 0

Each run starts fresh child processes (``child.py``): nine that only set up,
for the median ``setup_s``, then one that measures.  With ``--trace 0`` the
last line of output holds the end-to-end metrics, with ``--trace 1`` the
per-layer ones.  The line before it records the machine, the Python version,
the git commit, the seed and every op failure.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from child import per_layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("deep-rank", "wide-k", "faces", "verify-suite")
SETUP_PROBES = 9
DEADLINE_S = 170.0  # a run must end within 180 s


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child(args: list[str], deadline: float) -> dict:
    """Run child.py to completion and return its JSON line."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - monotonic()),
        check=False,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"child.py {' '.join(args)} exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [
        path
        for path in ("src/subwordlab/__init__.py", "scripts/conjecture_sweep.py")
        if not (ROOT / path).is_file()
    ]
    if missing:
        print(f"error: not a subwordlab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    deadline = monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [_child([*common, "--setup-only"], deadline) for _ in range(SETUP_PROBES)]
        measure = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        run = _child(measure, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    attempted, failed = run["attempted"], run["failed"]
    if args.trace:
        metrics = {
            name: {"value": run["per_layer"][name], "unit": unit}
            for name, unit in per_layer_units().items()
        }
    else:
        rates = [items / s for items, s in zip(run["pass_items"], run["pass_s"])]
        metrics = {
            "setup_s": {"value": statistics.median(p["setup_s"] for p in setups), "unit": "s"},
            "wall_s": {"value": statistics.median(run["pass_s"]), "unit": "s"},
            "work_per_s": {"value": statistics.median(rates), "unit": "items/s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MiB"},
            "ops_ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": f"{os.uname().sysname} {os.uname().release} {os.uname().machine}",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "setup_s": [p["setup_s"] for p in setups],
        "setup_raw_s": [p["setup_raw_s"] for p in setups],
        "pass_s": run["pass_s"],
        "pass_raw_s": run["pass_raw_s"],
        "call_s": run["call_s"],
        "failures": run["failures"],
    }
    if args.trace:
        meta["trace_file"] = run["trace_file"]
        meta["spans"] = run["spans"]
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
