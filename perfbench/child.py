"""One measuring process: set up a workload, run passes, print one JSON line.

``run.py`` starts this file in a fresh interpreter per run, so peak RSS and
the identity-keyed caches of ``subwordlab.multicluster`` start empty.

    python3 perfbench/child.py --workload W --seed S --seconds T --trace 0|1
    python3 perfbench/child.py --workload W --seed S --setup-only

Untraced, it repeats passes until ``--seconds`` have gone by (at least one).
Traced, it traces the set-up and one pass, then runs one untraced pass for
the tracing overhead, and checks that both passes gave identical outputs.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import Clock, HostSpeed

ROOT = Path(__file__).resolve().parents[1]

SPANNED = (  # .calls and .s
    "coxeter.CoxeterSystem",
    "coxeter.demazure_product",
    "subword.enumerate_facets_dfs",
    "subword.flip",
    "subword.all_faces",
    "subword.is_face",
    "sorting.sorting_word_w0",
    "sorting.has_sin_property",
    "quivers.check_mesh_relation",
)
SELF_TIMED = (  # .s only
    "subword.flip_graph",
    "subword.enumerate_facets_bfs",
    "subword.f_vector",
    "subword.minimal_nonfaces",
    "multicluster.theta_orbits_on_facets",
    "multicluster.csp_fixed_point_table",
    "experiments.run_count_experiment",
    "experiments.run_nonface_experiment",
    "experiments.run_csp_experiment",
    "experiments.run_maximality_experiment",
    "experiments.run_sin_experiment",
    "experiments.run_mesh_experiment",
    "experiments.run_independence_experiment",
    "cli.main",
)
MODULE_SELF = ("coxeter", "sorting", "subword", "multicluster", "quivers", "experiments", "cli")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPANNED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    for name in SELF_TIMED:
        units[f"{name}.s"] = "s"
    units.update({
        "coxeter.Element.__mul__.calls": "count",
        "ring.GoldenInt.ops": "count",
        "subword.enumerate_facets_dfs.mul_per_facet": "ratio",
        "subword.root_table.per_flip": "ratio",
        "subword.flip.mul_per_flip": "ratio",
        "subword.all_faces.faces": "count",
        "subword.subword_complex.rebuilds": "count",
        "subword.enumerate_facets_dfs.share": "ratio",
        "subword.flip.share": "ratio",
        "subword.all_faces.share": "ratio",
    })
    for module in MODULE_SELF:
        units[f"{module}.self_s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_values(tracer, traced, plain) -> dict[str, float]:
    """Per-layer metrics from a tracer and the traced and untraced passes."""
    traced_s = traced.clock.raw_seconds  # spans hold raw times
    values: dict[str, float] = {}
    for name in SPANNED:
        calls, seconds, _, _ = tracer.stat(name)
        values[f"{name}.calls"] = calls
        values[f"{name}.s"] = seconds
    for name in SELF_TIMED:
        values[f"{name}.s"] = tracer.stat(name)[1]
    dfs_calls, dfs_s, dfs_muls, dfs_facets = tracer.stat("subword.enumerate_facets_dfs")
    flip_calls, flip_s, flip_muls, _ = tracer.stat("subword.flip")
    table_calls, table_s, _, _ = tracer.stat("subword.root_table")
    complex_calls = tracer.stat("subword.subword_complex")[0]
    faces = tracer.stat("subword.all_faces")
    values.update({
        "coxeter.Element.__mul__.calls": tracer.muls,
        "ring.GoldenInt.ops": tracer.golden_ops,
        "subword.enumerate_facets_dfs.mul_per_facet": _ratio(dfs_muls, dfs_facets),
        "subword.root_table.per_flip": _ratio(table_calls, flip_calls),
        "subword.flip.mul_per_flip": _ratio(flip_muls, flip_calls),
        "subword.all_faces.faces": faces[3],
        "subword.subword_complex.rebuilds": complex_calls - len(tracer.complex_keys),
        "subword.enumerate_facets_dfs.share": _ratio(dfs_s, traced_s),
        "subword.flip.share": _ratio(flip_s + table_s, traced_s),
        "subword.all_faces.share": _ratio(
            faces[1] + tracer.stat("subword.minimal_nonfaces")[1], traced_s
        ),
    })
    module_self = tracer.module_self_s()
    for module in MODULE_SELF:
        values[f"{module}.self_s"] = module_self.get(module, 0.0)
    values["trace.overhead"] = _ratio(traced.clock.seconds, plain.clock.seconds)
    return values


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure(workload_name: str, seed: int, seconds: float, trace: bool, setup_only: bool = False):
    """Run one measurement in this process and return its result dict."""
    with HostSpeed() as host:
        return _measure(host, workload_name, seed, seconds, trace, setup_only)


def _measure(host, workload_name, seed, seconds, trace, setup_only):
    start = perf_counter()
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from workloads import WORKLOADS, Recorder

    workload = WORKLOADS[workload_name]
    namespaces = workload.load(ROOT)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(namespaces)
    try:
        context = workload.setup(seed, namespaces)
        end = perf_counter()
        setup = {"setup_raw_s": end - start, "setup_s": host.corrected(start, end)}
        if setup_only:
            return setup
        if tracer is None:
            passes = []
            measured = perf_counter()
            while not passes or perf_counter() - measured < seconds:
                recorder = Recorder(Clock(host))
                workload.run(context, recorder)
                passes.append(recorder)
            return _result(setup, passes)
        traced = Recorder(Clock(host))
        workload.run(context, traced)
    finally:
        if tracer is not None:
            tracer.uninstall()
    plain = Recorder(Clock(host))
    workload.run(context, plain)
    result = _result(setup, [traced, plain])
    result["attempted"] += 1  # the comparison of the two passes' outputs
    if traced.fingerprints != plain.fingerprints:
        result["failures"].append("traced and untraced passes gave different outputs")
        result["failed"] += 1
    result["per_layer"] = per_layer_values(tracer, traced, plain)
    trace_file = ROOT / ".bench_out" / f"trace-{workload_name}-seed{seed}.json.gz"
    tracer.write(trace_file)
    result["trace_file"] = str(trace_file.relative_to(ROOT))
    result["spans"] = len(tracer.span_start)
    return result


def _result(setup: dict, passes) -> dict:
    return {
        **setup,
        "pass_s": [p.clock.seconds for p in passes],
        "pass_raw_s": [p.clock.raw_seconds for p in passes],
        "pass_items": [p.items for p in passes],
        "call_s": {
            label: statistics.median(p.call_s[label] for p in passes)
            for label in passes[0].call_s
        },
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(len(p.failures) for p in passes),
        "failures": list(dict.fromkeys(f for p in passes for f in p.failures)),
        "peak_rss_mb": _peak_rss_mb(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.setup_only)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
