"""Command-line surface: sort, complex, flipgraph, theta, bijection, quiver, verify.

JSON output follows {command, params, results, elapsed_ms} with sorted keys;
exit code 0 means every assertion-backed check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import NamedTuple

from .coxeter import (
    CoxeterError,
    CoxeterSystem,
    ResourceLimitError,
    Word,
    format_word,
    longest_element,
    parse_descriptor,
    parse_word,
)
from .experiments import (
    EXPERIMENTS,
    _lex_coxeter_word,
    flip_graph_diameter,
)
from .multicluster import (
    _polygon_rank,
    multi_cluster_complex,
    multi_cluster_word,
    permutation_order,
    theta_orbits_on_facets,
    theta_order_formula,
    theta_permutation,
    type_a_bijection,
    type_b_bijection,
)
from .quivers import ar_quiver, export_dot, repetition_window
from .sorting import sorting_word_w0
from .subword import (
    _braced,
    f_vector,
    flip_graph,
    flip_graph_dot,
    minimal_nonfaces,
    reduced_euler_characteristic,
    subword_complex,
)


class _Output(NamedTuple):
    """What a text-or-JSON command prints: ``lines`` in text mode, otherwise
    the JSON payload; ``lines`` is None for a JSON-only command."""

    command: str
    params: dict
    results: object
    lines: list[str] | None
    code: int = 0


def _system_from(args) -> CoxeterSystem:
    if not args.type:
        raise CoxeterError("--type is required")
    return CoxeterSystem(args.type)


def _coxeter_word_from(args, system: CoxeterSystem) -> Word:
    return _lex_coxeter_word(system) if args.cox is None else parse_word(args.cox)


def _complex_from(args):
    """The complex on ``--word``, even empty, else the multi-cluster one."""
    if args.word is not None:
        for flag, value in (("--cox", args.cox), ("-k", args.k)):
            if value is not None:
                raise CoxeterError(f"{flag} does not apply with --word")
        args.pi = args.pi or "auto"
    elif args.pi is not None:
        raise CoxeterError("--pi only applies with --word")
    system = _system_from(args)
    if args.word is None:
        args.k = 1 if args.k is None else args.k
        return multi_cluster_complex(system, _coxeter_word_from(args, system), args.k)
    target = longest_element(system) if args.pi == "w0" else None  # None: Demazure
    return subword_complex(system, parse_word(args.word), target)


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_sort(args) -> _Output:
    system = _system_from(args)
    cox = _coxeter_word_from(args, system)
    report = sorting_word_w0(system, cox)
    phi = {f"s{s}": count for s, count in sorted(report.phi.items())}
    factorization = [[f"s{s}" for s in block] for block in report.factorization]
    return _Output(
        "sort",
        {"type": args.type, "cox": format_word(cox)},
        {"word": format_word(report.word), "phi": phi, "factorization": factorization},
        [
            f"word: {format_word(report.word)}",
            f"phi: {phi}",
            "factorization: " + " | ".join(",".join(block) for block in factorization),
        ],
    )


def _cmd_complex(args) -> _Output:
    if args.max_size is not None:
        if args.action != "nonfaces":
            raise CoxeterError("--max-size only applies to complex nonfaces")
        if args.max_size < 1:
            raise CoxeterError(f"--max-size must be at least 1, got {args.max_size}")
    complex_ = _complex_from(args)
    results = {"word": format_word(complex_.word)}
    if args.action == "facets":
        results["facets"] = [list(facet) for facet in complex_.facets]
        results["count"] = len(complex_.facets)
        lines = [f"word: {results['word']}", f"{results['count']} facets:"]
        lines += ["  " + _braced(facet) for facet in complex_.facets]
    elif args.action == "fvector":
        fv = f_vector(complex_)
        euler = reduced_euler_characteristic(complex_)
        results["f_vector"] = list(fv)
        results["reduced_euler_characteristic"] = euler
        lines = [f"f-vector: {fv}", f"reduced Euler characteristic: {euler}"]
    else:  # nonfaces
        cap = args.max_size
        if cap is None:  # at least 1: an empty complex has facet size below 0
            cap = max(1, complex_.facet_size() + 1)
        found = minimal_nonfaces(complex_, cap)
        results["max_size"] = cap
        results["minimal_nonfaces"] = [list(x) for x in found]
        results["sizes"] = sorted({len(x) for x in found})
        lines = [f"{len(found)} minimal non-faces (sizes {results['sizes']}):"]
        lines += ["  " + _braced(group) for group in found]
    params = {key: getattr(args, key) for key in ("type", "cox", "k", "word", "pi")}
    return _Output(f"complex {args.action}", params, results, lines)


def _write_dot(dot: str, path) -> None:
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dot)
    else:
        sys.stdout.write(dot)


def _cmd_flipgraph(args) -> int:
    complex_ = _complex_from(args)
    graph = flip_graph(complex_)
    _write_dot(flip_graph_dot(graph), args.dot)
    if args.diameter:
        print(f"diameter: {flip_graph_diameter(graph)}")
    return 0


def _cmd_theta(args) -> _Output:
    system = _system_from(args)
    cox = _coxeter_word_from(args, system)
    if args.order:
        results = {
            "order": permutation_order(theta_permutation(system, cox, args.k)),
            "formula": theta_order_formula(system, args.k),
        }
        lines = [f"order: {results['order']} (formula: {results['formula']})"]
    elif args.orbits:
        orbits = theta_orbits_on_facets(system, cox, args.k)
        results = {
            "orbit_sizes": [len(orbit) for orbit in orbits],
            "orbits": [[list(facet) for facet in orbit] for orbit in orbits],
        }
        lines = [" -> ".join(_braced(facet) for facet in orbit) for orbit in orbits]
    else:
        perm = theta_permutation(system, cox, args.k)
        results = {"permutation": list(perm)}
        lines = [
            f"positions: {list(range(1, len(perm) + 1))}",
            f"images:    {list(perm)}",
        ]
    params = {"type": args.type, "cox": format_word(cox), "k": args.k}
    return _Output("theta", params, results, lines)


def _cmd_bijection(args) -> _Output:
    family = "A" if args.flavor == "typea" else "B"
    system = CoxeterSystem(f"{family}{_polygon_rank(family, args.m, args.k)}")
    cox = _coxeter_word_from(args, system)
    word = multi_cluster_word(system, cox, args.k)
    if family == "A":
        key = "diagonal"
        images = [list(d) for d in type_a_bijection(args.m, args.k, cox)]
    else:
        key = "pair"
        pairs = type_b_bijection(args.m, args.k, cox)
        images = [sorted(list(d) for d in pair) for pair in pairs]
    results = [
        {"position": p, "letter": f"s{s}", key: image}
        for p, (s, image) in enumerate(zip(word, images), start=1)
    ]
    params = {"m": args.m, "k": args.k, "cox": format_word(cox)}
    return _Output(f"bijection {args.flavor}", params, results, None)


def _cmd_quiver(args) -> int:
    if args.copies is not None and args.flavor != "repetition":
        raise CoxeterError("--copies only applies to quiver repetition")
    system = _system_from(args)
    cox = _coxeter_word_from(args, system)
    if args.flavor == "ar":
        quiver = ar_quiver(system, cox)
    else:
        copies = 2 if args.copies is None else args.copies
        quiver = repetition_window(system, cox, copies).quiver
    _write_dot(export_dot(quiver, name=args.flavor), args.dot)
    return 0


def _cmd_verify(args) -> _Output:
    type_ = parse_descriptor(args.type).name() if args.type else None
    names = list(EXPERIMENTS) if args.what == "all" else [args.what]
    reports = []
    for name in names:
        runner = EXPERIMENTS[name]
        report = runner(seed=args.seed) if name == "maximality" else runner()
        report.rows = [
            row
            for row in report.rows
            if (not type_ or row.get("type") == type_)
            and (args.k is None or row.get("k") == args.k)
        ]
        reports.append(report)
    if (type_ or args.k is not None) and not any(r.rows for r in reports):
        flags = [f"--type {args.type}"] if args.type else []
        flags += [] if args.k is None else [f"-k {args.k}"]
        raise CoxeterError(f"no verify {args.what} rows match {' '.join(flags)}")
    lines = []
    for report in reports:
        lines.append(f"[{report.verdict:11s}] {report.name} ({report.elapsed_ms:.0f} ms)")
        lines += [f"    {row}" for row in report.rows]
    return _Output(
        f"verify {args.what}",
        {"type": args.type, "k": args.k, "seed": args.seed},
        [report.as_dict() for report in reports],
        lines,
        1 if any(r.verdict == "fail" for r in reports) else 0,
    )


# ---------------------------------------------------------------------------
# Parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subwordlab",
        description="Subword complexes and multi-cluster complexes of finite Coxeter groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_k=True, with_word=False, with_json=True):
        p.add_argument("--type", help="group descriptor, e.g. A3, B4, H3, I2(7)")
        p.add_argument("--cox", help="Coxeter word, e.g. s1,s3,s2,s4")
        if with_k:
            p.add_argument("-k", type=int, default=None if with_word else 1,
                           help="number of prefix copies (default 1)")
        if with_word:
            p.add_argument("--word", help="explicit word instead of the multi-cluster word")
            p.add_argument("--pi", choices=["auto", "w0"],
                           help="target element for --word (default auto = Demazure product)")
        if with_json:
            p.add_argument("--json", action="store_true")

    p_sort = sub.add_parser("sort", help="sorting word of the longest element")
    add_common(p_sort, with_k=False)
    p_sort.set_defaults(func=_cmd_sort)

    p_complex = sub.add_parser("complex", help="facets, f-vector or minimal non-faces")
    p_complex.add_argument("action", choices=["facets", "fvector", "nonfaces"])
    add_common(p_complex, with_word=True)
    p_complex.add_argument("--max-size", type=int, help="cap for minimal non-face search")
    p_complex.set_defaults(func=_cmd_complex)

    p_flip = sub.add_parser("flipgraph", help="flip graph as DOT, optional diameter")
    add_common(p_flip, with_word=True, with_json=False)  # DOT only
    p_flip.add_argument("--dot", help="output DOT file ('-' for stdout)")
    p_flip.add_argument("--diameter", action="store_true")
    p_flip.set_defaults(func=_cmd_flipgraph)

    p_theta = sub.add_parser("theta", help="the next-occurrence cyclic action")
    add_common(p_theta)
    group = p_theta.add_mutually_exclusive_group()
    group.add_argument("--orbits", action="store_true")
    group.add_argument("--order", action="store_true")
    p_theta.set_defaults(func=_cmd_theta)

    p_bij = sub.add_parser("bijection", help="polygon bijections, JSON output")
    p_bij.add_argument("flavor", choices=["typea", "typeb"])
    p_bij.add_argument("--m", type=int, required=True, help="polygon size parameter")
    p_bij.add_argument("-k", type=int, default=1)
    p_bij.add_argument("--cox", help="Coxeter word of the underlying system")
    p_bij.set_defaults(func=_cmd_bijection)

    p_quiver = sub.add_parser("quiver", help="translation quivers as DOT")
    p_quiver.add_argument("flavor", choices=["ar", "repetition"])
    p_quiver.add_argument("--type", help="group descriptor")
    p_quiver.add_argument("--cox", help="Coxeter word")
    p_quiver.add_argument("--copies", type=int,
                          help="blocks of quiver repetition (default 2)")
    p_quiver.add_argument("--dot", help="output DOT file ('-' for stdout)")
    p_quiver.set_defaults(func=_cmd_quiver)

    p_verify = sub.add_parser("verify", help="experiment suite")
    p_verify.add_argument(
        "what",
        choices=["all"] + sorted(EXPERIMENTS),
    )
    p_verify.add_argument("--type", help="restrict rows to one type")
    p_verify.add_argument("-k", type=int, default=None, help="restrict rows to one k")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def _emit(output, args, started: float) -> int:
    """The one emitter: print a command's text lines, or its JSON payload under
    ``--json`` or when it has no text form, and return its exit code."""
    if isinstance(output, int):  # the DOT commands print their own output
        return output
    if output.lines is None or args.json:
        payload = {
            "command": output.command,
            "params": output.params,
            "results": output.results,
            "elapsed_ms": round((time.perf_counter() - started) * 1000.0, 3),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in output.lines:
            print(line)
    return output.code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        code = _emit(args.func(args), args, started)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone: flush the rest into devnull, exit as if killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (CoxeterError, ResourceLimitError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
