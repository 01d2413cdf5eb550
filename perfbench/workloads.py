"""The four benchmark workloads: instance ladders, seeded inputs, the ops of
one pass, and the pinned values every op output is checked against.

A workload has two set-up steps and a pass:

* ``load(root)`` imports what it drives and returns the namespaces that bind
  library functions outside the library (the sweep script), so that a tracer
  can patch them;
* ``setup(seed, namespaces)`` builds every Coxeter system, Coxeter word and
  multi-cluster word the pass uses;
* ``run(context, recorder)`` is one pass over the ladder, a closed loop of ops:
  each op is one library call on one instance (or one experiment report), timed
  by the recorder and checked against the pinned values below.

The pinned values do not depend on the seed: multi-cluster complexes for
different Coxeter words are isomorphic, so facet counts, f-vectors, minimal
non-faces and theta orbit sizes are the same for every word.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import traceback
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import Clock

# Library calls go through the module attributes, so that a tracer patching
# the module namespaces sees them.
from subwordlab import cli, coxeter, multicluster, subword

# Facet counts.  Where the degree-product formula is a theorem (k = 1 in every
# type; A, B and I2 at every k) these equal ``facet_count_formula``; the
# benchmark's tests check that.  D4 k=3 and F4 k=2 differ from the formula
# (8575 and 4290) and H3 k=3 happens to agree with it; all three are pinned.
FACETS = {
    ("E6", 1): 833,
    ("H4", 1): 280,
    ("E7", 1): 4160,
    ("A4", 3): 4719,
    ("D4", 3): 8578,
    ("A5", 2): 4719,
    ("F4", 2): 4292,
    ("B4", 2): 1764,
    ("H3", 3): 4224,
    ("A3", 4): 1001,
}

F_VECTORS = {
    ("B4", 2): (1, 24, 276, 1624, 5376, 10416, 11704, 7056, 1764),
    ("F4", 2): (1, 32, 496, 3392, 12148, 24560, 28216, 17168, 4292),
    ("H3", 3): (1, 24, 276, 2024, 8862, 23352, 37548, 36072, 19008, 4224),
    ("A3", 4): (1, 18, 153, 816, 3060, 8502, 17849, 28314, 33462, 28600, 16731, 6006, 1001),
}

# (count, sizes) of the minimal non-faces of size <= k + 1.
NONFACES = {
    ("B4", 2): (400, (3,)),
    ("F4", 2): (1568, (3,)),
    ("H3", 3): (1764, (4,)),
    ("A3", 4): (66, (5,)),
}

# Orbit-size histograms of the next-occurrence action on facets.
THETA_ORBITS = {
    ("E6", 1): {7: 15, 14: 52},
    ("H4", 1): {8: 1, 16: 17},
}

# sha256 of each experiment report with its timing and seed-dependent
# fields removed (see ``_canonical_report``), as printed by
# ``subwordlab verify all --json`` and ``conjecture_sweep.py --wide --json``.
REPORT_DIGESTS = {
    ("verify", "counts"):
        "e27eda62dec281820555ab857798900d7a1ded7f01b442751a2de6500f882de7",
    ("verify", "nonfaces"):
        "fd9d7b6987e9e556acc820ab9f808de92071f5eb4bd8ab16881e28a449ff3bf9",
    ("verify", "csp"):
        "2c2c7049a5dde8e4d1acd3ec19e384f2ed94e540d7a12020137fab039d020bbb",
    ("verify", "maximality"):
        "9b6ba8affabd7922b44e080265780b395deeab2641a65d6bc1aa0b27fd845fa0",
    ("verify", "sin"):
        "d2bcf07f0e106b05d02003e9ec62aaa4929778618df674311d91783ed13a040a",
    ("verify", "mesh"):
        "44bea6249f41a361aec3d7bcfad259676b160aea5f290224ff86ccbc901d8916",
    ("verify", "independence"):
        "3f04d37a4ab05a83da89530de86beca78d7b12e591e13db7c705526ae97a7d7f",
    ("sweep", "counts"):
        "e72dfe46f8f8262a2ae6f89739f1e655b0d6e5d14635459771575b6db24ef8a5",
    ("sweep", "nonfaces"):
        "a82f158528e773ccfab03b6bd580d76b989d7b8a01d96538c958ad8ce597927e",
    ("sweep", "csp"):
        "2c2c7049a5dde8e4d1acd3ec19e384f2ed94e540d7a12020137fab039d020bbb",
    ("sweep", "maximality"):
        "9b6ba8affabd7922b44e080265780b395deeab2641a65d6bc1aa0b27fd845fa0",
}


# ---------------------------------------------------------------------------
# Recording ops

@dataclass
class Recorder:
    """Times, checks and counts the ops of one pass."""

    clock: Clock
    call_s: dict = field(default_factory=dict)  # corrected seconds per timed call
    items: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    fingerprints: list = field(default_factory=list)

    def timed(self, label: str, call):
        """Run ``call`` inside the timed region; return (result, error)."""
        result, exc, self.call_s[label] = self.clock.time(call)
        if exc is None:
            return result, None
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return None, f"{type(exc).__name__}: {exc} (at {Path(where.filename).name}:{where.lineno})"

    def record(self, name: str, problem: str | None, items: int = 0, fingerprint=None):
        self.attempted += 1
        self.items += items
        self.fingerprints.append((name, fingerprint))
        if problem is not None:
            self.failures.append(f"{name}: {problem}")

    def op(self, name: str, call, check):
        """One timed library call; ``check(result)`` gives (items, problem)."""
        result, error = self.timed(name, call)
        if error is not None:
            self.record(name, f"raised {error}")
            return None
        items, problem = check(result)
        self.record(name, problem, items, _fingerprint(result))
        return result


def _fingerprint(result) -> int:
    """Equal outputs give equal fingerprints within one process."""
    if hasattr(result, "facets"):  # SubwordComplex: its system hashes by identity
        return hash((result.word, result.target, result.facets))
    return hash(result)


# ---------------------------------------------------------------------------
# Seeded inputs

@dataclass(frozen=True)
class Instance:
    """One multi-cluster complex: system, Coxeter word c, word c^k w0(c)."""

    name: str
    k: int
    system: coxeter.CoxeterSystem
    cox: tuple
    word: tuple

    @property
    def key(self) -> tuple[str, int]:
        return (self.name, self.k)

    @property
    def label(self) -> str:
        return f"{self.name} k={self.k}"

    @property
    def facet_size(self) -> int:
        return self.k * self.system.rank


def pick_coxeter_word(system: coxeter.CoxeterSystem, name: str, k: int, seed: int) -> tuple:
    """The seed's Coxeter word for one instance; seed 0 gives the lex-first word."""
    words = coxeter.enumerate_coxeter_words(system)
    if seed == 0:
        return words[0]
    return random.Random(f"{seed}/{name}/{k}").choice(words)


def build_instances(ladder, seed: int) -> dict:
    systems: dict[str, coxeter.CoxeterSystem] = {}
    out = {}
    for name, k in ladder:
        if name not in systems:
            systems[name] = coxeter.CoxeterSystem(name)
        system = systems[name]
        cox = pick_coxeter_word(system, name, k, seed)
        word = multicluster.multi_cluster_word(system, cox, k)
        out[(name, k)] = Instance(name, k, system, cox, word)
    return out


# ---------------------------------------------------------------------------
# Checks

def _check_complex(inst: Instance):
    def check(complex_):
        count = len(complex_.facets)
        expected = FACETS[inst.key]
        if count != expected:
            return count, f"{count} facets, expected {expected}"
        if any(len(facet) != inst.facet_size for facet in complex_.facets):
            return count, f"a facet does not have {inst.facet_size} positions"
        return count, None

    return check


def _check_flip_graph(inst: Instance, complex_):
    def check(graph):
        count = len(graph.nodes)
        if graph.nodes != complex_.facets:
            return count, "nodes differ from the facets"
        if any(len(adjacent) != inst.facet_size for adjacent in graph.neighbors):
            return count, f"not regular of degree {inst.facet_size}"
        edges = len(graph.edges())
        expected = FACETS[inst.key] * inst.facet_size // 2
        if edges != expected:
            return count, f"{edges} edges, expected {expected}"
        return count, None

    return check


def _check_theta(inst: Instance):
    def check(orbits):
        sizes = dict(Counter(len(orbit) for orbit in orbits))
        count = sum(len(orbit) for orbit in orbits)
        if sizes != THETA_ORBITS[inst.key] or count != FACETS[inst.key]:
            return count, f"orbit sizes {sorted(sizes.items())}"
        return count, None

    return check


def _check_f_vector(inst: Instance):
    def check(fv):
        if tuple(fv) != F_VECTORS[inst.key]:
            return FACETS[inst.key], f"f-vector {fv}"
        return FACETS[inst.key], None

    return check


def _check_nonfaces(inst: Instance):
    def check(found):
        got = (len(found), tuple(sorted({len(x) for x in found})))
        if got != NONFACES[inst.key]:
            return FACETS[inst.key], f"{got[0]} minimal non-faces of sizes {got[1]}"
        return FACETS[inst.key], None

    return check


def _complex_op(recorder: Recorder, inst: Instance):
    target = coxeter.longest_element(inst.system)
    return recorder.op(
        f"facets {inst.label}",
        lambda: subword.subword_complex(inst.system, inst.word, target),
        _check_complex(inst),
    )


def _dependent_op(recorder: Recorder, name: str, complex_, call, check):
    """An op on a complex; counted as failed when the complex op raised."""
    if complex_ is None:
        recorder.record(name, "skipped: building the complex failed")
        return
    recorder.op(name, call, check)


# ---------------------------------------------------------------------------
# Workloads

@dataclass
class FacetWorkload:
    """Facets plus flip graphs, theta orbits, or f-vectors and non-faces."""

    ladder: tuple
    flips: bool = False
    theta: tuple = ()
    faces: bool = False

    def load(self, root) -> list:
        return []

    def setup(self, seed: int, namespaces: list) -> dict:
        return build_instances(self.ladder, seed)

    def run(self, instances: dict, recorder: Recorder) -> None:
        for key in self.ladder:
            inst = instances[key]
            complex_ = _complex_op(recorder, inst)
            if self.flips:
                _dependent_op(
                    recorder, f"flip_graph {inst.label}", complex_,
                    lambda: subword.flip_graph(complex_), _check_flip_graph(inst, complex_),
                )
            if self.faces:
                _dependent_op(
                    recorder, f"f_vector {inst.label}", complex_,
                    lambda: subword.f_vector(complex_), _check_f_vector(inst),
                )
                _dependent_op(
                    recorder, f"minimal_nonfaces {inst.label}", complex_,
                    lambda: subword.minimal_nonfaces(complex_, inst.k + 1), _check_nonfaces(inst),
                )
        for key in self.theta:
            inst = instances[key]
            recorder.op(
                f"theta_orbits {inst.label}",
                lambda: multicluster.theta_orbits_on_facets(inst.system, inst.cox, inst.k),
                _check_theta(inst),
            )


@dataclass
class SuiteContext:
    sweep: object
    seed: int


class VerifySuite:
    """In-process ``verify all`` and ``conjecture_sweep.py --wide``, JSON mode.

    Each experiment report is one op; the work items are report rows.
    """

    def load(self, root) -> list:
        scripts = str(root / "scripts")
        if scripts not in sys.path:
            sys.path.insert(0, scripts)
        import conjecture_sweep

        return [conjecture_sweep]

    def setup(self, seed: int, namespaces: list) -> SuiteContext:
        return SuiteContext(namespaces[0], seed)

    def run(self, context: SuiteContext, recorder: Recorder) -> None:
        seed = str(context.seed)
        self._run_json(
            recorder, "verify", lambda: cli.main(["verify", "all", "--json", "--seed", seed]),
            lambda payload: payload["results"],
        )
        self._run_json(
            recorder, "sweep",
            lambda: context.sweep.main(["--wide", "--json", "--seed", seed]),
            lambda payload: payload,
        )

    @staticmethod
    def _run_json(recorder: Recorder, source: str, main, reports_of) -> None:
        expected = [name for src, name in REPORT_DIGESTS if src == source]
        buffer = io.StringIO()

        def call():
            with redirect_stdout(buffer):
                return main()

        code, error = recorder.timed(source, call)
        problem = f"raised {error}" if error else None
        if problem is None and code != 0:
            problem = f"exit code {code}"
        reports = {}
        if problem is None:
            try:
                reports = {r["name"]: r for r in reports_of(json.loads(buffer.getvalue()))}
            except (ValueError, KeyError, TypeError) as err:
                problem = f"unreadable JSON output: {err!r}"
        for name in expected:
            label = f"{source} {name}"
            if problem is not None:
                recorder.record(label, problem)
                continue
            report = reports.get(name)
            if report is None:
                recorder.record(label, "report missing")
                continue
            digest, issue = report_digest(report)
            if issue is None and digest != REPORT_DIGESTS[(source, name)]:
                issue = f"digest {digest} differs from the pinned one"
            recorder.record(label, issue, len(report.get("rows", [])), digest)


def _strip_timing(value):
    if isinstance(value, dict):
        return {k: _strip_timing(v) for k, v in value.items() if k != "elapsed_ms"}
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


def _canonical_report(report: dict) -> tuple[dict, str | None]:
    """Drop timing fields and what the seed changes; check the latter instead.

    Sampled maximality rows draw random words from the seed, so the best facet
    count they find varies; it must never exceed the multi-cluster reference.
    """
    report = _strip_timing(report)
    if report.get("name") != "maximality":
        return report, None
    report["parameters"].pop("seed", None)
    issue = None
    for row in report["rows"]:
        if row["mode"].startswith("sample"):
            best = row.pop("max_found")
            found = row.pop("counterexample")
            if not 0 < best <= row["reference"] or found is not None:
                issue = f"sampled {row['type']} k={row['k']} found {best} > {row['reference']}"
    return report, issue


def report_digest(report: dict) -> tuple[str, str | None]:
    canonical, issue = _canonical_report(report)
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest(), issue


WORKLOADS = {
    "deep-rank": FacetWorkload(
        (("E6", 1), ("H4", 1), ("E7", 1)), flips=True, theta=(("E6", 1), ("H4", 1)),
    ),
    "wide-k": FacetWorkload((("A4", 3), ("D4", 3), ("A5", 2), ("F4", 2)), flips=True),
    "faces": FacetWorkload((("B4", 2), ("F4", 2), ("H3", 3), ("A3", 4)), faces=True),
    "verify-suite": VerifySuite(),
}
