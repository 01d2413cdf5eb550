"""Experiment harness over desk-scale instances.

Experiments that check proved statements carry a pass/fail verdict and the
whole run is expected to exit nonzero on any failure; experiments probing
conjectures are "report-only" and never assert, they just emit the observed
data.  Every experiment goes through one runner, ``_run``: it times the
report, builds one ``CoxeterSystem`` per instance and folds the verdict, so
each ``run_*_experiment`` only says how an instance becomes rows.  All
instance lists are fixed tuples so reports are deterministic (apart from the
elapsed-time field) for a given seed.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field

from .coxeter import (
    CoxeterError,
    CoxeterSystem,
    Word,
    commutation_layers,
    commutation_position_map,
    enumerate_coxeter_words,
    iter_all_words,
    longest_element,
)
from .multicluster import (
    count_formula_is_theorem,
    csp_fixed_point_table,
    facet_count_formula,
    multi_cluster_complex,
    multi_cluster_word,
)
from .quivers import check_mesh_relation
from .sorting import has_sin_property, rotate_word
from .subword import (
    FlipGraph,
    SubwordComplex,
    f_vector,
    facet_count,
    facet_counts,
    minimal_nonfaces,
)

PASS = "pass"
FAIL = "fail"
REPORT_ONLY = "report-only"


@dataclass
class ExperimentReport:
    name: str
    parameters: dict
    verdict: str
    rows: list[dict] = field(default_factory=list)
    elapsed_ms: float = 0.0

    def as_dict(self) -> dict:
        return {**vars(self), "elapsed_ms": round(self.elapsed_ms, 3)}


def _lex_coxeter_word(system: CoxeterSystem) -> Word:
    return tuple(range(1, system.rank + 1))  # the first ``enumerate_coxeter_words``


# ---------------------------------------------------------------------------
# Instance tables

COUNT_INSTANCES: tuple[tuple[str, int], ...] = (
    ("A1", 1), ("A1", 2), ("A1", 3),
    ("A2", 1), ("A2", 2),
    ("A3", 1), ("A3", 2),
    ("B2", 1), ("B2", 2),
    ("B3", 1),
    ("D4", 1),
    ("H3", 1),
    ("H3", 2),
    ("I2(3)", 2),
    ("I2(5)", 1), ("I2(6)", 1), ("I2(7)", 1), ("I2(8)", 1),
)

NONFACE_INSTANCES: tuple[tuple[str, int], ...] = (
    ("A2", 1), ("A2", 2), ("A2", 3),
    ("A3", 1), ("A3", 2),
    ("B2", 1), ("B2", 2), ("B2", 3),
    ("B3", 2),
    ("I2(3)", 1), ("I2(3)", 2), ("I2(3)", 3),
    ("I2(4)", 1), ("I2(4)", 2), ("I2(4)", 3),
    ("I2(5)", 1), ("I2(5)", 2), ("I2(5)", 3),
    ("I2(6)", 1), ("I2(6)", 2), ("I2(6)", 3),
    ("I2(7)", 1), ("I2(7)", 2), ("I2(7)", 3),
)

CSP_INSTANCES: tuple[tuple[str, int], ...] = (
    ("A1", 1), ("A1", 2),
    ("A2", 1), ("A2", 2),
    ("A3", 1), ("A3", 2),
    ("B2", 1), ("B2", 2),
    ("I2(5)", 1), ("I2(5)", 2),
)

MAXIMALITY_SAMPLES = 200

MAXIMALITY_INSTANCES: tuple[tuple[str, int, str], ...] = (
    ("A2", 1, "exhaustive"), ("A2", 2, "exhaustive"),
    ("B2", 1, "exhaustive"), ("B2", 2, "exhaustive"),
    ("I2(6)", 1, "exhaustive"),
    ("I2(5)", 1, f"sample[{MAXIMALITY_SAMPLES}]"),
    ("A3", 1, f"sample[{MAXIMALITY_SAMPLES}]"),
)

SIN_INSTANCES: tuple[tuple[str, int], ...] = (
    ("A2", 5),  # word length n*k + N with k = 1
    ("B2", 6),
)

MESH_INSTANCES: tuple[tuple[str, int], ...] = (
    ("A3", 1), ("A3", 2),
    ("B2", 1), ("B2", 2),
    ("B3", 1), ("B3", 2),
    ("I2(7)", 1), ("I2(7)", 2),
)

INDEPENDENCE_INSTANCES: tuple[tuple[str, int], ...] = (
    ("A3", 1), ("A3", 2), ("B3", 1), ("B3", 2), ("D4", 1),
)

# ``scripts/conjecture_sweep.py --wide``: a few slower instances on top
WIDE_COUNTS = COUNT_INSTANCES + (("D4", 2), ("B4", 1), ("I2(9)", 2), ("I2(10)", 1))
WIDE_NONFACES = NONFACE_INSTANCES + (("A4", 1), ("B4", 1), ("D4", 1))


# ---------------------------------------------------------------------------
# Experiments

def _run(name, instances, rows_of, *, verdict=PASS, parameters=None, key="k"):
    """The one runner: a timed report over ``instances`` of (type, value, ...).

    Each instance gets one fresh ``CoxeterSystem``; ``rows_of(system, value,
    ...)`` yields (row, ok) pairs, and each row is stored after the instance's
    type and ``key``.  A row with ok false fails an assertion-backed report
    (verdict PASS); a report-only verdict never changes.
    """
    start = time.perf_counter()
    rows = []
    for type_, value, *rest in instances:
        for row, ok in rows_of(CoxeterSystem(type_), value, *rest):
            rows.append({"type": type_, key: value, **row})
            if not ok and verdict == PASS:
                verdict = FAIL
    if parameters is None:
        parameters = {"instances": len(rows)}
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return ExperimentReport(name, parameters, verdict, rows, elapsed_ms)


def run_count_experiment(instances=COUNT_INSTANCES) -> ExperimentReport:
    """Enumerated facet counts against ``facet_count``, which must agree,
    and the degree-product formula.

    Equality with the formula is asserted where it is a theorem
    (``count_formula_is_theorem``); other instances are reported without
    asserting, since the product formula is not a count in general.
    """

    def rows_of(system, k):
        complex_ = multi_cluster_complex(system, _lex_coxeter_word(system), k)
        enumerated = len(complex_.facets)
        counted = facet_count(system, complex_.word, complex_.target)
        formula = facet_count_formula(system, k)
        asserted = count_formula_is_theorem(system, k)
        row = {
            "facets": enumerated,
            "formula": str(formula),
            "enumerators_agree": counted == enumerated,
            "asserted": asserted,
            "agrees": formula == enumerated == counted,
        }
        yield row, row["enumerators_agree"] and (row["agrees"] or not asserted)

    return _run("counts", instances, rows_of)


def run_nonface_experiment(instances=NONFACE_INSTANCES) -> ExperimentReport:
    """Sizes of all inclusion-minimal non-faces (conjectured to be k + 1)."""

    def rows_of(system, k):
        complex_ = multi_cluster_complex(system, _lex_coxeter_word(system), k)
        found = minimal_nonfaces(complex_, complex_.facet_size() + 1)
        sizes = sorted({len(x) for x in found})
        yield {"count": len(found), "sizes": sizes, "all_k_plus_1": sizes == [k + 1]}, True

    return _run("nonfaces", instances, rows_of, verdict=REPORT_ONLY)


def run_csp_experiment(instances=CSP_INSTANCES) -> ExperimentReport:
    """Fixed facets of each power of the cyclic action against the
    polynomial evaluated at the matching root of unity (order 2k + h)."""

    def rows_of(system, k):
        table = csp_fixed_point_table(system, _lex_coxeter_word(system), k)
        row = {
            "group_order": 2 * k + system.coxeter_number,
            "fixed": [fixed for fixed, _ in table],
            "evaluations": [value for _, value in table],
            "matches": all(fixed == value for fixed, value in table),
        }
        yield row, True

    return _run("csp", instances, rows_of, verdict=REPORT_ONLY)


def run_maximality_experiment(
    instances=MAXIMALITY_INSTANCES, seed: int = 0
) -> ExperimentReport:
    """Hunt for same-length words beating the multi-cluster facet count.

    Each instance is (type, k, mode).  Exhaustive ones search every word of
    that length and also record whether every word attaining the maximum
    has the strong intervening-neighbors property; sampled ones each draw
    ``MAXIMALITY_SAMPLES`` words from the one ``Random(seed)`` of the run,
    each word by one ``choices`` call.

    No facet is listed: every count comes from ``facet_counts``, which
    refuses a group of more than ``MAX_FACES`` elements before it counts.
    A row's words, every word of ``iter_all_words`` or the draws in draw
    order, and last the multi-cluster reference word c^k w0(c), go through
    one ``facet_counts`` call, so the group elements it numbers and the
    moves it stores serve them all.  The maximum, the first counterexample
    and the SIN verdict are read off that list of counts, so SIN is tested
    only at words attaining a maximum equal to the reference.
    """
    rng = random.Random(seed)

    def rows_of(system, k, mode):
        target = longest_element(system)
        size = k * system.rank + system.number_of_positive_roots
        every_word = mode == "exhaustive"
        if every_word:
            words = list(iter_all_words(system, size))
        else:
            letters = range(1, system.rank + 1)
            words = [
                tuple(rng.choices(letters, k=size)) for _ in range(MAXIMALITY_SAMPLES)
            ]
        words.append(multi_cluster_word(system, _lex_coxeter_word(system), k))
        *counts, reference = facet_counts(system, words, target)  # the reference word last
        best = max(counts)
        row = {
            "mode": mode,
            "reference": reference,
            "max_found": best,
            "counterexample": next(
                (list(word) for word, count in zip(words, counts) if count > reference),
                None,
            ),
        }
        if every_word:
            row["max_only_at_sin_words"] = best == reference and all(
                has_sin_property(system, word)
                for word, count in zip(words, counts)
                if count == best
            )
        yield row, True

    parameters = {"seed": seed, "samples": MAXIMALITY_SAMPLES}
    return _run("maximality", instances, rows_of, verdict=REPORT_ONLY, parameters=parameters)


def run_sin_experiment(instances=SIN_INSTANCES) -> ExperimentReport:
    """Exhaustive equivalence: a word has the strong intervening-neighbors
    property iff it equals some c^k * sorting word up to commutations."""

    def rows_of(system, size):
        big_n = system.number_of_positive_roots
        references = set()
        if size >= big_n and (size - big_n) % system.rank == 0:
            k = (size - big_n) // system.rank
            references = {
                commutation_layers(system, multi_cluster_word(system, cox, k))
                for cox in enumerate_coxeter_words(system)
            }
        mismatches = 0
        sin_count = 0
        for word in iter_all_words(system, size):
            sin = has_sin_property(system, word)
            if sin:
                sin_count += 1
            if sin != (commutation_layers(system, word) in references):
                mismatches += 1
        row = {
            "words": system.rank ** size,
            "sin_words": sin_count,
            "mismatches": mismatches,
        }
        yield row, mismatches == 0

    return _run("sin", instances, rows_of, key="length")


def run_mesh_experiment(instances=MESH_INSTANCES) -> ExperimentReport:
    """Mesh relation at every consecutive-occurrence site of multi-cluster words."""

    def rows_of(system, k):
        for cox in enumerate_coxeter_words(system):
            ok = check_mesh_relation(system, multi_cluster_word(system, cox, k))
            yield {"cox": list(cox), "holds": ok, "exact": system.exact}, ok

    return _run("mesh", instances, rows_of)


def run_independence_experiment(instances=INDEPENDENCE_INSTANCES) -> ExperimentReport:
    """Facet counts and f-vectors across all Coxeter words, plus the explicit
    rotation bijection from each word to its initial-letter conjugate.

    The complex depends on the Coxeter word only up to commutations (CLS),
    so one complex is built per commutation class, keyed by
    ``commutation_layers``, and each rotation lands on the complex of the
    conjugate's class instead of a rebuild on the conjugate word itself.
    """

    def rows_of(system, k):
        words = enumerate_coxeter_words(system)  # one per commutation class
        classes = [commutation_layers(system, cox) for cox in words]
        complexes = {
            key: multi_cluster_complex(system, cox, k) for key, cox in zip(classes, words)
        }
        counts = {len(c.facets) for c in complexes.values()}
        fvecs = {f_vector(c) for c in complexes.values()}
        rotation_ok = all(
            _rotation_step_bijection(
                system,
                complexes[key],
                complexes[commutation_layers(system, cox[1:] + cox[:1])],
            )
            for key, cox in zip(classes, words)
        )
        row = {
            "words": len(words),
            "facets": sorted(counts),
            "distinct_f_vectors": len(fvecs),
            "rotation_bijection": rotation_ok,
        }
        yield row, len(counts) == 1 and len(fvecs) == 1 and rotation_ok

    return _run("independence", instances, rows_of)


def _rotation_step_bijection(
    system: CoxeterSystem, complex_: SubwordComplex, conjugate: SubwordComplex
) -> bool:
    """Rotating along the initial letter maps the facets of a multi-cluster
    complex onto those of ``conjugate``, the complex of a word in the class
    of the conjugated Coxeter word: position 1 goes to the end, every other
    position p to p - 1, and then across the commutations to the conjugate's
    word."""
    rotated = rotate_word(system, complex_.word)
    try:
        relabel = commutation_position_map(system, rotated, conjugate.word)
    except CoxeterError:  # the rotated word is not in the conjugate's class
        return False
    image = (0, relabel[-1]) + relabel[:-1]  # image[p] for 1-based p
    target_facets = set(conjugate.facets)
    return all(
        tuple(sorted(map(image.__getitem__, facet))) in target_facets
        for facet in complex_.facets
    )


def flip_graph_diameter(graph: FlipGraph) -> int:
    """Largest BFS eccentricity over a flip graph."""
    diameter = 0
    for source in range(len(graph.nodes)):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for other in graph.neighbors[node]:
                if other not in dist:
                    dist[other] = dist[node] + 1
                    queue.append(other)
        if len(dist) != len(graph.nodes):
            raise ValueError("flip graph is not connected")
        diameter = max(diameter, max(dist.values()))
    return diameter


EXPERIMENTS = {
    "counts": run_count_experiment,
    "nonfaces": run_nonface_experiment,
    "csp": run_csp_experiment,
    "maximality": run_maximality_experiment,
    "sin": run_sin_experiment,
    "mesh": run_mesh_experiment,
    "independence": run_independence_experiment,
}
