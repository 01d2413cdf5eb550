import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import subwordlab
from subwordlab import cli, coxeter, experiments, multicluster, subword
from subwordlab.cli import main
from subwordlab.experiments import (
    COUNT_INSTANCES,
    NONFACE_INSTANCES,
    WIDE_COUNTS,
    WIDE_NONFACES,
    flip_graph_diameter,
    run_count_experiment,
    run_csp_experiment,
    run_independence_experiment,
    run_maximality_experiment,
    run_mesh_experiment,
    run_nonface_experiment,
    run_sin_experiment,
)
from subwordlab.coxeter import ResourceLimitError, longest_element
from subwordlab.multicluster import multi_cluster_word
from subwordlab.subword import flip_graph, subword_complex
from helpers import naive_complex_max_face_sizes, system


# ---------------------------------------------------------------------------
# Experiments

def test_count_experiment_passes():
    report = run_count_experiment()
    assert report.verdict == "pass"
    by_key = {(row["type"], row["k"]): row for row in report.rows}
    assert by_key[("A3", 1)]["facets"] == 14
    assert by_key[("B3", 1)]["facets"] == 20
    assert by_key[("D4", 1)]["facets"] == 50
    assert by_key[("H3", 1)]["facets"] == 32
    assert by_key[("A1", 3)]["facets"] == 4
    assert all(row["enumerators_agree"] for row in report.rows)


def test_count_experiment_fails_when_the_counters_disagree(monkeypatch):
    # H3 k=2 is report-only against the formula, but both counts are exact
    h3 = (("H3", 2),)
    assert run_count_experiment(h3).verdict == "pass"
    counter = experiments.facet_count
    monkeypatch.setattr(experiments, "facet_count", lambda *args: counter(*args) + 1)
    report = run_count_experiment(h3)
    assert report.verdict == "fail"
    assert report.rows[0]["asserted"] is False
    assert report.rows[0]["enumerators_agree"] is False


def test_nonface_experiment_reports_k_plus_one():
    report = run_nonface_experiment()
    assert report.verdict == "report-only"
    assert all(row["all_k_plus_1"] for row in report.rows)


def test_csp_experiment_matches():
    report = run_csp_experiment()
    assert report.verdict == "report-only"
    assert all(row["matches"] for row in report.rows)
    by_key = {(row["type"], row["k"]): row for row in report.rows}
    assert by_key[("A1", 1)]["fixed"] == [2, 0, 2, 0]
    assert by_key[("A2", 1)]["fixed"] == [5, 0, 0, 0, 0]


def test_maximality_experiment():
    report = run_maximality_experiment(seed=0)
    assert report.verdict == "report-only"
    assert all(row["counterexample"] is None for row in report.rows)
    exhaustive = [row for row in report.rows if row["mode"] == "exhaustive"]
    assert exhaustive and all(row["max_only_at_sin_words"] for row in exhaustive)
    assert all(row["max_found"] == row["reference"] for row in exhaustive)
    # deterministic under a fixed seed
    again = run_maximality_experiment(seed=0)
    assert again.rows == report.rows


def test_maximality_draws_repeat_under_a_seed(monkeypatch):
    # every sampled word is drawn whole from the run's Random(seed): one seed
    # draws the same words, each of the instance's length over s1..sn
    count = experiments.facet_counts
    instances = (("A3", 1, "sample[200]"), ("I2(5)", 1, "sample[200]"))

    def draws(seed):
        drawn = []

        def recording(system, words, target):
            drawn.append((system, list(words)))
            return count(system, drawn[-1][1], target)

        monkeypatch.setattr(experiments, "facet_counts", recording)
        run_maximality_experiment(instances, seed=seed)
        return drawn

    first = draws(3)
    assert [words for _, words in draws(3)] == [words for _, words in first]
    assert [words for _, words in draws(4)] != [words for _, words in first]
    for s, words in first:
        # the one facet_counts call of a row takes the reference word last
        assert len(words) == experiments.MAXIMALITY_SAMPLES + 1
        assert words[-1] == multi_cluster_word(s, tuple(range(1, s.rank + 1)), 1)
        size = s.rank + s.number_of_positive_roots  # k = 1
        for word in words:
            assert type(word) is tuple and len(word) == size
            assert set(word) <= set(range(1, s.rank + 1))


def test_maximality_lists_no_facets(monkeypatch):
    rows = run_maximality_experiment(seed=0).rows

    def refuse(*args):
        raise AssertionError("a facet list was built")

    monkeypatch.setattr(subword, "_facet_search", refuse)
    monkeypatch.setattr(subword, "subword_complex", refuse)
    monkeypatch.setattr(multicluster, "subword_complex", refuse)
    assert run_maximality_experiment(seed=0).rows == rows


@pytest.mark.parametrize(
    "name, k, mode, limit, order",
    [("A3", 1, "exhaustive", 23, 24), ("E7", 1, "sample[200]", 10**6, 2903040)],
)
def test_maximality_checks_the_group_order_up_front(monkeypatch, name, k, mode, limit, order):
    # the reference word c^k w0(c) is built first, at most N products, but
    # the group order is checked before the sweep numbers any element
    def no_sweep(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(subword, "_sweep", no_sweep)
    monkeypatch.setattr(subword, "MAX_FACES", limit)
    with pytest.raises(
        ResourceLimitError,
        match=rf"^{name} has {order} elements, more than the limit of {limit}$",
    ):
        run_maximality_experiment(((name, k, mode),))


def test_sin_experiment():
    report = run_sin_experiment()
    assert report.verdict == "pass"
    assert [row["sin_words"] for row in report.rows] == [2, 2]


def test_mesh_experiment():
    assert run_mesh_experiment().verdict == "pass"


def test_independence_experiment():
    report = run_independence_experiment()
    assert report.verdict == "pass"
    by_key = {(row["type"], row["k"]): row for row in report.rows}
    assert by_key[("A3", 1)]["facets"] == [14]
    assert by_key[("B3", 2)]["facets"] == [175]
    assert by_key[("D4", 1)]["words"] == 8


def test_independence_builds_one_complex_per_commutation_class(monkeypatch):
    # D4 has 8 classes of Coxeter words; every conjugate falls in one of them
    built = []
    build = experiments.multi_cluster_complex

    def counted(s, cox, k):
        built.append(cox)
        return build(s, cox, k)

    monkeypatch.setattr(experiments, "multi_cluster_complex", counted)
    d4 = (("D4", 1),)
    report = run_independence_experiment(d4)
    assert report.verdict == "pass"
    assert len(built) == 8

    def one_facet_dropped(s, cox, k):
        complex_ = build(s, cox, k)
        if cox != built[-1]:
            return complex_
        return dataclasses.replace(complex_, facets=complex_.facets[1:])

    monkeypatch.setattr(experiments, "multi_cluster_complex", one_facet_dropped)
    report = run_independence_experiment(d4)
    assert report.verdict == "fail"
    assert report.rows[0]["rotation_bijection"] is False


def test_flip_graph_diameters():
    a2 = system("A2")
    pentagon = subword_complex(a2, (2, 1, 2, 1, 2), longest_element(a2))
    assert flip_graph_diameter(flip_graph(pentagon)) == 2
    b2 = system("B2")
    hexagon = subword_complex(b2, (1, 2) * 3, longest_element(b2))
    assert flip_graph_diameter(flip_graph(hexagon)) == 3
    a1 = system("A1")
    segment = subword_complex(a1, (1, 1), longest_element(a1))
    assert flip_graph_diameter(flip_graph(segment)) == 1


def test_naive_complex_is_not_pure_in_b3():
    sizes = naive_complex_max_face_sizes(system("B3"), (1, 2, 3), 2)
    assert sizes == (6, 7)


def test_naive_complex_checks_its_budget_up_front(monkeypatch):
    monkeypatch.setattr(subword, "MAX_FACES", 2**12 - 1)
    with pytest.raises(
        ResourceLimitError,
        match=r"compatibility complex of B3 with k=2 has 2\^12 = 4096 root sets,"
        " more than the limit of 4095",
    ):
        naive_complex_max_face_sizes(system("B3"), (1, 2, 3), 2)


def test_word_searches_check_their_budget_up_front(monkeypatch):
    # maximality searches the 2^8 words of B2 at k=2, SIN the 2^6 of length 6
    monkeypatch.setattr(coxeter, "MAX_WORDS", 255)
    with pytest.raises(
        ResourceLimitError,
        match="B2 has 256 words of length 8, more than the limit of 255",
    ):
        run_maximality_experiment((("B2", 2, "exhaustive"),))
    assert run_sin_experiment((("B2", 6),)).verdict == "pass"
    monkeypatch.setattr(coxeter, "MAX_WORDS", 63)
    with pytest.raises(ResourceLimitError, match="B2 has 64 words of length 6"):
        run_sin_experiment((("B2", 6),))


# ---------------------------------------------------------------------------
# CLI

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# Text mode, line for line; only the "(N ms)" of a verify report varies.
NONFACES_A2 = [
    "5 minimal non-faces (sizes [2]):", "  {1,3}", "  {1,4}", "  {2,4}", "  {2,5}", "  {3,5}",
]
TEXT_OUTPUT = [
    (
        ("sort", "--type", "A3"),
        [
            "word: s1,s2,s3,s1,s2,s1",
            "phi: {'s1': 3, 's2': 2, 's3': 1}",
            "factorization: s1,s2,s3 | s1,s2 | s1",
        ],
    ),
    (
        ("sort", "--type", "B2", "--cox", "s2,s1"),
        ["word: s2,s1,s2,s1", "phi: {'s1': 2, 's2': 2}", "factorization: s2,s1 | s2,s1"],
    ),
    (
        ("complex", "facets", "--type", "A2"),
        [
            "word: s1,s2,s1,s2,s1", "5 facets:",
            "  {1,2}", "  {1,5}", "  {2,3}", "  {3,4}", "  {4,5}",
        ],
    ),
    (
        ("complex", "facets", "--type", "B2", "--word", "s1,s2,s1"),
        ["word: s1,s2,s1", "1 facets:", "  {}"],
    ),
    (
        ("complex", "fvector", "--type", "B2"),
        ["f-vector: (1, 6, 6)", "reduced Euler characteristic: -1"],
    ),
    (
        ("complex", "fvector", "--type", "A3", "--cox", "s2,s1,s3"),
        ["f-vector: (1, 9, 21, 14)", "reduced Euler characteristic: 1"],
    ),
    (
        ("complex", "nonfaces", "--type", "A2"),
        NONFACES_A2,
    ),
    (
        ("complex", "nonfaces", "--type", "A2", "--word", "s1,s2,s1,s2,s1", "--pi", "w0",
         "--max-size", "2"),
        NONFACES_A2,
    ),
    (
        ("theta", "--type", "A2"),
        ["positions: [1, 2, 3, 4, 5]", "images:    [3, 4, 5, 1, 2]"],
    ),
    (
        ("theta", "--type", "A2", "--orbits"),
        ["{1,2} -> {3,4} -> {1,5} -> {2,3} -> {4,5}"],
    ),
    (
        ("theta", "--type", "B2", "--orbits"),
        ["{1,2} -> {3,4} -> {5,6}", "{1,6} -> {2,3} -> {4,5}"],
    ),
    (("theta", "--type", "B2", "-k", "2", "--order"), ["order: 4 (formula: 4)"]),
    (
        ("verify", "sin"),
        [
            "[pass       ] sin (N ms)",
            "    {'type': 'A2', 'length': 5, 'words': 32, 'sin_words': 2, 'mismatches': 0}",
            "    {'type': 'B2', 'length': 6, 'words': 64, 'sin_words': 2, 'mismatches': 0}",
        ],
    ),
]


@pytest.mark.parametrize(
    "argv, lines", TEXT_OUTPUT, ids=[" ".join(argv) for argv, _ in TEXT_OUTPUT]
)
def test_cli_text_output(capsys, argv, lines):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert re.sub(r"\(\d+ ms\)", "(N ms)", out) == "".join(line + "\n" for line in lines)


def test_cli_sort_json(capsys):
    code, out = run_cli(
        capsys, "sort", "--type", "A4", "--cox", "s1,s3,s2,s4", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "sort"
    assert payload["results"]["word"] == "s1,s3,s2,s4,s1,s3,s2,s4,s1,s3"
    assert payload["results"]["phi"] == {"s1": 3, "s2": 2, "s3": 3, "s4": 2}
    assert [len(b) for b in payload["results"]["factorization"]] == [4, 4, 2]


def test_cli_complex_facets(capsys):
    code, out = run_cli(
        capsys,
        "complex", "facets",
        "--type", "A2", "--word", "s2,s1,s2,s1,s2", "--pi", "w0", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["facets"] == [
        [1, 2], [1, 5], [2, 3], [3, 4], [4, 5]
    ]


def test_cli_complex_fvector_auto_target(capsys):
    code, out = run_cli(
        capsys,
        "complex", "fvector",
        "--type", "B2", "--cox", "s1,s2", "-k", "1", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["f_vector"] == [1, 6, 6]
    assert payload["results"]["reduced_euler_characteristic"] == -1


def test_cli_complex_nonfaces(capsys):
    code, out = run_cli(
        capsys,
        "complex", "nonfaces", "--type", "A2", "--cox", "s1,s2", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["sizes"] == [2]


@pytest.mark.parametrize("cap", ["0", "-2"])
def test_cli_nonfaces_rejects_max_size_below_one(capsys, cap):
    code = main([
        "complex", "nonfaces", "--type", "A2", "--word", "s2,s1,s2,s1,s2",
        "--max-size", cap, "--json",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--max-size must be at least 1, got {cap}" in captured.err


@pytest.mark.parametrize("pi, count", [("auto", 1), ("w0", 0)])
def test_cli_empty_word_is_a_word(capsys, pi, count):
    # the empty word, not the multi-cluster word of A2 (5 facets)
    code, out = run_cli(
        capsys, "complex", "facets", "--type", "A2", "--word", "", "--pi", pi, "--json"
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["word"] == "" and results["count"] == count
    assert results["facets"] == [[]] * count


@pytest.mark.parametrize(
    "command",
    [
        ["sort", "--type", "A3"],
        ["complex", "facets", "--type", "A3"],
        ["flipgraph", "--type", "A3"],
        ["theta", "--type", "A3"],
        ["bijection", "typea", "--m", "6"],
        ["quiver", "ar", "--type", "A3"],
    ],
    ids=" ".join,
)
def test_cli_empty_cox_is_not_the_default_word(capsys, command):
    # an empty --cox is the empty word, not s1,...,sn, and that is no Coxeter word
    code = main([*command, "--cox", ""])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the empty word is not a word for a Coxeter element\n"


@pytest.mark.parametrize("command", [["complex", "facets"], ["flipgraph"]], ids=" ".join)
@pytest.mark.parametrize("extra", [["--cox", "s2,s1"], ["-k", "5"], ["-k", "1"]], ids=" ".join)
def test_cli_word_excludes_cox_and_k(capsys, command, extra):
    code = main([*command, "--type", "A2", "--word", "s1,s2", *extra])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {extra[0]} does not apply with --word\n"


@pytest.mark.parametrize("command", [["complex", "facets"], ["flipgraph"]], ids=" ".join)
@pytest.mark.parametrize("pi", ["auto", "w0"])
def test_cli_pi_needs_a_word(capsys, command, pi):
    # the multi-cluster complex always has target w0
    code = main([*command, "--type", "A2", "--pi", pi])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --pi only applies with --word\n"


@pytest.mark.parametrize(
    "argv, pi, count",
    [
        # the Demazure product of s1,s2 is s1 s2, below w0
        (["--word", "s1,s2"], "auto", 1),
        (["--word", "s1,s2", "--pi", "auto"], "auto", 1),
        (["--word", "s1,s2", "--pi", "w0"], "w0", 0),
        ([], None, 5),
    ],
)
def test_cli_pi_defaults(capsys, argv, pi, count):
    code, out = run_cli(capsys, "complex", "facets", "--type", "A2", *argv, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["pi"] == pi
    # -k does not apply with --word, so the word path echoes null, as for --cox
    assert payload["params"]["k"] == (1 if pi is None else None)
    assert payload["results"]["count"] == count


def test_cli_nonfaces_default_cap_on_an_empty_complex(capsys):
    # w0 of A3 has length 6, longer than the word s1: no facets, facet size -5
    code, out = run_cli(
        capsys, "complex", "nonfaces", "--type", "A3", "--word", "s1", "--pi", "w0", "--json"
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["max_size"] == 1
    assert results["minimal_nonfaces"] == [] and results["sizes"] == []


@pytest.mark.parametrize("action", ["facets", "fvector"])
def test_cli_max_size_only_applies_to_nonfaces(capsys, action):
    code = main([
        "complex", action, "--type", "A2", "--cox", "s1,s2", "--max-size", "3", "--json",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --max-size only applies to complex nonfaces" in captured.err


def test_cli_flipgraph_dot_and_diameter(tmp_path, capsys):
    target = tmp_path / "flips.dot"
    code, out = run_cli(
        capsys,
        "flipgraph", "--type", "A2", "--word", "s2,s1,s2,s1,s2",
        "--dot", str(target), "--diameter",
    )
    assert code == 0
    assert "diameter: 2" in out
    text = target.read_text()
    assert text.startswith("graph flips {") and text.count("--") == 5


def test_cli_flipgraph_diameter_builds_the_graph_once(monkeypatch, capsys):
    calls = []
    real = subword.flip_graph

    def counted(complex_):
        calls.append(complex_)
        return real(complex_)

    for module in (subword, experiments, cli):
        monkeypatch.setattr(module, "flip_graph", counted, raising=False)
    code, out = run_cli(capsys, "flipgraph", "--type", "D4", "-k", "1", "--dot", "-", "--diameter")
    assert code == 0
    assert "diameter: " in out
    assert len(calls) == 1


def test_cli_theta(capsys):
    code, out = run_cli(
        capsys, "theta", "--type", "A4", "--cox", "s1,s3,s2,s4", "-k", "1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["permutation"] == [
        5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 2, 1, 4, 3
    ]
    code, out = run_cli(
        capsys, "theta", "--type", "B2", "--cox", "s1,s2", "--orbits", "--json"
    )
    payload = json.loads(out)
    assert payload["results"]["orbit_sizes"] == [3, 3]


def test_cli_bijection_typea(capsys):
    code, out = run_cli(
        capsys, "bijection", "typea", "--m", "5", "-k", "1", "--cox", "s2,s1"
    )
    assert code == 0
    payload = json.loads(out)
    assert [row["diagonal"] for row in payload["results"]] == [
        [0, 2], [0, 3], [1, 3], [1, 4], [2, 4]
    ]


def test_cli_bijection_typeb(capsys):
    code, out = run_cli(
        capsys, "bijection", "typeb", "--m", "5", "-k", "2", "--cox", "s1,s2,s3"
    )
    payload = json.loads(out)
    third = payload["results"][2]
    assert third["letter"] == "s3" and third["pair"] == [[0, 7], [2, 5]]
    seventh = payload["results"][6]
    assert seventh["pair"] == [[2, 7]]


@pytest.mark.parametrize(
    "flavor, m, bound", [("typea", "3", "2k + 2"), ("typeb", "2", "k + 2")]
)
def test_cli_bijection_names_its_bound_on_m(capsys, flavor, m, bound):
    # the error names the type, k, the least m (the bound's value) and m
    family, least = {"typea": ("A", 4), "typeb": ("B", 3)}[flavor]
    assert main(["bijection", flavor, "--m", m, "-k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: type {family} with k=1 needs m >= {least} ({bound}), got m={m}\n"
    )


def test_cli_rejects_an_over_budget_complex_before_searching(monkeypatch, capsys):
    monkeypatch.setattr(subword, "_facet_search", lambda *args: pytest.fail("searched"))
    assert main(["complex", "facets", "--type", "A16"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: A16 with k=1 has 129644790 facets")


def test_cli_quiver_ar(tmp_path, capsys):
    target = tmp_path / "ar.dot"
    code, _ = run_cli(
        capsys,
        "quiver", "ar", "--type", "A4", "--cox", "s1,s3,s2,s4", "--dot", str(target),
    )
    assert code == 0
    text = target.read_text()
    assert text.count("->") == 12


def test_cli_quiver_repetition_stdout(capsys):
    code, out = run_cli(
        capsys, "quiver", "repetition", "--type", "A2", "--cox", "s1,s2", "--copies", "2"
    )
    assert code == 0
    assert out.startswith("digraph repetition {")


@pytest.mark.parametrize("copies", ["7", "2"])
def test_cli_copies_only_applies_to_repetition(capsys, copies):
    assert main(["quiver", "ar", "--type", "A2", "--copies", copies, "--dot", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --copies only applies to quiver repetition\n"


@pytest.mark.parametrize(
    "copies, error",
    [
        ("0", "need at least one block"),
        ("1000000000", "A2 with 1000000000 copies has 3000000000 vertices, more than"
                       " the limit of 1000000"),
    ],
    ids=["zero", "over budget"],
)
def test_cli_repetition_refuses_copies_out_of_range(capsys, copies, error):
    assert main(["quiver", "repetition", "--type", "A2", "--copies", copies]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def test_cli_verify_exit_code_and_schema(capsys):
    code, out = run_cli(capsys, "verify", "counts", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"command", "params", "results", "elapsed_ms"}
    assert payload["results"][0]["verdict"] == "pass"


def test_cli_verify_all(capsys):
    code, out = run_cli(capsys, "verify", "all", "--json")
    assert code == 0
    payload = json.loads(out)
    names = [report["name"] for report in payload["results"]]
    assert names == [
        "counts", "nonfaces", "csp", "maximality", "sin", "mesh", "independence"
    ]
    verdicts = {report["name"]: report["verdict"] for report in payload["results"]}
    assert verdicts["counts"] == "pass"
    assert verdicts["csp"] == "report-only"


def test_cli_verify_filters(capsys):
    code, out = run_cli(
        capsys, "verify", "counts", "--type", "A3", "-k", "1", "--json"
    )
    payload = json.loads(out)
    rows = payload["results"][0]["rows"]
    assert len(rows) == 1 and rows[0]["type"] == "A3"


@pytest.mark.parametrize(
    "what, spelling, rows",
    [
        ("counts", "B3", [("B3", 1)]),
        ("counts", "b3", [("B3", 1)]),
        ("counts", "C3", [("B3", 1)]),
        ("counts", " b3 ", [("B3", 1)]),
        ("mesh", "i2(7)", [("I2(7)", 1)] * 2 + [("I2(7)", 2)] * 2),  # two Coxeter words
        ("sin", "c2", [("B2", None)]),
    ],
)
def test_cli_verify_type_filter_reads_the_type_like_every_command(capsys, what, spelling, rows):
    code, out = run_cli(capsys, "verify", what, "--type", spelling, "--json")
    assert code == 0
    found = json.loads(out)["results"][0]["rows"]
    assert [(row["type"], row.get("k")) for row in found] == rows


def test_cli_verify_type_filter_rejects_an_unknown_type(capsys):
    assert main(["verify", "counts", "--type", "Q9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no finite irreducible type Q9\n"


@pytest.mark.parametrize(
    "argv, named",
    [(("counts", "--type", "E8"), "--type E8"), (("sin", "-k", "1"), "-k 1")],
)
def test_cli_verify_filter_matching_no_rows_is_an_error(capsys, argv, named):
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err


def test_cli_error_handling(capsys):
    code = main(["sort", "--type", "Q9"])
    assert code == 2


def test_cli_type_is_required(capsys):
    assert main(["sort"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --type is required\n"


@pytest.mark.parametrize(
    "descriptor", ["A" + "9" * 5000, "I2(" + "7" * 5000 + ")"], ids=["A", "I2"]
)
def test_cli_descriptor_with_a_number_too_long_to_read(capsys, descriptor):
    # int() reads at most 4300 digits from a string by default
    assert main(["sort", "--type", descriptor]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_flipgraph_takes_no_json_flag(capsys):
    # the flip graph is printed as DOT only
    with pytest.raises(SystemExit) as exit_:
        main(["flipgraph", "--type", "A2", "--json"])
    assert exit_.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "command", [("sort",), ("complex", "facets"), ("theta",), ("flipgraph",)]
)
def test_cli_rejects_reducible_dihedral_type(capsys, command):
    # I2(2) is A1 x A1: its Coxeter graph has no edge
    assert main([*command, "--type", "I2(2)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize(
    "argv", [("sort", "--type", "A3"), ("flipgraph", "--type", "A2", "--dot", "-")]
)
def test_cli_closed_pipe_is_not_an_error(argv, unbuffered):
    # a reader that has gone, as in `subwordlab sort | head -0`; buffered
    # stdout would otherwise only fail in the interpreter's final flush
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = str(Path(subwordlab.__file__).parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "subwordlab.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


def test_python_m_subwordlab_runs_the_cli(capsys):
    # `python -m subwordlab` is the `subwordlab` command: same output, same
    # exit code
    env = dict(os.environ, PYTHONPATH=str(Path(subwordlab.__file__).parents[1]))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "subwordlab", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    def untimed(out):
        return [line for line in out.splitlines() if '"elapsed_ms"' not in line]

    proc = run("sort", "--type", "A3", "--json")
    assert proc.returncode == main(["sort", "--type", "A3", "--json"]) == 0
    assert untimed(proc.stdout) == untimed(capsys.readouterr().out)
    proc = run("complex", "facets", "--type", "A16")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: A16 with k=1 has ")


def test_cli_unwritable_dot_path_is_an_error(tmp_path, capsys):
    target = tmp_path / "missing" / "flips.dot"
    assert main(["flipgraph", "--type", "A2", "--dot", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_verify_failure_exits_nonzero(monkeypatch, capsys):
    from subwordlab import cli
    from subwordlab.experiments import ExperimentReport

    def broken():
        return ExperimentReport("counts", {}, "fail", [{"type": "A1", "k": 1}], 0.0)

    monkeypatch.setitem(cli.EXPERIMENTS, "counts", broken)
    assert main(["verify", "counts"]) == 1


def _load_sweep_script():
    path = Path(__file__).parents[1] / "scripts" / "conjecture_sweep.py"
    spec = importlib.util.spec_from_file_location("conjecture_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "argv, counts, nonfaces",
    [
        (["--json"], COUNT_INSTANCES, NONFACE_INSTANCES),
        (["--wide", "--json"], WIDE_COUNTS, WIDE_NONFACES),
    ],
    ids=["default", "wide"],
)
def test_conjecture_sweep_prints_its_four_reports(capsys, argv, counts, nonfaces):
    assert _load_sweep_script().main(argv) == 0
    reports = json.loads(capsys.readouterr().out)
    direct = [
        run_count_experiment(counts),
        run_nonface_experiment(nonfaces),
        run_csp_experiment(),
        run_maximality_experiment(seed=0),
    ]
    assert [r["name"] for r in reports] == ["counts", "nonfaces", "csp", "maximality"]
    for report, expected in zip(reports, direct):
        assert report["verdict"] == expected.verdict != "fail"
        assert report["rows"] == json.loads(json.dumps(expected.rows))
