"""Acceptance suite: one test per criterion, exact unless a tolerance is stated.

Each test prints a `[criterion NN] PASS` line on success (visible with
``pytest -s``); under ``pytest -v`` the per-test PASSED lines serve the same
purpose.  Expected total runtime well under five minutes.
"""

import random
from itertools import combinations

from subwordlab.coxeter import (
    SignedRoot,
    demazure_product,
    element_from_word,
    enumerate_coxeter_words,
    longest_element,
)
from subwordlab.experiments import (
    flip_graph_diameter,
    run_csp_experiment,
    run_maximality_experiment,
    run_nonface_experiment,
)
from subwordlab.multicluster import (
    contains_pairwise_crossing,
    gale_facets_rank2,
    facet_count_formula,
    lr_labels,
    multi_cluster_word,
    permutation_order,
    theta_order_formula,
    theta_permutation,
    type_a_bijection,
    type_b_bijection,
)
from subwordlab.quivers import check_mesh_relation
from subwordlab.sorting import sorting_word, sorting_word_w0
from subwordlab.subword import (
    f_vector,
    flip,
    flip_graph,
    is_face,
    link,
    reduced_euler_characteristic,
    root_table,
    subword_complex,
)
from helpers import flip_closure, is_facet_by_reflections, system

PENTAGON_WORD = (2, 1, 2, 1, 2)
HEXAGON_WORD = (1, 2, 1, 2, 1, 2)

COUNT_CASES = [
    # (type, k, coxeter word, expected facet count)
    ("A3", 1, (1, 2, 3), 14),
    ("B3", 1, (1, 2, 3), 20),
    ("D4", 1, (1, 2, 3, 4), 50),
    ("H3", 1, (1, 2, 3), 32),
    ("A2", 2, (1, 2), 14),
    ("A3", 2, (1, 2, 3), 84),
    ("B2", 2, (1, 2), 20),
    ("I2(3)", 2, (1, 2), 14),
    ("I2(3)", 1, (1, 2), 5),
    ("I2(4)", 1, (1, 2), 6),
    ("I2(5)", 1, (1, 2), 7),
    ("I2(6)", 1, (1, 2), 8),
    ("I2(7)", 1, (1, 2), 9),
    ("I2(8)", 1, (1, 2), 10),
]


def report(number: int, text: str) -> None:
    print(f"[criterion {number:02d}] PASS {text}")


def test_criterion_01_pentagon():
    a2 = system("A2")
    complex_ = subword_complex(a2, PENTAGON_WORD, longest_element(a2))
    assert complex_.facets == ((1, 2), (1, 5), (2, 3), (3, 4), (4, 5))
    graph = flip_graph(complex_)
    assert sorted(len(adj) for adj in graph.neighbors) == [2] * 5
    assert flip_graph_diameter(graph) == 2
    report(1, "pentagon facets and 5-cycle flip graph")


def test_criterion_02_hexagon_and_clusters():
    b2 = system("B2")
    complex_ = subword_complex(b2, HEXAGON_WORD, longest_element(b2))
    assert complex_.facets == ((1, 2), (1, 6), (2, 3), (3, 4), (4, 5), (5, 6))
    labels = lr_labels(b2, (1, 2))
    vectors = []
    for label in labels:
        vec = tuple(label.sign * c for c in b2.positive_roots[label.root])
        vectors.append(vec)
    assert vectors == [
        (-1, 0), (0, -1), (1, 0), (1, 1), (1, 2), (0, 1)
    ]
    clusters = {
        frozenset(vectors[p - 1] for p in facet) for facet in complex_.facets
    }
    assert clusters == {
        frozenset({(-1, 0), (0, -1)}),
        frozenset({(0, -1), (1, 0)}),
        frozenset({(1, 0), (1, 1)}),
        frozenset({(1, 1), (1, 2)}),
        frozenset({(1, 2), (0, 1)}),
        frozenset({(0, 1), (-1, 0)}),
    }
    report(2, "hexagon facets, labels, and the six clusters")


def test_criterion_03_root_function_and_flips():
    b2 = system("B2")
    facet = (2, 3)  # the prefix letter c2 and the first sorting letter
    table = root_table(b2, HEXAGON_WORD, facet)
    signed_vectors = [
        tuple(r.sign * c for c in b2.positive_roots[r.root]) for r in table
    ]
    assert signed_vectors == [
        (1, 0), (1, 1), (-1, 0), (1, 1), (1, 2), (0, 1)
    ]
    assert flip(b2, HEXAGON_WORD, facet, 2) == ((3, 4), 4)
    assert flip(b2, HEXAGON_WORD, facet, 3) == ((1, 2), 1)
    report(3, "root function table and the two flips")


def test_criterion_04_sorting_words():
    a4 = system("A4")
    assert sorting_word(a4, (1, 3, 2, 4), longest_element(a4)) == (
        1, 3, 2, 4, 1, 3, 2, 4, 1, 3
    )
    assert sorting_word_w0(a4, (1, 3, 2, 4)).word == (1, 3, 2, 4, 1, 3, 2, 4, 1, 3)
    e6 = system("E6")
    cox = (3, 5, 4, 6, 2, 1)
    rep = sorting_word_w0(e6, cox)
    assert sorted(rep.phi.values()) == [5, 5, 6, 6, 7, 7]
    assert len(rep.word) == 36
    assert [len(block) for block in rep.factorization] == [6, 6, 6, 6, 6, 4, 2]
    assert rep.word[:30] == cox * 5
    assert element_from_word(e6, rep.word) == longest_element(e6)
    report(4, "A4 sorting word exact; E6 counts, length and block structure")


def test_criterion_05_facet_counts():
    for name, k, cox, expected in COUNT_CASES:
        s = system(name)
        word = multi_cluster_word(s, cox, k)
        facets = subword_complex(s, word, longest_element(s)).facets
        bfs = flip_closure(s, word, longest_element(s), facets[0])
        assert len(facets) == expected, (name, k)
        assert bfs == facets
        assert facet_count_formula(s, k) == expected
    report(5, f"facet counts on {len(COUNT_CASES)} instances, both enumerators and formula")


def test_criterion_06_independence_of_the_coxeter_word():
    for name, ks, expected_words in [("A3", (1, 2), 4), ("B3", (1, 2), 4), ("D4", (1,), 8)]:
        s = system(name)
        words = enumerate_coxeter_words(s)
        assert len(words) == expected_words
        for k in ks:
            complexes = [
                subword_complex(s, multi_cluster_word(s, cox, k), longest_element(s))
                for cox in words
            ]
            counts = {len(c.facets) for c in complexes}
            fvectors = {f_vector(c) for c in complexes}
            assert len(counts) == 1 and len(fvectors) == 1
    report(6, "counts and f-vectors independent of the Coxeter word")


def test_criterion_07_reflection_criterion():
    b2 = system("B2")
    word = multi_cluster_word(b2, (1, 2), 1)
    facets = set(subword_complex(b2, word, longest_element(b2)).facets)
    checked = 0
    for pair in combinations(range(1, 7), 2):
        assert is_facet_by_reflections(b2, (1, 2), 1, pair) == (pair in facets)
        checked += 1
    assert checked == 15
    for name in ["A3", "B3"]:
        s = system(name)
        cox = enumerate_coxeter_words(s)[0]
        for k in (1, 2):
            word = multi_cluster_word(s, cox, k)
            for facet in subword_complex(s, word, longest_element(s)).facets:
                assert is_facet_by_reflections(s, cox, k, facet)
    report(7, "reflection products agree with the facet test")


def test_criterion_08_type_a_bijection():
    assert type_a_bijection(5, 1, (2, 1)) == ((0, 2), (0, 3), (1, 3), (1, 4), (2, 4))
    for m, k in [(5, 1), (6, 1), (7, 2), (8, 2)]:
        n = m - 2 * k - 1
        s = system(f"A{n}")
        cox = enumerate_coxeter_words(s)[0]
        table = type_a_bijection(m, k, cox)
        word = multi_cluster_word(s, cox, k)
        complex_ = subword_complex(s, word, longest_element(s))
        faces = set()
        for facet in complex_.facets:
            for size in range(len(facet) + 1):
                faces.update(map(frozenset, combinations(facet, size)))
        for size in range(len(word) + 1):
            for positions in combinations(range(1, len(word) + 1), size):
                crossing_free = not contains_pairwise_crossing(
                    m, k + 1, [table[p - 1] for p in positions]
                )
                assert (frozenset(positions) in faces) == crossing_free
    report(8, "pentagon table exact; faces are the crossing-free sets")


def test_criterion_09_type_b_bijection():
    table = type_b_bijection(5, 2, (1, 2, 3))
    assert table[2] == frozenset({(2, 5), (0, 7)})
    assert table[6] == frozenset({(2, 7)})
    b3 = system("B3")
    word = multi_cluster_word(b3, (1, 2, 3), 2)
    assert is_face(b3, word, longest_element(b3), (3, 5, 7, 9, 13, 15))
    assert (3, 5, 7, 9, 13, 15) in subword_complex(
        b3, word, longest_element(b3)
    ).facets
    report(9, "symmetric-pair table values and the stated facet")


def test_criterion_10_cyclic_action():
    a4 = system("A4")
    perm = theta_permutation(a4, (1, 3, 2, 4), 1)
    assert perm == (5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 2, 1, 4, 3)
    orbit = [(1, 2, 3, 4)]
    for _ in range(6):
        orbit.append(tuple(sorted(perm[p - 1] for p in orbit[-1])))
    assert tuple(sorted(perm[p - 1] for p in orbit[-1])) == orbit[0]
    assert len(set(orbit)) == 7
    facets = set(
        subword_complex(
            a4, multi_cluster_word(a4, (1, 3, 2, 4), 1), longest_element(a4)
        ).facets
    )
    assert set(orbit) <= facets
    for name in ["A2", "A3", "A4", "B2", "B3", "D4", "H3", "I2(5)", "I2(6)", "I2(7)", "I2(8)"]:
        s = system(name)
        cox = enumerate_coxeter_words(s)[0]
        for k in (1, 2):
            assert permutation_order(
                theta_permutation(s, cox, k)
            ) == theta_order_formula(s, k)
    report(10, "action table, the 7-step orbit, and all order checks")


def test_criterion_11_sin_equivalence():
    from subwordlab.coxeter import equal_up_to_commutations, iter_all_words
    from subwordlab.sorting import has_sin_property

    for name, size in [("A2", 5), ("B2", 6)]:
        s = system(name)
        k = (size - s.number_of_positive_roots) // s.rank
        references = [
            cox * k + sorting_word_w0(s, cox).word
            for cox in enumerate_coxeter_words(s)
        ]
        total = 0
        for word in iter_all_words(s, size):
            expected = any(
                equal_up_to_commutations(s, word, ref) for ref in references
            )
            assert has_sin_property(s, word) == expected
            total += 1
        assert total == s.rank ** size
    report(11, "exhaustive SIN equivalence over 32 + 64 words")


def test_criterion_12_sphere_euler_characteristics():
    for name, k, cox, _ in COUNT_CASES:
        s = system(name)
        word = multi_cluster_word(s, cox, k)
        complex_ = subword_complex(s, word, longest_element(s))
        dimension = len(word) - s.number_of_positive_roots - 1
        assert reduced_euler_characteristic(complex_) == (-1) ** dimension
    report(12, "reduced Euler characteristic of every criterion-5 complex")


def test_criterion_13_mesh_relation():
    for name in ["A3", "B2", "B3"]:
        s = system(name)
        assert s.exact
        for cox in enumerate_coxeter_words(s):
            for k in (1, 2):
                assert check_mesh_relation(s, multi_cluster_word(s, cox, k))
    i27 = system("I2(7)")
    assert not i27.exact  # checked within 1e-9
    for k in (1, 2):
        assert check_mesh_relation(i27, multi_cluster_word(i27, (1, 2), k))
    report(13, "mesh relation exact on A3/B2/B3 and within 1e-9 on I2(7)")


def test_criterion_14_reversal_identities():
    from subwordlab.coxeter import equal_up_to_commutations, psi, psi_word

    for name in ["A3", "B3", "D4"]:
        s = system(name)
        h = s.coxeter_number
        for cox in enumerate_coxeter_words(s):
            word = sorting_word_w0(s, cox).word
            rev = tuple(reversed(cox))
            assert equal_up_to_commutations(
                s, word, tuple(reversed(sorting_word_w0(s, psi_word(s, rev)).word))
            )
            assert equal_up_to_commutations(
                s, cox * h, word + tuple(reversed(sorting_word_w0(s, rev).word))
            )
            phi = sorting_word_w0(s, cox).phi
            assert all(
                phi[g] + phi[psi(s, g)] == h for g in range(1, s.rank + 1)
            )
    report(14, "all three reversal identities on every Coxeter word")


def test_criterion_15_rank_two_gale():
    for m in range(3, 8):
        s = system(f"I2({m})")
        for k in range(1, 4):
            word = multi_cluster_word(s, (1, 2), k)
            assert gale_facets_rank2(m, k) == subword_complex(
                s, word, longest_element(s)
            ).facets
    report(15, "Gale evenness equals facet enumeration for m in 3..7, k in 1..3")


def test_criterion_16_universality_by_links():
    a3 = system("A3")
    cox = (1, 2, 3)
    position_in_cox = {s: i + 1 for i, s in enumerate(cox)}
    rng = random.Random(20120814)
    found = 0
    while found < 20:
        length = rng.randint(7, 11)
        candidate = tuple(rng.randint(1, 3) for _ in range(length))
        if demazure_product(a3, candidate) != longest_element(a3):
            continue
        found += 1
        k = length
        big_word = multi_cluster_word(a3, cox, k)
        embedded = tuple(
            (i - 1) * 3 + position_in_cox[s] for i, s in enumerate(candidate, 1)
        )
        assert tuple(big_word[p - 1] for p in embedded) == candidate
        face = tuple(
            p for p in range(1, len(big_word) + 1) if p not in set(embedded)
        )
        assert is_face(a3, big_word, longest_element(a3), face)
        linked = link(a3, big_word, longest_element(a3), face)
        assert linked.word == candidate
        direct = subword_complex(a3, candidate, longest_element(a3))
        assert linked.facets == direct.facets
    report(16, "20 random spherical words realized as links")


def test_criterion_17_property_reports():
    nonfaces = run_nonface_experiment()
    assert nonfaces.verdict == "report-only" and nonfaces.rows
    assert all(row["all_k_plus_1"] for row in nonfaces.rows)
    csp = run_csp_experiment()
    assert csp.verdict == "report-only" and csp.rows
    assert all(row["matches"] for row in csp.rows)
    covered = {(row["type"], row["k"]) for row in csp.rows}
    assert {
        ("A1", 1), ("A1", 2), ("A2", 1), ("A2", 2), ("A3", 1), ("A3", 2),
        ("B2", 1), ("B2", 2), ("I2(5)", 1), ("I2(5)", 2),
    } <= covered
    maximality = run_maximality_experiment(seed=0)
    assert maximality.verdict == "report-only" and maximality.rows
    assert all(row["counterexample"] is None for row in maximality.rows)
    report(17, "conjecture experiments ran and emitted consistent data")
