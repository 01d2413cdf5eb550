import gc
import weakref
from fractions import Fraction
from math import comb

import pytest
from itertools import combinations, permutations

from hypothesis import example, given, settings, strategies as st

from subwordlab import cli, multicluster, subword
from subwordlab.coxeter import (
    CoxeterError,
    CoxeterSystem,
    ResourceLimitError,
    SignedRoot,
    commutation_layers,
    commutation_position_map,
    element_from_word,
    enumerate_coxeter_words,
    longest_element,
)
from subwordlab.experiments import CSP_INSTANCES
from subwordlab.multicluster import (
    almost_positive_roots,
    c_compatible,
    contains_pairwise_crossing,
    count_formula_is_theorem,
    csp_fixed_point_table,
    csp_polynomial,
    diagonal_is_relevant,
    diagonals_cross,
    facet_count_formula,
    gale_facets_rank2,
    lr_labels,
    multi_cluster_complex,
    multi_cluster_word,
    negative_simple,
    permutation_order,
    sigma_involution,
    theta_order_formula,
    theta_orbits_on_facets,
    theta_permutation,
    type_a_bijection,
    type_b_bijection,
)
from subwordlab.sorting import sorting_word_w0
from subwordlab.subword import facet_counts, subword_complex
from helpers import (
    CODE_EDGE_TYPES,
    SMALL_TYPES,
    brute_csp_polynomial,
    brute_diagonals_cross,
    brute_root_table,
    brute_theta,
    catalan,
    float_csp_values,
    is_facet_by_reflections,
    oracle_coxeter_words,
    reflection_sequence,
    system,
)


def roots_by_vector(s):
    return {tuple(vec): i for i, vec in enumerate(s.positive_roots)}


# ---------------------------------------------------------------------------
# Words and labels

def test_multi_cluster_words():
    b2, b3 = system("B2"), system("B3")
    assert multi_cluster_word(b2, (1, 2), 1) == (1, 2, 1, 2, 1, 2)
    assert multi_cluster_word(b3, (1, 2, 3), 2) == (1, 2, 3) * 5
    a3 = system("A3")
    assert multi_cluster_word(a3, (1, 2, 3), 0) == (1, 2, 3, 1, 2, 1)
    assert len(multi_cluster_word(a3, (1, 2, 3), 3)) == 3 * 3 + 6


@pytest.mark.parametrize(
    "name, cox, k",
    [("A1", (1,), 0), ("A2", (2, 1), 1), ("B3", (2, 1, 3), 2), ("H3", (1, 2, 3), 1),
     ("I2(7)", (1, 2), 2)],
)
def test_multi_cluster_complex_is_the_subword_complex_of_its_word(name, cox, k):
    s = system(name)
    word = cox * k + sorting_word_w0(s, cox).word
    expected = subword_complex(s, word, longest_element(s))
    assert multi_cluster_complex(s, cox, k) == expected


@pytest.mark.parametrize("name, k", [("A3", 1), ("A3", 2), ("B3", 1), ("B3", 2), ("D4", 1)])
def test_multi_cluster_complex_depends_on_the_coxeter_word_up_to_commutations(name, k):
    # every ordering of the generators, canonical or not, gives the complex
    # of its class's canonical word, relabelled across the commutations
    s = system(name)
    canonical = {
        commutation_layers(s, cox): multi_cluster_complex(s, cox, k)
        for cox in enumerate_coxeter_words(s)
    }
    for cox in permutations(range(1, s.rank + 1)):
        complex_ = multi_cluster_complex(s, cox, k)
        reference = canonical[commutation_layers(s, cox)]
        relabel = commutation_position_map(s, complex_.word, reference.word)
        relabelled = {tuple(sorted(relabel[p - 1] for p in facet)) for facet in complex_.facets}
        assert len(relabelled) == len(complex_.facets)
        assert relabelled == set(reference.facets)


def test_b2_lr_labels():
    b2 = system("B2")
    labels = lr_labels(b2, (1, 2))
    idx = roots_by_vector(b2)
    assert labels == (
        SignedRoot(0, -1),
        SignedRoot(1, -1),
        SignedRoot(idx[(1, 0)], 1),
        SignedRoot(idx[(1, 1)], 1),
        SignedRoot(idx[(1, 2)], 1),
        SignedRoot(idx[(0, 1)], 1),
    )


def test_a2_lr_labels_other_coxeter_word():
    a2 = system("A2")
    labels = lr_labels(a2, (2, 1))
    idx = roots_by_vector(a2)
    assert labels == (
        SignedRoot(1, -1),
        SignedRoot(0, -1),
        SignedRoot(idx[(0, 1)], 1),
        SignedRoot(idx[(1, 1)], 1),
        SignedRoot(idx[(1, 0)], 1),
    )


def test_first_sorting_letter_is_its_simple_root():
    for name in ["A3", "B3", "H3"]:
        s = system(name)
        for cox in enumerate_coxeter_words(s):
            labels = lr_labels(s, cox)
            first = labels[s.rank]
            assert first == SignedRoot(cox[0] - 1, 1)


def test_lr_labels_are_bijective():
    for name in ["A3", "B3", "H3", "D4"]:
        s = system(name)
        for cox in enumerate_coxeter_words(s)[:2]:
            labels = lr_labels(s, cox)
            assert len(set(labels)) == s.rank + s.number_of_positive_roots
            assert set(labels) == set(almost_positive_roots(s))
            # each label is found at its own position, so letter p carries label p
            assert [labels.index(label) for label in labels] == list(range(len(labels)))


@pytest.mark.parametrize("name", ("A3", "B3", "H3", "D4", "I2(7)") + CODE_EDGE_TYPES)
def test_lr_labels_match_the_root_table_oracle(name):
    s = system(name)
    for cox in oracle_coxeter_words(s):
        expected = brute_root_table(s, sorting_word_w0(s, cox).word, ())
        assert lr_labels(s, cox)[s.rank:] == expected


def test_b2_compatibility_examples():
    b2 = system("B2")
    idx = roots_by_vector(b2)
    assert c_compatible(b2, (1, 2), negative_simple(b2, 1), negative_simple(b2, 2))
    assert not c_compatible(
        b2, (1, 2), SignedRoot(idx[(1, 0)], 1), SignedRoot(idx[(1, 2)], 1)
    )
    assert c_compatible(
        b2, (1, 2), SignedRoot(idx[(1, 0)], 1), SignedRoot(idx[(1, 1)], 1)
    )
    with pytest.raises(CoxeterError):
        c_compatible(b2, (1, 2), negative_simple(b2, 1), negative_simple(b2, 1))


def test_b2_clusters_match_label_pairs():
    b2 = system("B2")
    labels = lr_labels(b2, (1, 2))
    complex_ = subword_complex(
        b2, multi_cluster_word(b2, (1, 2), 1), longest_element(b2)
    )
    clusters = {
        frozenset(labels[p - 1] for p in facet) for facet in complex_.facets
    }
    idx = roots_by_vector(b2)
    expected = {
        frozenset({SignedRoot(0, -1), SignedRoot(1, -1)}),
        frozenset({SignedRoot(1, -1), SignedRoot(idx[(1, 0)], 1)}),
        frozenset({SignedRoot(idx[(1, 0)], 1), SignedRoot(idx[(1, 1)], 1)}),
        frozenset({SignedRoot(idx[(1, 1)], 1), SignedRoot(idx[(1, 2)], 1)}),
        frozenset({SignedRoot(idx[(1, 2)], 1), SignedRoot(idx[(0, 1)], 1)}),
        frozenset({SignedRoot(idx[(0, 1)], 1), SignedRoot(0, -1)}),
    }
    assert clusters == expected


def _parabolic_member(s, dropped_generator, root):
    if root.sign < 0:
        return root.root != dropped_generator - 1
    return s.positive_roots[root.root][dropped_generator - 1] == 0


def test_compatibility_keeps_no_reference_to_the_system():
    s = CoxeterSystem("B3")
    cox = enumerate_coxeter_words(s)[0]
    roots = almost_positive_roots(s)
    assert lr_labels(s, cox)[0] == roots[0]
    assert c_compatible(s, cox, roots[0], roots[1])
    ref = weakref.ref(s)
    del s
    gc.collect()
    assert ref() is None


# Calls that read the word c^k w0(c), with how often each may scan for the
# sorting word of w0 (``sorting_word_w0``) and walk the labels of c w0(c)
# (``root_table``) through ``multicluster``: once, whatever it reads off it
_ONE_WORD_CALLS = {
    "c_compatible E6": (
        lambda: c_compatible(
            system("E6"), (1, 2, 3, 4, 5, 6), SignedRoot(0, -1), SignedRoot(5, 1)
        ),
        {"sorting_word_w0": 1, "root_table": 1},
    ),
    "c_compatible B3": (
        lambda: c_compatible(system("B3"), (2, 1, 3), SignedRoot(1, -1), SignedRoot(2, 1)),
        {"sorting_word_w0": 1, "root_table": 1},
    ),
    "theta_orbits_on_facets E6": (
        lambda: theta_orbits_on_facets(system("E6"), (1, 2, 3, 4, 5, 6), 1),
        {"sorting_word_w0": 1},
    ),
    "csp_fixed_point_table A3 k=2": (
        lambda: csp_fixed_point_table(system("A3"), (1, 2, 3), 2),
        {"sorting_word_w0": 1},
    ),
    "theta --orbits E6": (
        lambda: cli.main(["theta", "--type", "E6", "--orbits", "--json"]),
        {"sorting_word_w0": 1},
    ),
}


@pytest.mark.parametrize("name", _ONE_WORD_CALLS)
def test_one_multi_cluster_word_per_call(name, monkeypatch, capsys):
    call, expected = _ONE_WORD_CALLS[name]
    counts = dict.fromkeys(expected, 0)
    for reader in expected:
        def counted(*args, reader=reader, real=getattr(multicluster, reader)):
            counts[reader] += 1
            return real(*args)

        monkeypatch.setattr(multicluster, reader, counted)
    call()
    assert counts == expected


def test_negative_simple_compatibility_is_parabolic_membership():
    for name in ["A3", "B3", "H3"]:
        s = system(name)
        cox = enumerate_coxeter_words(s)[0]
        for g in range(1, s.rank + 1):
            minus = negative_simple(s, g)
            for other in almost_positive_roots(s):
                if other == minus:
                    continue
                assert c_compatible(s, cox, minus, other) == _parabolic_member(
                    s, g, other
                )


def test_sigma_involution_basics():
    b2 = system("B2")
    assert sigma_involution(b2, 1, negative_simple(b2, 2)) == negative_simple(b2, 2)
    assert sigma_involution(b2, 1, negative_simple(b2, 1)) == SignedRoot(0, 1)
    idx = roots_by_vector(b2)
    image = sigma_involution(b2, 1, SignedRoot(idx[(1, 1)], 1))
    assert tuple(b2.positive_roots[image.root]) == (0, 1) and image.sign == 1
    # involution on the whole set
    for root in almost_positive_roots(b2):
        assert sigma_involution(b2, 1, sigma_involution(b2, 1, root)) == root


def test_sigma_involution_rejects_out_of_range_generators():
    a3 = system("A3")
    for s in (0, -1, 4):
        for root in (SignedRoot(0, 1), negative_simple(a3, 1), negative_simple(a3, 3)):
            with pytest.raises(CoxeterError, match=f"generator s{s} out of range"):
                sigma_involution(a3, s, root)


def test_sigma_involution_rejects_roots_outside_the_almost_positive_ones():
    a2 = system("A2")
    for root in (SignedRoot(3, 1), SignedRoot(-1, 1), SignedRoot(-1, -1), SignedRoot(3, -1)):
        with pytest.raises(CoxeterError, match=rf"^root index {root.root} out of range for A2"):
            sigma_involution(a2, 1, root)
    for root in (SignedRoot(0, 5), SignedRoot(0, -5), SignedRoot(1, 0)):
        with pytest.raises(CoxeterError, match=rf"^root sign {root.sign} is not 1 or -1"):
            sigma_involution(a2, 1, root)
    with pytest.raises(CoxeterError, match="negated roots must be simple"):
        sigma_involution(a2, 1, SignedRoot(2, -1))  # root 2 is not simple


@pytest.mark.parametrize("s", [0, 4])
def test_negative_simple_rejects_out_of_range_generators(s):
    with pytest.raises(CoxeterError) as error:
        negative_simple(system("A3"), s)
    assert str(error.value) == f"generator s{s} out of range for A3"


def test_compatibility_recursion_under_initial_letters():
    # compatibility w.r.t. c matches compatibility of the sigma images
    # w.r.t. the conjugated word, for the initial letter of c
    for name in ["A3", "B3", "H3"]:
        s = system(name)
        for cox in enumerate_coxeter_words(s)[:2]:
            first = cox[0]
            conj = cox[1:] + (first,)
            roots = almost_positive_roots(s)
            for r1, r2 in combinations(roots, 2):
                lhs = c_compatible(s, cox, r1, r2)
                rhs = c_compatible(
                    s,
                    conj,
                    sigma_involution(s, first, r1),
                    sigma_involution(s, first, r2),
                )
                assert lhs == rhs


# ---------------------------------------------------------------------------
# Reflection sequences

def test_b2_reflection_sequence():
    b2 = system("B2")
    sequence = reflection_sequence(b2, multi_cluster_word(b2, (1, 2), 1))
    words = [
        element_from_word(b2, w)
        for w in [(1,), (1, 2, 1), (2, 1, 2), (2,), (1,), (1, 2, 1)]
    ]
    assert list(sequence) == words


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SMALL_TYPES + ["I2(128)"]), st.data())
def test_reflection_sequence_matches_the_conjugation_definition(name, data):
    # I2(128) keeps its codes in str
    s = system(name)
    word = tuple(data.draw(st.lists(st.integers(1, s.rank), max_size=12)))
    conjugates = tuple(  # q_1...q_{i-1} q_i q_{i-1}...q_1
        element_from_word(s, word[:i] + word[i::-1]) for i in range(len(word))
    )
    assert reflection_sequence(s, word) == conjugates


def test_reflection_sequence_basics():
    a3 = system("A3")
    word = multi_cluster_word(a3, (1, 2, 3), 1)
    sequence = reflection_sequence(a3, word)
    assert sequence[0] == a3.generators[word[0] - 1]
    for t in sequence:
        assert t * t == a3.identity
        assert t.length() % 2 == 1


def test_reflection_facet_criterion_b2():
    b2 = system("B2")
    assert is_facet_by_reflections(b2, (1, 2), 1, (1, 2))
    assert not is_facet_by_reflections(b2, (1, 2), 1, (1, 3))
    facets = set(
        subword_complex(
            b2, multi_cluster_word(b2, (1, 2), 1), longest_element(b2)
        ).facets
    )
    for pair in combinations(range(1, 7), 2):
        assert is_facet_by_reflections(b2, (1, 2), 1, pair) == (pair in facets)


def test_reflection_facet_criterion_b2_k2_all_subsets():
    b2 = system("B2")
    word = multi_cluster_word(b2, (1, 2), 2)
    facets = set(subword_complex(b2, word, longest_element(b2)).facets)
    for subset in combinations(range(1, len(word) + 1), 4):
        assert is_facet_by_reflections(b2, (1, 2), 2, subset) == (subset in facets)


def test_reflection_criterion_matches_facets():
    for name, k in [("A3", 1), ("A3", 2), ("B3", 1), ("B3", 2)]:
        s = system(name)
        cox = enumerate_coxeter_words(s)[0]
        word = multi_cluster_word(s, cox, k)
        for facet in subword_complex(s, word, longest_element(s)).facets:
            assert is_facet_by_reflections(s, cox, k, facet)


# ---------------------------------------------------------------------------
# The cyclic action

def test_a4_theta_table():
    a4 = system("A4")
    perm = theta_permutation(a4, (1, 3, 2, 4), 1)
    assert perm == (5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 2, 1, 4, 3)
    assert permutation_order(perm) == 7 == theta_order_formula(a4, 1)


def test_a4_theta_facet_orbit():
    a4 = system("A4")
    perm = theta_permutation(a4, (1, 3, 2, 4), 1)
    orbit = [(1, 2, 3, 4)]
    for _ in range(6):
        orbit.append(tuple(sorted(perm[p - 1] for p in orbit[-1])))
    assert orbit == [
        (1, 2, 3, 4),
        (5, 6, 7, 8),
        (9, 10, 11, 12),
        (1, 2, 13, 14),
        (3, 4, 5, 6),
        (7, 8, 9, 10),
        (11, 12, 13, 14),
    ]
    assert tuple(sorted(perm[p - 1] for p in orbit[-1])) == orbit[0]
    facets = set(
        subword_complex(
            a4, multi_cluster_word(a4, (1, 3, 2, 4), 1), longest_element(a4)
        ).facets
    )
    assert set(orbit) <= facets


def test_b2_theta_cycles():
    b2 = system("B2")
    perm = theta_permutation(b2, (1, 2), 1)
    assert perm == (3, 4, 5, 6, 1, 2)
    assert permutation_order(perm) == 3 == theta_order_formula(b2, 1)


def test_permutation_order_is_the_lcm_of_the_cycle_lengths():
    perm, start = [], 1
    for length in (2, 3, 5, 7, 11):
        perm += [start + (i + 1) % length for i in range(length)]
        start += length
    assert sorted(perm) == list(range(1, 29))
    assert permutation_order(tuple(perm)) == 2 * 3 * 5 * 7 * 11
    assert permutation_order(()) == 1
    with pytest.raises(CoxeterError, match="not a permutation"):
        permutation_order((1, 1))


THETA_ORDER_TYPES = [
    "A2", "A3", "A4", "B2", "B3", "D4", "H3",
    "I2(5)", "I2(6)", "I2(7)", "I2(8)",
]


@pytest.mark.parametrize("name", THETA_ORDER_TYPES)
@pytest.mark.parametrize("k", [1, 2])
def test_theta_orders_match_formula(name, k):
    s = system(name)
    cox = enumerate_coxeter_words(s)[0]
    perm = theta_permutation(s, cox, k)
    assert permutation_order(perm) == theta_order_formula(s, k)


THETA_RESCAN_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2", "H3", "H4", "I2(5)", "I2(7)", "I2(8)"]
)


@pytest.mark.parametrize("name", THETA_RESCAN_TYPES)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_theta_permutation_matches_the_rescan(name, data):
    s = system(name)
    words = enumerate_coxeter_words(s)
    cox = words[data.draw(st.integers(0, len(words) - 1), label="word")]
    k = data.draw(st.integers(0, 3), label="k")
    expected = brute_theta(s, multi_cluster_word(s, cox, k))
    assert theta_permutation(s, cox, k) == expected


def test_theta_orbits_on_facets():
    b2, a2 = system("B2"), system("A2")
    assert [len(o) for o in theta_orbits_on_facets(b2, (1, 2), 1)] == [3, 3]
    assert [len(o) for o in theta_orbits_on_facets(a2, (1, 2), 1)] == [5]
    for name, k in [("A3", 1), ("B3", 1)]:
        s = system(name)
        cox = enumerate_coxeter_words(s)[0]
        order = permutation_order(theta_permutation(s, cox, k))
        for orbit in theta_orbits_on_facets(s, cox, k):
            assert order % len(orbit) == 0


def test_theta_orbits_refuse_a_map_off_the_facets(monkeypatch):
    # swapping positions 1 and 2 of s1 s2 s1 s2 s1 fixes the facet {1,2} but
    # sends {1,5} to {2,5}, which is no facet
    monkeypatch.setattr(multicluster, "_next_occurrence", lambda system, word: (2, 1, 3, 4, 5))
    with pytest.raises(CoxeterError, match="^the action failed to map a facet to a facet$"):
        theta_orbits_on_facets(system("A2"), (1, 2), 1)


# ---------------------------------------------------------------------------
# Polygon models

def test_pentagon_diagonal_table():
    table = type_a_bijection(5, 1, (2, 1))
    assert table == ((0, 2), (0, 3), (1, 3), (1, 4), (2, 4))


TYPE_A_TABLES = {
    (7, 2, (1, 2)): ((0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6), (0, 3)),
    (7, 2, (2, 1)): ((0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6)),
    (8, 2, (1, 2, 3)): (
        (0, 5), (1, 5), (2, 5), (1, 6), (2, 6), (3, 6),
        (2, 7), (3, 7), (4, 7), (0, 3), (0, 4), (1, 4),
    ),
    (8, 2, (1, 3, 2)): (
        (0, 5), (1, 4), (1, 5), (1, 6), (2, 5), (2, 6),
        (2, 7), (3, 6), (3, 7), (0, 3), (4, 7), (0, 4),
    ),
    (8, 2, (2, 1, 3)): (
        (0, 4), (0, 5), (1, 4), (1, 5), (1, 6), (2, 5),
        (2, 6), (2, 7), (3, 6), (3, 7), (0, 3), (4, 7),
    ),
    (8, 2, (3, 2, 1)): (
        (0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (1, 6),
        (2, 5), (2, 6), (2, 7), (3, 6), (3, 7), (4, 7),
    ),
}


def test_type_a_bijection_tables_on_every_coxeter_word():
    for m, k in [(7, 2), (8, 2)]:
        s = system(f"A{m - 2 * k - 1}")
        assert {cox for mm, kk, cox in TYPE_A_TABLES if (mm, kk) == (m, k)} == set(
            enumerate_coxeter_words(s)
        )
    for (m, k, cox), table in TYPE_A_TABLES.items():
        assert type_a_bijection(m, k, cox) == table


def test_type_a_bijection_is_onto_relevant_diagonals():
    for m, k in [(5, 1), (6, 1), (7, 2), (8, 2)]:
        n = m - 2 * k - 1
        s = system(f"A{n}")
        cox = enumerate_coxeter_words(s)[0]
        table = type_a_bijection(m, k, cox)
        assert len(table) == len(set(table))
        assert len(table) == k * n + s.number_of_positive_roots
        relevant = {
            (a, b)
            for a in range(m)
            for b in range(a + 1, m)
            if diagonal_is_relevant(m, k, (a, b))
        }
        assert set(table) == relevant
        # word length identity: kn + N = C(m, 2) - mk
        assert len(table) == m * (m - 1) // 2 - m * k


def test_diagonals_cross():
    assert diagonals_cross(5, (0, 2), (1, 3))
    assert not diagonals_cross(5, (0, 2), (0, 3))
    assert not diagonals_cross(6, (0, 2), (3, 5))


def test_diagonals_cross_matches_cyclic_interleaving():
    # every ordered pair of (possibly unsorted) vertex pairs; a pair whose
    # endpoints coincide is no diagonal and is refused
    for m in range(1, 11):
        pairs = [(a, b) for a in range(m) for b in range(m) if a != b]
        for d1 in pairs:
            for d2 in pairs:
                assert diagonals_cross(m, d1, d2) == brute_diagonals_cross(m, d1, d2)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 9), st.integers(2, 4), st.data())
def test_pairwise_crossing_search_matches_subsets(m, count, data):
    every = [(a, b) for a in range(m) for b in range(a + 2, m) if (a, b) != (0, m - 1)]
    diagonals = data.draw(st.lists(st.sampled_from(every), max_size=7, unique=True))
    expected = any(
        all(brute_diagonals_cross(m, d, e) for d, e in combinations(subset, 2))
        for subset in combinations(diagonals, count)
    )
    assert contains_pairwise_crossing(m, count, diagonals) == expected


def test_faces_are_crossing_free_sets_type_a():
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
                for sub in combinations(facet, size):
                    faces.add(frozenset(sub))
        for size in range(len(word) + 1):
            for positions in combinations(range(1, len(word) + 1), size):
                crossing = contains_pairwise_crossing(
                    m, k + 1, [table[p - 1] for p in positions]
                )
                assert (frozenset(positions) in faces) == (not crossing)


def test_theta_is_polygon_rotation_type_a():
    for m, k in [(5, 1), (6, 1), (7, 2), (8, 2)]:
        n = m - 2 * k - 1
        s = system(f"A{n}")
        cox = enumerate_coxeter_words(s)[0]
        table = type_a_bijection(m, k, cox)
        perm = theta_permutation(s, cox, k)
        for p, diagonal in enumerate(table, start=1):
            a, b = diagonal
            rotated = tuple(sorted(((a + 1) % m, (b + 1) % m)))
            assert table[perm[p - 1] - 1] == rotated


def test_type_b_bijection_example():
    table = type_b_bijection(5, 2, (1, 2, 3))
    assert table[2] == frozenset({(2, 5), (0, 7)})
    assert table[6] == frozenset({(2, 7)})
    # the seed pairs of the first copy of c, including the s1 diameter
    assert table[0] == frozenset({(0, 5)})
    assert table[1] == frozenset({(1, 5), (0, 6)})


def test_type_b_bijection_full_table():
    # every diagonal pair of the 10-gon model for m=5, k=2, c=s1s2s3
    expected = [
        {(0, 5)},
        {(1, 5), (0, 6)},
        {(2, 5), (0, 7)},
        {(1, 6)},
        {(2, 6), (1, 7)},
        {(3, 6), (1, 8)},
        {(2, 7)},
        {(3, 7), (2, 8)},
        {(4, 7), (2, 9)},
        {(3, 8)},
        {(4, 8), (3, 9)},
        {(5, 8), (0, 3)},
        {(4, 9)},
        {(5, 9), (0, 4)},
        {(6, 9), (1, 4)},
    ]
    table = type_b_bijection(5, 2, (1, 2, 3))
    assert [set(pair) for pair in table] == expected


def test_type_b_facet_example():
    b3 = system("B3")
    word = multi_cluster_word(b3, (1, 2, 3), 2)
    facets = set(subword_complex(b3, word, longest_element(b3)).facets)
    assert (3, 5, 7, 9, 13, 15) in facets


def test_faces_are_crossing_free_sets_type_b():
    for m, k in [(4, 1), (5, 2)]:
        n = m - k
        s = system(f"B{n}")
        cox = enumerate_coxeter_words(s)[0]
        table = type_b_bijection(m, k, cox)
        word = multi_cluster_word(s, cox, k)
        complex_ = subword_complex(s, word, longest_element(s))
        faces = set()
        for facet in complex_.facets:
            for size in range(len(facet) + 1):
                for sub in combinations(facet, size):
                    faces.add(frozenset(sub))
        for size in range(len(word) + 1):
            for positions in combinations(range(1, len(word) + 1), size):
                diagonals = {d for p in positions for d in table[p - 1]}
                crossing = contains_pairwise_crossing(2 * m, k + 1, diagonals)
                assert (frozenset(positions) in faces) == (not crossing)


def test_theta_is_polygon_rotation_type_b():
    for m, k in [(4, 1), (5, 2)]:
        s = system(f"B{m - k}")
        cox = enumerate_coxeter_words(s)[0]
        table = type_b_bijection(m, k, cox)
        perm = theta_permutation(s, cox, k)
        for p, pair in enumerate(table, start=1):
            rotated = frozenset(
                tuple(sorted(((a + 1) % (2 * m), (b + 1) % (2 * m))))
                for a, b in pair
            )
            assert table[perm[p - 1] - 1] == rotated


# ---------------------------------------------------------------------------
# Rank two and counting

def test_gale_counts():
    assert len(gale_facets_rank2(3, 2)) == 14
    assert len(gale_facets_rank2(4, 2)) == 20
    for m in range(3, 9):
        assert len(gale_facets_rank2(m, 1)) == m + 2


def test_gale_facets_rank2_rejects_illegal_parameters():
    for m in (2, 1, 0):
        with pytest.raises(CoxeterError, match=r"^I2\(m\) needs m >= 3$"):
            gale_facets_rank2(m, 1)
    with pytest.raises(CoxeterError, match="^the number of copies must be nonnegative$"):
        gale_facets_rank2(5, -1)


def test_gale_facets_rank2_checks_its_budget_up_front(monkeypatch):
    monkeypatch.setattr(subword, "MAX_FACES", 35)
    assert len(gale_facets_rank2(3, 2)) == 14  # C(7, 4) = 35 subsets, at the limit

    def fail(*args):
        raise AssertionError("the subset scan started")

    monkeypatch.setattr(multicluster, "combinations", fail)
    monkeypatch.setattr(subword, "MAX_FACES", 34)
    with pytest.raises(
        ResourceLimitError,
        match=r"Gale scan for m=3, k=2 has C\(7, 4\) = 35 subsets, more than the limit of 34",
    ):
        gale_facets_rank2(3, 2)
    monkeypatch.setattr(subword, "MAX_FACES", 10**6)
    with pytest.raises(ResourceLimitError, match=r"C\(50, 20\) = 47129212243960 subsets"):
        gale_facets_rank2(30, 10)


def test_gale_matches_enumeration():
    for m in range(3, 8):
        for k in range(1, 4):
            s = system(f"I2({m})")
            word = multi_cluster_word(s, (1, 2), k)
            assert (
                subword_complex(s, word, longest_element(s)).facets
                == gale_facets_rank2(m, k)
            )


def test_count_formula_values():
    assert facet_count_formula(system("A3"), 1) == 14
    assert facet_count_formula(system("B3"), 1) == 20
    assert facet_count_formula(system("D4"), 1) == 50
    assert facet_count_formula(system("H3"), 1) == 32
    assert facet_count_formula(system("A3"), 2) == 84
    assert facet_count_formula(system("A1"), 5) == 6


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([
        "A1", "A3", "A6", "B2", "B5", "D4", "D7", "E6", "E7", "E8",
        "F4", "G2", "H3", "H4", "I2(5)", "I2(7)", "I2(12)",
    ]),
    st.integers(0, 6),
)
def test_count_formula_is_the_product_of_its_factors(name, k):
    # one fraction of two integer products against n*k Fraction factors
    s = system(name)
    expected = Fraction(1)
    for j in range(k):
        for d in s.degrees:
            expected *= Fraction(d + s.coxeter_number + 2 * j, d + 2 * j)
    value = facet_count_formula(s, k)
    assert type(value) is Fraction and value == expected


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([
        "A1", "A2", "A5", "A8", "B2", "B4", "B8", "D4", "D5", "D8", "E6", "E7", "E8",
        "F4", "G2", "H3", "H4", "I2(5)", "I2(7)", "I2(12)",
    ]),
    st.integers(0, 6),
)
@example("D4", 3)  # not a polynomial
@example("H4", 3)
def test_csp_polynomial_matches_the_q_integer_quotient(name, k):
    s = system(name)
    assert csp_polynomial(s, k) == brute_csp_polynomial(s, k)


def test_a3_k2_count_against_catalan_determinant():
    # number of 2-triangulations of the 8-gon as a 2x2 Hankel determinant
    m = 8
    determinant = catalan(m - 2) * catalan(m - 4) - catalan(m - 3) ** 2
    assert determinant == 84
    assert facet_count_formula(system("A3"), 2) == determinant
    a3 = system("A3")
    word = multi_cluster_word(a3, (1, 2, 3), 2)
    assert len(subword_complex(a3, word, longest_element(a3)).facets) == determinant


def test_e7_cluster_complex_facet_count():
    # at k = 1 the degree-product formula is a theorem in every type
    e7 = system("E7")
    complex_ = multi_cluster_complex(e7, enumerate_coxeter_words(e7)[0], 1)
    assert len(complex_.facets) == facet_count_formula(e7, 1) == 4160
    assert all(len(facet) == 7 for facet in complex_.facets)


def _no_search(*args):
    raise AssertionError("the facet search ran")


@pytest.mark.parametrize("name, k, count", [("A16", 1, 129644790), ("A10", 2, 403127256)])
def test_over_budget_multi_cluster_complex_is_rejected_up_front(monkeypatch, name, k, count):
    monkeypatch.setattr(subword, "_facet_search", _no_search)
    s = system(name)
    with pytest.raises(
        ResourceLimitError,
        match=f"{name} with k={k} has {count} facets, more than the limit of 1000000",
    ):
        multi_cluster_complex(s, tuple(range(1, s.rank + 1)), k)


def _fail(*args):
    raise AssertionError("built or counted past the refusal")


@pytest.mark.parametrize(
    "name, k, bound",
    [
        ("A3", 2000, 1337337001),
        ("A3", 10**6, 166667666668500001),
        ("E8", 3000, 164685792114786377267976),
        ("A2", 2, 6),
    ],
)
def test_a_huge_k_is_refused_before_anything_is_built(monkeypatch, name, k, bound):
    # C(k + n, n) bounds the facet count from below; over the budget, neither
    # the word, nor the formula, nor the facet search runs
    monkeypatch.setattr(multicluster, "multi_cluster_word", _fail)
    monkeypatch.setattr(multicluster, "facet_count_formula", _fail)
    monkeypatch.setattr(subword, "_facet_search", _fail)
    if name == "A2":  # C(4, 2) = 6 is just past a budget of 5
        monkeypatch.setattr(subword, "MAX_FACES", 5)
    s = system(name)
    n = s.rank
    with pytest.raises(ResourceLimitError) as caught:
        multi_cluster_complex(s, tuple(range(1, n + 1)), k)
    assert str(caught.value) == (
        f"{name} with k={k} has at least C({k + n}, {n}) = {bound} facets,"
        f" more than the limit of {subword.MAX_FACES}"
    )


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "B2", "B3", "D4", "G2", "H3", "I2(5)", "I2(8)"]
)
def test_binomial_bound_is_below_the_facet_count(name):
    # the sorting word of w0 opens with c itself, so c^k w0(c) holds k + 1
    # copies of c; reading the i-th letter of c from copy j_i, for each
    # nondecreasing j_1 <= ... <= j_n, followed by the rest of w0(c), spells
    # a reduced word for w0, and these complements are distinct facets
    s = system(name)
    n = s.rank
    for cox in enumerate_coxeter_words(s):
        assert sorting_word_w0(s, cox).word[:n] == cox
    cox = enumerate_coxeter_words(s)[0]
    words = [multi_cluster_word(s, cox, k) for k in range(7)]
    for k, count in enumerate(facet_counts(s, words, longest_element(s))):
        bound = comb(k + n, n)
        assert bound <= count
        assert (bound == count) == (k == 0 or n == 1)


def test_multi_cluster_budget_is_the_kernel_budget(monkeypatch):
    a3 = system("A3")
    monkeypatch.setattr(subword, "MAX_FACES", 13)
    with pytest.raises(
        ResourceLimitError, match="A3 with k=1 has 14 facets, more than the limit of 13"
    ):
        multi_cluster_complex(a3, (1, 2, 3), 1)
    monkeypatch.setattr(subword, "MAX_FACES", 14)
    assert len(multi_cluster_complex(a3, (1, 2, 3), 1).facets) == 14


def test_multi_cluster_budget_trusts_only_formulas_that_are_theorems(monkeypatch):
    # D4 k=3: the formula gives 8575 but the complex has 8578 facets, and
    # |W| = 192 is over a budget of 100 or 102, so no exact count runs
    # either: the limit is left to the facet stream, of which subword_complex
    # takes one facet more than the budget, so the refusal names that many
    d4 = system("D4")
    for budget in (100, 102):
        monkeypatch.setattr(subword, "MAX_FACES", budget)
        with pytest.raises(ResourceLimitError) as caught:
            multi_cluster_complex(d4, (1, 2, 3, 4), 3)
        assert str(caught.value) == (
            f"the complex on a word of 24 letters in D4 has at least {budget + 1} facets,"
            f" more than the limit of {budget}"
        )


@pytest.mark.parametrize(
    "name, k, count",
    [("D4", 30, 8011702528984), ("D6", 3, 8789152), ("E6", 3, 20048353), ("D7", 2, 1434576)],
)
def test_exact_count_refuses_before_the_search(monkeypatch, name, k, count):
    # the count formula is no theorem here, but |W| fits the budget, so
    # subword_complex's exact facet count refuses the complex before the
    # kernel is entered, naming its word
    monkeypatch.setattr(subword, "_facet_search", _no_search)
    s = system(name)
    assert not count_formula_is_theorem(s, k)
    with pytest.raises(ResourceLimitError) as caught:
        multi_cluster_complex(s, tuple(range(1, s.rank + 1)), k)
    letters = s.number_of_positive_roots + s.rank * k
    assert str(caught.value) == (
        f"the complex on a word of {letters} letters in {name} has {count} facets,"
        " more than the limit of 1000000"
    )


def test_exact_count_budget_is_the_kernel_budget(monkeypatch):
    # D4 k=3 has 8578 facets; |W| = 192 fits a budget of 8577 and the Upper
    # Bound Theorem allows 35700 facets, so the exact count decides
    d4 = system("D4")
    monkeypatch.setattr(subword, "MAX_FACES", 8577)
    with monkeypatch.context() as patched:
        patched.setattr(subword, "_facet_search", _no_search)
        with pytest.raises(
            ResourceLimitError,
            match="^the complex on a word of 24 letters in D4 has 8578 facets,"
            " more than the limit of 8577$",
        ):
            multi_cluster_complex(d4, (1, 2, 3, 4), 3)
    monkeypatch.setattr(subword, "MAX_FACES", 8578)
    assert len(multi_cluster_complex(d4, (1, 2, 3, 4), 3).facets) == 8578


def test_exact_count_admits_e6_k2(monkeypatch):
    # E6 k=2: the Upper Bound Theorem allows 6947122 facets, over the budget,
    # so the facets are counted first, once, and the 193156 of them are under
    # it
    counted = []
    count = subword.facet_count

    def counting(*args):
        counted.append(count(*args))
        return counted[-1]

    monkeypatch.setattr(subword, "facet_count", counting)
    e6 = system("E6")
    complex_ = multi_cluster_complex(e6, tuple(range(1, 7)), 2)
    assert counted == [len(complex_.facets)] == [193156]


def test_csp_polynomials():
    assert csp_polynomial(system("A1"), 1) == (1, 0, 1)
    poly = csp_polynomial(system("A2"), 1)
    assert poly == (1, 0, 1, 1, 1, 0, 1)
    assert sum(poly) == 5
    assert sum(csp_polynomial(system("A3"), 2)) == 84


def test_csp_failure_is_reported_not_raised():
    poly = csp_polynomial(system("D6"), 5)
    assert poly is None
    value = facet_count_formula(system("D6"), 5)
    assert value.denominator != 1


def test_csp_fixed_point_tables_match():
    for name, k in [("A1", 1), ("A2", 1), ("B2", 1), ("B2", 2), ("I2(5)", 2)]:
        s = system(name)
        cox = enumerate_coxeter_words(s)[0]
        table = csp_fixed_point_table(s, cox, k)
        assert len(table) == 2 * k + s.coxeter_number
        assert all(fixed == value for fixed, value in table)
        assert table[0][0] == facet_count_formula(s, k)


@pytest.mark.parametrize(
    "name, k",
    CSP_INSTANCES + (("A4", 1), ("B3", 2), ("H3", 1), ("D4", 1), ("I2(7)", 2)),
)
def test_csp_values_match_floating_point_evaluation(name, k):
    s = system(name)
    table = csp_fixed_point_table(s, enumerate_coxeter_words(s)[0], k)
    expected = float_csp_values(csp_polynomial(s, k), 2 * k + s.coxeter_number)
    assert [value for _, value in table] == expected


def test_csp_table_of_an_undefined_polynomial_raises():
    s = system("D4")
    assert csp_polynomial(s, 3) is None
    with pytest.raises(CoxeterError, match="the q-analogue is not a polynomial"):
        csp_fixed_point_table(s, enumerate_coxeter_words(s)[0], 3)


def test_csp_table_checks_the_polynomial_before_enumerating(monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("facets enumerated for an undefined polynomial")

    monkeypatch.setattr(multicluster, "theta_orbits_on_facets", enumerate_nothing)
    monkeypatch.setattr(multicluster, "multi_cluster_complex", enumerate_nothing)
    s = system("D4")
    with pytest.raises(CoxeterError, match="the q-analogue is not a polynomial"):
        csp_fixed_point_table(s, enumerate_coxeter_words(s)[0], 3)


@pytest.mark.parametrize("name, k", [("A3", 2), ("B3", 2), ("E6", 1)])
def test_csp_fixed_counts_match_a_direct_count(name, k):
    s = system(name)
    cox = enumerate_coxeter_words(s)[0]
    perm = theta_permutation(s, cox, k)
    facets = multi_cluster_complex(s, cox, k).facets
    power = tuple(range(1, len(perm) + 1))
    expected = []
    for _ in range(2 * k + s.coxeter_number):
        expected.append(
            sum(1 for f in facets if tuple(sorted(power[p - 1] for p in f)) == f)
        )
        power = tuple(perm[p - 1] for p in power)
    assert [fixed for fixed, _ in csp_fixed_point_table(s, cox, k)] == expected


def test_csp_value_off_the_integers_raises(monkeypatch):
    # q itself is not an integer at a primitive root of unity of order > 2;
    # on A3 (2k + h = 6) d = 1 has order 6 and comes before d = 2, of order 3
    monkeypatch.setattr(multicluster, "csp_polynomial", lambda s, k: (0, 1))
    for name, order in [("A1", 4), ("A3", 6)]:
        s = system(name)
        with pytest.raises(
            CoxeterError,
            match=f"the q-analogue is not an integer at a root of unity of order {order}$",
        ):
            csp_fixed_point_table(s, tuple(range(1, s.rank + 1)), 1)
