import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from subwordlab import (
    ar_quiver,
    beta_labels,
    coxeter,
    coxeter_quiver,
    facet_count,
    has_sin_property,
    link,
    lr_labels,
    multi_cluster_complex,
    recognize_multi_cluster_word,
    sorting_word_w0,
    theta_permutation,
    type_a_bijection,
)
from subwordlab.coxeter import (
    CoxeterError,
    CoxeterSystem,
    ResourceLimitError,
    SignedRoot,
    check_word,
    commutation_layers,
    commutation_position_map,
    demazure_product,
    element_from_word,
    enumerate_coxeter_words,
    equal_up_to_commutations,
    format_word,
    inversion_set,
    is_reduced,
    iter_all_words,
    longest_element,
    parse_descriptor,
    parse_word,
    psi,
    psi_word,
    reduced_word,
)
from subwordlab.multicluster import (
    c_compatible,
    contains_pairwise_crossing,
    count_formula_is_theorem,
    csp_fixed_point_table,
    csp_polynomial,
    diagonal_is_relevant,
    diagonals_cross,
    facet_count_formula,
    gale_facets_rank2,
    lr_position,
    multi_cluster_word,
    permutation_order,
    theta_orbits_on_facets,
    theta_order_formula,
    type_b_bijection,
)
from subwordlab.quivers import check_mesh_relation, knitting_quiver, repetition_window
from subwordlab.sorting import rotate_word, sorting_word
from subwordlab.subword import (
    all_faces,
    facet_counts,
    minimal_nonfaces,
    flip,
    is_face,
    reduce_to_w0,
    root_table,
    subword_complex,
)
from helpers import (
    ALL_TYPES,
    CODE_EDGE_TYPES,
    brute_check_word,
    brute_closure_roots,
    brute_length,
    brute_min_word_length,
    brute_reflection_tables,
    brute_right_multiply,
    commutation_class,
    element_order,
    group_by_bfs,
    system,
)

SMALL_TYPES = ["A1", "A2", "A3", "B2", "B3", "I2(5)"]


# ---------------------------------------------------------------------------
# Descriptors

def test_descriptor_parsing():
    assert parse_descriptor("A3").name() == "A3"
    assert parse_descriptor("I2(7)").name() == "I2(7)"
    assert parse_descriptor("C4").name() == "B4"  # identical system
    assert parse_descriptor(" h3 ").name() == "H3"


REJECTED_DESCRIPTORS = {
    "E5": "no finite irreducible type E5",
    "E9": "no finite irreducible type E9",
    "F5": "no finite irreducible type F5",
    "G3": "no finite irreducible type G3",
    "H5": "no finite irreducible type H5",
    "A0": "no finite irreducible type A0",
    "B1": "no finite irreducible type B1",
    "D2": "no finite irreducible type D2",
    "I2": "dihedral descriptors are written I2(m) with m >= 3",
    "I3(5)": "dihedral descriptors are written I2(m) with m >= 3",
    "I2(1)": "I2(m) needs m >= 3",
    "I2(2)": "I2(m) needs m >= 3",
    "X3": "no finite irreducible type X3",
    "A": "cannot parse group descriptor 'A'",
    "A3(5)": "only I2 takes a parenthesised order: 'A3(5)'",
    "B2(4)": "only I2 takes a parenthesised order: 'B2(4)'",
}


@pytest.mark.parametrize("bad", list(REJECTED_DESCRIPTORS))
def test_descriptor_rejection(bad):
    with pytest.raises(CoxeterError) as caught:
        parse_descriptor(bad)
    assert str(caught.value) == REJECTED_DESCRIPTORS[bad]
    with pytest.raises(CoxeterError) as caught:
        CoxeterSystem(bad)
    assert str(caught.value) == REJECTED_DESCRIPTORS[bad]


def test_word_parsing():
    assert parse_word("s1,s3,s2") == (1, 3, 2)
    assert parse_word("1, 2") == (1, 2)
    assert parse_word("") == ()
    assert format_word((1, 3)) == "s1,s3"
    with pytest.raises(CoxeterError):
        parse_word("s1,sx")


# ---------------------------------------------------------------------------
# Construction invariants

@pytest.mark.parametrize("name", ALL_TYPES)
def test_build_invariants(name):
    s = system(name)
    n, h, N = s.rank, s.coxeter_number, s.number_of_positive_roots
    assert N == n * h // 2
    assert sum(d - 1 for d in s.degrees) == N
    assert s.coxeter_number == s.degrees[-1]
    assert len(s.positive_roots) == N
    # first n roots are the simple roots
    for i in range(n):
        root = s.positive_roots[i]
        assert root[i] == 1 and all(c == 0 for j, c in enumerate(root) if j != i)
    # generators are the simple reflections: involutions, s(alpha_s) = -alpha_s
    for t in range(n):
        generator = s.generators[t]
        assert generator.image is s.reflections[t]
        assert generator.apply(t) == SignedRoot(t, -1)
        assert (generator * generator).is_identity()
    # psi is an involution and a graph automorphism
    for a in range(1, n + 1):
        assert psi(s, psi(s, a)) == a
        for b in range(1, n + 1):
            assert (
                s.coxeter_matrix[a - 1][b - 1]
                == s.coxeter_matrix[psi(s, a) - 1][psi(s, b) - 1]
            )


@pytest.mark.parametrize("name", ALL_TYPES + ["A16", "B12", "D12"])
def test_roots_and_reflections_match_the_oracles(name):
    # the pairing-carrying closure and the sliced tables against a dot
    # product per reflection and list composition; the repr also pins which
    # coordinates are GoldenInt and which are int
    s = system(name)
    if s.exact:
        roots, images = brute_closure_roots(s.rank, s.cartan, s.number_of_positive_roots)
        assert repr(s.positive_roots) == repr(roots)
    else:  # general dihedral types read their roots off the planar model
        images = coxeter._dihedral_root_data(s.descriptor.dihedral_order)[1]
    assert s.reflections == brute_reflection_tables(images, s.encode_codes)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_cartan_product_identity(name):
    s = system(name)
    for a in range(s.rank):
        for b in range(a + 1, s.rank):
            m = s.coxeter_matrix[a][b]
            product = s.cartan[a][b] * s.cartan[b][a]
            expected = 4 * math.cos(math.pi / m) ** 2
            assert math.isclose(float(product), expected, abs_tol=1e-9)


PSI_TYPES = (
    [f"A{n}" for n in range(1, 9)] + ["A16"] + [f"B{n}" for n in range(2, 6)] + ["B12"]
    + [f"D{n}" for n in range(3, 9)] + ["D12", "E6", "E7", "E8", "F4", "G2", "H3", "H4"]
    + [f"I2({m})" for m in (3, 4, 5, 6, 7, 8, 127, 128, 140)]
)


def _expected_psi_table(name):
    """psi by family: A reverses, odd D swaps s(n-1) and s(n), E6 has its own
    table, odd I2(m) swaps; every other type has trivial psi."""
    d = parse_descriptor(name)
    n = d.rank
    if d.family == "A":
        return tuple(range(n, 0, -1))
    if d.family == "D" and n % 2:
        return tuple(range(1, n - 1)) + (n, n - 1)
    if d.family == "E" and n == 6:
        return (4, 5, 3, 1, 2, 6)
    if d.family == "I" and d.dihedral_order % 2:
        return (2, 1)
    return tuple(range(1, n + 1))


@pytest.mark.parametrize("name", PSI_TYPES)
def test_psi_table_pins_every_family(name):
    s = system(name)
    assert s.psi_table == _expected_psi_table(name)
    # psi(s) is conjugation of s by the longest element
    w0 = longest_element(s)
    for a in range(1, s.rank + 1):
        assert w0 * s.generators[a - 1] * w0 == s.generators[psi(s, a) - 1]


@pytest.mark.parametrize(
    "name",
    ["A1", "A4", "B4", "D3", "D5", "E6", "E7", "E8", "F4", "G2", "H3", "H4",
     "I2(3)", "I2(4)", "I2(5)", "I2(6)", "A16", "B12", "D12"],
)
def test_generator_tables_reflect_root_vectors(name):
    # an oracle apart from the root closure: s_t(beta) from the coordinates of
    # beta and the Cartan matrix, looked up among the positive roots
    s = system(name)
    N = s.number_of_positive_roots
    index = {root: j for j, root in enumerate(s.positive_roots)}
    for t in range(s.rank):
        table = s.reflections[t]
        for i, vec in enumerate(s.positive_roots):
            coef = sum(vec[u] * s.cartan[u][t] for u in range(s.rank) if vec[u])
            image = list(vec)
            image[t] = vec[t] - coef
            if tuple(image) in index:
                code = index[tuple(image)] + 1
            else:
                code = 2 * N - index[tuple(-c for c in image)]
            assert ord(table[i + 1:i + 2]) == code
            assert ord(table[2 * N - i:2 * N - i + 1]) == 2 * N + 1 - code


def test_known_degree_tables():
    assert system("A3").degrees == (2, 3, 4)
    assert system("A3").coxeter_number == 4
    assert system("A3").number_of_positive_roots == 6
    assert system("B2").coxeter_number == 4
    assert system("B2").number_of_positive_roots == 4
    assert system("I2(5)").degrees == (2, 5)
    assert system("I2(5)").number_of_positive_roots == 5
    assert system("H3").number_of_positive_roots == 15


def test_root_budget_admits_a_system_at_the_limit():
    # I2(m) has m positive roots
    s = CoxeterSystem(f"I2({coxeter.MAX_ROOTS})")
    assert s.number_of_positive_roots == coxeter.MAX_ROOTS
    assert longest_element(s).length() == coxeter.MAX_ROOTS


@pytest.mark.parametrize(
    "name, roots", [(f"I2({coxeter.MAX_ROOTS + 1})", coxeter.MAX_ROOTS + 1), ("A300", 45150)]
)
def test_root_budget_refuses_a_system_over_the_limit_up_front(monkeypatch, name, roots):
    def fail(*args):
        raise AssertionError("the roots were built")

    monkeypatch.setattr(coxeter, "_closure_roots", fail)
    monkeypatch.setattr(coxeter, "_dihedral_root_data", fail)
    with pytest.raises(
        ResourceLimitError,
        match=rf"{re.escape(name)} has {roots} positive roots, more than the limit"
        rf" of {coxeter.MAX_ROOTS}",
    ):
        CoxeterSystem(name)


@pytest.mark.parametrize("name", ["A1000000", "B1001", "D1001"])
def test_rank_budget_refuses_before_the_type_data(monkeypatch, name):
    # every type has at least as many positive roots as its rank, so a rank
    # over the limit is refused before the rank-long type data is built
    def fail(*args):
        raise AssertionError("the type data were built")

    monkeypatch.setattr(coxeter, "_type_data", fail)
    message = (
        rf"{name} has at least {name[1:]} positive roots, more than the limit"
        rf" of {coxeter.MAX_ROOTS}"
    )
    with pytest.raises(ResourceLimitError, match=message):
        parse_descriptor(name)
    with pytest.raises(ResourceLimitError, match=message):
        CoxeterSystem(name)


@pytest.mark.parametrize("name", ["E9", "Q9", "E1001", "H1001"])
def test_rank_budget_keeps_the_error_for_illegal_types(name):
    with pytest.raises(CoxeterError, match=rf"no finite irreducible type {name}$"):
        CoxeterSystem(name)


def test_b2_positive_roots_match_closure():
    roots = set(system("B2").positive_roots)
    assert roots == {(1, 0), (0, 1), (1, 1), (1, 2)}


def test_a2_positive_roots():
    assert set(system("A2").positive_roots) == {(1, 0), (0, 1), (1, 1)}


def test_h3_roots_have_golden_coordinates():
    from subwordlab.ring import GoldenInt

    roots = system("H3").positive_roots
    assert len(roots) == 15
    assert any(
        isinstance(c, GoldenInt) and c.b != 0 for root in roots for c in root
    )


# ---------------------------------------------------------------------------
# Elements

def test_element_from_word_examples():
    a2, b2 = system("A2"), system("B2")
    assert element_from_word(a2, ()).is_identity()
    assert element_from_word(b2, (1, 2, 1, 2)) == longest_element(b2)
    w0 = element_from_word(b2, (1, 2, 1, 2))
    assert all(w0.apply(i).sign < 0 for i in range(b2.number_of_positive_roots))
    assert element_from_word(a2, (1, 2, 1)) == element_from_word(a2, (2, 1, 2))


def test_b2_prefix_word_length():
    b2 = system("B2")
    word = (1, 2) + (1, 2, 1, 2)  # c followed by the longest element's word
    assert len(word) == 6
    assert demazure_product(b2, word) == longest_element(b2)


@pytest.mark.parametrize("name", SMALL_TYPES)
def test_length_against_bfs_oracle(name):
    s = system(name)
    for element, distance in group_by_bfs(s).items():
        assert element.length() == distance


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_TYPES + list(CODE_EDGE_TYPES)), st.data())
def test_length_against_the_code_by_code_oracle(name, data):
    # the sign table on bytes and on str systems, against one code comparison
    # per positive root
    s = system(name)
    word = tuple(data.draw(st.lists(st.integers(1, s.rank), max_size=30)))
    for w in (element_from_word(s, word), demazure_product(s, word)):
        assert w.length() == brute_length(s, w)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ALL_TYPES + list(CODE_EDGE_TYPES)), st.data())
def test_check_word_against_the_letter_by_letter_oracle(name, data):
    # words as tuples, lists and generators, with letters out of range, out
    # of a byte (-1, 256), a float equal to a letter, a str and True, which
    # is the int 1; the empty word passes
    s = system(name)
    odd = st.sampled_from([0, -1, s.rank + 1, 256, 1.5, 1.0, "1", True])
    letters = data.draw(st.lists(st.one_of(st.integers(1, s.rank), odd), max_size=12))
    kind = data.draw(st.sampled_from([tuple, list, lambda w: (x for x in w)]))
    word = kind(letters)
    try:
        got = check_word(s, word)
    except CoxeterError as error:
        got = str(error)
    assert got == brute_check_word(s, letters)
    assert check_word(s, ()) == ()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_TYPES + list(CODE_EDGE_TYPES)), st.data())
def test_right_multiply_against_the_whole_table(name, data):
    # the cut table of s with the fixed tail appended is the whole table of
    # s translated by the image: the same type, length and codes, on bytes
    # and on str systems; elements are built by Element products
    s = system(name)
    w = s.identity
    for letter in data.draw(st.lists(st.integers(1, s.rank), max_size=30)):
        w = w * s.generators[letter - 1]
    t = data.draw(st.integers(1, s.rank))
    for image in (w.image, longest_element(s).image):
        got, expected = s.right_multiply(image, t), brute_right_multiply(s, image, t)
        assert type(got) is type(expected)
        assert len(got) == len(expected)
        assert got == expected


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_TYPES + list(CODE_EDGE_TYPES)), st.data())
def test_pair_cuts_against_generator_products(name, data):
    # the root walk reads the generator tables and multiplies pairs of
    # letters by letter-indexed tables, entry 0 unused: each with the fixed
    # tail appended is a whole image, of the same type, length and codes
    s = system(name)
    t, u = data.draw(st.integers(1, s.rank)), data.draw(st.integers(1, s.rank))
    assert s.cuts[0] is None and s.pair_cuts[0] is None and s.pair_cuts[t][0] is None
    assert len(s.cuts) == len(s.pair_cuts) == len(s.pair_cuts[t]) == s.rank + 1
    for got, expected in (
        (s.cuts[t] + s.tail, s.generators[t - 1].image),
        (s.pair_cuts[t][u] + s.tail, (s.generators[t - 1] * s.generators[u - 1]).image),
    ):
        assert type(got) is type(expected)
        assert len(got) == len(expected)
        assert got == expected


def test_pair_cuts_are_built_on_first_use():
    # rank^2 translates of str tables: a build alone does not pay for them
    a16 = CoxeterSystem("A16")
    assert "pair_cuts" not in vars(a16)
    root_table(a16, (1, 2, 1), ())
    assert "pair_cuts" in vars(a16)


def test_length_examples():
    a3, a2 = system("A3"), system("A2")
    assert system("A1").identity.length() == 0
    assert longest_element(a3).length() == 6
    w = element_from_word(a2, (1, 2))
    assert w.length() == brute_min_word_length(a2, w) == 2


def test_is_reduced_examples():
    assert not is_reduced(system("A1"), (1, 1))
    assert is_reduced(system("B2"), (1, 2, 1, 2))
    assert not is_reduced(system("A2"), (2, 1, 2, 1, 2))


def test_reduced_word_examples():
    assert reduced_word(system("A2").identity) == ()
    assert reduced_word(longest_element(system("B2"))) == (1, 2, 1, 2)
    assert reduced_word(longest_element(system("A2"))) == (1, 2, 1)


def test_reduced_word_is_the_sorting_word_of_s1_to_sn():
    # rank 2 cannot tell the normal forms apart; the smallest-left-descent
    # scan wrote A3's w0 as (1, 2, 1, 3, 2, 1)
    a3 = system("A3")
    assert reduced_word(longest_element(a3)) == (1, 2, 3, 1, 2, 1)
    assert repr(longest_element(a3)) == "<A3 element s1,s2,s3,s1,s2,s1>"
    assert reduced_word(element_from_word(a3, (3, 2, 1))) == (3, 2, 1)


@pytest.mark.parametrize("name", SMALL_TYPES)
def test_reduced_word_roundtrip(name):
    s = system(name)
    for element in group_by_bfs(s):
        word = reduced_word(element)
        assert len(word) == element.length()
        assert is_reduced(s, word)
        assert element_from_word(s, word) == element


def test_demazure_examples():
    a2, b2 = system("A2"), system("B2")
    assert demazure_product(a2, (1, 1)) == a2.generators[0]
    assert demazure_product(a2, (2, 1, 2, 1, 2)) == longest_element(a2)
    w = demazure_product(b2, (1, 2))
    assert w == element_from_word(b2, (1, 2)) and w.length() == 2


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["A2", "A3", "B2"]), st.data())
def test_demazure_equals_product_on_reduced_words(name, data):
    s = system(name)
    word = tuple(
        data.draw(st.lists(st.integers(1, s.rank), max_size=6, min_size=0))
    )
    if is_reduced(s, word):
        assert demazure_product(s, word) == element_from_word(s, word)
    assert demazure_product(s, word).length() >= element_from_word(s, word).length()


def test_longest_element_examples():
    a1 = system("A1")
    assert longest_element(a1) == a1.generators[0]
    assert longest_element(system("B2")) == element_from_word(system("B2"), (1, 2, 1, 2))
    assert longest_element(system("A2")) == element_from_word(system("A2"), (1, 2, 1))
    for name in ALL_TYPES:
        s = system(name)
        w0 = longest_element(s)
        assert w0.length() == s.number_of_positive_roots
        assert all(w0.has_right_descent(t) for t in range(1, s.rank + 1))


def test_psi_examples():
    assert psi(system("B2"), 1) == 1
    assert psi(system("A2"), 1) == 2
    assert psi(system("A4"), 2) == 3


def test_psi_rejects_out_of_range_generators():
    a3 = system("A3")
    for s in (0, -1, 4):
        with pytest.raises(CoxeterError, match=f"generator s{s} out of range"):
            psi(a3, s)


def test_psi_word_rejects_out_of_range_generators():
    a3 = system("A3")
    assert psi_word(a3, (1, 2, 3)) == (3, 2, 1)
    for s in (0, -1, 4):
        with pytest.raises(CoxeterError, match=f"generator s{s} out of range"):
            psi_word(a3, (1, s))


def test_inversion_sets():
    b2 = system("B2")
    assert inversion_set(b2.identity) == frozenset()
    assert inversion_set(longest_element(b2)) == frozenset(range(4))
    assert inversion_set(b2.generators[0]) == frozenset({0})
    w = element_from_word(b2, (1, 2, 1))
    assert len(inversion_set(w)) == w.length()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SMALL_TYPES), st.data())
def test_length_changes_by_one(name, data):
    s = system(name)
    word = tuple(data.draw(st.lists(st.integers(1, s.rank), max_size=8)))
    w = element_from_word(s, word)
    for t in range(1, s.rank + 1):
        assert abs((w * s.generators[t - 1]).length() - w.length()) == 1


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_TYPES + ["D4", "F4", "I2(128)"]), st.data())
def test_letter_queries_against_generator_products(name, data):
    # a right descent shortens the element, and two letters commute when
    # they are distinct and their generators do
    s = system(name)
    letters = st.integers(1, s.rank)
    w = element_from_word(s, data.draw(st.lists(letters, max_size=10)))
    t, u = data.draw(letters), data.draw(letters)
    g, h = s.generators[t - 1], s.generators[u - 1]
    assert w.has_right_descent(t) == ((w * g).length() < w.length())
    assert s.commute(t, u) == (t != u and g * h == h * g)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["A1", "B3", "D4", "E8", "F4", "G2", "H4", "I2(7)"]), st.data())
def test_right_multiply_is_the_generator_product(name, data):
    s = system(name)
    word = data.draw(st.lists(st.integers(1, s.rank), max_size=12))
    w = s.identity
    for t in word:
        w = w * s.generators[t - 1]
    t = data.draw(st.integers(1, s.rank))
    assert s.right_multiply(w.image, t) == (w * s.generators[t - 1]).image
    root = data.draw(st.integers(0, s.number_of_positive_roots - 1))
    image = w.apply(root)
    assert w.apply(root, -1) == SignedRoot(image.root, -image.sign)


def test_apply_rejects_out_of_range_roots_and_signs():
    a2 = system("A2")  # three positive roots, indices 0, 1, 2
    assert a2.identity.apply(2) == SignedRoot(2, 1)
    assert a2.identity.apply(2, -1) == SignedRoot(2, -1)
    assert a2.identity.apply(2, True) == SignedRoot(2, 1)  # True is 1
    for root, sign in ((3, 1), (-1, 1), (5, -1), (3, -1)):
        with pytest.raises(
            CoxeterError, match=rf"^root index {root} out of range for A2, which has 3"
        ):
            a2.identity.apply(root, sign)
    for sign in (5, 0, -2):
        with pytest.raises(CoxeterError, match=rf"^root sign {sign} is not 1 or -1 for A2"):
            a2.generators[0].apply(0, sign)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["A1", "B3", "D4", "E8", "F4", "G2", "H4"]), st.data())
def test_apply_matches_reflected_root_coordinates(name, data):
    # an oracle apart from the translate tables: w(beta_i) by reflecting the
    # coordinates of beta_i in the letters of w, right to left, via the Cartan
    # matrix, then looking the result up among the positive roots
    s = system(name)
    word = tuple(data.draw(st.lists(st.integers(1, s.rank), max_size=12)))
    i = data.draw(st.integers(0, s.number_of_positive_roots - 1))
    vec = list(s.positive_roots[i])
    for t in reversed(word):
        coef = sum(vec[u] * s.cartan[u][t - 1] for u in range(s.rank) if vec[u])
        vec[t - 1] = vec[t - 1] - coef
    index = {root: j for j, root in enumerate(s.positive_roots)}
    if tuple(vec) in index:
        expected = SignedRoot(index[tuple(vec)], 1)
    else:
        expected = SignedRoot(index[tuple(-c for c in vec)], -1)
    assert element_from_word(s, word).apply(i) == expected


def _decode(s, sequence):
    """The integer codes of a code sequence of either type, via one-code slices."""
    out = [ord(sequence[c:c + 1]) for c in range(len(sequence))]
    assert s.encode_codes(out) == sequence
    return out


@pytest.mark.parametrize(
    "name",
    ["A1", "B3", "D4", "E6", "E7", "E8", "F4", "G2", "H3", "H4", "I2(7)",
     "I2(127)", "I2(128)", "A16"],
)
def test_root_reflections_are_conjugates_of_simple_reflections(name):
    # I2(127) has codes 0..254, the last type whose codes fit in a byte;
    # I2(128) and A16 (N = 128 and 136) need str sequences
    s = system(name)
    N = s.number_of_positive_roots
    codes = 2 * N + 1
    assert isinstance(s.reflections[0], bytes if codes <= 256 else str)
    assert [ord(code) for code in s.codes] == list(range(codes))
    # for each root beta some w with w(alpha_t) = beta, grown from the simple roots
    reach = {t: (s.identity, t) for t in range(s.rank)}
    frontier = list(reach)
    while frontier:
        root = frontier.pop()
        w, t = reach[root]
        for generator in s.generators:
            image = generator.apply(root)
            if image.sign > 0 and image.root not in reach:
                reach[image.root] = (generator * w, t)
                frontier.append(image.root)
    assert len(s.reflections) == len(reach) == N
    for root, (w, t) in reach.items():
        assert w.apply(t) == SignedRoot(root, 1)
        reflection = coxeter.Element(s, s.reflections[root])
        assert reflection == w * s.generators[t] * w.inverse()
        assert (reflection * reflection).is_identity()
        assert reflection.apply(root) == SignedRoot(root, -1)
        # the negative codes map like their positive partners, negated;
        # code 0 and the codes past 2N, which no root has, are fixed
        table = _decode(s, s.reflections[root])
        assert len(table) == max(codes, 256) and table[0] == 0
        for c in range(1, N + 1):
            assert table[codes - c] == codes - table[c]
        assert table[codes:] == list(range(codes, len(table)))


def test_right_multiply_in_rank_one():
    a1 = system("A1")
    s1, identity = a1.generators[0].image, a1.identity.image
    assert a1.right_multiply(identity, 1) == s1
    assert a1.right_multiply(s1, 1) == identity
    assert a1.signed_roots[1] == SignedRoot(0, 1)
    assert a1.signed_roots[2] == SignedRoot(0, -1)


def test_iter_all_words_order_and_budget(monkeypatch):
    a2, b3 = system("A2"), system("B3")
    assert list(iter_all_words(a2, 0)) == [()]
    assert list(iter_all_words(a2, 2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert len(list(iter_all_words(b3, 4))) == 81
    monkeypatch.setattr(coxeter, "MAX_WORDS", 80)
    with pytest.raises(
        ResourceLimitError, match="B3 has 81 words of length 4, more than the limit of 80"
    ):
        iter_all_words(b3, 4)  # raises before yielding anything


def test_element_order_of_coxeter_elements():
    for name in ["A3", "B3", "D4", "H3", "I2(7)"]:
        s = system(name)
        words = enumerate_coxeter_words(s)
        elements = [element_from_word(s, cox) for cox in words]
        assert len(set(elements)) == len(words)  # one per orientation
        for w in elements:
            assert element_order(w) == s.coxeter_number


# ---------------------------------------------------------------------------
# Coxeter words and commutation classes

def test_enumerate_coxeter_words_counts():
    assert enumerate_coxeter_words(system("A2")) == ((1, 2), (2, 1))
    assert len(enumerate_coxeter_words(system("A3"))) == 4
    assert len(enumerate_coxeter_words(system("D4"))) == 8


def test_enumerate_coxeter_words_checks_its_budget_up_front(monkeypatch):
    d4, a22 = system("D4"), system("A22")
    monkeypatch.setattr(coxeter, "MAX_WORDS", 8)
    assert len(enumerate_coxeter_words(d4)) == 8  # at the limit

    def fail(*args, **kwargs):
        raise AssertionError("the orientation loop started")

    # the topological sort of each orientation sorts its sources first
    monkeypatch.setattr(coxeter, "sorted", fail, raising=False)
    monkeypatch.setattr(coxeter, "MAX_WORDS", 7)
    with pytest.raises(
        ResourceLimitError, match=r"D4 has 2\^3 = 8 Coxeter words, more than the limit of 7"
    ):
        enumerate_coxeter_words(d4)
    monkeypatch.setattr(coxeter, "MAX_WORDS", 10**6)
    with pytest.raises(ResourceLimitError, match=r"A22 has 2\^21 = 2097152 Coxeter words"):
        enumerate_coxeter_words(a22)


@pytest.mark.parametrize("name", ["A1", "A4", "B3", "D5", "E6", "F4", "H4", "I2(7)"])
def test_first_coxeter_word_is_s1_to_sn(name):
    # the CLI and the verify suite default to it without enumerating
    s = system(name)
    assert enumerate_coxeter_words(s)[0] == tuple(range(1, s.rank + 1))


def test_coxeter_words_read_as_ints():
    # a bool letter is the int it stands for, and the words built from a
    # Coxeter word carry the int, not the caller's object
    a2 = system("A2")
    built = {
        "multi_cluster_word": multi_cluster_word(a2, (True, 2), 1),
        "sorting_word_w0": sorting_word_w0(a2, (True, 2)).word,
        "coxeter_quiver": coxeter_quiver(a2, (True, 2)).vertices,
    }
    assert built["multi_cluster_word"] == (1, 2, 1, 2, 1)
    assert built["sorting_word_w0"] == (1, 2, 1)
    for name, items in built.items():
        assert "True" not in repr(items), name


def test_equal_up_to_commutations_examples():
    a3, a2 = system("A3"), system("A2")
    assert equal_up_to_commutations(a3, (1, 3, 2), (3, 1, 2))
    assert not equal_up_to_commutations(a2, (1, 2), (2, 1))
    assert not equal_up_to_commutations(a2, (1, 2), (1, 2, 1))  # unequal lengths
    # both words are checked before their lengths are compared
    for word, other in [((1, 5), (1,)), ((1,), (1, 5)), ((1, 5), (1, 2))]:
        with pytest.raises(CoxeterError, match="^generator s5 out of range for A2$"):
            equal_up_to_commutations(a2, word, other)
    # a sorting word is not commutation-equal to its nontrivial rotations
    from subwordlab.sorting import sorting_word_w0

    a4 = system("A4")
    word = sorting_word_w0(a4, (1, 3, 2, 4)).word
    rotated = word
    for _ in range(3):
        rotated = rotate_word(a4, rotated)
        assert not equal_up_to_commutations(a4, word, rotated)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["A3", "A4", "B3"]), st.data())
def test_commutation_layers_match_bfs_class(name, data):
    s = system(name)
    word = tuple(data.draw(st.lists(st.integers(1, s.rank), min_size=1, max_size=7)))
    cls = commutation_class(s, word)
    other = data.draw(st.sampled_from(sorted(cls)))
    assert equal_up_to_commutations(s, word, other)
    scrambled = tuple(data.draw(st.permutations(list(word))))
    assert equal_up_to_commutations(s, word, scrambled) == (scrambled in cls)
    # the position map makes the same decision, and carries letters onto letters
    mapping = commutation_position_map(s, word, other)
    assert [other[q - 1] for q in mapping] == list(word)
    assert sorted(mapping) == list(range(1, len(word) + 1))
    if scrambled not in cls:
        with pytest.raises(CoxeterError, match="not equal up to commutations"):
            commutation_position_map(s, word, scrambled)
    with pytest.raises(CoxeterError, match="not equal up to commutations"):
        commutation_position_map(s, word, word + word[:1])


def test_commutation_position_map_is_bijection():
    a3 = system("A3")
    word, other = (1, 3, 2, 1, 3), (3, 1, 2, 3, 1)
    mapping = commutation_position_map(a3, word, other)
    assert sorted(mapping) == [1, 2, 3, 4, 5]
    for p, q in enumerate(mapping, start=1):
        assert word[p - 1] == other[q - 1]


# ---------------------------------------------------------------------------
# Refusals

@pytest.mark.parametrize(
    "call",
    [
        lambda a2, w: longest_element(a2) * w,
        lambda a2, w: sorting_word(a2, (1, 2), w),
        lambda a2, w: is_face(a2, (1, 2, 1), w, ()),
        lambda a2, w: subword_complex(a2, (1, 2, 1), w),
        lambda a2, w: facet_counts(a2, [(1, 2, 1)], w),
        lambda a2, w: reduce_to_w0(a2, (1, 2, 1), w),
    ],
    ids=["mul", "sorting_word", "is_face", "subword_complex", "facet_counts", "reduce_to_w0"],
)
def test_an_element_of_another_type_is_refused(call):
    with pytest.raises(CoxeterError) as caught:
        call(system("A2"), longest_element(system("A3")))
    assert str(caught.value) == "an element of A3 is not an element of A2"


def test_elements_of_two_builds_of_one_type_mix():
    a2, w0 = CoxeterSystem("A2"), longest_element(CoxeterSystem("A2"))
    assert longest_element(a2) * w0 == a2.identity
    assert sorting_word(a2, (1, 2), w0) == (1, 2, 1)
    assert next(facet_counts(a2, [(1, 2, 1, 2, 1)], w0)) == 5


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda a2: is_face(a2, (1, 2, 1), a2.identity, (2, 2)), "duplicate positions"),
        (lambda a2: is_face(a2, (1, 2, 1), a2.identity, (0,)), "position out of range"),
        (lambda a2: flip(a2, (1, 2, 1, 2, 1), (1, 2), 3), "position 3 is not in the facet"),
        (lambda a2: flip(a2, (1, 2, 1, 2, 1), (1, 1), 1), "duplicate positions"),
        (lambda a2: flip(a2, (1, 2, 1, 2, 1), (1, 6), 1), "position out of range"),
        # the word is checked, by root_table, before q is looked up in the facet
        (lambda a2: flip(a2, (1, 3, 1, 2, 1), (1, 2), 3), "generator s3 out of range for A2"),
        # letters that are no ints are refused by check_word, not deep inside
        (
            lambda a2: subword_complex(a2, (1.5, 2, 1, 2), longest_element(a2)),
            "generator s1.5 out of range for A2",
        ),
        (lambda a2: root_table(a2, ("1", 2), ()), "generator s'1' out of range for A2"),
        # positions that are no integers are refused, not left outside the facet
        (lambda a2: root_table(a2, (1, 2, 1, 2, 1), (1.5,)), "position 1.5 is not an integer"),
        (lambda a2: flip(a2, (1, 2, 1, 2, 1), ("1", 2), 2), "position '1' is not an integer"),
        # q is read as an integer before it is looked up in the facet
        (lambda a2: flip(a2, (1, 2, 1, 2, 1), (1, 2), 2.0), "position 2.0 is not an integer"),
        (lambda a2: flip(a2, (1, 2, 1, 2, 1), (1, 2), "2"), "position '2' is not an integer"),
        (
            lambda a2: is_face(a2, (1, 2, 1, 2, 1), longest_element(a2), (1.5, 2.5, 3.5)),
            "position 1.5 is not an integer",
        ),
        (
            lambda a2: link(a2, (1, 2, 1, 2, 1), longest_element(a2), (2.0,)),
            "position 2.0 is not an integer",
        ),
        (
            lambda a2: lr_position(a2, (1, 2), SignedRoot(5, 1)),
            "SignedRoot(root=5, sign=1) is not an almost positive root label",
        ),
        (lambda a2: rotate_word(a2, ()), "cannot rotate the empty word"),
        (
            lambda a2: check_mesh_relation(a2, (1, 2)),
            "the mesh relation needs the strong intervening-neighbors property",
        ),
        (lambda a2: repetition_window(a2, (1, 2), 0), "need at least one block"),
        (
            lambda a2: multi_cluster_word(a2, (1, 2), -1),
            "the number of copies must be nonnegative",
        ),
        (lambda a2: parse_descriptor("A3(5)"), "only I2 takes a parenthesised order: 'A3(5)'"),
        # the letter queries read their letters through check_word, not as
        # table offsets
        (lambda a2: a2.identity.has_right_descent(99), "generator s99 out of range for A2"),
        (lambda a2: a2.identity.has_right_descent(0), "generator s0 out of range for A2"),
        (lambda a2: a2.commute(0, 1), "generator s0 out of range for A2"),
        (lambda a2: a2.commute(3, 1), "generator s3 out of range for A2"),
        (lambda a2: a2.commute(1, 1.5), "generator s1.5 out of range for A2"),
        (lambda a2: iter_all_words(a2, -1), "the word length must be nonnegative"),
        # no polygon has fewer than one vertex, and no subset -1 elements
        (
            lambda a2: diagonal_is_relevant(0, 0, (0, 2)),
            "the polygon size must be positive, got m=0",
        ),
        (
            lambda a2: diagonal_is_relevant(-4, 0, (0, 2)),
            "the polygon size must be positive, got m=-4",
        ),
        (
            lambda a2: diagonals_cross(0, (0, 2), (1, 3)),
            "the polygon size must be positive, got m=0",
        ),
        (
            lambda a2: diagonals_cross(-8, (0, 2), (1, 3)),
            "the polygon size must be positive, got m=-8",
        ),
        (
            lambda a2: contains_pairwise_crossing(0, 1, [(0, 2)]),
            "the polygon size must be positive, got m=0",
        ),
        (
            lambda a2: contains_pairwise_crossing(8, -1, [(0, 2), (1, 3)]),
            "the crossing count must be nonnegative, got count=-1",
        ),
        (lambda a2: permutation_order((1.0, 2.0)), "permutation entry 1.0 is not an integer"),
        # the face test checks the letter, then the target, then the positions,
        # so a letter at a face position is refused, not dropped unread
        (
            lambda a2: is_face(a2, (1, 2, 1, 2, 99), longest_element(a2), (5,)),
            "generator s99 out of range for A2",
        ),
        (
            lambda a2: link(a2, (1, 2, 1, 2, 99), longest_element(a2), (5,)),
            "generator s99 out of range for A2",
        ),
        (
            lambda a2: is_face(a2, (1, 2, 1), longest_element(system("A3")), (9,)),
            "an element of A3 is not an element of A2",
        ),
        (
            lambda a2: link(a2, (1, 2, 99), longest_element(system("A3")), (9,)),
            "generator s99 out of range for A2",
        ),
        # a vertex label is an integer
        (
            lambda a2: diagonal_is_relevant(7, 1, (0, 2.5)),
            "diagonal endpoint 2.5 is not an integer",
        ),
        (
            lambda a2: diagonals_cross(8, (0, 2.5), (1, 3)),
            "diagonal endpoint 2.5 is not an integer",
        ),
        (
            lambda a2: contains_pairwise_crossing(8, 2, [(0, 2), (1, "3")]),
            "diagonal endpoint '3' is not an integer",
        ),
        # a diagonal is a pair of endpoints
        (
            lambda a2: diagonals_cross(8, (0, 2, 4), (1, 3)),
            "diagonal (0, 2, 4) is not a pair of endpoints",
        ),
        (
            lambda a2: contains_pairwise_crossing(8, 1, [(0,)]),
            "diagonal (0,) is not a pair of endpoints",
        ),
        (lambda a2: diagonals_cross(8, 5, (1, 3)), "diagonal 5 is not a pair of endpoints"),
        # a diagonal joins two distinct vertices of the polygon
        (
            lambda a2: diagonal_is_relevant(7, 1, (0, 7)),
            "diagonal (0, 7) has endpoints that coincide mod 7",
        ),
        (
            lambda a2: diagonals_cross(8, (0, 0), (1, 3)),
            "diagonal (0, 0) has endpoints that coincide mod 8",
        ),
        (
            lambda a2: contains_pairwise_crossing(8, 1, [(0, 2), (3, -5)]),
            "diagonal (3, -5) has endpoints that coincide mod 8",
        ),
        # a window answers only for its own vertices
        (
            lambda a2: repetition_window(a2, (1, 2), 2).tau((4, 1)),
            "vertex (4, 1) is not in the window",
        ),
        (
            lambda a2: repetition_window(a2, (1, 2), 2).shift((99, 1)),
            "vertex (99, 1) is not in the window",
        ),
    ],
    ids=[
        "duplicate", "position 0", "flip", "flip duplicate", "flip position 6",
        "flip letter before q", "letter 1.5", "letter '1'", "root_table position 1.5",
        "flip position '1'", "flip q 2.0", "flip q '2'", "is_face position 1.5",
        "link position 2.0",
        "lr_position", "rotate", "mesh", "window", "copies", "descriptor",
        "descent 99", "descent 0", "commute 0", "commute 3", "commute 1.5", "length -1",
        "relevant m 0", "relevant m -4", "cross m 0", "cross m -8", "crossing m 0",
        "crossing count -1", "permutation entry 1.0",
        "is_face letter 99", "link letter 99", "is_face target before position",
        "link letter before target", "relevant endpoint 2.5", "cross endpoint 2.5",
        "crossing endpoint '3'", "cross three endpoints", "crossing one endpoint",
        "cross no pair", "relevant endpoints 0 7", "cross endpoints 0 0",
        "crossing endpoints 3 -5", "window tau", "window shift",
    ],
)
def test_refusals_name_the_fault(call, message):
    with pytest.raises(CoxeterError) as caught:
        call(system("A2"))
    assert str(caught.value) == message


# Every call that reads its word or Coxeter word more than once, with the
# letters given as a one-shot iterable (``iter``) or as a ``tuple``
_ONE_SHOT_CALLS = {
    "multi_cluster_complex": lambda a3, w: multi_cluster_complex(a3, w((2, 1, 3)), 1),
    "lr_labels": lambda a3, w: lr_labels(a3, w((2, 1, 3))),
    "lr_position": lambda a3, w: lr_position(a3, w((2, 1, 3)), SignedRoot(2, 1)),
    "c_compatible": lambda a3, w: c_compatible(
        a3, w((2, 1, 3)), SignedRoot(0, -1), SignedRoot(2, 1)
    ),
    "repetition_window": lambda a3, w: repetition_window(a3, w((2, 1, 3)), 2).blocks,
    "recognize_multi_cluster_word": lambda a3, w: recognize_multi_cluster_word(
        a3, w(multi_cluster_word(a3, (2, 1, 3), 2))
    ),
    "link": lambda a3, w: link(
        a3, w(multi_cluster_word(a3, (1, 2, 3), 1)), longest_element(a3), (2,)
    ),
}


@pytest.mark.parametrize("name", _ONE_SHOT_CALLS)
def test_a_one_shot_iterable_is_read_once(name):
    a3, call = system("A3"), _ONE_SHOT_CALLS[name]
    assert call(a3, iter) == call(a3, tuple)


# Every public call that takes a count, cap, index or vertex label, as (the
# argument's name in the refusal, the call with that argument left free)
_COUNT_CALLS = {
    "multi_cluster_word k": ("k", lambda a2, k: multi_cluster_word(a2, (1, 2), k)),
    "multi_cluster_complex k": ("k", lambda a2, k: multi_cluster_complex(a2, (1, 2), k)),
    "theta_permutation k": ("k", lambda a2, k: theta_permutation(a2, (1, 2), k)),
    "theta_orbits_on_facets k": ("k", lambda a2, k: theta_orbits_on_facets(a2, (1, 2), k)),
    "count_formula_is_theorem k": ("k", lambda a2, k: count_formula_is_theorem(a2, k)),
    "theta_order_formula k": ("k", lambda a2, k: theta_order_formula(a2, k)),
    "facet_count_formula k": ("k", lambda a2, k: facet_count_formula(a2, k)),
    "csp_polynomial k": ("k", lambda a2, k: csp_polynomial(a2, k)),
    "csp_fixed_point_table k": ("k", lambda a2, k: csp_fixed_point_table(a2, (1, 2), k)),
    "gale_facets_rank2 k": ("k", lambda a2, k: gale_facets_rank2(5, k)),
    "type_a_bijection k": ("k", lambda a2, k: type_a_bijection(5, k, (1, 2))),
    "type_b_bijection k": ("k", lambda a2, k: type_b_bijection(4, k, (1, 2, 3))),
    "diagonal_is_relevant k": ("k", lambda a2, k: diagonal_is_relevant(7, k, (0, 3))),
    "gale_facets_rank2 m": ("m", lambda a2, m: gale_facets_rank2(m, 1)),
    "type_a_bijection m": ("m", lambda a2, m: type_a_bijection(m, 2, (1, 2))),
    "type_b_bijection m": ("m", lambda a2, m: type_b_bijection(m, 2, (1, 2, 3))),
    "diagonal_is_relevant m": ("m", lambda a2, m: diagonal_is_relevant(m, 1, (0, 3))),
    "diagonals_cross m": ("m", lambda a2, m: diagonals_cross(m, (0, 2), (1, 3))),
    "contains_pairwise_crossing m": (
        "m", lambda a2, m: contains_pairwise_crossing(m, 2, [(0, 2), (1, 3)]),
    ),
    "contains_pairwise_crossing count": (
        "count", lambda a2, c: contains_pairwise_crossing(8, c, [(0, 2), (1, 3)]),
    ),
    "diagonal_is_relevant endpoint": (
        "diagonal endpoint", lambda a2, v: diagonal_is_relevant(7, 1, (0, v)),
    ),
    "diagonals_cross endpoint": (
        "diagonal endpoint", lambda a2, v: diagonals_cross(8, (v, 2), (1, 3)),
    ),
    "contains_pairwise_crossing endpoint": (
        "diagonal endpoint", lambda a2, v: contains_pairwise_crossing(8, 2, [(0, 2), (v, 3)]),
    ),
    "all_faces max_size": (
        "max_size", lambda a2, c: all_faces(subword_complex(a2, (1, 2, 1, 2, 1)), c),
    ),
    "minimal_nonfaces max_size": (
        "max_size", lambda a2, c: minimal_nonfaces(subword_complex(a2, (1, 2, 1, 2, 1)), c),
    ),
    "repetition_window copies": ("copies", lambda a2, c: repetition_window(a2, (1, 2), c)),
    "repetition_window origin": ("origin", lambda a2, o: repetition_window(a2, (1, 2), 2, o)),
    "knitting_quiver origin": ("origin", lambda a2, o: knitting_quiver(a2, (1, 2, 1), o)),
    "iter_all_words length": ("length", lambda a2, n: iter_all_words(a2, n)),
    "Element.apply root": ("root index", lambda a2, r: a2.identity.apply(r)),
    "Element.apply sign": ("root sign", lambda a2, s: a2.identity.apply(0, s)),
}


@pytest.mark.parametrize("value", [1.5, 2.0, "1"])
@pytest.mark.parametrize("row", list(_COUNT_CALLS))
def test_counts_that_are_no_integers_are_refused_by_name(row, value):
    arg, call = _COUNT_CALLS[row]
    with pytest.raises(CoxeterError) as caught:
        call(system("A2"), value)
    assert str(caught.value) == f"{arg} {value!r} is not an integer"


@pytest.mark.parametrize("row", [row for row, (arg, _) in _COUNT_CALLS.items() if arg == "k"])
def test_k_reads_as_a_nonnegative_int(row):
    # True is 1, like every other integer type, and every call that takes
    # a k refuses a negative one
    _, call = _COUNT_CALLS[row]
    a2 = system("A2")
    assert call(a2, True) == call(a2, 1)
    with pytest.raises(CoxeterError) as caught:
        call(a2, -1)
    assert str(caught.value) == "the number of copies must be nonnegative"


def _results_on(kind):
    """Every public word-taking function, on words of the given kind."""
    a3 = system("A3")
    w0 = longest_element(a3)
    cox = kind((1, 2, 3))
    word = kind(multi_cluster_word(a3, (1, 2, 3), 1))
    sin = kind(sorting_word_w0(a3, (1, 2, 3)).word)
    return {
        "element_from_word": element_from_word(a3, word),
        "demazure_product": demazure_product(a3, word),
        "is_reduced": is_reduced(a3, sin),
        "psi_word": psi_word(a3, word),
        "commutation_layers": commutation_layers(a3, word),
        "equal_up_to_commutations": equal_up_to_commutations(a3, word, sin),
        "commutation_position_map": commutation_position_map(a3, word, word),
        "sorting_word": sorting_word(a3, cox, w0),
        "sorting_word_w0": sorting_word_w0(a3, cox),
        "rotate_word": rotate_word(a3, word),
        "has_sin_property": has_sin_property(a3, sin),
        "beta_labels": beta_labels(a3, sin),
        "check_mesh_relation": check_mesh_relation(a3, sin),
        "knitting_quiver": knitting_quiver(a3, word),
        "coxeter_quiver": coxeter_quiver(a3, cox),
        "ar_quiver": ar_quiver(a3, cox),
        "repetition_window": repetition_window(a3, cox, 2).quiver,
        "subword_complex": subword_complex(a3, word, w0),
        "is_face": is_face(a3, word, w0, (1, 2, 3)),
        "root_table": root_table(a3, word, (1, 2, 3)),
        "flip": flip(a3, word, (1, 2, 3), 1),
        "facet_count": facet_count(a3, word, w0),
        "facet_counts": list(facet_counts(a3, [word, sin], w0)),
        "reduce_to_w0": reduce_to_w0(a3, word, a3.identity),
        "link": link(a3, word, w0, (1,)),
        "multi_cluster_word": multi_cluster_word(a3, cox, 2),
        "multi_cluster_complex": multi_cluster_complex(a3, cox, 1),
        "lr_labels": lr_labels(a3, cox),
        "theta_permutation": theta_permutation(a3, cox, 1),
        "recognize_multi_cluster_word": recognize_multi_cluster_word(a3, word),
        "type_a_bijection": type_a_bijection(7, 2, kind((1, 2))),
    }


def test_list_and_tuple_words_give_equal_results():
    as_tuples, as_lists = _results_on(tuple), _results_on(list)
    assert as_lists.keys() == as_tuples.keys()
    for name, value in as_tuples.items():
        assert as_lists[name] == value, name
    a2 = system("A2")
    assert rotate_word(a2, [1, 2, 1]) == (2, 1, 2)
    complex_ = subword_complex(a2, [1, 2, 1, 2, 1])
    assert complex_.word == (1, 2, 1, 2, 1)
    assert hash(complex_) == hash(subword_complex(a2, (1, 2, 1, 2, 1)))
