import marshal
import os
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import comb, prod
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from subwordlab.coxeter import (
    CoxeterError,
    CoxeterSystem,
    Element,
    ResourceLimitError,
    SignedRoot,
    demazure_product,
    element_from_word,
    enumerate_coxeter_words,
    inversion_set,
    iter_all_words,
    longest_element,
    psi,
    reduced_word,
)
from subwordlab import subword
from subwordlab.multicluster import multi_cluster_word
from subwordlab.sorting import sorting_word
from subwordlab.subword import (
    SubwordComplex,
    all_faces,
    f_vector,
    facet_count,
    facet_counts,
    flip,
    flip_graph,
    flip_graph_dot,
    is_face,
    link,
    minimal_nonfaces,
    reduce_to_w0,
    reduced_euler_characteristic,
    root_table,
    subword_complex,
)
from helpers import (
    ALL_TYPES,
    CODE_EDGE_TYPES,
    SMALL_TYPES,
    brute_all_faces,
    brute_contains_reduced_word,
    brute_f_vector,
    brute_facets,
    brute_flip,
    brute_is_sorting_word,
    brute_length,
    brute_minimal_nonfaces,
    brute_right_multiply,
    brute_root_table,
    catalan,
    completed_is_face,
    flip_closure,
    group_by_bfs,
    system,
)

PENTAGON = (2, 1, 2, 1, 2)
HEXAGON = (1, 2, 1, 2, 1, 2)


def pentagon():
    a2 = system("A2")
    return a2, subword_complex(a2, PENTAGON, longest_element(a2))


def hexagon():
    b2 = system("B2")
    return b2, subword_complex(b2, HEXAGON, longest_element(b2))


# ---------------------------------------------------------------------------
# Face tests and enumeration

def test_pentagon_facets():
    _, complex_ = pentagon()
    assert complex_.facets == ((1, 2), (1, 5), (2, 3), (3, 4), (4, 5))
    assert complex_.vertices == (1, 2, 3, 4, 5)


def test_pentagon_faces():
    a2, complex_ = pentagon()
    w0 = longest_element(a2)
    assert is_face(a2, PENTAGON, w0, (1, 2))
    assert not is_face(a2, PENTAGON, w0, (1, 3))
    assert is_face(a2, PENTAGON, w0, ())


def test_empty_face_iff_demazure_reaches_target():
    b2 = system("B2")
    assert not is_face(b2, (1, 2), longest_element(b2), ())
    assert is_face(b2, (1, 2), element_from_word(b2, (1, 2)), ())


def test_is_sphere():
    a2, b2 = system("A2"), system("B2")
    # a subword complex is a sphere when its word's Demazure product is the target
    assert demazure_product(a2, PENTAGON) == longest_element(a2)
    assert demazure_product(b2, (1, 2)) != longest_element(b2)


def test_hexagon_facets_are_cyclically_consecutive():
    _, complex_ = hexagon()
    assert complex_.facets == ((1, 2), (1, 6), (2, 3), (3, 4), (4, 5), (5, 6))


def test_single_facet_complex():
    a3 = system("A3")
    word = (1, 2, 1)
    complex_ = subword_complex(a3, word, element_from_word(a3, word))
    assert complex_.facets == ((),)
    assert complex_.vertices == ()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["A2", "B2", "A3", "H3", "I2(7)"]), st.data())
def test_face_test_matches_bruteforce(name, data):
    s = system(name)
    word = tuple(data.draw(st.lists(st.integers(1, s.rank), min_size=1, max_size=7)))
    target = data.draw(
        st.sampled_from(sorted(group_by_bfs(s), key=lambda e: e.image))
    )
    positions = tuple(
        p for p in range(1, len(word) + 1) if data.draw(st.booleans())
    )
    rest = tuple(x for p, x in enumerate(word, 1) if p not in positions)
    assert is_face(s, word, target, positions) == brute_contains_reduced_word(
        s, rest, target
    )


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_TYPES + list(CODE_EDGE_TYPES)), st.data())
def test_face_test_matches_the_completed_demazure_product(name, data):
    # words up to 2N letters on every type, where the brute search cannot go;
    # the target is the product of a subword of the complement, which always
    # holds a reduced word for it, or of a random word
    s = system(name)
    n = 2 * s.number_of_positive_roots
    word = tuple(data.draw(st.lists(st.integers(1, s.rank), max_size=n)))
    positions = data.draw(st.sets(st.integers(1, len(word)))) if word else set()
    rest = [x for p, x in enumerate(word, 1) if p not in positions]
    inside = bool(rest) and data.draw(st.booleans())
    if inside:
        kept = data.draw(st.sets(st.integers(0, len(rest) - 1)))
        letters = tuple(rest[i] for i in sorted(kept))
    else:
        letters = tuple(data.draw(st.lists(st.integers(1, s.rank), max_size=n)))
    target = element_from_word(s, letters)
    answer = is_face(s, word, target, positions)
    assert answer == completed_is_face(s, word, target, positions)
    assert answer or not inside


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["A2", "B2"]), st.data())
def test_enumerators_agree_on_random_spherical_words(name, data):
    s = system(name)
    word = tuple(data.draw(st.lists(st.integers(1, s.rank), min_size=1, max_size=8)))
    target = demazure_product(s, word)
    facets = subword_complex(s, word, target).facets
    assert facets, "a spherical complex always has at least one facet"
    assert flip_closure(s, word, target, facets[0]) == facets
    for facet in facets:
        complement = tuple(x for p, x in enumerate(word, 1) if p not in facet)
        assert element_from_word(s, complement) == target
        assert len(complement) == target.length()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["A1", "A3", "B3", "D4", "G2", "H3", "I2(7)"]), st.data())
def test_raw_image_kernels_match_element_oracles(name, data):
    s = system(name)
    word = tuple(data.draw(st.lists(st.integers(1, s.rank), min_size=1, max_size=10)))
    spherical = demazure_product(s, word)
    facets = subword_complex(s, word, spherical).facets
    assert facets == brute_facets(s, word, spherical)
    for facet in facets:
        assert root_table(s, word, facet) == brute_root_table(s, word, facet)
    # any target, including ones with no facets at all
    letters = data.draw(st.lists(st.integers(1, s.rank), max_size=6))
    target = element_from_word(s, tuple(letters))
    assert subword_complex(s, word, target).facets == brute_facets(s, word, target)


def draw_complex(data, names, max_letters=8):
    """A system, a word and a target whose complex has the drawn kind.

    sphere: the target is the Demazure product D of the word.  ball: the
    target drops one letter from a reduced word for D, so it lies strictly
    below D and the complex is a ball.  empty: the word loses letters from
    its end until D is not w0, and the target is D times an ascent of D, so
    it is not below D.
    """
    s = system(data.draw(st.sampled_from(names)))
    kind = data.draw(st.sampled_from(["sphere", "ball", "empty"]))
    word = tuple(
        data.draw(st.lists(st.integers(1, s.rank), min_size=1, max_size=max_letters))
    )
    top = demazure_product(s, word)
    if kind == "sphere":
        target = top
    elif kind == "ball":
        letters = list(reduced_word(top))
        del letters[data.draw(st.integers(0, len(letters) - 1))]
        target = element_from_word(s, tuple(letters))
    else:
        while top == longest_element(s):
            word = word[:-1]
            top = demazure_product(s, word)
        ascents = [t for t in range(1, s.rank + 1) if not top.has_right_descent(t)]
        target = top * s.generators[data.draw(st.sampled_from(ascents)) - 1]
    return s, word, target, kind


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_enumerate_facets_matches_the_oracle(data):
    # I2(140) and A16 have N = 140 and 136: signed-root codes pass 255
    names = SMALL_TYPES + ["F4", "I2(5)", "I2(7)", "I2(140)", "A16"]
    s, word, target, kind = draw_complex(data, names, max_letters=10)
    facets = subword_complex(s, word, target).facets
    assert facets == brute_facets(s, word, target)
    assert bool(facets) == (kind != "empty")
    assert (demazure_product(s, word) == target) == (kind == "sphere")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_enumerate_facets_at_the_last_byte_code(data):
    # I2(127) has codes up to 254, in bytes; I2(128) has code 256, in str
    s, word, target, kind = draw_complex(data, ["I2(127)", "I2(128)"], max_letters=10)
    facets = subword_complex(s, word, target).facets
    assert facets == brute_facets(s, word, target)
    assert bool(facets) == (kind != "empty")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_facet_count_matches_the_oracle(data):
    # I2(127) keeps its codes in bytes; I2(128) and I2(140) need str
    names = SMALL_TYPES + ["F4", "I2(5)", "I2(7)", "I2(127)", "I2(128)", "I2(140)"]
    s, word, target, kind = draw_complex(data, names, max_letters=10)
    count = facet_count(s, word, target)
    assert count == len(brute_facets(s, word, target))
    assert (count > 0) == (kind != "empty")


@pytest.mark.parametrize("name, order", [("E7", 2903040), ("A16", 355687428096000)])
def test_facet_count_checks_the_group_order_up_front(monkeypatch, name, order):
    s = system(name)
    w0 = longest_element(s)

    def no_sweep(image, t):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(s, "right_multiply", no_sweep)
    with pytest.raises(
        ResourceLimitError,
        match=rf"^{name} has {order} elements, more than the limit of 1000000$",
    ):
        facet_count(s, (1, 2, 1), w0)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_facet_counts_match_the_oracle_on_batches(data):
    # one target per batch; the drawn word has the drawn kind, the others any
    s, word, target, kind = draw_complex(
        data, SMALL_TYPES + ["I2(127)", "I2(128)"], max_letters=8
    )
    letters = st.integers(1, s.rank)
    others = data.draw(st.lists(st.lists(letters, max_size=8), max_size=6))
    others = [tuple(other) for other in others]
    shorts = data.draw(st.lists(st.lists(letters, max_size=3), max_size=4))
    # a word of length 2h or 2h + 1 splits after its first h letters, so
    # head + tail[:h] shares its head with head + tail, and [1] + head + tail
    # its tail
    h = data.draw(st.integers(0, 4))
    head = data.draw(st.lists(letters, min_size=h, max_size=h))
    tail = data.draw(st.lists(letters, min_size=h + 1, max_size=h + 1))
    halves = [head + tail, head + tail[:h], [1] + head + tail]
    cut = data.draw(st.integers(0, len(word)))
    at = data.draw(st.integers(0, len(others)))
    # a prefix right before its word, a duplicate and the empty word; lists
    # as well as tuples
    batch = others[:at] + [list(word[:cut]), word] + others[at:] + shorts + halves
    batch += [(), word]
    counts = list(facet_counts(s, batch, target))
    assert counts == [len(brute_facets(s, tuple(other), target)) for other in batch]
    assert (counts[-1] > 0) == (kind != "empty")
    assert list(facet_counts(s, batch[::-1], target)) == counts[::-1]


def test_facet_counts_keep_at_most_max_faces_counts(monkeypatch):
    # |W(A3)| = 24 passes the up-front check, and leaves room for a few half
    # tables of the words of length 6, split 3 + 3
    monkeypatch.setattr(subword, "MAX_FACES", 24)
    a3 = system("A3")
    w0 = longest_element(a3)
    words = list(iter_all_words(a3, 6))
    singles = [facet_count(a3, word, w0) for word in words]
    for batch, expected in ((words, singles), (words[::-1], singles[::-1])):
        counts = facet_counts(a3, batch, w0)
        got, most = [], 0
        for _ in batch:
            got.append(next(counts))
            scope = counts.gi_frame.f_locals  # the sweep between two words
            kept = [*scope["heads"].values(), *scope["tails"].values()]
            most = max(most, sum(map(len, kept)))
        assert got == expected
        assert 0 < most <= 24
        assert next(counts, None) is None


def test_facet_counts_checks_the_group_order_when_called(monkeypatch):
    e7 = system("E7")

    def no_sweep(image, t):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(e7, "right_multiply", no_sweep)
    with pytest.raises(ResourceLimitError, match=r"^E7 has 2903040 elements"):
        facet_counts(e7, [(1, 2, 1), (1, 2)], longest_element(e7))  # not even iterated


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_TYPES + list(CODE_EDGE_TYPES)), st.data())
def test_numbering_stores_each_move_with_its_inverse(name, data):
    # half sweeps as facet_counts runs them, forwards from the identity and
    # backwards from a drawn element, on bytes and str systems; then every
    # stored move against the Element product and the code-by-code length.
    # Each element is kept by its first 2N + 1 codes, which the fixed codes
    # past 2N (the tail) complete to its whole image
    s = system(name)
    elements = subword._Numbering(s)
    letters = st.integers(1, s.rank)
    target = element_from_word(s, data.draw(st.lists(letters, max_size=12)))
    up, down = {0: 1}, {elements.number(target.image): 1}
    for letter in data.draw(st.lists(letters, max_size=8)):
        elements.step(up, letter, True)
    for letter in data.draw(st.lists(letters, max_size=8)):
        elements.step(down, letter, False)
    images, numbers = elements.images, elements.numbers
    whole = [image + s.tail for image in images]
    assert all(len(image) == 2 * s.number_of_positive_roots + 1 for image in images)
    assert whole[0] == s.identity.image
    assert target.image in whole
    assert len(numbers) == len(images)
    assert all(numbers[image] == v for v, image in enumerate(images))
    lengths = [brute_length(s, Element(s, image)) for image in whole]
    for t, row in enumerate(elements.moves, start=1):
        assert len(row) == len(images)
        for u, entry in enumerate(row):
            if entry is None:
                continue
            ascent = entry >= 0
            v = entry if ascent else ~entry
            assert whole[v] == brute_right_multiply(s, whole[u], t)
            assert lengths[v] == lengths[u] + (1 if ascent else -1)
            assert row[v] == (~u if ascent else u)


def test_numbering_steps_any_payload_with_plus():
    # Fraction payloads sweep to the int counts scaled, both ways; the whole
    # word swept either way counts the facets
    d4 = system("D4")
    word = multi_cluster_word(d4, (1, 2, 3, 4), 1)
    elements = subword._Numbering(d4)
    goal = elements.number(longest_element(d4).image)
    assert elements.images[goal] + d4.tail == longest_element(d4).image  # kept cut
    for start, letters, forwards, end in ((0, word, True, goal), (goal, word[::-1], False, 0)):
        counts, thirds = {start: 1}, {start: Fraction(1, 3)}
        for letter in letters:
            elements.step(counts, letter, forwards)
            elements.step(thirds, letter, forwards)
        assert thirds == {u: Fraction(count, 3) for u, count in counts.items()}
        assert counts[end] == facet_count(d4, word, longest_element(d4)) == 50


def test_facet_counts_multiply_each_move_once_per_call(monkeypatch):
    # each (element, letter) pair is multiplied at most once in a call, as
    # each move is stored with its inverse, and a second call multiplies
    # again, since nothing is kept across calls
    a3 = CoxeterSystem("A3")
    multiply, calls = a3.right_multiply, []

    def counting(image, t):
        calls.append(t)
        return multiply(image, t)

    monkeypatch.setattr(a3, "right_multiply", counting)
    w0 = longest_element(a3)
    words = list(iter_all_words(a3, 6))
    counts = list(facet_counts(a3, words, w0))
    first = len(calls)
    assert 0 < first <= 24 * 3 // 2
    assert list(facet_counts(a3, words, w0)) == counts
    assert len(calls) == 2 * first


def test_positions_take_any_integer_type():
    # bools and other types with __index__ are the positions they stand for
    class Position:
        def __init__(self, p):
            self.p = p

        def __index__(self):
            return self.p

    a2 = system("A2")
    w0 = longest_element(a2)
    for facet in ((True, 2), (Position(1), Position(2))):
        assert root_table(a2, PENTAGON, facet) == root_table(a2, PENTAGON, (1, 2))
        assert is_face(a2, PENTAGON, w0, facet)
        assert not is_face(a2, PENTAGON, w0, (facet[0], Position(3)))
        assert link(a2, PENTAGON, w0, facet) == link(a2, PENTAGON, w0, (1, 2))
    # flip returns the ints root_table checked, not the caller's objects
    # (True == 1, so only the types tell a bool apart)
    expected = flip(a2, PENTAGON, (1, 2), 2)
    assert expected == ((1, 5), 5)
    flipped, partner = flip(a2, PENTAGON, (True, 2), 2)
    assert (flipped, partner) == expected
    assert all(type(p) is int for p in (*flipped, partner))
    # positions with __index__ and no order, and a facet given as an iterator
    unordered = (Position(1), Position(2)), (Position(2), Position(1))
    for facet in (*unordered, iter((1, 2))):
        assert flip(a2, PENTAGON, facet, 2) == expected
    assert flip(a2, PENTAGON, (1, 2), True) == flip(a2, PENTAGON, (1, 2), 1)
    assert flip(a2, PENTAGON, (1, 2), Position(2)) == flip(a2, PENTAGON, (1, 2), 2)


def test_facet_counts_checks_each_word_before_sweeping_it():
    a2 = system("A2")
    counts = facet_counts(a2, [(1, 2, 1), (1, 3)], longest_element(a2))
    assert next(counts) == 1
    with pytest.raises(CoxeterError, match=r"generator s3 out of range for A2"):
        next(counts)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bfs_matches_the_oracle_on_spheres_and_balls(data):
    s, word, target, _ = draw_complex(data, SMALL_TYPES, max_letters=8)
    facets = brute_facets(s, word, target)
    if facets:
        seed = facets[data.draw(st.integers(0, len(facets) - 1))]
        assert flip_closure(s, word, target, seed) == facets


def test_bfs_on_a_ball():
    # A2, target s1: the flip of 2 in {1, 2} lands in the completion
    a2 = system("A2")
    target = element_from_word(a2, (1,))
    assert flip_closure(a2, (1, 2, 1), target, (1, 2)) == ((1, 2), (2, 3))


def test_enumerate_facets_rejects_letters_outside_the_system():
    # s0 and s3 would index the A2 tables from the end or past the generators
    a2 = system("A2")
    for word in [(1, 3), (0, 1)]:
        with pytest.raises(CoxeterError, match=r"out of range for A2"):
            subword_complex(a2, word, longest_element(a2))


def _no_search(*args):
    raise AssertionError("the facet search started")


def _no_count(*args):
    raise AssertionError("the facets were counted first")


def test_facet_budget(monkeypatch):
    # s1^140 has one facet per left-out position; words have no length cap.
    # |W(A1)| = 2 fits a budget of 139 and the Upper Bound Theorem allows
    # 4970 facets, so the exact count refuses before the search
    a1 = system("A1")
    word = (1,) * 140
    facets = subword_complex(a1, word, longest_element(a1)).facets
    assert facets == tuple(
        tuple(p for p in range(1, 141) if p != q) for q in range(140, 0, -1)
    )
    monkeypatch.setattr(subword, "MAX_FACES", 139)
    monkeypatch.setattr(subword, "_facet_search", _no_search)
    with pytest.raises(
        ResourceLimitError,
        match=r"^the complex on a word of 140 letters in A1 has 140 facets,"
        " more than the limit of 139$",
    ):
        subword_complex(a1, word, longest_element(a1))


def test_facet_budget_counts_the_leaves(monkeypatch):
    # A3 k=2 has 84 facets, most of them leaves of the search; |W| = 24 fits
    # a budget of 83 and the Upper Bound Theorem allows 156 facets, so the
    # exact count, which counts the leaves too, refuses before the search
    a3 = system("A3")
    word = multi_cluster_word(a3, enumerate_coxeter_words(a3)[0], 2)
    monkeypatch.setattr(subword, "MAX_FACES", 84)
    assert len(subword_complex(a3, word, longest_element(a3)).facets) == 84
    monkeypatch.setattr(subword, "MAX_FACES", 83)
    monkeypatch.setattr(subword, "_facet_search", _no_search)
    with pytest.raises(
        ResourceLimitError,
        match=r"^the complex on a word of 12 letters in A3 has 84 facets,"
        " more than the limit of 83$",
    ):
        subword_complex(a3, word, longest_element(a3))


def test_kernel_budget_counts_the_leaves(monkeypatch):
    # H3 k=1 has 32 facets, 9 of them leaves of the search, which are
    # counted when they are found and never pushed.  |W(H3)| = 120 is over
    # every budget here, so nothing is counted first: the search itself
    # refuses, once it has found more facets than the budget
    monkeypatch.setattr(subword, "facet_count", _no_count)
    h3 = system("H3")
    word = multi_cluster_word(h3, (1, 2, 3), 1)
    monkeypatch.setattr(subword, "MAX_FACES", 32)
    assert len(subword_complex(h3, word, longest_element(h3)).facets) == 32
    monkeypatch.setattr(subword, "MAX_FACES", 31)
    with pytest.raises(
        ResourceLimitError,
        match=r"^the complex on a word of 18 letters in H3 has at least 32 facets,"
        " more than the limit of 31$",
    ):
        subword_complex(h3, word, longest_element(h3))
    # the budget is checked as the search goes, so it stops before the end
    monkeypatch.setattr(subword, "MAX_FACES", 20)
    with pytest.raises(ResourceLimitError) as caught:
        subword_complex(h3, word, longest_element(h3))
    found = int(re.fullmatch(
        r"the complex on a word of 18 letters in H3 has at least (\d+) facets,"
        r" more than the limit of 20",
        str(caught.value),
    ).group(1))
    assert 20 < found < 32


def test_a_group_too_big_to_count_is_refused_before_collecting(monkeypatch):
    # |W(H3)| = 120 is over a budget of 20, so a first pass takes at most 21
    # facets from the search, keeps none, and refuses; no second search
    # starts to collect them.  A complex within the budget is searched
    # twice: counted, then collected
    monkeypatch.setattr(subword, "facet_count", _no_count)
    h3 = system("H3")
    word = multi_cluster_word(h3, (1, 2, 3), 1)
    searches, taken = [], []
    search = subword._facet_search

    def counted(*args):
        searches.append(None)
        for item in search(*args):
            taken.append(None)
            yield item

    monkeypatch.setattr(subword, "_facet_search", counted)
    monkeypatch.setattr(subword, "MAX_FACES", 20)
    with pytest.raises(ResourceLimitError) as caught:
        subword_complex(h3, word, longest_element(h3))
    assert str(caught.value) == (
        "the complex on a word of 18 letters in H3 has at least 21 facets,"
        " more than the limit of 20"
    )
    assert (len(searches), len(taken)) == (1, 21)
    monkeypatch.setattr(subword, "MAX_FACES", 32)
    searches.clear()
    taken.clear()
    assert len(subword_complex(h3, word, longest_element(h3)).facets) == 32
    assert (len(searches), len(taken)) == (2, 64)


def test_an_explicit_word_is_counted_before_the_search(monkeypatch):
    # (s1...s6)^8 is c^3 w0(c) in D6, given as a word: |W| = 23040 fits the
    # budget and the Upper Bound Theorem does not rule out more than 10^6
    # facets, so the exact count refuses it before the search
    d6 = system("D6")
    word = (1, 2, 3, 4, 5, 6) * 8
    assert word == multi_cluster_word(d6, (1, 2, 3, 4, 5, 6), 3)
    monkeypatch.setattr(subword, "_facet_search", _no_search)
    with pytest.raises(ResourceLimitError) as caught:
        subword_complex(d6, word, longest_element(d6))
    assert str(caught.value) == (
        "the complex on a word of 48 letters in D6 has 8789152 facets,"
        " more than the limit of 1000000"
    )


def test_a_group_too_big_to_count_is_left_to_the_search(monkeypatch):
    # E8 k=1: the Upper Bound Theorem allows 10001499 facets, but |W| is over
    # the budget, so no count runs and the search finds the 25080 facets
    monkeypatch.setattr(subword, "facet_count", _no_count)
    e8 = system("E8")
    word = multi_cluster_word(e8, tuple(range(1, 9)), 1)
    assert subword._upper_bound(len(word) + 1, 8) == 10001499 > subword.MAX_FACES
    assert len(subword_complex(e8, word, longest_element(e8)).facets) == 25080


@pytest.mark.parametrize("n", range(1, 10))
def test_upper_bound_is_the_cyclic_polytope_facet_count(n):
    # Gale's evenness condition: a d-subset of 1..n is a facet of the cyclic
    # d-polytope when an even number of its elements lies between any two
    # elements outside it
    assert subword._upper_bound(n, 0) == subword._upper_bound(n, -1) == 1
    for d in range(1, n):
        facets = 0
        for subset in combinations(range(1, n + 1), d):
            outside = sorted(set(range(1, n + 1)) - set(subset))
            facets += all((b - a) % 2 for a, b in zip(outside, outside[1:]))
        assert subword._upper_bound(n, d) == facets


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_upper_bound_bounds_the_facet_count(data):
    names = SMALL_TYPES + ["F4", "I2(5)", "I2(7)"]
    s, word, target, _ = draw_complex(data, names, max_letters=10)
    d = len(word) - target.length()
    assert facet_count(s, word, target) <= subword._upper_bound(len(word) + 1, d)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_subword_complex_refuses_exactly_over_the_budget(data):
    # where |W| fits the budget the exact count refuses, and elsewhere the
    # search, once it has found more facets than the budget; the second
    # range puts the budget between |W| and the facet count where it can
    s, word, target, _ = draw_complex(data, SMALL_TYPES, max_letters=10)
    expected = brute_facets(s, word, target)
    order = prod(s.degrees)
    limit = data.draw(st.one_of(
        st.integers(1, 2 * len(expected) + 1),
        st.integers(order, max(order, len(expected) - 1)),
    ))
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(subword, "MAX_FACES", limit)
        if len(expected) <= limit:
            assert subword_complex(s, word, target).facets == expected
            return
        with pytest.raises(ResourceLimitError) as caught:
            subword_complex(s, word, target)
    subject = f"the complex on a word of {len(word)} letters in {s.descriptor.name()}"
    if order <= limit:
        assert str(caught.value) == (
            f"{subject} has {len(expected)} facets, more than the limit of {limit}"
        )
    else:
        found = re.fullmatch(
            rf"{re.escape(subject)} has at least (\d+) facets, more than the limit of {limit}",
            str(caught.value),
        )
        assert limit < int(found.group(1)) <= len(expected)


def test_bfs_on_single_facet_complex():
    a3 = system("A3")
    word = (2, 1, 3)
    target = element_from_word(a3, word)
    assert flip_closure(a3, word, target, ()) == ((),)


# ---------------------------------------------------------------------------
# Root functions and flips

def test_root_function_table_for_hexagon_facet():
    b2 = system("B2")
    table = root_table(b2, HEXAGON, (2, 3))
    vecs = [
        tuple(b2.positive_roots[r.root]) if r.sign > 0 else None for r in table
    ]
    assert table[0] == SignedRoot(0, 1)  # alpha_1
    assert vecs[1] == (1, 1)  # alpha_1 + alpha_2
    assert table[2].sign < 0 and table[2].root == 0  # -alpha_1
    assert vecs[3] == (1, 1)
    assert vecs[4] == (1, 2)
    assert vecs[5] == (0, 1)


def test_leftmost_letter_gets_its_simple_root():
    # position 1 has an empty prefix, so its root is its own simple root
    a3 = system("A3")
    word = (2, 1, 3, 2, 1, 3, 2)
    target = demazure_product(a3, word)
    for facet in subword_complex(a3, word, target).facets:
        table = root_table(a3, word, facet)
        assert table[0] == SignedRoot(word[0] - 1, 1)


def test_root_function_recovers_inversion_set():
    for name, word in [("A2", PENTAGON), ("B2", HEXAGON), ("A3", (1, 2, 3, 1, 2, 3, 1, 2, 1))]:
        s = system(name)
        target = longest_element(s)
        for facet in subword_complex(s, word, target).facets:
            table = root_table(s, word, facet)
            outside = [table[p - 1].root for p in range(1, len(word) + 1) if p not in facet]
            assert frozenset(outside) == inversion_set(target)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(["A1", "B3", "H3", "H4", "E7", "E8", "I2(127)", "I2(128)", "A16"]),
    st.data(),
)
def test_root_table_matches_the_oracle_on_any_positions(name, data):
    # E8 and I2(127) keep codes as bytes (2N + 1 <= 255); I2(128) and A16
    # need str.  Any position set works: the walk never needs a facet.
    s = system(name)
    word = tuple(data.draw(st.lists(st.integers(1, s.rank), min_size=1, max_size=40)))
    positions = tuple(p for p in range(1, len(word) + 1) if data.draw(st.booleans()))
    assert root_table(s, word, positions) == brute_root_table(s, word, positions)


# 2N + 1 codes: the bytes loop runs on H4 (121), E7 (127), E8 (241) and
# I2(127) (255, the most of any byte-coded type), the str loop on I2(128) (257)
# and A16 (273)
@pytest.mark.parametrize("name", ["H4", "E7", "E8", "I2(127)", "I2(128)", "A16"])
@pytest.mark.parametrize(
    "length, positions",
    [
        (0, lambda p: True),
        (31, lambda p: True),  # nothing is ever pending
        (31, lambda p: False),  # an odd count: the last letter stays pending
        (31, lambda p: p % 4 != 1),  # runs of three, read through a pending letter
        (31, lambda p: p % 3 == 0),  # complement pairs back to back
    ],
    ids=["empty-word", "all", "none", "runs-through-pending", "pairs-back-to-back"],
)
def test_root_walk_edge_cases_match_the_oracle(name, length, positions):
    # the walk multiplies complement letters in pairs; a letter is read
    # through while it is pending, and one left pending at the end is never
    # multiplied in
    s = system(name)
    word = tuple(1 + (3 * i + i // s.rank) % s.rank for i in range(length))
    facet = tuple(p for p in range(1, length + 1) if positions(p))
    assert root_table(s, word, facet) == brute_root_table(s, word, facet)


def flip_outcome(flipper, s, word, facet, q):
    """The result of a flip, or the message of its refusal."""
    try:
        return flipper(s, word, facet, q)
    except CoxeterError as error:
        return str(error)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_flip_matches_the_oracle_on_facets(data):
    # over the word, a flip at the boundary of a ball has no partner and is
    # refused; over the completed word every flip has one
    names = SMALL_TYPES + ["F4", "I2(7)"] + list(CODE_EDGE_TYPES)
    s, word, target, _ = draw_complex(data, names, max_letters=10)
    facets = subword_complex(s, word, target).facets
    if not facets:
        return
    facet = data.draw(st.sampled_from(facets))
    for letters in (word, reduce_to_w0(s, word, target)):
        for q in facet:
            expected = flip_outcome(brute_flip, s, letters, facet, q)
            assert flip_outcome(flip, s, letters, facet, q) == expected


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CODE_EDGE_TYPES), st.data())
def test_flip_matches_the_oracle_on_any_positions(name, data):
    # I2(127) keeps its codes in bytes, I2(128) and A16 in str.  Where the
    # complement is not reduced, several positions may carry the root of q,
    # and the refusal lists them in position order.
    s = system(name)
    word = tuple(data.draw(st.lists(st.integers(1, s.rank), min_size=1, max_size=20)))
    q = data.draw(st.integers(1, len(word)))
    positions = [p for p in range(1, len(word) + 1) if p == q or data.draw(st.booleans())]
    expected = flip_outcome(brute_flip, s, word, positions, q)
    assert flip_outcome(flip, s, word, positions, q) == expected


@pytest.mark.parametrize("name", CODE_EDGE_TYPES)
def test_flip_lists_the_partners_in_position_order(name):
    # s1 s1 s1 s1 with facet {2}: alpha_1 at 1 and 4, -alpha_1 at 2 and 3
    s = system(name)
    message = (
        "cannot flip position 2: positions 1, 3, 4 outside the facet carry its root"
        " (flips need a facet of a spherical complex)"
    )
    assert flip_outcome(brute_flip, s, (1, 1, 1, 1), (2,), 2) == message
    assert flip_outcome(flip, s, (1, 1, 1, 1), (2,), 2) == message


def test_root_table_rejects_letters_outside_the_system():
    # s3 would read the table of the third positive root of A2
    a2 = system("A2")
    for word in [(1, 3, 2), (0, 1)]:
        with pytest.raises(CoxeterError, match=r"out of range for A2"):
            root_table(a2, word, ())
        with pytest.raises(CoxeterError, match=r"out of range for A2"):
            flip(a2, word, (1,), 1)


def test_hexagon_flips_from_mixed_facet():
    b2 = system("B2")
    facet = (2, 3)
    new_facet, landing = flip(b2, HEXAGON, facet, 2)
    assert landing == 4 and new_facet == (3, 4)
    new_facet, landing = flip(b2, HEXAGON, facet, 3)
    assert landing == 1 and new_facet == (1, 2)


def test_flip_is_an_involution():
    for name, word in [("A2", PENTAGON), ("B2", HEXAGON)]:
        s = system(name)
        for facet in subword_complex(s, word, longest_element(s)).facets:
            for q in facet:
                other, landing = flip(s, word, facet, q)
                back, restored = flip(s, word, other, landing)
                assert back == facet and restored == q


def test_flip_error_names_the_position_and_the_failure():
    # A2, target s1: {1, 2} is a facet of the non-spherical complex on
    # s1 s2 s1, but no outside position carries the root alpha_2 of q = 2
    a2 = system("A2")
    word = (1, 2, 1)
    assert (1, 2) in subword_complex(a2, word, element_from_word(a2, (1,))).facets
    with pytest.raises(
        CoxeterError,
        match=r"^cannot flip position 2: no position outside the facet carries its root",
    ):
        flip(a2, word, (1, 2), 2)
    # a position set whose complement is not reduced: two outside positions match
    a1 = system("A1")
    with pytest.raises(
        CoxeterError,
        match=r"^cannot flip position 1: positions 2, 3 outside the facet carry its root",
    ):
        flip(a1, (1, 1, 1), (1,), 1)


def test_flip_sign_orientation():
    # the shared root keeps its sign iff the landing letter is to the right
    for name, word in [("B2", HEXAGON), ("A3", (1, 2, 3, 1, 2, 3, 1, 2, 1))]:
        s = system(name)
        for facet in subword_complex(s, word, longest_element(s)).facets:
            table = root_table(s, word, facet)
            for q in facet:
                _, landing = flip(s, word, facet, q)
                same_sign = table[q - 1].sign == table[landing - 1].sign
                assert same_sign == (landing > q)


def test_flip_root_update_rule():
    # flipping q to a letter on its right multiplies the roots strictly in
    # between (and at the landing letter) by the reflection of r_F(q)
    word = (1, 2, 3, 1, 2, 3, 1, 2, 1)
    s = system("A3")
    target = longest_element(s)
    for facet in subword_complex(s, word, target).facets:
        table = root_table(s, word, facet)
        for q in facet:
            other, landing = flip(s, word, facet, q)
            if landing < q:
                continue  # covered by the involution from the other side
            prefix = s.identity
            for p in range(1, q):
                if p not in facet:
                    prefix = prefix * s.generators[word[p - 1] - 1]
            reflection = (
                prefix * s.generators[word[q - 1] - 1] * prefix.inverse()
            )
            new_table = root_table(s, word, other)
            for p in range(1, len(word) + 1):
                expected = (
                    reflection.apply(*table[p - 1])
                    if q < p <= landing
                    else table[p - 1]
                )
                assert new_table[p - 1] == expected


# ---------------------------------------------------------------------------
# Graphs, links, reductions

def test_pentagon_flip_graph_is_a_cycle():
    _, complex_ = pentagon()
    graph = flip_graph(complex_)
    assert all(len(adj) == 2 for adj in graph.neighbors)
    assert len(graph.edges()) == 5


def test_hexagon_flip_graph_is_a_cycle():
    _, complex_ = hexagon()
    graph = flip_graph(complex_)
    assert all(len(adj) == 2 for adj in graph.neighbors)
    assert len(graph.edges()) == 6


def test_two_letter_complex_flip_graph():
    a1 = system("A1")
    complex_ = subword_complex(a1, (1, 1), longest_element(a1))
    graph = flip_graph(complex_)
    assert complex_.facets == ((1,), (2,))
    assert graph.edges() == ((0, 1),)


def test_flip_graph_on_a_ball():
    # A2, target s1: the flip of 2 in {1, 2} lands in the completion, so
    # each facet has one neighbour and one boundary wall
    a2 = system("A2")
    complex_ = subword_complex(a2, (1, 2, 1), element_from_word(a2, (1,)))
    graph = flip_graph(complex_)
    assert graph.nodes == ((1, 2), (2, 3))
    assert graph.neighbors == ((1,), (0,))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_flip_graph_joins_facets_sharing_a_ridge(data):
    # spheres and balls are pseudomanifolds: a ridge lies in at most two
    # facets, and the flip across it joins them
    # the code-edge types walk and flip on bytes and on str code sequences
    s, word, target, _ = draw_complex(
        data, SMALL_TYPES + list(CODE_EDGE_TYPES), max_letters=8
    )
    complex_ = subword_complex(s, word, target)
    graph = flip_graph(complex_)
    d = complex_.facet_size()
    for i, facet in enumerate(graph.nodes):
        expected = tuple(
            j for j, other in enumerate(graph.nodes)
            if len(set(facet) & set(other)) == d - 1
        )
        assert graph.neighbors[i] == expected


def test_flip_graph_regularity():
    for name, word in [("A3", (1, 2, 3, 1, 2, 3, 1, 2, 1)), ("B2", (1, 2) * 4)]:
        s = system(name)
        complex_ = subword_complex(s, word, longest_element(s))
        graph = flip_graph(complex_)
        degree = complex_.facet_size()
        assert all(len(adj) == degree for adj in graph.neighbors)


def test_flip_graph_dot_output():
    _, complex_ = pentagon()
    dot = flip_graph_dot(flip_graph(complex_))
    assert dot.startswith("graph flips {")
    assert dot.count("--") == 5


# Flip graphs split across forked workers


def _split_instances():
    """A sphere and a ball above the work threshold: H3 k=2 (58,212 units),
    and the word of A3 k=5 with target s1 s2 s1 (60,480 units), whose flips
    into the completion are walls."""
    h3, a3 = system("H3"), system("A3")
    sphere = subword_complex(h3, multi_cluster_word(h3, (1, 2, 3), 2))
    ball = subword_complex(
        a3, multi_cluster_word(a3, (1, 2, 3), 5), element_from_word(a3, (1, 2, 1))
    )
    return sphere, ball


def _units(complex_):
    completed = reduce_to_w0(complex_.system, complex_.word, complex_.target)
    return len(complex_.facets) * complex_.facet_size() * len(completed)


def _flip_oracle(complex_):
    """The adjacency from one public ``flip`` per (facet, q)."""
    s = complex_.system
    completed = reduce_to_w0(s, complex_.word, complex_.target)
    index = {facet: i for i, facet in enumerate(complex_.facets)}
    rows = []
    for facet in complex_.facets:
        flips = [flip(s, completed, facet, q) for q in facet]
        rows.append(tuple(sorted(
            index[other] for other, landing in flips if landing <= len(complex_.word)
        )))
    return tuple(rows)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _count_forks(patch):
    """The ``os.fork`` calls this process makes, with three usable CPUs."""
    calls = []
    real_fork = os.fork

    def counted():
        calls.append(None)
        return real_fork()

    patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    patch.setattr(os, "fork", counted)
    return calls


@pytest.fixture
def forks(monkeypatch):
    return _count_forks(monkeypatch)


@pytest.mark.parametrize("kind", ["sphere", "ball"])
def test_split_flip_graph_matches_the_flip_oracle(forks, kind):
    complex_ = dict(zip(("sphere", "ball"), _split_instances()))[kind]
    assert _units(complex_) >= subword._FORK_UNITS
    graph = flip_graph(complex_)
    assert len(forks) == 2  # chunk 0 is built here, the other two in children
    _assert_no_child_left()
    assert graph.nodes == complex_.facets
    assert graph.neighbors == _flip_oracle(complex_)
    if kind == "ball":
        assert any(len(row) < complex_.facet_size() for row in graph.neighbors)


def test_one_usable_cpu_builds_the_same_graph_without_forking(forks, monkeypatch):
    for complex_ in _split_instances():
        split = flip_graph(complex_)
        forked = len(forks)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert flip_graph(complex_) == split
        assert flip_graph_dot(flip_graph(complex_)) == flip_graph_dot(split)
        assert len(forks) == forked
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    _assert_no_child_left()


def test_small_flip_graphs_are_built_without_forking(forks):
    # A3 k=2, 84 facets of size 6 on 12 letters, and A3 k=3, which was
    # measured slower split, are below the threshold
    a3 = system("A3")
    for k, units in [(2, 6048), (3, 44550)]:
        complex_ = subword_complex(a3, multi_cluster_word(a3, (1, 2, 3), k))
        assert _units(complex_) == units < subword._FORK_UNITS
        assert flip_graph(complex_).neighbors == _flip_oracle(complex_)
    assert forks == []


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_split_carries_empty_chunks_and_empty_rows(data):
    # with no threshold and three usable CPUs every complex is split, so a
    # complex with fewer facets than workers, no facets, or facets of size 0
    # sends empty chunks and empty rows through marshal
    s, word, target, _ = draw_complex(data, SMALL_TYPES, max_letters=8)
    complex_ = subword_complex(s, word, target)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(subword, "_FORK_UNITS", 0)
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = flip_graph(complex_)
        forks = _count_forks(patch)
        assert flip_graph(complex_) == serial
    assert len(forks) == 2
    _assert_no_child_left()


def test_a_child_that_fails_mid_write_has_its_chunk_redone(forks, monkeypatch):
    # the child writes the first half of its rows, well formed, then fails:
    # this process loads nothing it wrote and builds that chunk itself
    def half_written(rows, pipe):
        pipe.write(marshal.dumps(rows[: len(rows) // 2]))
        pipe.flush()
        raise OSError("the pipe broke")

    torn = SimpleNamespace(dump=half_written, loads=marshal.loads)
    monkeypatch.setattr(subword, "marshal", torn)
    sphere, _ = _split_instances()
    assert flip_graph(sphere).neighbors == _flip_oracle(sphere)
    assert len(forks) == 2
    _assert_no_child_left()


def test_a_failed_fork_leaves_the_chunk_to_this_process(monkeypatch):
    def failing():
        raise OSError("no fork")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "fork", failing)
    sphere, _ = _split_instances()
    assert flip_graph(sphere).neighbors == _flip_oracle(sphere)


@pytest.mark.parametrize("where", ["first", "last"])
def test_a_bogus_facet_raises_the_serial_error(forks, monkeypatch, where):
    # a position past the completed word is refused by the flip of that
    # facet; in the last chunk a child fails and its chunk is redone here,
    # in the first this process raises while the children still run
    sphere, _ = _split_instances()
    bogus = (1, 2, 100)
    facets = (bogus,) + sphere.facets if where == "first" else sphere.facets + (bogus,)
    broken = replace(sphere, facets=facets)
    with pytest.raises(CoxeterError) as split:
        flip_graph(broken)
    assert len(forks) == 2
    _assert_no_child_left()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with pytest.raises(CoxeterError) as serial:
        flip_graph(broken)
    assert str(split.value) == str(serial.value) == "position out of range"


def test_an_interrupt_kills_and_reaps_every_child(forks, monkeypatch):
    parent = os.getpid()
    real_flip = subword.flip

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real_flip(*args)

    monkeypatch.setattr(subword, "flip", interrupted)
    sphere, _ = _split_instances()
    with pytest.raises(KeyboardInterrupt):
        flip_graph(sphere)
    assert len(forks) == 2
    _assert_no_child_left()


def test_link_of_empty_face():
    _, complex_ = pentagon()
    linked = link(complex_.system, complex_.word, complex_.target, ())
    assert linked.facets == complex_.facets


def test_link_rejects_nonface():
    a2, complex_ = pentagon()
    with pytest.raises(CoxeterError):
        link(a2, complex_.word, complex_.target, (1, 3))


def test_link_inside_cluster_complex():
    # deleting the prefix letter of s2 from the A3 complex leaves 4 facets
    a3 = system("A3")
    word = (1, 2, 3) + (1, 2, 3, 1, 2, 1)
    linked = link(a3, word, longest_element(a3), (2,))
    assert len(linked.facets) == 4


def test_link_matches_restriction_of_facets():
    b2 = system("B2")
    word = HEXAGON
    target = longest_element(b2)
    complex_ = subword_complex(b2, word, target)
    face = (2,)
    linked = link(b2, word, target, face)
    survivors = sorted(
        tuple(p - sum(1 for f in face if f < p) for p in facet if p not in face)
        for facet in complex_.facets
        if set(face) <= set(facet)
    )
    assert sorted(linked.facets) == survivors


def test_reduce_to_w0():
    a2 = system("A2")
    assert reduce_to_w0(a2, PENTAGON, longest_element(a2)) == PENTAGON
    word = (1, 2)
    target = element_from_word(a2, word)
    extended = reduce_to_w0(a2, word, target)
    assert extended == (1, 2, 1)
    before = subword_complex(a2, word, target).facets
    after = subword_complex(a2, extended, longest_element(a2)).facets
    assert before == after == ((),)
    a3 = system("A3")  # the completion is the s1 s2 s3-sorting word of w0
    assert reduce_to_w0(a3, (2,), a3.identity) == (2, 1, 2, 3, 1, 2, 1)


def test_reduce_to_w0_keeps_the_facets_that_avoid_the_completion():
    a2 = system("A2")
    word, target = (1, 2, 1), element_from_word(a2, (1,))
    extended = reduce_to_w0(a2, word, target)
    assert extended == (1, 2, 1, 2, 1)
    assert subword_complex(a2, word, target).facets == ((1, 2), (2, 3))
    assert len(subword_complex(a2, extended, longest_element(a2)).facets) == 5


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_reduce_to_w0_facets_are_the_extended_facets_avoiding_the_completion(data):
    s, word, target, _ = draw_complex(data, SMALL_TYPES, max_letters=8)
    extended = reduce_to_w0(s, word, target)
    avoiding = tuple(
        facet
        for facet in brute_facets(s, extended, longest_element(s))
        if all(p <= len(word) for p in facet)
    )
    assert avoiding == brute_facets(s, word, target)


def test_reduce_to_w0_preserves_facets():
    a3 = system("A3")
    word = (1, 2, 3, 2, 1)
    target = demazure_product(a3, word)
    extended = reduce_to_w0(a3, word, target)
    assert subword_complex(a3, word, target).facets == subword_complex(
        a3, extended, longest_element(a3)
    ).facets


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_reduce_to_w0_appends_the_s1_to_sn_sorting_word(data):
    s, word, target, _ = draw_complex(data, SMALL_TYPES + ["E6", "H4"])
    cox = tuple(range(1, s.rank + 1))
    rest = target.inverse() * longest_element(s)
    completion = reduce_to_w0(s, word, target)[len(word):]
    assert completion == sorting_word(s, cox, rest)
    assert brute_is_sorting_word(s, cox, rest, completion)


def test_rotation_isomorphism_on_facets():
    # positions shift down by one; position 1 lands on the appended letter
    from subwordlab.sorting import rotate_word

    for name, word in [("A2", PENTAGON), ("B2", HEXAGON), ("A3", (1, 2, 3, 1, 2, 3, 1, 2, 1))]:
        s = system(name)
        target = longest_element(s)
        rotated = rotate_word(s, word)
        facets = subword_complex(s, word, target).facets
        image = sorted(
            tuple(sorted(len(word) if p == 1 else p - 1 for p in facet))
            for facet in facets
        )
        assert tuple(image) == subword_complex(s, rotated, target).facets


def test_commutation_isomorphism_on_facets():
    a3 = system("A3")
    word = (1, 3, 2, 1, 3, 2, 1, 3, 2)
    swapped = (3, 1, 2, 1, 3, 2, 1, 3, 2)  # swap commuting letters at 1, 2
    target = longest_element(a3)
    swap = {1: 2, 2: 1}
    facets = subword_complex(a3, word, target).facets
    image = sorted(
        tuple(sorted(swap.get(p, p) for p in facet)) for facet in facets
    )
    assert tuple(image) == subword_complex(a3, swapped, target).facets


# ---------------------------------------------------------------------------
# f-vectors and non-faces

def test_pentagon_f_vector():
    _, complex_ = pentagon()
    assert f_vector(complex_) == (1, 5, 5)
    assert reduced_euler_characteristic(complex_) == -1


def test_hexagon_f_vector():
    _, complex_ = hexagon()
    assert f_vector(complex_) == (1, 6, 6)
    assert reduced_euler_characteristic(complex_) == -1


def test_simplex_boundary_f_vector():
    # k+1 copies of the only letter of A1: the boundary of a k-simplex
    from math import comb

    a1 = system("A1")
    for k in [1, 2, 3, 4]:
        complex_ = subword_complex(a1, (1,) * (k + 1), longest_element(a1))
        fv = f_vector(complex_)
        assert fv == tuple(comb(k + 1, i) for i in range(k + 1))
        assert reduced_euler_characteristic(complex_) == (-1) ** (k - 1)


def test_pentagon_minimal_nonfaces():
    _, complex_ = pentagon()
    assert minimal_nonfaces(complex_, 3) == ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5))


def test_hexagon_minimal_nonfaces_are_pairs():
    _, complex_ = hexagon()
    found = minimal_nonfaces(complex_, 3)
    assert found and all(len(x) == 2 for x in found)


def test_full_simplex_has_no_minimal_nonfaces():
    a1 = system("A1")
    complex_ = subword_complex(a1, (1, 1), a1.identity)
    assert complex_.facets == ((1, 2),)
    assert minimal_nonfaces(complex_, 2) == ()


def test_all_faces_counts_match_f_vector():
    _, complex_ = hexagon()
    faces = all_faces(complex_)
    assert len(faces) == sum(f_vector(complex_))


def test_all_faces_are_sorted_position_tuples():
    # the convention of the facets and the minimal non-faces
    _, complex_ = hexagon()
    faces = all_faces(complex_)
    assert all(type(face) is tuple and list(face) == sorted(face) for face in faces)
    assert () in faces and set(complex_.facets) <= faces


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(
        ["A1", "A2", "A3", "B2", "B3", "G2", "H3", "D4", "I2(5)", "I2(7)",
         "I2(127)", "I2(128)"]
    ),
    st.sampled_from(["sphere", "ball", "empty"]),
    st.data(),
)
def test_face_counts_match_subset_oracles(name, kind, data):
    s = system(name)
    w0 = longest_element(s)
    # words shorter than w0 have a Demazure product below it, so a target
    # one ascent above that product leaves the complex empty
    if kind == "empty":
        sizes = {"min_size": 0, "max_size": min(9, w0.length() - 1)}
    else:
        sizes = {"min_size": 1, "max_size": 9}
    word = tuple(data.draw(st.lists(st.integers(1, s.rank), **sizes)))
    top = demazure_product(s, word)
    if kind == "sphere":
        target = top
    elif kind == "ball":
        # dropping a letter of a reduced word goes strictly down in Bruhat order
        letters = reduced_word(top)
        drop = data.draw(st.integers(0, len(letters) - 1))
        target = element_from_word(s, letters[:drop] + letters[drop + 1:])
    else:
        ascent = next(t for t in range(1, s.rank + 1) if not top.has_right_descent(t))
        target = element_from_word(s, reduced_word(top) + (ascent,))
    complex_ = subword_complex(s, word, target)
    assert bool(complex_.facets) == (kind != "empty")
    assert (target == top) == (kind == "sphere")

    assert f_vector(complex_) == brute_f_vector(complex_)
    assert sum(complex_.h) == len(complex_.facets)
    faces = brute_all_faces(complex_)
    assert all_faces(complex_) == faces
    for cap in range(0, max(complex_.facet_size(), 0) + 3):
        assert all_faces(complex_, cap) == {f for f in faces if len(f) <= cap}
        assert minimal_nonfaces(complex_, cap) == brute_minimal_nonfaces(complex_, cap)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["A2", "A3", "B2", "B3", "G2", "H3", "I2(5)"]), st.data())
def test_h_vector_of_a_sphere_is_palindromic(name, data):
    s = system(name)
    word = tuple(data.draw(st.lists(st.integers(1, s.rank), min_size=1, max_size=10)))
    h = subword_complex(s, word).h
    assert h == h[::-1]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_h_vector_matches_the_face_count_oracle(data):
    # the kernel counts the negative roots of each facet on bytes codes up
    # to I2(127) and on str codes from I2(128)
    names = SMALL_TYPES + ["I2(127)", "I2(128)"]
    s, word, target, kind = draw_complex(data, names, max_letters=10)
    complex_ = subword_complex(s, word, target)
    assert complex_.facets == brute_facets(s, word, target)
    f = brute_f_vector(complex_)
    if kind == "empty":
        assert (complex_.h, f) == ((), (0,))
        return
    # h_i = sum over j <= i of (-1)^(i - j) C(d - j, i - j) f_{j-1}
    d = len(f) - 1
    assert complex_.h == tuple(
        sum((-1) ** (i - j) * comb(d - j, i - j) * f[j] for j in range(i + 1))
        for i in range(d + 1)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_h_vector_of_type_a_cluster_complex_is_narayana(n):
    # N(n+1, i+1) = C(n+1, i+1) C(n+1, i) / (n+1)
    s = system(f"A{n}")
    cox = enumerate_coxeter_words(s)[0]
    complex_ = subword_complex(s, multi_cluster_word(s, cox, 1), longest_element(s))
    h = complex_.h
    assert h == tuple(comb(n + 1, i + 1) * comb(n + 1, i) // (n + 1) for i in range(n + 1))
    assert sum(h) == len(complex_.facets) == catalan(n + 1)


def test_h_vector_of_an_empty_complex():
    b2 = system("B2")
    complex_ = subword_complex(b2, (1, 2), longest_element(b2))
    assert complex_.facets == ()
    assert complex_.h == ()
    assert f_vector(complex_) == (0,)


def test_all_faces_budget(monkeypatch):
    _, complex_ = hexagon()
    assert len(all_faces(complex_)) == 13
    monkeypatch.setattr(subword, "MAX_FACES", 13)
    assert len(all_faces(complex_)) == 13
    monkeypatch.setattr(subword, "MAX_FACES", 12)
    # the 13 faces are counted off the f-vector, before any face is built
    message = (
        "^the complex on a word of 6 letters in B2 has 13 faces of size at most 2,"
        " more than the limit of 12$"
    )
    with pytest.raises(ResourceLimitError, match=message):
        all_faces(complex_)
    with pytest.raises(ResourceLimitError, match=message):
        minimal_nonfaces(complex_, 3)
    assert len(all_faces(complex_, 1)) == 7


def test_minimal_nonfaces_build_no_face_at_the_cap(monkeypatch):
    # the hexagon has 7 faces of size <= 1 and 13 of size <= 2: a budget of
    # 7 leaves room for the faces below the cap only
    _, complex_ = hexagon()
    monkeypatch.setattr(subword, "MAX_FACES", 7)
    found = minimal_nonfaces(complex_, 2)
    assert found and found == brute_minimal_nonfaces(complex_, 2)
    with pytest.raises(
        ResourceLimitError,
        match="^the complex on a word of 6 letters in B2 has 13 faces of size at most 2,"
        " more than the limit of 7$",
    ):
        all_faces(complex_, 2)


def test_face_budget_is_checked_before_any_face_is_built(monkeypatch):
    # B4 k=3 at the full cap: its 2609265 faces are counted off the f-vector
    # and refused before the facet bitsets, the first thing a face needs
    b4 = system("B4")
    complex_ = subword_complex(
        b4, multi_cluster_word(b4, (1, 2, 3, 4), 3), longest_element(b4)
    )

    def no_bitsets(self):
        raise AssertionError("the facet bitsets were built")

    monkeypatch.setattr(SubwordComplex, "facet_bitsets", property(no_bitsets))
    assert sum(f_vector(complex_)) == 2609265
    with pytest.raises(ResourceLimitError) as caught:
        minimal_nonfaces(complex_, complex_.facet_size() + 1)
    assert str(caught.value) == (
        "the complex on a word of 28 letters in B4 has 2609265 faces of size at"
        " most 12, more than the limit of 1000000"
    )


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_face_bitsets_over_several_bytes(name):
    # k = 2 gives 84 (A3) and 175 (B3) facets, so each vertex bitset spans
    # several bytes
    s, k = system(name), 2
    cox = enumerate_coxeter_words(s)[0]
    complex_ = subword_complex(s, multi_cluster_word(s, cox, k), longest_element(s))
    assert len(complex_.facets) > 64
    faces = brute_all_faces(complex_)
    for cap in range(0, k + 3):
        assert all_faces(complex_, cap) == {f for f in faces if len(f) <= cap}
        assert minimal_nonfaces(complex_, cap) == brute_minimal_nonfaces(complex_, cap)


@pytest.mark.parametrize(
    "name, k, expected",
    [("B4", 2, (400, (3,))), ("F4", 2, (1568, (3,))), ("H3", 3, (1764, (4,))),
     ("A3", 4, (66, (5,)))],
)
def test_multi_cluster_nonfaces_have_k_plus_one_positions(name, k, expected):
    # (count, sizes) of the minimal non-faces of size <= k + 1 on the word
    # c^k w0(c) with c = s1...sn; CLS identify them in type A with the
    # (k+1)-crossings of a multi-triangulation
    s = system(name)
    word = multi_cluster_word(s, tuple(range(1, s.rank + 1)), k)
    found = minimal_nonfaces(subword_complex(s, word, longest_element(s)), k + 1)
    assert (len(found), tuple(sorted({len(x) for x in found}))) == expected


@pytest.mark.parametrize(
    "name, k, expected", [("B3", 2, (100, (3,))), ("A3", 3, (45, (4,)))]
)
def test_multi_cluster_nonfaces_at_the_full_cap(name, k, expected):
    # (count, sizes) at one more than the facet size, the CLI and verify
    # default, where every face is built
    s = system(name)
    word = multi_cluster_word(s, tuple(range(1, s.rank + 1)), k)
    complex_ = subword_complex(s, word, longest_element(s))
    found = minimal_nonfaces(complex_, complex_.facet_size() + 1)
    assert (len(found), tuple(sorted({len(x) for x in found}))) == expected


class _CountedFacets(tuple):
    """A facet tuple that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_minimal_nonfaces_build_the_facet_bitsets_once():
    # one pass over the facets builds every vertex bitset, and the complex
    # keeps them: all_faces and the candidates at the cap share them
    _, built = hexagon()
    complex_ = replace(built, facets=_CountedFacets(built.facets))
    assert minimal_nonfaces(complex_, 3) == minimal_nonfaces(built, 3)
    assert complex_.facets.passes == 1
    assert minimal_nonfaces(complex_, 2) == minimal_nonfaces(built, 2)
    assert len(all_faces(complex_)) == 13
    assert complex_.facets.passes == 1
