import pytest
from hypothesis import given, settings, strategies as st

from subwordlab.coxeter import (
    element_from_word,
    enumerate_coxeter_words,
    equal_up_to_commutations,
    is_reduced,
    iter_all_words,
    longest_element,
    psi,
    psi_word,
    reduced_word,
)
from subwordlab.multicluster import multi_cluster_word, recognize_multi_cluster_word
from subwordlab.sorting import (
    has_sin_property,
    rotate_word,
    sorting_word,
    sorting_word_w0,
)
from helpers import (
    SCAN_TYPES,
    SMALL_TYPES,
    brute_is_sorting_word,
    brute_sin_property,
    group_by_bfs,
    system,
    word_has_suffix_up_to_commutations,
)


@pytest.mark.parametrize("name", SMALL_TYPES)
def test_reduced_word_is_the_s1_to_sn_sorting_word_on_every_element(name):
    s = system(name)
    cox = tuple(range(1, s.rank + 1))
    for element in group_by_bfs(s):
        word = reduced_word(element)
        assert word == sorting_word(s, cox, element)
        assert brute_is_sorting_word(s, cox, element, word)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["E8", "H4", "A16"]), st.data())
def test_reduced_word_is_the_s1_to_sn_sorting_word_on_drawn_elements(name, data):
    # A16 is str-coded, E8 and H4 the largest byte-coded types
    s = system(name)
    cox = tuple(range(1, s.rank + 1))
    element = element_from_word(
        s, data.draw(st.lists(st.integers(1, s.rank), max_size=40), label="word")
    )
    word = reduced_word(element)
    assert word == sorting_word(s, cox, element)
    assert brute_is_sorting_word(s, cox, element, word)


def test_the_sorting_word_oracle_refuses_every_other_word():
    a3, cox = system("A3"), (1, 2, 3)
    w0 = longest_element(a3)
    assert brute_is_sorting_word(a3, cox, w0, (1, 2, 3, 1, 2, 1))
    assert not brute_is_sorting_word(a3, cox, w0, (1, 2, 1, 3, 2, 1))  # skips s3
    assert not brute_is_sorting_word(a3, cox, w0, (1, 2, 3, 1, 2))  # not w0
    assert not brute_is_sorting_word(a3, cox, w0, (1, 2, 3, 1, 2, 1, 1))  # not reduced


def test_sorting_word_of_identity_is_empty():
    a3 = system("A3")
    assert sorting_word(a3, (1, 2, 3), a3.identity) == ()


def test_a4_sorting_word():
    a4 = system("A4")
    word = sorting_word(a4, (1, 3, 2, 4), longest_element(a4))
    assert word == (1, 3, 2, 4, 1, 3, 2, 4, 1, 3)


def test_b2_sorting_word():
    b2 = system("B2")
    assert sorting_word(b2, (1, 2), longest_element(b2)) == (1, 2, 1, 2)


def test_sorting_word_is_reduced_and_a_prefix_pattern():
    # output embeds letterwise into c, c, c, ... in scan order
    for name in ["A3", "B3", "H3", "I2(7)"]:
        s = system(name)
        for cox in enumerate_coxeter_words(s):
            word = sorting_word(s, cox, longest_element(s))
            assert is_reduced(s, word)
            assert element_from_word(s, word) == longest_element(s)
            cyclic = iter(cox * (len(word) + 1))
            for letter in word:
                for candidate in cyclic:
                    if candidate == letter:
                        break
                else:
                    pytest.fail("sorting word is not a subword of repeated c")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["A2", "A3", "B2"]), st.data())
def test_sorting_word_for_arbitrary_elements(name, data):
    s = system(name)
    cox = data.draw(st.sampled_from(enumerate_coxeter_words(s)))
    element = data.draw(st.sampled_from(sorted(group_by_bfs(s), key=lambda e: e.image)))
    word = sorting_word(s, cox, element)
    assert element_from_word(s, word) == element
    assert len(word) == element.length()


def test_phi_counts_a4():
    assert sorting_word_w0(system("A4"), (1, 3, 2, 4)).phi == {1: 3, 2: 2, 3: 3, 4: 2}


def test_phi_counts_e6():
    phi = sorting_word_w0(system("E6"), (3, 5, 4, 6, 2, 1)).phi
    assert sorted(phi.values()) == [5, 5, 6, 6, 7, 7]
    assert sum(phi.values()) == 36


def test_phi_counts_b2():
    assert sorting_word_w0(system("B2"), (1, 2)).phi == {1: 2, 2: 2}


def test_sorting_word_w0_report_structure():
    for name in ["A3", "A4", "B3", "D4", "E6"]:
        s = system(name)
        for cox in enumerate_coxeter_words(s)[:4]:
            report = sorting_word_w0(s, cox)
            assert sum(report.phi.values()) == s.number_of_positive_roots
            # nested support chain
            supports = [set(block) for block in report.factorization]
            for bigger, smaller in zip(supports, supports[1:]):
                assert smaller <= bigger
            assert tuple(
                x for block in report.factorization for x in block
            ) == report.word
            for i, block in enumerate(report.factorization, start=1):
                assert set(block) == {g for g, count in report.phi.items() if count >= i}


RANK_UP_TO_8 = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2", "H3", "H4", "I2(5)", "I2(7)", "I2(8)", "I2(128)"]
)


def test_letter_counts_follow_the_difference_relation():
    # for s before t on an edge of c, phi(s) - phi(t) is 0 when psi(s) comes
    # before psi(t) in c and 1 otherwise; with sum(phi) = N this pins phi down
    for name in RANK_UP_TO_8:
        s = system(name)
        for cox in enumerate_coxeter_words(s):
            phi = sorting_word_w0(s, cox).phi
            assert sum(phi.values()) == s.number_of_positive_roots
            position = {g: i for i, g in enumerate(cox)}
            for a in range(1, s.rank + 1):
                for b in s.neighbors[a - 1]:
                    if position[a] < position[b]:
                        gap = 0 if position[psi(s, a)] < position[psi(s, b)] else 1
                        assert phi[a] - phi[b] == gap, (name, cox, a, b)


def test_e6_block_structure():
    report = sorting_word_w0(system("E6"), (3, 5, 4, 6, 2, 1))
    sizes = [len(block) for block in report.factorization]
    assert sizes == [6, 6, 6, 6, 6, 4, 2]
    assert len(report.word) == 36
    assert report.word[:30] == (3, 5, 4, 6, 2, 1) * 5
    assert report.word[30:] == (3, 5, 4, 6, 5, 4)


def test_a1_sorting_word():
    a1 = system("A1")
    assert sorting_word_w0(a1, (1,)).word == (1,)


def test_rotate_word():
    b2, a2 = system("B2"), system("A2")
    assert rotate_word(b2, (1, 2, 1, 2, 1, 2)) == (2, 1, 2, 1, 2, 1)
    assert rotate_word(a2, (1, 2, 1)) == (2, 1, 2)


def test_rotating_multi_cluster_word_reaches_conjugate():
    # dropping the initial letter s and appending psi(s) lands, up to
    # commutations, on the multi-cluster word of the conjugated Coxeter word
    for name, k in [("A3", 1), ("A4", 1), ("B3", 2), ("D4", 1)]:
        s = system(name)
        for cox in enumerate_coxeter_words(s):
            word = multi_cluster_word(s, cox, k)
            rotated = rotate_word(s, word)
            conjugate = cox[1:] + (cox[0],)
            assert equal_up_to_commutations(
                s, rotated, multi_cluster_word(s, conjugate, k)
            )


def test_reversal_identities():
    # all three hold for every Coxeter word of A3, B3, D4
    for name in ["A3", "B3", "D4"]:
        s = system(name)
        h = s.coxeter_number
        for cox in enumerate_coxeter_words(s):
            w0c = sorting_word_w0(s, cox).word
            rev = tuple(reversed(cox))
            first = tuple(reversed(sorting_word_w0(s, psi_word(s, rev)).word))
            assert equal_up_to_commutations(s, w0c, first)
            second = w0c + tuple(reversed(sorting_word_w0(s, rev).word))
            assert equal_up_to_commutations(s, cox * h, second)
            phi = sorting_word_w0(s, cox).phi
            for g in range(1, s.rank + 1):
                assert phi[g] + phi[psi(s, g)] == h


def test_sorting_word_has_psi_image_suffix():
    for name in ["A3", "B3", "D4", "A4"]:
        s = system(name)
        for cox in enumerate_coxeter_words(s):
            word = sorting_word_w0(s, cox).word
            assert word_has_suffix_up_to_commutations(s, word, psi_word(s, cox))


def test_sin_property_examples():
    b2, a2 = system("B2"), system("A2")
    assert has_sin_property(b2, (1, 2, 1, 2, 1, 2))
    assert not has_sin_property(a2, (1, 2, 1, 1))
    assert not has_sin_property(a2, (1, 2))
    # a list is a word too
    assert has_sin_property(a2, [1, 2, 1, 2, 1])
    assert not has_sin_property(a2, [1, 2, 1, 1])


@st.composite
def sin_candidates(draw):
    """A type and a word: a multi-cluster word, which has the property, after
    a few edits that each swap two adjacent letters or double a letter, or a
    word of random letters."""
    s = system(draw(st.sampled_from(SCAN_TYPES)))
    if draw(st.booleans()):
        cox = draw(st.sampled_from(enumerate_coxeter_words(s)))
        word = list(multi_cluster_word(s, cox, draw(st.integers(0, 2))))
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, len(word) - 1))
            if draw(st.booleans()):
                word.insert(i, word[i])
            elif i + 1 < len(word):
                word[i], word[i + 1] = word[i + 1], word[i]
    else:
        size = 3 * s.number_of_positive_roots
        word = draw(st.lists(st.integers(1, s.rank), max_size=size))
    return s, tuple(word)


@settings(max_examples=300, deadline=None)
@given(sin_candidates())
def test_sin_property_matches_the_per_edge_oracle(candidate):
    s, word = candidate
    assert has_sin_property(s, word) == brute_sin_property(s, word)


def test_recognize_examples():
    b2, a2 = system("B2"), system("A2")
    assert recognize_multi_cluster_word(b2, (1, 2, 1, 2, 1, 2)) == ((1, 2), 1)
    assert recognize_multi_cluster_word(a2, (1, 2, 1, 2, 1)) == ((1, 2), 1)
    assert recognize_multi_cluster_word(a2, (1, 1, 2)) is None
    # k = 0: the bare sorting word is recognized
    assert recognize_multi_cluster_word(a2, (1, 2, 1)) == ((1, 2), 0)


def test_exhaustive_sin_equivalence_small():
    # every word either has the property and is commutation-equal to some
    # c^k * sorting word, or has neither
    for name, size in [("A2", 5), ("B2", 6)]:
        s = system(name)
        k = (size - s.number_of_positive_roots) // s.rank
        references = [
            cox * k + sorting_word_w0(s, cox).word
            for cox in enumerate_coxeter_words(s)
        ]
        for word in iter_all_words(s, size):
            expected = any(
                equal_up_to_commutations(s, word, ref) for ref in references
            )
            assert has_sin_property(s, word) == expected
            recognized = recognize_multi_cluster_word(s, word)
            assert (recognized is not None) == expected
