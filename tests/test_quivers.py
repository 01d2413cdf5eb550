import re

import pytest
from hypothesis import given, settings, strategies as st

from subwordlab import quivers, subword
from subwordlab.coxeter import (
    CoxeterError,
    ResourceLimitError,
    SignedRoot,
    element_from_word,
    enumerate_coxeter_words,
    psi_word,
)
from subwordlab.multicluster import multi_cluster_word
from subwordlab.quivers import (
    ar_quiver,
    beta_labels,
    check_mesh_relation,
    coxeter_quiver,
    export_dot,
    knitting_quiver,
    repetition_window,
)
from subwordlab.sorting import sorting_word_w0
from helpers import (
    CODE_EDGE_TYPES,
    SCAN_TYPES,
    brute_knitting_arrows,
    brute_root_table,
    commutation_class,
    linear_extension_words,
    oracle_coxeter_words,
    system,
)

A4_COX = (1, 3, 2, 4)


def test_coxeter_quiver_a2():
    q = coxeter_quiver(system("A2"), (1, 2))
    assert q.arrows == (((0, 1), (0, 2)),)


def test_coxeter_quiver_a4():
    q = coxeter_quiver(system("A4"), A4_COX)
    assert set(q.arrows) == {
        ((0, 1), (0, 2)),
        ((0, 3), (0, 2)),
        ((0, 3), (0, 4)),
    }


def test_commuting_pairs_never_joined():
    for name in ["A4", "D4", "B3"]:
        s = system(name)
        for cox in enumerate_coxeter_words(s)[:3]:
            q = coxeter_quiver(s, cox)
            for (_, a), (_, b) in q.arrows:
                assert not s.commute(a, b)
            # no loops or two-cycles
            assert all(u != v for u, v in q.arrows)
            assert not any((v, u) in q.arrows for u, v in q.arrows)


def test_a4_translation_quiver():
    q = ar_quiver(system("A4"), A4_COX)
    assert len(q.vertices) == 10
    assert len(q.arrows) == 12
    assert ((1, 1), (1, 2)) in q.arrows
    assert ((1, 2), (2, 1)) in q.arrows
    assert ((1, 3), (1, 4)) in q.arrows
    assert ((2, 4), (3, 3)) in q.arrows


def test_single_vertex_quiver():
    q = ar_quiver(system("A1"), (1,))
    assert q.vertices == ((1, 1),) and q.arrows == ()


def test_vertex_count_is_root_count():
    for name in ["A3", "B3", "D4", "H3"]:
        s = system(name)
        cox = enumerate_coxeter_words(s)[0]
        assert len(ar_quiver(s, cox).vertices) == s.number_of_positive_roots


def test_window_reproduces_marked_orbit():
    win = repetition_window(system("A4"), A4_COX, 3, origin=-2)
    assert win.shift((1, 4)) == (4, 1)
    assert win.shift(win.shift((-1, 1))) == (4, 1)
    assert win.tau((0, 1)) == (-1, 1)
    assert win.tau((-2, 1)) is None


def test_tau_and_shift_commute():
    win = repetition_window(system("A4"), A4_COX, 4)
    for vertex in win.quiver.vertices:
        shifted = win.shift(vertex)
        if shifted is None:
            continue
        down = win.tau(vertex)
        if down is None:
            continue
        assert win.tau(shifted) == win.shift(down)


def test_window_first_block_is_the_translation_quiver():
    s = system("A4")
    win = repetition_window(s, A4_COX, 3)
    block = set(win.blocks[0])
    restricted = {
        arrow
        for arrow in win.quiver.arrows
        if arrow[0] in block and arrow[1] in block
    }
    base = ar_quiver(s, A4_COX)
    assert block == set(base.vertices)
    assert restricted == set(base.arrows)


def test_repetition_window_checks_its_budget_up_front(monkeypatch):
    # A2 has 3 positive roots, so 3 copies are 9 vertices, over a limit of 8
    a2 = system("A2")
    monkeypatch.setattr(subword, "MAX_FACES", 8)
    assert len(repetition_window(a2, (1, 2), 2).quiver.vertices) == 6
    monkeypatch.setattr(quivers, "sorting_word_w0", lambda *args: pytest.fail("built"))
    with pytest.raises(ResourceLimitError) as caught:
        repetition_window(a2, (1, 2), 3)
    assert str(caught.value) == "A2 with 3 copies has 9 vertices, more than the limit of 8"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SCAN_TYPES), st.data())
def test_knitting_matches_the_per_edge_oracle(name, data):
    s = system(name)
    word = tuple(data.draw(st.lists(st.integers(1, s.rank), max_size=40)))
    origin = data.draw(st.integers(-3, 3))
    assert knitting_quiver(s, word, origin).arrows == brute_knitting_arrows(s, word, origin)


def test_linear_extensions_are_the_commutation_class():
    # the knitted quiver of a multi-cluster word is exactly adapted to it
    for name, k in [("A2", 1), ("B2", 1), ("A3", 1)]:
        s = system(name)
        cox = enumerate_coxeter_words(s)[0]
        word = multi_cluster_word(s, cox, k)
        quiver = knitting_quiver(s, word)
        assert linear_extension_words(s, quiver) == commutation_class(s, word)


def test_theta_matches_inverse_translate_labels():
    # within the window labeling, the next-occurrence action increments the
    # occurrence index, wrapping onto the first occurrence of the psi-image
    from subwordlab.multicluster import theta_permutation

    for name, cox, k in [("A4", A4_COX, 1), ("B3", (1, 2, 3), 2)]:
        s = system(name)
        word = multi_cluster_word(s, cox, k)
        perm = theta_permutation(s, cox, k)
        seen: dict[int, int] = {}
        labels = []
        for letter in word:
            seen[letter] = seen.get(letter, 0) + 1
            labels.append((seen[letter], letter))
        for p, (occurrence, letter) in enumerate(labels, start=1):
            target = labels[perm[p - 1] - 1]
            if occurrence < seen[letter]:
                assert target == (occurrence + 1, letter)
            else:
                assert target == (1, s.psi_table[letter - 1])


# ---------------------------------------------------------------------------
# Root labels and the mesh relation

def test_beta_labels_first_letter():
    a3 = system("A3")
    word = multi_cluster_word(a3, (2, 1, 3), 1)
    labels = beta_labels(a3, word)
    assert labels[0] == SignedRoot(1, 1)  # alpha_2


def test_beta_labels_b2():
    b2 = system("B2")
    labels = beta_labels(b2, multi_cluster_word(b2, (1, 2), 1))
    by_vec = {tuple(v): i for i, v in enumerate(b2.positive_roots)}
    expected_heads = [
        SignedRoot(by_vec[(1, 0)], 1),
        SignedRoot(by_vec[(1, 1)], 1),
        SignedRoot(by_vec[(1, 2)], 1),
        SignedRoot(by_vec[(0, 1)], 1),
    ]
    assert list(labels[:4]) == expected_heads
    # the longest element is central here, so the next block negates the first
    assert list(labels[4:8]) == [
        SignedRoot(r.root, -r.sign) for r in labels[:4]
    ]


def test_beta_labels_need_sin():
    a2 = system("A2")
    with pytest.raises(CoxeterError):
        beta_labels(a2, (1, 1, 2))


def test_mesh_relation_a1():
    a1 = system("A1")
    assert check_mesh_relation(a1, (1, 1))


def test_mesh_relation_small_words():
    a2 = system("A2")
    assert check_mesh_relation(a2, (1, 2, 1, 2, 1))
    assert check_mesh_relation(a2, [1, 2, 1, 2, 1])  # a list word passes the SIN test
    b2 = system("B2")
    assert check_mesh_relation(b2, multi_cluster_word(b2, (1, 2), 1))


@pytest.mark.parametrize("name", ["A3", "B2", "B3", "I2(7)"])
@pytest.mark.parametrize("k", [1, 2])
def test_mesh_relation_multi_cluster_words(name, k):
    s = system(name)
    for cox in enumerate_coxeter_words(s):
        assert check_mesh_relation(s, multi_cluster_word(s, cox, k))


@pytest.mark.parametrize("name, exact", [("B3", True), ("I2(7)", False)])
def test_mesh_relation_fails_on_a_negated_label(monkeypatch, name, exact):
    # position 1 is the left end of a site, so -beta_1 moves its sum by
    # 2 beta_1; I2(7) takes the within-1e-9 comparison
    s = system(name)
    assert s.exact is exact
    word = multi_cluster_word(s, enumerate_coxeter_words(s)[0], 1)
    assert check_mesh_relation(s, word)
    real = quivers.root_table

    def negate_first(system, word, facet):
        labels = real(system, word, facet)
        return (SignedRoot(labels[0].root, -labels[0].sign),) + labels[1:]

    monkeypatch.setattr(quivers, "root_table", negate_first)
    assert not check_mesh_relation(s, word)


@pytest.mark.parametrize(
    "name, k",
    [(name, k) for name in ("A3", "B3", "H3", "D4", "I2(7)") for k in (1, 2)]
    + [(name, 1) for name in CODE_EDGE_TYPES],
)
def test_beta_labels_match_the_root_table_oracle(name, k):
    s = system(name)
    for cox in oracle_coxeter_words(s):
        word = multi_cluster_word(s, cox, k)
        assert beta_labels(s, word) == brute_root_table(
            s, word + psi_word(s, word), ()
        )


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([("A3", 1), ("A3", 2), ("B3", 1), ("B3", 2), ("I2(7)", 1), ("D4", 1),
                     ("H3", 1), ("F4", 1), ("E6", 1)]),
    st.data(),
)
def test_labels_past_the_doubled_word_move_by_its_product(instance, data):
    # over the twice-doubled word d d, label p + |d| is label p moved by the
    # product of d, against the Element-product oracle
    name, k = instance
    s = system(name)
    word = multi_cluster_word(s, data.draw(st.sampled_from(enumerate_coxeter_words(s))), k)
    labels = beta_labels(s, word)
    doubled = word + psi_word(s, word)
    moved = element_from_word(s, doubled)
    assert brute_root_table(s, doubled + doubled, ()) == labels + tuple(
        moved.apply(*label) for label in labels
    )


def test_beta_labels_do_not_repeat_past_the_doubled_word():
    # on A3 k=1 with c = s1s2s3 the product of d is no identity, so the
    # labels of d d are no two copies of the labels of d
    a3 = system("A3")
    word = multi_cluster_word(a3, (1, 2, 3), 1)
    doubled = word + psi_word(a3, word)
    labels = quivers.root_table(a3, doubled + doubled, ())
    assert labels[len(doubled):] != labels[:len(doubled)]


def test_beta_labels_stay_in_the_root_system():
    # built into the representation: labels are signed root indices; check
    # the index range across a long window for a crystallographic type
    s = system("B3")
    labels = beta_labels(s, multi_cluster_word(s, (1, 2, 3), 3))
    assert all(0 <= r.root < s.number_of_positive_roots for r in labels)


# ---------------------------------------------------------------------------
# DOT export

def test_export_dot_single_vertex():
    dot = export_dot(ar_quiver(system("A1"), (1,)))
    assert dot == 'digraph quiver {\n  "(1,s1)";\n}\n'


def test_export_dot_roundtrip():
    q = ar_quiver(system("A4"), A4_COX)
    dot = export_dot(q, name="ar")
    nodes = re.findall(r'^\s*"\((-?\d+),s(\d+)\)";$', dot, flags=re.M)
    arrows = re.findall(
        r'^\s*"\((-?\d+),s(\d+)\)" -> "\((-?\d+),s(\d+)\)";$', dot, flags=re.M
    )
    assert {(int(i), int(s)) for i, s in nodes} == set(q.vertices)
    assert {
        ((int(a), int(b)), (int(c), int(d))) for a, b, c, d in arrows
    } == set(q.arrows)
    assert dot == export_dot(q, name="ar")  # deterministic
