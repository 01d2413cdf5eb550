"""Sorting words, letter-count solving, word rotation, and SIN recognition.

A sorting word of an element w relative to a Coxeter word c is the
lexicographically first subword of c,c,c,... that is a reduced word for w.
For the longest element the letter multiplicities phi(s) satisfy a difference
relation along each Coxeter-graph edge, which pins the whole word down by a
single linear solve; both routes are implemented and cross-checked in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxeter import (
    CoxeterError,
    CoxeterSystem,
    Element,
    Word,
    check_coxeter_word,
    check_word,
    demazure_product,
    equal_up_to_commutations,
    longest_element,
    psi_word,
)


@dataclass(frozen=True)
class SortingWordReport:
    """Sorting word of the longest element plus its letter-count data.

    ``factorization`` lists the nested support sets K_1 >= K_2 >= ... as
    subwords of c, so concatenating them reproduces ``word``.
    """

    word: Word
    phi: dict[int, int]
    factorization: tuple[Word, ...]


def sorting_word(system: CoxeterSystem, cox: Word, w: Element) -> Word:
    """Greedy scan of c,c,c,...: take a letter whenever it shortens the rest."""
    check_coxeter_word(system, cox)
    identity = system.identity.image
    top = system.codes[system.number_of_positive_roots]
    out: list[int] = []
    rest = w.inverse().image  # inverse of the still-unwritten right factor
    passes = 0
    while rest != identity:
        for s in cox:
            if rest[s:s + 1] > top:  # s starts a reduced word of the rest
                out.append(s)
                rest = system.right_multiply(rest, s)
        passes += 1
        if passes > system.number_of_positive_roots + 1:
            raise CoxeterError("sorting scan failed to terminate")
    return tuple(out)


def phi_counts(system: CoxeterSystem, cox: Word) -> dict[int, int]:
    """Letter multiplicities of the sorting word of the longest element.

    Along each graph edge with s before t in c the counts differ by 0 or 1
    according to whether psi(s) comes before psi(t) in c; propagating those
    differences over the (tree) graph and fixing the total at N solves them.
    """
    check_coxeter_word(system, cox)
    n = system.rank
    pos = {s: i for i, s in enumerate(cox)}
    diff = {cox[0]: 0}
    stack = [cox[0]]
    while stack:
        u = stack.pop()
        for v in system.neighbors[u - 1]:
            if v in diff:
                continue
            s, t = (u, v) if pos[u] < pos[v] else (v, u)
            gap = 0 if pos[system.psi_table[s - 1]] < pos[system.psi_table[t - 1]] else 1
            # phi(s) - phi(t) = gap
            diff[v] = diff[u] - gap if u == s else diff[u] + gap
            stack.append(v)
    total = system.number_of_positive_roots
    base, remainder = divmod(total - sum(diff.values()), n)
    if remainder:
        raise CoxeterError("letter counts do not solve to integers")
    phi = {s: base + diff[s] for s in range(1, n + 1)}
    if any(count < 1 for count in phi.values()) or sum(phi.values()) != total:
        raise CoxeterError("letter-count solve is inconsistent")
    return phi


def sorting_word_w0(system: CoxeterSystem, cox: Word) -> SortingWordReport:
    """Sorting word of the longest element assembled from the letter counts."""
    phi = phi_counts(system, cox)
    depth = max(phi.values())
    blocks = tuple(
        tuple(s for s in cox if phi[s] >= i) for i in range(1, depth + 1)
    )
    word = tuple(s for block in blocks for s in block)
    return SortingWordReport(word=word, phi=phi, factorization=blocks)


def rotate_word(system: CoxeterSystem, word: Word) -> Word:
    """Drop the first letter s and append psi(s)."""
    check_word(system, word)
    if not word:
        raise CoxeterError("cannot rotate the empty word")
    return word[1:] + (system.psi_table[word[0] - 1],)


def has_sin_property(system: CoxeterSystem, word: Word) -> bool:
    """Strong intervening-neighbors test.

    Requires the Demazure product to be the longest element and, within the
    doubled word w + psi(w), strict alternation of every non-commuting
    generator pair.
    """
    check_word(system, word)
    if demazure_product(system, word) != longest_element(system):
        return False
    doubled = word + psi_word(system, word)
    for s in range(1, system.rank + 1):
        for t in system.neighbors[s - 1]:
            if t < s:
                continue
            previous = 0
            for x in doubled:
                if x == s or x == t:
                    if x == previous:
                        return False
                    previous = x
    return True


def recognize_multi_cluster_word(
    system: CoxeterSystem, word: Word
) -> tuple[Word, int] | None:
    """Recover (c, k) such that ``word`` equals c^k * sorting word, up to commutations.

    Returns None when the word lacks the strong intervening-neighbors
    property.  The Coxeter word is read off from the first occurrences, and
    the reconstruction is verified via the commutation canonical form.
    """
    if not has_sin_property(system, word):
        return None
    extra = len(word) - system.number_of_positive_roots
    if extra < 0 or extra % system.rank:
        return None
    k = extra // system.rank
    seen: list[int] = []
    for s in word:
        if s not in seen:
            seen.append(s)
    cox = tuple(seen)
    if len(cox) != system.rank:
        return None
    target = cox * k + sorting_word_w0(system, cox).word
    if not equal_up_to_commutations(system, word, target):
        return None
    return cox, k
