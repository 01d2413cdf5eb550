"""Sorting words, word rotation, and SIN recognition.

A sorting word of an element w relative to a Coxeter word c is the
lexicographically first subword of c,c,c,... that is a reduced word for w
(Reading, *Clusters, Coxeter-sortable elements and noncrossing partitions*).
The one greedy scan of c,c,c,... (``coxeter._sorting_blocks``) finds it
pass by pass; for the longest element the passes are the nested supports
K_1 >= K_2 >= ... and the letter counts phi(s) follow from them.  The same
scan for c = s1 s2 ... sn gives ``coxeter.reduced_word``, so every word the
library reads off an element is a sorting word.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from .coxeter import (
    CoxeterError,
    CoxeterSystem,
    Element,
    Word,
    _sorting_blocks,
    check_word,
    demazure_product,
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
    """The c-sorting word of w: the passes of the greedy scan, joined."""
    return tuple(s for block in _sorting_blocks(system, cox, w) for s in block)


def sorting_word_w0(system: CoxeterSystem, cox: Word) -> SortingWordReport:
    """Sorting word of the longest element, its passes and its letter counts."""
    blocks = _sorting_blocks(system, cox, longest_element(system))
    word = tuple(s for block in blocks for s in block)
    phi = {s: word.count(s) for s in range(1, system.rank + 1)}
    return SortingWordReport(word=word, phi=phi, factorization=blocks)


def rotate_word(system: CoxeterSystem, word: Word) -> Word:
    """Drop the first letter s and append psi(s)."""
    word = tuple(map(index, check_word(system, word)))
    if not word:
        raise CoxeterError("cannot rotate the empty word")
    return word[1:] + (system.psi_table[word[0] - 1],)


def has_sin_property(system: CoxeterSystem, word: Word) -> bool:
    """Strong intervening-neighbors test.

    Requires the Demazure product to be the longest element and, within the
    doubled word w + psi(w), strict alternation of every non-commuting
    generator pair.  One pass over the doubled word keeps the latest
    position of each letter: a repeated letter s fails when some neighbor
    of s has not occurred since the previous s.
    """
    word = check_word(system, word)
    if demazure_product(system, word) != longest_element(system):
        return False
    latest = [-1] * (system.rank + 1)  # -1: not seen yet, below every position
    for p, s in enumerate(word + psi_word(system, word)):
        if any(latest[t] < latest[s] for t in system.neighbors[s - 1]):
            return False
        latest[s] = p
    return True
