"""Quivers from Coxeter words: orientation quivers, knitted translation
quivers of sorting words, windows of the bi-infinite repetition quiver, root
labels along doubled words, and the mesh relation.

Vertices are (occurrence index, generator) pairs.  The occurrence index
counts occurrences of that generator from the start of the underlying word;
windows may shift the starting value to reproduce two-sided pictures.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxeter import (
    CoxeterError,
    CoxeterSystem,
    SignedRoot,
    Word,
    _read_int,
    check_budget,
    check_coxeter_word,
    check_word,
    occurrence_indices,
    psi_word,
)
from . import subword
from .sorting import has_sin_property, sorting_word_w0
from .subword import root_table

Vertex = tuple  # (occurrence index, generator)


@dataclass(frozen=True)
class Quiver:
    """Directed graph without loops or two-cycles."""

    vertices: tuple[Vertex, ...]
    arrows: tuple[tuple[Vertex, Vertex], ...]


def coxeter_quiver(system: CoxeterSystem, cox: Word) -> Quiver:
    """The knitting of c at occurrence index 0, vertices sorted: one vertex
    per generator, and s -> t when the neighbors s, t have s first in c."""
    cox = check_coxeter_word(system, cox)
    quiver = knitting_quiver(system, cox, 0)
    return Quiver(tuple(sorted(quiver.vertices)), quiver.arrows)


def knitting_quiver(system: CoxeterSystem, word: Word, origin: int = 1) -> Quiver:
    """Knit a word: arrows join consecutive occurrences of graph neighbors.

    The j-th occurrence of generator s becomes vertex (origin + j - 1, s).
    One pass keeps the latest position of each letter: at a position p with
    letter s, each neighbor t whose latest occurrence comes after the latest
    s gives the arrow from that t to p.
    """
    word = check_word(system, word)
    origin = _read_int(origin, "origin")
    labels = tuple((origin + j - 1, s) for s, j in zip(word, occurrence_indices(word)))
    latest = [-1] * (system.rank + 1)  # -1: not seen yet, below every position
    arrows = []
    for p, s in enumerate(word):
        for t in system.neighbors[s - 1]:
            if latest[t] > latest[s]:
                arrows.append((labels[latest[t]], labels[p]))
        latest[s] = p
    return Quiver(labels, tuple(sorted(arrows)))


def ar_quiver(system: CoxeterSystem, cox: Word) -> Quiver:
    """Knitting of the sorting word of the longest element."""
    return knitting_quiver(system, sorting_word_w0(system, cox).word)


class RepetitionWindow:
    """A finite window of the bi-infinite repetition quiver.

    Blocks alternate between the sorting word of the longest element and its
    psi image; the translate decrements the occurrence index, while the shift
    moves a letter to the same in-block position one block later.  Both
    refuse a vertex outside the window.
    """

    def __init__(self, quiver: Quiver, blocks: tuple[tuple[Vertex, ...], ...]):
        self.quiver = quiver
        self.blocks = blocks
        self._block_position = {
            vertex: (b, j)
            for b, block in enumerate(blocks)
            for j, vertex in enumerate(block)
        }

    def _place(self, vertex: Vertex) -> tuple[int, int]:
        """The block of a vertex of the window and its position in the block."""
        try:
            return self._block_position[vertex]
        except (KeyError, TypeError):
            raise CoxeterError(f"vertex {vertex!r} is not in the window") from None

    def tau(self, vertex: Vertex) -> Vertex | None:
        """Translate: (i, s) -> (i - 1, s) when still inside the window."""
        self._place(vertex)
        image = (vertex[0] - 1, vertex[1])
        return image if image in self._block_position else None

    def shift(self, vertex: Vertex) -> Vertex | None:
        """The same block position one block to the right, if present."""
        b, j = self._place(vertex)
        if b + 1 >= len(self.blocks):
            return None
        return self.blocks[b + 1][j]


def repetition_window(
    system: CoxeterSystem, cox: Word, copies: int, origin: int = 1
) -> RepetitionWindow:
    """Knit ``copies`` alternating blocks, starting with the sorting word.

    ``origin`` sets the occurrence index given to the first occurrence of
    each generator, which lets callers center the window wherever they like.
    Each block has N vertices, N the number of positive roots, and more than
    ``MAX_FACES`` vertices in all raise ``ResourceLimitError`` before any
    block is built.
    """
    cox = check_coxeter_word(system, cox)
    copies = _read_int(copies, "copies")
    if copies < 1:
        raise CoxeterError("need at least one block")
    origin = _read_int(origin, "origin")
    check_budget(
        copies * system.number_of_positive_roots, subword.MAX_FACES,
        f"{system.descriptor.name()} with {copies} copies", "vertices",
    )
    base = sorting_word_w0(system, cox).word
    words = [base if b % 2 == 0 else psi_word(system, base) for b in range(copies)]
    full = tuple(s for w in words for s in w)
    quiver = knitting_quiver(system, full, origin)
    size = len(base)  # the vertices are the letters of ``full``, in order
    blocks = tuple(quiver.vertices[b * size:(b + 1) * size] for b in range(copies))
    return RepetitionWindow(quiver, blocks)


# ---------------------------------------------------------------------------
# Root labels and the mesh relation

def beta_labels(system: CoxeterSystem, word: Word) -> tuple[SignedRoot, ...]:
    """Signed roots along the doubled word w + psi(w).

    The label at a position applies the product of all earlier letters to the
    simple root of its own letter, which is the root table on no facet.
    Beyond the doubled word d the labels do not repeat: label p + |d| is
    label p moved by the product of d, which is why ``check_mesh_relation``
    walks the twice-doubled word.
    """
    word = check_word(system, word)
    if not has_sin_property(system, word):
        raise CoxeterError("root labels need the strong intervening-neighbors property")
    return root_table(system, word + psi_word(system, word), ())


def check_mesh_relation(system: CoxeterSystem, word: Word) -> bool:
    """At every site, two consecutive occurrences left < right of a generator
    s, the column sum beta_left + beta_right + sum_q a_{s,t_q} beta_q over the
    positions left < q < right vanishes, where beta is the signed root vector
    of a label, t_q the letter at q and a the Cartan matrix.

    Sites wrapping past the doubled word read the root table over the
    twice-doubled word, on no facet: a literal copy of the labels would
    twist every label of the next window by the doubled-word product and
    break the relation at the seam.  Exact over exact systems; general
    dihedral systems compare within 1e-9.
    """
    word = check_word(system, word)
    if not has_sin_property(system, word):
        raise CoxeterError("the mesh relation needs the strong intervening-neighbors property")
    doubled = word + psi_word(system, word)
    period = len(doubled)
    extended = doubled + doubled
    labels = root_table(system, extended, ())
    roots = system.positive_roots
    zero = (0,) * system.rank
    for s in range(1, system.rank + 1):
        row = system.cartan[s - 1]
        occurrences = [p for p, x in enumerate(extended) if x == s]
        for left, right in zip(occurrences, occurrences[1:]):
            if left >= period:
                break
            column = [(1, left), (1, right)]
            column += [(row[extended[q] - 1], q) for q in range(left + 1, right)]
            total = tuple(
                sum(a * labels[p].sign * roots[labels[p].root][i] for a, p in column)
                for i in range(system.rank)
            )
            if not _vector_close(system, total, zero):
                return False
    return True


def _vector_close(system: CoxeterSystem, a, b) -> bool:
    if system.exact:
        return a == b
    return all(abs(float(x) - float(y)) < 1e-9 for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# DOT export

def export_dot(quiver: Quiver, name: str = "quiver") -> str:
    """Deterministic DOT rendering with vertices named "(i,s)"."""
    label = "({0[0]},s{0[1]})".format  # the vertex (i, s) as "(i,si)"
    arrows = [(label(src), label(dst)) for src, dst in sorted(quiver.arrows)]
    return subword._dot(f"digraph {name}", map(label, sorted(quiver.vertices)), arrows, "->")
