"""Subword complexes: face tests, facet enumeration, root functions, flips.

The complex on a word Q with target element pi has as faces the position
sets whose complement in Q still contains a reduced word for pi.  Positions
are 1-based throughout, facets are sorted position tuples, and the facet
list is sorted lexicographically so all outputs are deterministic.  One
greedy scan, ``_rightmost_reduced_word``, decides that question: ``is_face``
runs it on the complement of a face, the facet kernel on the whole word.

Facets come from one kernel, ``_facet_search``, a generator that only
searches: it yields each facet with its number of negative roots.
``subword_complex`` alone collects, tallies and budgets them, under
``MAX_FACES``.  Every nonempty subword complex is a ball or a sphere
(Knutson-Miller), so the Upper Bound Theorem bounds its facet count by the
word length and the facet size alone (``_upper_bound``).  Where that bound
passes the budget and |W| = prod(degrees) fits it, ``facet_count`` counts
the facets exactly, and too many are refused before the search; where |W|
does not fit, ``subword_complex`` first takes at most ``MAX_FACES + 1``
facets from the stream without keeping them and refuses a complex that
yields them all, so a refused complex never holds a facet list.  The kernel
is a reverse search over increasing flips from the greedy facet, whose
parent rule is the canonical spanning tree of the increasing flip graph
(Pilaud-Stump, arXiv:1210.1435), so no facet is found twice and no dead end
is explored.  It carries each facet's root table as a sequence of signed-root
codes with the facet positions blanked, and the roots at the facet
positions as a second one; one root reflection per flip updates both.  A
facet's children are found by a fixed number of C-level calls
(``translate``, ``find``), not by a Python loop over its positions, and a
child with no children of its own is yielded without being pushed.
``flip`` and ``root_table`` stay the public single-facet calls.  The
``root_table`` walk carries the image of the prefix and at most one
complement letter not yet multiplied in, reads each root from them by
index, and does one ``translate`` per two complement letters, in one loop
per encoding (``bytes`` or ``str``), so no position tests the encoding;
it checks the word by one C-level pass over its letters (``check_word``)
and reads the positions as one set of ints (``operator.index``).  One
flip is one walk, one sorted list of the facet's positions as ints, one
``index`` of q in it, one C-level scan (``count``, ``index``) of the
table's root indices, facet entries set to -1, for the partner, and one
re-sort with the partner in q's slot.

``flip_graph`` calls ``flip`` once per (facet, q).  Facets are independent
units of that work, so once it passes ``_FORK_UNITS`` (facets x facet size
x letters of the completed word; 50,000, where a split was measured to beat
the serial path) and ``os.fork`` exists, the facets are cut into contiguous
chunks, one per usable CPU (``os.sched_getaffinity`` where it exists, else
``os.cpu_count``): this process builds the first chunk's rows and a forked
child each other chunk's (``_in_workers``).  A child writes its rows to a
pipe with one ``marshal.dump``, loaded here once the child has exited 0.
The rows are joined in chunk order, so the graph, and its DOT text, are the
same for every number of workers, one included.

``facet_counts`` counts the facets on words without finding them, under a
budget of |W| <= ``MAX_FACES`` states checked before it starts: a head
swept forwards from the identity meets a tail swept backwards from the
target.  One ``_Numbering`` per call numbers the elements as they are
reached, keeping each by the first 2N + 1 codes of its image, and stores
each move u -> u*s with its inverse, v for an ascent and ~v for a descent;
its one step applies a letter to a dict of payloads, forwards by ascents or
backwards by descents.

Face counts never materialise the faces: ``subword_complex`` tallies the
h-vector of the lexicographic shelling from the negative-root counts of the
stream and keeps it as ``SubwordComplex.h``, so ``f_vector`` walks nothing.
Each complex keeps one bitset per vertex of the facets that contain it
(``SubwordComplex.facet_bitsets``), built on first use.  ``all_faces``
builds the faces up to a size cap from them, under the ``MAX_FACES``
budget, as sorted position tuples like the facets.  ``minimal_nonfaces``
builds the faces only up to one below its cap and joins each two faces that
differ in their last vertex only; one AND of facet bitsets, carried along
the walk, decides whether a join is a face, so no face of the cap size is
built.
"""

from __future__ import annotations

import marshal
import os
import signal
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from math import comb, prod
from operator import index as as_int, itemgetter

from .coxeter import (
    CoxeterError,
    CoxeterSystem,
    Element,
    SignedRoot,
    Word,
    _read_int,
    check_budget,
    check_element,
    check_word,
    demazure_product,
    longest_element,
    reduced_word,
)

MAX_FACES = 10**6

Facet = tuple  # of 1-based positions, sorted ascending

_root_index = itemgetter(0)  # SignedRoot.root


def _position_set(word: Word, positions) -> set:
    """The positions as a set of ints: integers, none repeated, each in the word."""
    positions = tuple(positions)
    try:
        ordered = sorted(map(as_int, positions))  # cheaper than min and max
    except TypeError:
        bad = next(p for p in positions if not hasattr(p, "__index__"))
        raise CoxeterError(f"position {bad!r} is not an integer") from None
    inside = set(ordered)
    if len(inside) != len(ordered):
        raise CoxeterError("duplicate positions")
    if ordered and not (1 <= ordered[0] and ordered[-1] <= len(word)):
        raise CoxeterError("position out of range")
    return inside


def _complement(word: Word, drop: set) -> Word:
    return tuple(s for p, s in enumerate(word, start=1) if p not in drop)


def _rightmost_reduced_word(system: CoxeterSystem, word: Word, goal) -> int | None:
    """The positions of the rightmost reduced word in ``word`` for the element
    with image ``goal``, as a bitmask (bit p for position p), or None when
    the word holds none.

    By the lifting property, if s is a right descent of u, then Q*s holds a
    reduced word for u exactly when Q holds one for u*s; otherwise, exactly
    when Q holds one for u.  So, right to left from u = goal, each letter
    that is a right descent of u is taken and u becomes u*s, and the word
    holds a reduced word for goal exactly when u ends at the identity.
    """
    right_multiply = system.right_multiply
    top = system.last_positive
    u = goal
    taken = 0
    for p in range(len(word), 0, -1):
        s = word[p - 1]
        if u[s:s + 1] > top:
            u = right_multiply(u, s)
            taken |= 1 << p
    return taken if u == system.identity.image else None


def is_face(system: CoxeterSystem, word: Word, target: Element, positions) -> bool:
    """Does the complement of ``positions`` still contain a reduced word for target?

    Refusals come in the order of the checks: a letter out of range, an
    element of another type, then a position that is no integer, duplicate
    positions or a position out of range.  The complement is then read by
    the kernel's greedy scan (``_rightmost_reduced_word``).
    """
    word = check_word(system, word)
    check_element(system, target)
    rest = _complement(word, _position_set(word, positions))
    return _rightmost_reduced_word(system, rest, target.image) is not None


def _facet_search(
    system: CoxeterSystem, word: Word, target: Element
) -> Iterator[tuple[Facet, int]]:
    """Each facet with its number of negative roots, in search order, by a
    reverse search over increasing flips from the greedy facet.

    The greedy facet (Pilaud-Pocchiola) leaves out the rightmost reduced
    word for target, read by the scan that ``is_face`` reads too
    (``_rightmost_reduced_word``).  Nothing is yielded when the word holds
    no reduced word for target.

    The search runs over ``reduce_to_w0(word, target)``, whose facets that
    avoid the appended completion are the facets of the complex.  There the
    complement of a facet carries each positive root once, so the flip
    partner of q is the one complement position carrying |r(I, q)|: right
    of q when r(I, q) is positive, left of it when negative.  A partner in
    the completion is a boundary wall.  Flipping q to q' changes the root
    table only at the positions min(q, q') < p <= max(q, q'), by the
    reflection in that root (CLS, Lemma 3.6; Pilaud-Stump).

    The parent rule is the canonical spanning tree of the increasing flip
    graph (Pilaud-Stump, arXiv:1210.1435).  The greedy facet is the one
    facet with no negative root at its own positions.  Every other facet
    has exactly one parent, the flip at its last position L with a negative
    root, which is lexicographically smaller; so the children of a facet
    are its increasing flips q -> q' with q' beyond its own L, and a
    child's L is q'.  Each facet is thus reached once and no set of seen
    facets is kept.

    A facet is carried as its positions, its root table with the facet
    positions blanked to code 0 (``outer``) and the roots at its positions
    in order (``roots``), all as sequences of signed-root codes (``bytes``
    or ``str``, see ``CoxeterSystem.codes``).  Reflections fix code 0, so a
    flip updates both sequences with one ``translate`` each, and the
    partner of a positive root is its one occurrence in ``outer``.  The
    children are then the roots that reappear in ``outer`` between L and
    the end of the word: one ``translate`` by a ``maketrans`` of that tail
    marks them and a ``find`` loop reads the marks in position order, with
    no Python loop over the positions of the facet.  A flip leaves the
    table right of q' alone, so a child none of whose roots occur there in
    its parent's table, one deleting ``translate``, is a leaf: it is
    yielded but never pushed, and its ``outer`` is never built.  The
    negative roots of a facet are one ``translate`` of ``roots`` to signs
    and one ``count``.
    """
    r = len(word)
    codes, reflections = system.codes, system.reflections
    outside = _rightmost_reduced_word(system, word, target.image)  # the seed's complement
    if outside is None:
        return
    seed = tuple(p for p in range(1, r + 1) if not outside >> p & 1)
    inside = set(seed)
    walk = _root_walk(
        system, reduce_to_w0(system, word, target), inside, range(len(codes))
    )
    encode = system.encode_codes
    blank, minus = codes[0], codes[1]  # blank is the code no root has
    maketrans, join = type(blank).maketrans, blank[:0].join
    as_bytes = isinstance(blank, bytes)
    signs = system.signs  # positive codes to blank, negative ones to minus
    roots = encode([walk[p - 1] for p in seed])
    yield seed, roots.translate(signs).count(minus)
    # (facet, outer, roots, L) of the facets that may have children
    stack = [(
        seed,
        encode([0] + [0 if p in inside else c for p, c in enumerate(walk, 1)]),
        roots,
        0,
    )]
    while stack:
        facet, outer, roots, last = stack.pop()
        tail = outer[last + 1:r + 1]
        marked = roots.translate(maketrans(tail, blank * len(tail)))
        i = marked.find(blank)
        while i >= 0:  # flip facet[i] to p, its partner in the tail
            root = roots[i:i + 1]
            p = outer.find(root, last + 1)
            j = bisect_right(facet, p, i + 1)  # facet[i + 1:j] lie between
            reflect = reflections[ord(root) - 1]
            child = facet[:i] + facet[i + 1:j] + (p,) + facet[j:]
            flipped = (roots[i + 1:j] + root).translate(reflect)  # -root lands at p
            child_roots = join((roots[:i], flipped, roots[j:]))
            yield child, child_roots.translate(signs).count(minus)
            beyond = outer[p + 1:r + 1]
            kept = (
                child_roots.translate(None, beyond) if as_bytes
                else child_roots.translate(maketrans("", "", beyond))
            )
            if len(kept) < len(child_roots):
                q = facet[i]
                moved = outer[q + 1:p].translate(reflect)
                child_outer = join((outer[:q], root, moved, blank, outer[p + 1:]))
                stack.append((child, child_outer, child_roots, p))
            i = marked.find(blank, i + 1)


def _subject(system: CoxeterSystem, letters: int) -> str:
    """How a budget refusal names a complex: its word length and its type."""
    return f"the complex on a word of {letters} letters in {system.descriptor.name()}"


def _upper_bound(n: int, d: int) -> int:
    """The facet count of the cyclic d-polytope on n vertices,
    C(n - ceil(d/2), floor(d/2)) + C(n - floor(d/2) - 1, ceil(d/2) - 1), and
    1 when d <= 0.

    By Stanley's Upper Bound Theorem (1975) no simplicial (d-1)-sphere on n
    vertices has more facets.  Knutson-Miller (arXiv:math/0309259) show that
    every nonempty subword complex with facets of size d is a vertex
    decomposable (d-1)-ball or sphere.  Coning the boundary of a ball with
    one new vertex gives a sphere that holds the ball's facets, so a complex
    on a word of r letters has at most ``_upper_bound(r + 1, d)`` facets.
    With d <= 0 the only possible facet is the empty one.
    """
    if d <= 0:
        return 1
    low, high = d // 2, (d + 1) // 2
    return comb(n - high, low) + comb(n - low - 1, high - 1)


def _root_walk(system: CoxeterSystem, word: Word, inside: set, names) -> list:
    """``names[c]`` for the code c of r(I, p) at every position p, in order,
    the facet I being the set ``inside``.

    The product of the complement letters left of p is carried as the image
    of a prefix w and at most one pending letter t not multiplied in yet.
    The root r(I, p) = (w*t)(alpha_s) = w(t(alpha_s)) is entry t(alpha_s)
    of w's image: entry s of the table of t, then one index into the image
    (with nothing pending, entry s of the image).  At a complement letter s
    with t pending, the prefix becomes w*t*s: one ``translate`` of
    ``CoxeterSystem.pair_cuts[t][s]``, the table of t*s cut to its 2N + 1
    codes, and the fixed tail.  With nothing pending, s becomes pending; a
    letter still pending at the end is never read, so it is never
    multiplied in.  That is one ``translate`` per two complement letters.

    There is one loop per encoding, chosen once per walk, so no read tests
    the encoding: on ``bytes`` systems an item is its code, an int; on
    ``str`` systems it is a one-character str, which the second loop reads
    through ``ord``.
    """
    cuts, pairs, tail = system.cuts, system.pair_cuts, system.tail
    w = system.identity.image
    out = []
    append = out.append
    t = 0  # the pending complement letter, 0 for none
    if isinstance(w, bytes):
        for p, s in enumerate(word, start=1):
            if t:  # r(I, p) = w(t(alpha_s))
                append(names[w[cuts[t][s]]])
                if p not in inside:
                    w = pairs[t][s].translate(w) + tail
                    t = 0
            else:
                append(names[w[s]])
                if p not in inside:
                    t = s
        return out
    for p, s in enumerate(word, start=1):  # str codes, read through ord
        if t:
            append(names[ord(w[ord(cuts[t][s])])])
            if p not in inside:
                w = pairs[t][s].translate(w) + tail
                t = 0
        else:
            append(names[ord(w[s])])
            if p not in inside:
                t = s
    return out


def root_table(
    system: CoxeterSystem, word: Word, facet
) -> tuple[SignedRoot, ...]:
    """Root function values at every position, for one facet.

    Position q is sent to w(alpha_q) where w multiplies the complement
    letters strictly left of q.  The walk carries the image of w, which
    each two complement letters update with one ``translate``, and reads
    each root from it by index, through the table of a letter still pending
    (see ``_root_walk``).  The word is checked by ``check_word``, and one
    set of the facet positions serves both their checks and the walk.
    """
    word = check_word(system, word)
    inside = _position_set(word, facet)
    return tuple(_root_walk(system, word, inside, system.signed_roots))


def flip(
    system: CoxeterSystem, word: Word, facet, q: int
) -> tuple[Facet, int]:
    """Exchange q for the unique outside position carrying the same root.

    The one ``root_table`` walk checks the word and the positions; then the
    facet and q are read through ``operator.index`` as ints, the facet into
    one sorted list, where one ``index`` finds q.  The partner scan is one
    C-level scan (``count``, ``index``) of the table's root indices with the
    facet entries set to -1, which no root has: ``count`` gives the number
    of outside positions carrying the root of q, up to sign, and ``index``
    the one partner; only a refusal lists them, in position order.  The
    partner takes q's slot and the list is sorted again, so the result is
    ints.  Only spherical complexes guarantee existence and uniqueness;
    both are checked and violations raise.  Refusals come in the order of
    these steps: a letter out of range, a position that is no integer,
    duplicate positions, a position out of range, then a q that is no
    integer, q not in the facet, then no partner or more than one.
    """
    facet = tuple(facet)
    roots = list(map(_root_index, root_table(system, word, facet)))
    facet = sorted(map(as_int, facet))
    try:
        q = as_int(q)
    except TypeError:
        raise CoxeterError(f"position {q!r} is not an integer") from None
    try:
        i = facet.index(q)
    except ValueError:
        raise CoxeterError(f"position {q} is not in the facet") from None
    wanted = roots[q - 1]
    for p in facet:
        roots[p - 1] = -1
    if roots.count(wanted) != 1:
        matches = [p for p, root in enumerate(roots, start=1) if root == wanted]
        if matches:
            where = f"positions {', '.join(map(str, matches))} outside the facet carry"
        else:
            where = "no position outside the facet carries"
        raise CoxeterError(
            f"cannot flip position {q}: {where} its root"
            " (flips need a facet of a spherical complex)"
        )
    facet[i] = q_new = roots.index(wanted) + 1
    facet.sort()
    return tuple(facet), q_new


def facet_count(system: CoxeterSystem, word: Word, target: Element) -> int:
    """The number of facets: ``facet_counts`` on the one word."""
    return next(facet_counts(system, (word,), target))


def facet_counts(
    system: CoxeterSystem, words: Iterable[Word], target: Element
) -> Iterator[int]:
    """The number of facets on each word, in input order, by two half sweeps
    over group elements that meet in the middle.

    Facets are the complements of the reduced subwords for target
    (Knutson-Miller), and a reduced subword of Q = H T is a reduced word for
    some u inside the head H followed by an ascending continuation from u to
    target inside the tail T.  Each word is split at h = len(Q) // 2.  The
    head is swept forwards from the identity: F(u) counts the ways the
    complement letters so far spell a reduced word for u; at a letter s each
    count stays (s joins the facet), and the count of a u with ascent s also
    moves on to u*s (s joins the complement).  The tail is swept backwards
    from target: G(u) counts the ascending continuations from u to target;
    reading the tail right to left, at a letter s the count of a v with
    descent s also moves on to v*s.  The count is the sum of F(u) * G(u).
    Each table holds at most |W| = prod(degrees) states, checked against
    ``MAX_FACES`` when this is called, before anything is multiplied; each
    word is checked with ``check_word`` before any table is looked up.

    Both sweeps step on one ``_Numbering`` per call, which numbers elements
    as reached and stores each move with its inverse, v for an ascent and ~v
    for a descent; nothing is kept across calls.  Half tables are kept under
    their half-words while the kept tables hold at most ``MAX_FACES`` counts.
    """
    check_element(system, target)
    check_budget(prod(system.degrees), MAX_FACES, system.descriptor.name(), "elements")
    return _sweep(system, words, target.image)


class _Numbering:
    """Group elements numbered as they are reached: ``images[v]`` is the image
    of element v cut to its first 2N + 1 codes, the ones that vary (every
    element fixes the codes past 2N, ``CoxeterSystem.tail``), ``numbers``
    maps it back, and the identity is 0.  ``moves[s - 1][u]`` is v, the
    number of u*s, when s is an ascent of u, ~v when it is a descent, and
    None until needed; each move is stored with its inverse, so each
    (element, letter) pair is multiplied at most once.  The identity is no
    u*s with ascent s, so no entry is 0."""

    def __init__(self, system: CoxeterSystem):
        self.right_multiply = system.right_multiply
        self.tail = system.tail
        self.cut = 2 * system.number_of_positive_roots + 1
        self.top = system.last_positive
        self.images = []
        self.numbers = {}
        self.moves = [[] for _ in range(system.rank)]
        self.number(system.identity.image)

    def number(self, image) -> int:
        """The number of the element with the whole image ``image``."""
        image = image[:self.cut]
        v = self.numbers.get(image)
        if v is None:
            v = self.numbers[image] = len(self.images)
            self.images.append(image)
            for row in self.moves:
                row.append(None)
        return v

    def move(self, u: int, s: int, row: list) -> int:  # row is moves[s - 1]
        image = self.images[u]
        v = self.number(self.right_multiply(image + self.tail, s))
        if image[s:s + 1] <= self.top:
            row[u], row[v] = v, ~u
        else:
            row[u], row[v] = ~v, u
        return row[u]

    def step(self, table: dict, s: int, forwards: bool) -> None:
        """Apply the letter s, in place, to a dict of payloads by element
        number, a payload being any value with ``+``: forwards each u with
        ascent s adds its payload to u*s, backwards each v with descent s."""
        row = self.moves[s - 1]
        for u in list(table):  # a target of s is never a source of s
            v = row[u]
            if v is None:
                v = self.move(u, s, row)
            if v > 0 if forwards else v < 0:
                if not forwards:
                    v = ~v
                table[v] = table[v] + table[u] if v in table else table[u]


def _sweep(system: CoxeterSystem, words: Iterable[Word], goal) -> Iterator[int]:
    """``facet_counts`` past its budget check; ``goal`` is the target's image."""
    elements = _Numbering(system)
    step, goal = elements.step, elements.number(goal)
    heads, tails = {}, {}  # half tables kept by half-word
    room = MAX_FACES  # counts the kept tables may still hold
    for word in words:
        word = check_word(system, word)
        h = len(word) // 2
        head, tail = word[:h], word[h:]
        up, down = heads.get(head), tails.get(tail)
        if up is None:
            up = {0: 1}
            for s in head:
                step(up, s, True)
            if len(up) <= room:
                heads[head] = up
                room -= len(up)
        if down is None:
            down = {goal: 1}
            for s in reversed(tail):
                step(down, s, False)
            if len(down) <= room:
                tails[tail] = down
                room -= len(down)
        if len(up) > len(down):
            up, down = down, up
        yield sum([count * down.get(u, 0) for u, count in up.items()])


@dataclass(frozen=True)
class SubwordComplex:
    """A word, a target element, and the (eagerly enumerated) facet list
    with the h-vector tallied from the same search: ``h`` is (h_0, ..., h_d)
    of the lexicographic shelling of the facets (see ``subword_complex``),
    () when there are none."""

    system: CoxeterSystem
    word: Word
    target: Element
    facets: tuple[Facet, ...]
    vertices: tuple[int, ...]
    h: tuple[int, ...]

    def facet_size(self) -> int:
        return len(self.word) - self.target.length()

    @cached_property
    def facet_bitsets(self) -> dict[int, int]:
        """For each vertex, the bitset of the facets that contain it (bit b for
        the b-th facet), built on first use and kept with the complex.

        Each vertex marks its facets with ``1`` in a ``bytearray`` row of
        ``0`` digits, read as one base-2 int at the end (the row reversed, so
        that the b-th digit is bit b), so the build is linear in the facets
        times their size; or-ing each bit into an int would copy the growing
        int at every bit.
        """
        zeros = b"0" * len(self.facets)
        rows = {v: bytearray(zeros) for v in self.vertices}
        for bit, facet in enumerate(self.facets):
            for v in facet:
                rows[v][bit] = 49  # ord("1")
        return {v: int(row[::-1], 2) for v, row in rows.items()}


def subword_complex(
    system: CoxeterSystem, word: Word, target: Element | None = None
) -> SubwordComplex:
    """Build the complex; with no target, the Demazure product is used (sphere).

    More than ``MAX_FACES`` facets raise ``ResourceLimitError`` through
    ``check_budget``, naming the word length and the type.  Where the Upper
    Bound Theorem does not rule out too many facets, they are counted before
    they are collected (see the module notes): by ``facet_count`` where
    |W| fits the budget, and otherwise by a first pass that takes at most
    ``MAX_FACES + 1`` facets from the kernel's stream (``_facet_search``)
    without keeping them, refusing a complex that yields them all as having
    at least ``MAX_FACES + 1`` facets.  Only then are the facets collected,
    by a search of their own.

    The h-vector (h_0, ..., h_d), d the facet size, is tallied from the
    collecting stream.  Facets in lexicographic order form a shelling
    (Knutson-Miller), and a position q of a facet I has its flip partner
    left of q exactly when r(I, q) is negative; partners in the completion
    lie right of every position and belong to the boundary of a ball.  So
    h_i counts the facets with i negative roots at their own positions.
    The facets are sorted last.
    """
    word = check_word(system, word)
    if target is None:
        target = demazure_product(system, word)
    check_element(system, target)
    r = len(word)
    d = r - target.length()  # the facet size
    subject = _subject(system, r)
    if _upper_bound(r + 1, d) > MAX_FACES:
        if prod(system.degrees) <= MAX_FACES:
            check_budget(facet_count(system, word, target), MAX_FACES, subject, "facets")
        else:
            stream = islice(_facet_search(system, word, target), MAX_FACES + 1)
            found = sum(1 for _ in stream)
            check_budget(found, MAX_FACES, subject, "facets", f"at least {found}")
    facets, h = [], [0] * (d + 1)
    for facet, negatives in _facet_search(system, word, target):
        facets.append(facet)
        h[negatives] += 1
    facets.sort()
    vertices = tuple(sorted(set().union(*facets)))
    return SubwordComplex(system, word, target, tuple(facets), vertices, tuple(h) if facets else ())


@dataclass(frozen=True)
class FlipGraph:
    """Facets as nodes; an edge for each flip between adjacent facets."""

    nodes: tuple[Facet, ...]
    neighbors: tuple[tuple[int, ...], ...]  # adjacency by node index

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i, j)
            for i, adjacent in enumerate(self.neighbors)
            for j in adjacent
            if i < j
        )


def flip_graph(complex_: SubwordComplex) -> FlipGraph:
    """Flip every position of every facet, over ``reduce_to_w0`` so that
    balls work too: a flip that lands in the appended completion is a
    boundary wall and gives no edge.  Flips of distinct positions q, q' of
    a facet I give distinct neighbours (I - q + p = I - q' + p' would put
    q' = p outside I), so each adjacency list needs no deduplication.

    The facets are independent units of this work, so once it passes
    ``_FORK_UNITS`` they are split into contiguous chunks, one per usable
    CPU, and built in forked workers that hand their rows back with
    ``marshal`` (``_in_workers``); the graph is the same whatever the split."""
    system, word, facets = complex_.system, complex_.word, complex_.facets
    completed = reduce_to_w0(system, word, complex_.target)
    last = len(word)  # positions past it are the completion
    index = {facet: i for i, facet in enumerate(facets)}

    def rows(chunk: slice) -> list:  # of the facets
        out = []
        for facet in facets[chunk]:
            adjacent = []
            for q in facet:
                other, landing = flip(system, completed, facet, q)
                if landing <= last:
                    adjacent.append(index[other])
            out.append(tuple(sorted(adjacent)))
        return out

    workers = _workers(len(facets) * complex_.facet_size() * len(completed))
    cuts = [len(facets) * c // workers for c in range(workers + 1)]
    chunks = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
    return FlipGraph(facets, tuple(_in_workers(rows, chunks)))


# A flip graph is split across processes only where that was measured to be
# faster.  A unit of work is one letter of the completed word walked for one
# (facet, q).  Medians of 60-100 alternating serial/split pairs, threshold
# patched, CPython 3.11, 2-vCPU x86_64 VM: split lost on B3 k=2 (15,750
# units, 6.4 -> 8.4 ms), A3 k=3 (44,550, 17.3 -> 19.8 ms) and A2 k=7
# (48,552, 18.2 -> 20.5 ms), and won from I2(7) k=4 (54,000, 20.2 -> 15.2
# ms) up, H4 k=1 (71,680) 20.1 -> 13.5 ms.  A split costs far more than a
# bare fork round trip (1.3 ms) because short jobs on two vCPUs at once run
# slow: a 3.4 ms loop took 7.5 ms while a forked child ran the same loop,
# and an 82 ms loop took 82 ms.
_FORK_UNITS = 50_000


def _workers(units: int) -> int:
    """The processes a flip graph of ``units`` units of work is built in:
    one where there is no ``os.fork`` or the work is below ``_FORK_UNITS``,
    else one per usable CPU (the affinity mask where there is one)."""
    if not hasattr(os, "fork") or units < _FORK_UNITS:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_workers(work, chunks: list) -> list:
    """``work(chunk)`` of every chunk, joined in chunk order, where ``work``
    returns a list that ``marshal`` can write.

    This process does chunk 0, the only one when there is one worker; an
    ``os.fork``ed child does each other one and writes its rows to a pipe
    with ``marshal.dump``, which this process reads to the end and loads
    only when the child exited 0, so ``marshal`` reads only bytes that a
    child of this process wrote in full.  A child runs its work in a
    ``try`` whose ``finally`` is ``os._exit``, so it never returns here.
    The chunk of a child that fails, or could not be forked, is done again
    here, so any error is the one the serial path raises.  Every child is
    waited for before this returns, and killed and waited for on any
    exception, ``KeyboardInterrupt`` included.
    """
    pids, pipes = {}, {}  # by chunk number
    try:
        for c in range(1, len(chunks)):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    with open(w, "wb") as pipe:
                        marshal.dump(work(chunks[c]), pipe)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            pids[c], pipes[c] = pid, r
        out = work(chunks[0])
        for c in range(1, len(chunks)):
            rows = None
            if c in pids:
                with open(pipes.pop(c), "rb") as pipe:
                    data = pipe.read()
                status = os.waitpid(pids[c], 0)[1]
                del pids[c]
                if status == 0:
                    rows = marshal.loads(data)
            out += work(chunks[c]) if rows is None else rows
        return out
    finally:
        for r in pipes.values():
            os.close(r)
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _braced(positions) -> str:  # the label of a face, "{1,2,5}"
    return "{" + ",".join(map(str, positions)) + "}"


def _dot(header: str, nodes, edges, arrow: str) -> str:
    """DOT text: a header, a line per node label and per edge, a closing brace."""
    lines = [f"{header} {{"]
    lines += [f'  "{node}";' for node in nodes]
    lines += [f'  "{a}" {arrow} "{b}";' for a, b in edges]
    return "\n".join(lines) + "\n}\n"


def flip_graph_dot(graph: FlipGraph) -> str:
    labels = [_braced(facet) for facet in graph.nodes]
    return _dot("graph flips", labels, [(labels[i], labels[j]) for i, j in graph.edges()], "--")


def link(system: CoxeterSystem, word: Word, target: Element, face) -> SubwordComplex:
    """The link of a face: same target over the word with the face deleted.

    New positions renumber the surviving positions in increasing order.
    ``is_face`` checks the arguments, so the refusals come in its order: a
    letter out of range, an element of another type, then a bad position.
    """
    face, word = tuple(face), check_word(system, word)
    if not is_face(system, word, target, face):
        raise CoxeterError("not a face of the complex")
    return subword_complex(system, _complement(word, _position_set(word, face)), target)


def reduce_to_w0(system: CoxeterSystem, word: Word, target: Element) -> Word:
    """Append R = ``reduced_word`` of target^{-1} w0, its s1...sn-sorting
    word (any reduced word would do), moving the target to w0.

    The facets of the complex on the word with this target are exactly the
    facets of the complex on the extended word with target w0 that avoid
    the positions of R.  The extended complex can have more facets: on A2
    with word s1 s2 s1 and target s1 there are 2 facets, and 5 after the
    extension.
    """
    check_element(system, target)
    completion = reduced_word(target.inverse() * longest_element(system))
    return check_word(system, word) + completion


def f_vector(complex_: SubwordComplex) -> tuple[int, ...]:
    """Face counts (f_-1, f_0, ..., f_dim) from the h-vector ``complex_.h``.

    f_{j-1} = sum over i <= j of C(d - i, j - i) h_i, with d the facet size.
    """
    h = complex_.h
    if not h:
        return (0,)
    d = len(h) - 1
    return tuple(
        sum(comb(d - i, j - i) * h[i] for i in range(j + 1)) for j in range(d + 1)
    )


def all_faces(
    complex_: SubwordComplex, max_size: int | None = None
) -> frozenset[Facet]:
    """Every face with at most ``max_size`` positions (default: all faces), as
    sorted position tuples like the facets.

    The number of faces of size <= ``max_size`` is read off ``f_vector``,
    which is exact, and more than ``MAX_FACES`` of them are refused before
    anything is built.  Faces then grow level by level on the complex's
    facet bitsets (``SubwordComplex.facet_bitsets``): a face extended by a
    larger vertex v is still a face exactly when some facet contains both,
    that is, when the face's facet bitset meets that of v.  Each face is
    built once.  ``minimal_nonfaces`` asks only for the faces one below its
    own cap.
    """
    facets, vertices = complex_.facets, complex_.vertices
    if max_size is None:
        max_size = complex_.facet_size()
    else:
        max_size = _read_int(max_size, "max_size")
    if not facets or max_size < 0:
        return frozenset()
    check_budget(
        sum(f_vector(complex_)[:max_size + 1]), MAX_FACES,
        _subject(complex_.system, len(complex_.word)), f"faces of size at most {max_size}",
    )
    bitsets = complex_.facet_bitsets
    containing = [bitsets[v] for v in vertices]
    # a face is (positions, index of the next vertex it may take, facet bitset)
    level = [((), 0, (1 << len(facets)) - 1)]
    faces = [()]
    for _ in range(max_size):
        grown = []
        for face, start, mask in level:
            for i in range(start, len(vertices)):
                both = mask & containing[i]
                if both:
                    grown.append((face + (vertices[i],), i + 1, both))
        faces.extend(face for face, _, _ in grown)
        level = grown
    return frozenset(faces)


def reduced_euler_characteristic(complex_: SubwordComplex) -> int:
    fv = f_vector(complex_)
    return sum((-1) ** (i + 1) * fv[i] for i in range(len(fv)))


def minimal_nonfaces(complex_: SubwordComplex, max_size: int) -> tuple[Facet, ...]:
    """Inclusion-minimal non-faces of size <= max_size over the vertex set.

    Only the faces of size < max_size are built, by ``all_faces``, and only
    they count against ``MAX_FACES``.  Every vertex is a face, so a minimal
    non-face has two largest vertices a < b, and the rest P lies below a;
    dropping a or b leaves the faces P+a and P+b, which share all but their
    last vertex.  So the candidates are the joins P+a+b of such sibling
    faces.  A join is a face exactly when some facet contains it, that is,
    when the AND of the facet bitsets of P, a and b is nonzero; that one
    test decides every join, at the cap and below it.  A non-face is
    minimal when dropping any one vertex of P leaves a face, checked
    against the faces of ``all_faces`` one dropped vertex at a time until
    one is missing.

    The siblings are walked depth first as groups (P, [(a, bitset), ...])
    with a increasing, starting from the single vertices, where each bitset
    is that of the face P+a, the AND of the facet bitsets of its vertices.
    The join P+a+b is then a face exactly when the bitsets of a and b meet,
    and that AND is the bitset of P+a+b.  Below the cap, the joins P+a+b of
    a group that are faces form the group of P+a, with those ANDs as their
    bitsets.  At the full cap, one more than the facet size and the CLI
    default, no face has max_size positions anyway, so every face is built
    and counts against the budget.
    """
    max_size = _read_int(max_size, "max_size")
    faces = all_faces(complex_, max_size - 1)
    bitsets = complex_.facet_bitsets
    out: list[Facet] = []
    stack = [((), [(v, bitsets[v]) for v in complex_.vertices])] if max_size >= 2 else []
    while stack:
        prefix, group = stack.pop()
        below_cap = len(prefix) + 2 < max_size
        drops = [prefix[:j] + prefix[j + 1:] for j in range(len(prefix))]
        for i, (a, with_a) in enumerate(group):
            children = []
            for b, with_b in group[i + 1:]:
                both = with_a & with_b
                if both:
                    children.append((b, both))
                else:
                    for rest in drops:
                        if rest + (a, b) not in faces:
                            break
                    else:
                        out.append(prefix + (a, b))
            if below_cap and len(children) > 1:  # a face with one child joins nothing
                stack.append((prefix + (a,), children))
    return tuple(sorted(out))
