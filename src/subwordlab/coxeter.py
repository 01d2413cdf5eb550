"""Finite Coxeter groups with exact root-system arithmetic.

Signed roots have integer codes: code 0 names no root, code j (1 <= j <= N)
names +beta_{j-1} and code 2N + 1 - j names -beta_{j-1}, N being the number
of positive roots.  ``signed_roots[c]`` is the ``SignedRoot`` of code c and
``codes[c]`` the one-code sequence of c.

Group elements are translate tables over these codes: entry c of
``Element.image`` is the code of w applied to the signed root of code c.
Every group operation is then O(N) even for types whose group order is
astronomically larger (E8 has 696729600 elements but only 120 positive
roots), and one C-level ``translate``: the product v*w is
``w.image.translate(v.image)``.  The same tables act on whole sequences of
codes, such as the root tables of ``subword``.  Tables have max(2N + 1, 256)
entries, as ``bytes.translate`` needs 256; codes past 2N map to themselves.

``reflections`` holds the reflection in every positive root, its first
``rank`` entries being the simple reflections, which are also the images
of the generators.  Multiplying on the right by a simple generator s, the
hot operation of word loops, is ``CoxeterSystem.right_multiply``: one
``translate`` of the table of s by the image of w (no ``Element`` is built).
Every element fixes the codes past 2N, so only the 2N + 1 codes that name
roots are translated: ``cuts`` holds the generator tables cut to them and
``tail`` the fixed codes, appended after the translate.  On ``str`` systems
the cut is the whole table and the tail is empty.  ``pair_cuts`` holds the
cut tables of the products s_t * s_s, built on first use, with which the
root walk of ``subword`` does one ``translate`` per two complement letters.
Both are indexed by letter, entry 0 unused.
``signs`` sends code 0 and the positive codes to ``codes[0]`` and the
negative ones to ``codes[1]``, so the length of w is one ``translate`` and
one ``count`` over its images of the positive roots.
``letters`` holds the generators 1..rank as bytes, so ``check_word`` checks
a whole word at C level: ``bytes`` of the word, which refuses any letter
that is not an int from 0 to 255, and one ``translate`` that deletes
``letters`` and must leave nothing.

Code sequences are ``bytes`` when every code fits in a byte (2N + 1 <= 256,
every type up to E8) and ``str`` otherwise (A16 and up, B12 and D12 and up,
I2(m) for m >= 128); ``bytes.translate`` is about ten times faster than
``str.translate``.  The system picks the type once and exposes its encoder
(``encode_codes``).  Code that reads the sequences works on both: it takes
one-code slices, not single items, and uses only ``ord``, ``find``,
``translate``, ``maketrans`` and comparisons.  A one-code slice above
``last_positive``, which is ``codes[N]``, is a negative root, so s is a
right descent of w exactly when ``image[s:s + 1] > last_positive``.  The
one exception is the root walk of ``subword``, which reads single items
of an image and of a generator's table, in one loop per encoding chosen
once per walk: ints on ``bytes`` systems, one-character strs that ``ord``
reads on ``str`` ones.
There a one-code slice costs about a quarter more walk time.

Conventions:

* generators are named s1..sn and addressed by 1-based index;
* words are tuples of generator indices, positions inside words are 1-based;
* positive roots are addressed by 0-based index, the first ``rank`` of them
  being the simple roots alpha_1..alpha_n;
* in the B family the edge of order four joins s1 and s2;
* elements have one normal form as words, the c-sorting word, read by one
  greedy scan of c,c,c,... (``_sorting_blocks``): ``reduced_word`` is the
  s1 s2 ... sn-sorting word, and ``sorting`` takes any Coxeter word c.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product, repeat
from operator import index
from typing import Iterator, NamedTuple

from .ring import GoldenInt

Word = tuple  # of 1-based generator indices

MAX_WORDS = 10**6
# A system with N positive roots keeps N reflection tables of 2N + 1 codes:
# on a 2-core VM A44 (N = 990) builds in 0.4 s, A150 (N = 11325) in 64 s
# with a 568 MiB peak, nearly all of it in str.translate on the tables.
MAX_ROOTS = 1000


class CoxeterError(ValueError):
    """Illegal descriptor, or construction data that fails a consistency check."""


class ResourceLimitError(RuntimeError):
    """An enumeration exceeded its configured size cap."""


def check_budget(count: int, limit: int, subject: str, things: str, shown=None) -> None:
    """Refuse ``count`` things over ``limit``: raise ``ResourceLimitError``
    naming the subject, the count (or ``shown``, how to write it) and the
    limit.  Every budget goes through here: the up-front ones before any
    work starts, and ``subword_complex`` on the facets it took from the
    search."""
    if count > limit:
        raise ResourceLimitError(
            f"{subject} has {shown or count} {things}, more than the limit of {limit}"
        )


def _read_int(value, name: str) -> int:
    """``value`` as an int, through ``operator.index`` (``True`` is 1), or a
    ``CoxeterError`` naming the argument and the value ("k 1.5 is not an
    integer").  Every count, cap and index a public call takes is read here
    once, at entry; the flip path reads its positions inline."""
    try:
        return index(value)
    except TypeError:
        raise CoxeterError(f"{name} {value!r} is not an integer") from None


class SignedRoot(NamedTuple):
    """A positive root index together with a sign, i.e. an element of +-Phi+."""

    root: int
    sign: int


# ---------------------------------------------------------------------------
# Descriptors

_DESCRIPTOR_RE = re.compile(r"^([A-Za-z])\s*(\d+)\s*(?:\(\s*(\d+)\s*\))?$")


@dataclass(frozen=True)
class GroupDescriptor:
    """An irreducible finite Coxeter type: family, rank, dihedral order for I2."""

    family: str
    rank: int
    dihedral_order: int | None = None

    def name(self) -> str:
        if self.family == "I":
            return f"I2({self.dihedral_order})"
        return f"{self.family}{self.rank}"


def parse_descriptor(text: str) -> GroupDescriptor:
    """Parse a descriptor string such as ``A3``, ``B4``, ``H3`` or ``I2(7)``."""
    match = _DESCRIPTOR_RE.match(text.strip())
    if not match:
        raise CoxeterError(f"cannot parse group descriptor {text!r}")
    family = match.group(1).upper()
    try:
        rank = int(match.group(2))
        order = None if match.group(3) is None else int(match.group(3))
    except ValueError:  # more digits than int() reads from a string (4300 by default)
        raise CoxeterError(
            f"group descriptor {family}... has a number too long to read"
        ) from None
    if family == "C":
        family = "B"  # identical Coxeter system
    if family == "I":
        if rank != 2 or order is None:
            raise CoxeterError("dihedral descriptors are written I2(m) with m >= 3")
        descriptor = GroupDescriptor("I", 2, order)
    else:
        if order is not None:
            raise CoxeterError(f"only I2 takes a parenthesised order: {text!r}")
        descriptor = GroupDescriptor(family, rank)
    _check_rank(descriptor)
    _type_data(descriptor)
    return descriptor


def _check_rank(d: GroupDescriptor) -> None:
    """Refuse a rank over ``MAX_ROOTS`` in a family of unbounded rank before
    ``_type_data`` builds lists as long as the rank: every type has at least
    as many positive roots as its rank."""
    if d.family in ("A", "B", "D"):
        check_budget(d.rank, MAX_ROOTS, d.name(), "positive roots", f"at least {d.rank}")


# ---------------------------------------------------------------------------
# Static type data: graph edges, degrees, Cartan entries

def _type_data(d: GroupDescriptor) -> tuple[list[tuple[int, int, int]], tuple[int, ...]]:
    """The edges (s, t, m(s,t)) with s < t of the Coxeter graph, and the
    degrees; ``CoxeterError`` for a family and rank with no finite type."""
    family, n, m = d.family, d.rank, d.dihedral_order

    def chain(first: int, last: int = n) -> list[tuple[int, int, int]]:
        return [(i, i + 1, 3) for i in range(first, last)]

    if family == "A" and n >= 1:
        data = chain(1), tuple(range(2, n + 2))
    elif family == "B" and n >= 2:
        data = [(1, 2, 4)] + chain(2), tuple(range(2, 2 * n + 1, 2))
    elif family == "D" and n >= 3:
        data = chain(1, n - 1) + [(n - 2, n, 3)], tuple(sorted([n, *range(2, 2 * n - 1, 2)]))
    elif family == "E" and n == 6:
        # Branch node s6; arms s3 | s5,s4 | s2,s1.
        pairs = [(1, 2), (2, 6), (3, 6), (5, 6), (4, 5)]
        data = [(a, b, 3) for a, b in pairs], (2, 5, 6, 8, 9, 12)
    elif family == "E" and n in (7, 8):
        degrees = (2, 6, 8, 10, 12, 14, 18) if n == 7 else (2, 8, 12, 14, 18, 20, 24, 30)
        data = chain(1, n - 1) + [(3, n, 3)], degrees
    elif family == "F" and n == 4:
        data = [(1, 2, 3), (2, 3, 4), (3, 4, 3)], (2, 6, 8, 12)
    elif family == "G" and n == 2:
        data = [(1, 2, 6)], (2, 6)
    elif family == "H" and n in (3, 4):
        data = [(1, 2, 5)] + chain(2), ((2, 6, 10) if n == 3 else (2, 12, 20, 30))
    elif family == "I" and n == 2:
        if m < 3:
            raise CoxeterError("I2(m) needs m >= 3")
        data = [(1, 2, m)], (2, m)
    else:
        raise CoxeterError(f"no finite irreducible type {family}{n}")
    return data


def _cartan_pair(m: int):
    """Off-diagonal Cartan entries (a_st, a_ts) for an edge of order m, s < t."""
    if m == 3:
        return -1, -1
    if m == 4:
        return -2, -1
    if m == 5:
        return -GoldenInt(0, 1), -GoldenInt(0, 1)
    if m == 6:
        return -1, -3
    # General dihedral edge: a_st * a_ts = 4 cos^2(pi/m), floats.
    c = -2.0 * math.cos(math.pi / m)
    return c, c


# ---------------------------------------------------------------------------
# Root systems

def _closure_roots(n: int, cartan, expected: int):
    """BFS closure of the simple roots under simple reflections.

    Returns (roots, images) where images[t][i] is the code of
    s_{t+1}(beta_i), recorded as the BFS reflects each root.  Raises if the
    closure does not have exactly ``expected`` elements, which would mean
    broken Cartan conventions.

    Each root carries its pairings <beta, alpha_u^vee>, the Cartan rows for
    the simple roots.  With c = <beta, alpha_t^vee>, s_t(beta) is beta - c
    alpha_t: beta itself when c = 0 (no lookup), and otherwise a root that
    differs from beta in coordinate t only, whose pairings are those of
    beta minus c times row t of the Cartan matrix.
    """
    roots = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    pairings = list(cartan)  # of the simple roots: the Cartan rows
    index = {root: i for i, root in enumerate(roots)}
    images: list[list[int]] = [[] for _ in range(n)]
    head = 0
    while head < len(roots):
        vec, pairing = roots[head], pairings[head]
        code = head + 1
        for t, coef in enumerate(pairing):
            if not coef:
                images[t].append(code)
            elif t == head:
                # s_t(alpha_t) = -alpha_t; every other image stays positive
                images[t].append(2 * expected - t)
            else:
                image = list(vec)
                image[t] -= coef
                image = tuple(image)
                j = index.get(image)
                if j is None:
                    j = index[image] = len(roots)
                    roots.append(image)
                    pairings.append([p - coef * a for p, a in zip(pairing, cartan[t])])
                images[t].append(j + 1)
        head += 1
        if len(roots) > expected:
            raise CoxeterError("root closure exceeded the expected count; Cartan conventions are broken")
    if len(roots) != expected:
        raise CoxeterError(f"root closure produced {len(roots)} roots, expected {expected}")
    return tuple(roots), images


def _dihedral_root_data(m: int):
    """Roots and simple-reflection images of I2(m) from the planar angle model.

    Positive roots sit at angles j*pi/m, j = 0..m-1, with alpha_1 at angle 0
    and alpha_2 at angle (m-1)*pi/m.  The images are codes as in
    ``_closure_roots``, exact integer data; only the coordinates (in the
    simple-root basis) are floats.
    """
    theta = math.pi / m
    angles = [0, m - 1] + list(range(1, m - 1))
    pos = {j: p for p, j in enumerate(angles)}
    sin_theta = math.sin(theta)
    coords = {0: (1.0, 0.0), m - 1: (0.0, 1.0)}  # exact simple roots
    for j in range(1, m - 1):
        coords[j] = (
            math.sin((j + 1) * theta) / sin_theta,
            math.sin(j * theta) / sin_theta,
        )
    roots = tuple(coords[j] for j in angles)
    t1, t2 = [], []
    for j in angles:
        t1.append(2 * m - pos[0] if j == 0 else pos[m - j] + 1)
        t2.append(2 * m - pos[m - 1] if j == m - 1 else pos[m - 2 - j] + 1)
    return roots, [t1, t2]


# ---------------------------------------------------------------------------
# Elements

class Element:
    """A group element as a translate table over the signed-root codes.

    ``image[c]`` is the code of w applied to the signed root of code c (see
    the module docstring).  The length function is the number of positive
    roots sent to negative codes.
    """

    __slots__ = ("system", "image")

    def __init__(self, system: "CoxeterSystem", image: bytes | str):
        self.system = system
        self.image = image

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Element) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __repr__(self) -> str:
        word = ",".join(f"s{s}" for s in reduced_word(self)) or "e"
        return f"<{self.system.descriptor.name()} element {word}>"

    def __mul__(self, other: "Element") -> "Element":
        check_element(self.system, other)
        return Element(self.system, other.image.translate(self.image))

    def inverse(self) -> "Element":
        image, identity = self.image, self.system.identity.image
        return Element(self.system, identity.translate(type(image).maketrans(image, identity)))

    def length(self) -> int:
        system = self.system
        N = system.number_of_positive_roots
        return self.image[1:N + 1].translate(system.signs).count(system.codes[1])

    def is_identity(self) -> bool:
        return self.image == self.system.identity.image

    def apply(self, root: int, sign: int = 1) -> SignedRoot:
        """w applied to sign * beta_root; raises ``CoxeterError`` unless root
        is an integer that indexes a positive root and sign an integer, 1 or -1."""
        system = self.system
        N = system.number_of_positive_roots
        root, sign = _read_int(root, "root index"), _read_int(sign, "root sign")
        if not 0 <= root < N:
            raise CoxeterError(
                f"root index {root} out of range for {system.descriptor.name()},"
                f" which has {N} positive roots"
            )
        if sign != 1 and sign != -1:
            raise CoxeterError(
                f"root sign {sign} is not 1 or -1 for {system.descriptor.name()}"
            )
        code = root + 1 if sign > 0 else 2 * N - root
        return system.signed_roots[ord(self.image[code:code + 1])]

    def has_right_descent(self, s: int) -> bool:
        """True iff multiplying by s on the right shortens the element."""
        system = self.system
        check_word(system, (s,))
        return self.image[s:s + 1] > system.last_positive


# ---------------------------------------------------------------------------
# The system

def _encode_str(codes) -> str:
    return "".join(map(chr, codes))


def _root_reflections(simple_images, encode, identity) -> tuple:
    """The reflection t_beta in every positive root, as translate tables.

    Table i maps code c to code c' when t_{beta_i} sends the signed root of
    code c to that of code c'.  ``simple_images[t][i]`` is the code of
    s_{t+1}(beta_i); the tables of the simple reflections complete these
    with the negated roots (code 2N + 1 - c is the negation of code c) and
    the fixed codes 0 and past 2N, each table joined from slices of the
    identity table and of the encoded images.  Then t_{s(beta)} = s t_beta s
    for each positive s(beta), which is two translations of the table of s.
    """
    N = len(simple_images[0])
    codes = 2 * N + 1
    negate = encode(range(codes, 0, -1)) + identity[codes:]  # code c to 2N + 1 - c
    simple = []
    for images in simple_images:
        image = encode(images)
        simple.append(identity[:1] + image + image[::-1].translate(negate) + identity[codes:])
    out: list = simple + [None] * (N - len(simple))
    order = list(range(len(simple)))
    for i in order:  # grows breadth first from the simple roots
        for s, images in enumerate(simple_images):
            j = images[i] - 1
            if j < N and out[j] is None:
                out[j] = simple[s].translate(out[i]).translate(simple[s])
                order.append(j)
    return tuple(out)


class CoxeterSystem:
    """Immutable bundle of Coxeter matrix, Cartan data, roots and reflection
    tables, built from a type name such as ``"A3"`` or ``"I2(7)"``; the name
    is checked by ``parse_descriptor``."""

    def __init__(self, name: str):
        descriptor = parse_descriptor(name)
        edges, self.degrees = _type_data(descriptor)
        self.number_of_positive_roots = N = sum(d - 1 for d in self.degrees)
        check_budget(N, MAX_ROOTS, descriptor.name(), "positive roots")
        self.descriptor = descriptor
        n = descriptor.rank
        self.rank = n
        self.letters = bytes(range(1, n + 1))

        matrix = [[2] * n for _ in range(n)]
        cartan = [[0] * n for _ in range(n)]
        for i in range(n):
            matrix[i][i] = 1
            cartan[i][i] = 2
        for s, t, m in edges:
            matrix[s - 1][t - 1] = matrix[t - 1][s - 1] = m
            a_st, a_ts = _cartan_pair(m)
            cartan[s - 1][t - 1] = a_st
            cartan[t - 1][s - 1] = a_ts
        self.coxeter_matrix = tuple(map(tuple, matrix))
        self.cartan = tuple(map(tuple, cartan))
        self.neighbors = tuple(
            tuple(t + 1 for t in range(n) if t != s and matrix[s][t] >= 3)
            for s in range(n)
        )

        self.coxeter_number = self.degrees[-1]
        if N != n * self.coxeter_number // 2:
            raise CoxeterError("degree table inconsistent with nh/2")

        self.exact = not (
            descriptor.family == "I" and descriptor.dihedral_order not in (3, 4, 5, 6)
        )
        if self.exact:
            self.positive_roots, simple_images = _closure_roots(n, self.cartan, N)
        else:
            self.positive_roots, simple_images = _dihedral_root_data(
                descriptor.dihedral_order
            )

        self.signed_roots = (
            (None,)
            + tuple(map(SignedRoot, range(N), repeat(1)))
            + tuple(map(SignedRoot, reversed(range(N)), repeat(-1)))
        )
        self.encode_codes = encode = bytes if 2 * N + 1 <= 256 else _encode_str
        self.codes = tuple(map(encode, zip(range(2 * N + 1))))
        self.identity = Element(self, encode(range(max(2 * N + 1, 256))))
        self.signs = self.codes[0] * (N + 1) + self.codes[1] * (len(self.identity.image) - N - 1)
        self.last_positive = self.codes[N]  # one-code slices above it are negative roots
        self.reflections = _root_reflections(simple_images, encode, self.identity.image)
        self.generators = tuple(Element(self, table) for table in self.reflections[:n])
        self.cuts = (None,) + tuple(table[:2 * N + 1] for table in self.reflections[:n])
        self.tail = self.identity.image[2 * N + 1:]
        # each pass of s1...sn below w0 meets an ascent, so N passes reach w0
        self._w0 = demazure_product(self, tuple(range(1, n + 1)) * N)
        if self._w0.length() != N:
            raise CoxeterError("failed to reach the longest element")
        # w0(alpha_s) = -alpha_psi(s), and -alpha_t has code 2N + 1 - t
        self.psi_table = tuple(
            2 * N + 1 - ord(self._w0.image[s:s + 1]) for s in range(1, n + 1)
        )
        if sorted(self.psi_table) != list(range(1, n + 1)):
            raise CoxeterError("the longest element does not permute the simple roots up to sign")

    # -- basic queries ------------------------------------------------------

    def commute(self, s: int, t: int) -> bool:
        check_word(self, (s, t))
        return self.coxeter_matrix[s - 1][t - 1] == 2

    def right_multiply(self, image: bytes | str, s: int) -> bytes | str:
        """The image of w * s_s, given the image of w: the table of s cut to
        its 2N + 1 codes (``cuts``), translated by the image, and then the
        codes past 2N, which every element fixes (``tail``).  The result is
        the whole table of s translated by the image, byte for byte."""
        return self.cuts[s].translate(image) + self.tail

    @cached_property
    def pair_cuts(self) -> tuple:
        """``pair_cuts[t][s]`` is the table of s_t * s_s cut to its 2N + 1
        codes: the cut of s translated by the table of t.  Indexed by letter,
        entry 0 unused, like ``cuts``.  Built on first use, because its
        rank^2 translates cost most of a build on the large str-coded types
        (A44: 0.41 s against 0.63 s, CPython 3.11 on a 2-core VM)."""
        cuts = self.cuts[1:]
        return (None, *[
            (None, *[cut.translate(table) for cut in cuts])
            for table in self.reflections[:self.rank]
        ])

    def __repr__(self) -> str:
        return f"CoxeterSystem({self.descriptor.name()!r})"


# ---------------------------------------------------------------------------
# Words and element arithmetic

def parse_word(text: str) -> Word:
    """Parse ``s1,s3,s2`` (or ``1,3,2``) into a word tuple."""
    text = text.strip()
    if not text:
        return ()
    letters = []
    for chunk in text.split(","):
        chunk = chunk.strip().lower()
        if chunk.startswith("s"):
            chunk = chunk[1:]
        if not chunk.isdigit():
            raise CoxeterError(f"bad generator name {chunk!r}")
        letters.append(int(chunk))
    return tuple(letters)


def format_word(word: Word) -> str:
    return ",".join(f"s{s}" for s in word)


def occurrence_indices(word: Word) -> tuple[int, ...]:
    """For each position, how many times its letter occurs up to and including it."""
    seen: dict[int, int] = {}
    out = []
    for s in word:
        seen[s] = seen.get(s, 0) + 1
        out.append(seen[s])
    return tuple(out)


def check_word(system: CoxeterSystem, word: Word) -> Word:
    """The word as a tuple, once every letter is an int from 1 to the rank
    (``True`` is 1).  One C-level pass: ``bytes`` refuses a letter that is
    no int from 0 to 255, and deleting ``CoxeterSystem.letters`` leaves
    nothing.  Otherwise the first letter that is none of 1..rank is named."""
    word = tuple(word)
    try:
        if not bytes(word).translate(None, system.letters):
            return word
    except (TypeError, ValueError):
        pass
    s = next(s for s in word if not (isinstance(s, int) and 1 <= s <= system.rank))
    raise CoxeterError(f"generator s{s!r} out of range for {system.descriptor.name()}")


def check_element(system: CoxeterSystem, w: Element) -> None:
    """Refuse an element of another type; two builds of one type share their
    tables, so their elements mix."""
    if w.system is not system and w.system.descriptor != system.descriptor:
        raise CoxeterError(
            f"an element of {w.system.descriptor.name()} is not an element of"
            f" {system.descriptor.name()}"
        )


def element_from_word(system: CoxeterSystem, word: Word) -> Element:
    """The product of the letters of ``word``, multiplied left to right."""
    word = check_word(system, word)
    out = system.identity.image
    for s in word:
        out = system.right_multiply(out, s)
    return Element(system, out)


def is_reduced(system: CoxeterSystem, word: Word) -> bool:
    return element_from_word(system, word).length() == len(word)


def _sorting_blocks(system: CoxeterSystem, cox: Word, w: Element) -> tuple[Word, ...]:
    """Greedy scan of c,c,c,...: take a letter whenever it shortens the rest.

    Returns the letters taken in each pass over c, which joined make the
    c-sorting word of w.  The scan ends: c contains every generator, so each
    pass meets a left descent of the rest and takes at least one letter.
    """
    cox = check_coxeter_word(system, cox)
    check_element(system, w)
    identity = system.identity.image
    top = system.last_positive
    blocks = []
    rest = w.inverse().image  # inverse of the still-unwritten right factor
    while rest != identity:
        block = []
        for s in cox:
            if rest[s:s + 1] > top:  # s starts a reduced word of the rest
                block.append(s)
                rest = system.right_multiply(rest, s)
        blocks.append(tuple(block))
    return tuple(blocks)


def reduced_word(w: Element) -> Word:
    """The normal form of w: the lexicographically first subword of
    (s1 s2 ... sn)^inf that is a reduced word for w, its s1...sn-sorting word."""
    blocks = _sorting_blocks(w.system, tuple(range(1, w.system.rank + 1)), w)
    return tuple(s for block in blocks for s in block)


def demazure_product(system: CoxeterSystem, word: Word) -> Element:
    """Greedy ascent-only product: letters are kept only when they lengthen."""
    word = check_word(system, word)
    top = system.last_positive
    out = system.identity.image
    for s in word:
        if out[s:s + 1] <= top:
            out = system.right_multiply(out, s)
    return Element(system, out)


def longest_element(system: CoxeterSystem) -> Element:
    return system._w0


def psi(system: CoxeterSystem, s: int) -> int:
    """The diagram automorphism s -> w0^{-1} s w0."""
    check_word(system, (s,))
    return system.psi_table[s - 1]


def psi_word(system: CoxeterSystem, word: Word) -> Word:
    """``psi`` applied to every letter of the word."""
    word = check_word(system, word)
    return tuple(system.psi_table[s - 1] for s in word)


def inversion_set(w: Element) -> frozenset[int]:
    """Indices of the positive roots sent negative by w^{-1}."""
    N, top = w.system.number_of_positive_roots, w.system.last_positive
    inverse = w.inverse().image
    return frozenset(i for i in range(N) if inverse[i + 1:i + 2] > top)


# ---------------------------------------------------------------------------
# Coxeter words

def enumerate_coxeter_words(system: CoxeterSystem) -> tuple[Word, ...]:
    """One canonical word per acyclic orientation of the Coxeter graph.

    The canonical word is the lexicographically least linear extension of the
    orientation.  The Coxeter graphs here are trees, so every orientation of
    the edges is acyclic and there are 2^(#edges) of them.  The words come
    sorted, and the first is always s1 s2 ... sn: every ordering of the
    generators is the canonical word of the orientation it induces.  More
    than ``MAX_WORDS`` orientations raise ``ResourceLimitError`` up front.
    """
    n = system.rank
    edges = [
        (s, t)
        for s in range(1, n + 1)
        for t in system.neighbors[s - 1]
        if s < t
    ]
    count = 1 << len(edges)
    check_budget(
        count, MAX_WORDS, system.descriptor.name(), "Coxeter words",
        f"2^{len(edges)} = {count}",
    )
    words = []
    for mask in range(count):
        succ = {s: [] for s in range(1, n + 1)}
        indegree = {s: 0 for s in range(1, n + 1)}
        for bit, (s, t) in enumerate(edges):
            a, b = (s, t) if not mask >> bit & 1 else (t, s)
            succ[a].append(b)
            indegree[b] += 1
        avail = sorted(s for s in range(1, n + 1) if indegree[s] == 0)
        word = []
        while avail:
            s = avail.pop(0)
            word.append(s)
            for t in succ[s]:
                indegree[t] -= 1
                if indegree[t] == 0:
                    avail.append(t)
            avail.sort()
        words.append(tuple(word))
    return tuple(sorted(words))


def check_coxeter_word(system: CoxeterSystem, word: Word) -> Word:
    """The word as a tuple of ints (``True`` is 1), once it uses each
    generator exactly once."""
    word = tuple(map(index, check_word(system, word)))
    if sorted(word) != list(range(1, system.rank + 1)):
        raise CoxeterError(
            f"{format_word(word) or 'the empty word'} is not a word for a Coxeter element"
        )
    return word


# ---------------------------------------------------------------------------
# Commutation canonical forms

def _layer_keys(system: CoxeterSystem, word: Word) -> list[tuple[int, int]]:
    """The (layer, generator) pair of each letter under greedy layering.

    Each letter lands one past the deepest earlier letter it fails to commute
    with (same letters never commute).
    """
    level = [0] * (system.rank + 1)
    out = []
    for s in word:
        depth = level[s]
        for t in system.neighbors[s - 1]:
            if level[t] > depth:
                depth = level[t]
        depth += 1
        level[s] = depth
        out.append((depth, s))
    return out


def commutation_layers(system: CoxeterSystem, word: Word) -> tuple[tuple[int, ...], ...]:
    """Canonical form of the commutation class of ``word``: its letters
    grouped by layer.  Words are equal up to commutations iff their layer
    sequences are equal, so this is a total, cap-free decision procedure.
    """
    word = check_word(system, word)
    layers: list[list[int]] = []
    for depth, s in sorted(_layer_keys(system, word)):
        if depth > len(layers):
            layers.append([])
        layers[-1].append(s)
    return tuple(tuple(layer) for layer in layers)


def equal_up_to_commutations(system: CoxeterSystem, word: Word, other: Word) -> bool:
    """True iff the words are linked by swaps of adjacent commuting letters;
    both words are checked first, whatever their lengths."""
    word = check_word(system, word)
    other = check_word(system, other)
    if len(word) != len(other):
        return False
    return commutation_layers(system, word) == commutation_layers(system, other)


def commutation_position_map(
    system: CoxeterSystem, word: Word, other: Word
) -> tuple[int, ...]:
    """Position bijection realizing a commutation equivalence.

    Entry p-1 holds the position in ``other`` of the letter at position p of
    ``word``; letters are matched by their (layer, generator) pair, which is
    injective because a layer never repeats a generator.  The words are
    equal up to commutations iff they have the same pairs (the sorted pairs
    are ``commutation_layers``), so one layering of each decides that too.
    """
    word = check_word(system, word)
    other = check_word(system, other)
    keys = _layer_keys(system, word)
    target = {key: p + 1 for p, key in enumerate(_layer_keys(system, other))}
    if target.keys() != set(keys):
        raise CoxeterError("words are not equal up to commutations")
    return tuple(target[key] for key in keys)


def iter_all_words(system: CoxeterSystem, length_: int) -> Iterator[Word]:
    """All n^length words of a fixed length, lexicographic order; a length
    that is no integer, or is negative, raises ``CoxeterError``, and more
    than ``MAX_WORDS`` words raise ``ResourceLimitError``, both up front."""
    length_ = _read_int(length_, "length")
    if length_ < 0:
        raise CoxeterError("the word length must be nonnegative")
    check_budget(
        system.rank**length_, MAX_WORDS, system.descriptor.name(),
        f"words of length {length_}",
    )
    return product(range(1, system.rank + 1), repeat=length_)
