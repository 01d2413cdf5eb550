"""Multi-cluster complexes and their combinatorial models.

Every multi-cluster word c^k w0(c) is built by ``multi_cluster_word`` and
every multi-cluster complex by ``multi_cluster_complex``.  Every call that
takes a k reads it once, at entry, through ``_read_k``, the diagonal calls
read m through ``_read_m`` and each diagonal once through
``_read_diagonal``, and the other calls m and the crossing count through
``coxeter._read_int``.  Covers the recognition of multi-cluster
words up to commutations, the almost-positive-root labeling of the letters
of c * w0(c), the induced compatibility relation, the next-occurrence
cyclic action, the polygon bijections in types A and B (one rotated-seed
construction), Gale-evenness facets in rank two, and the q-analogue of the
facet-count product formula with its exact values at roots of unity.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm, prod

from .coxeter import (
    CoxeterError,
    CoxeterSystem,
    SignedRoot,
    Word,
    _read_int,
    check_budget,
    check_coxeter_word,
    check_word,
    equal_up_to_commutations,
    longest_element,
    occurrence_indices,
)
from . import subword
from .sorting import has_sin_property, sorting_word_w0
from .subword import Facet, SubwordComplex, is_face, root_table, subword_complex

Diagonal = tuple  # (a, b) vertex labels, a < b


# ---------------------------------------------------------------------------
# Words and labels

def _read_k(k) -> int:
    """The number of copies k as an int (``coxeter._read_int``), refused
    below 0.  Every call that takes a k reads it here once, at entry."""
    k = _read_int(k, "k")
    if k < 0:
        raise CoxeterError("the number of copies must be nonnegative")
    return k


def _read_m(m) -> int:
    """The polygon size m as an int (``coxeter._read_int``), refused below 1."""
    if (m := _read_int(m, "m")) < 1:
        raise CoxeterError(f"the polygon size must be positive, got m={m}")
    return m


def multi_cluster_word(system: CoxeterSystem, cox: Word, k: int) -> Word:
    """k copies of c followed by the sorting word of the longest element."""
    cox = check_coxeter_word(system, cox)
    k = _read_k(k)
    return cox * k + sorting_word_w0(system, cox).word


def recognize_multi_cluster_word(
    system: CoxeterSystem, word: Word
) -> tuple[Word, int] | None:
    """Recover (c, k) such that ``word`` equals c^k * sorting word, up to commutations.

    Returns None when the word lacks the strong intervening-neighbors
    property.  The Coxeter word is read off from the first occurrences, and
    the reconstruction is verified via the commutation canonical form.
    """
    word = check_word(system, word)
    if not has_sin_property(system, word):
        return None
    extra = len(word) - system.number_of_positive_roots
    if extra < 0 or extra % system.rank:
        return None
    k = extra // system.rank
    cox = tuple(dict.fromkeys(word))
    if len(cox) != system.rank:
        return None
    if not equal_up_to_commutations(system, word, multi_cluster_word(system, cox, k)):
        return None
    return cox, k


def count_formula_is_theorem(system: CoxeterSystem, k: int) -> bool:
    """Whether ``facet_count_formula`` counts the facets: k = 1, and types
    A, B and I2 at every k."""
    return _read_k(k) == 1 or system.descriptor.family in ("A", "B", "I")


def multi_cluster_complex(system: CoxeterSystem, cox: Word, k: int) -> SubwordComplex:
    """The multi-cluster complex: the subword complex of c^k w0(c) with target w0.

    w0(c) opens with a copy of c, so the n letters of c can be read from any
    nondecreasing choice among k + 1 copies: at least C(k + n, n) facets.
    Over ``MAX_FACES``, that bound raises ``ResourceLimitError`` before the
    word is built.  Then ``facet_count_formula``, where it is a theorem, is
    checked against ``MAX_FACES``; that covers groups too big to count,
    such as A16 and E8.  ``subword_complex`` checks every other size.
    """
    cox = check_coxeter_word(system, cox)
    k = _read_k(k)
    n, limit = system.rank, subword.MAX_FACES
    subject = f"{system.descriptor.name()} with k={k}"
    bound = comb(k + n, n)
    check_budget(bound, limit, subject, "facets", f"at least C({k + n}, {n}) = {bound}")
    word = multi_cluster_word(system, cox, k)
    if count_formula_is_theorem(system, k):
        check_budget(facet_count_formula(system, k), limit, subject, "facets")
    return subword_complex(system, word, longest_element(system))


def negative_simple(system: CoxeterSystem, s: int) -> SignedRoot:
    """The almost positive root -alpha_s."""
    check_word(system, (s,))
    return SignedRoot(s - 1, -1)


def almost_positive_roots(system: CoxeterSystem) -> tuple[SignedRoot, ...]:
    """All N + n almost positive roots: negated simples first, then positives."""
    negatives = [SignedRoot(s, -1) for s in range(system.rank)]
    positives = [SignedRoot(i, 1) for i in range(system.number_of_positive_roots)]
    return tuple(negatives + positives)


def lr_labels(system: CoxeterSystem, cox: Word) -> tuple[SignedRoot, ...]:
    """Almost positive roots labeling the letters of c * w0(c), in word order.

    Prefix letters carry the negated simples; the letter w_i of the sorting
    word carries w_1...w_{i-1}(alpha_{w_i}), its root table on no facet.
    """
    cox = check_coxeter_word(system, cox)
    negatives = tuple(SignedRoot(s - 1, -1) for s in cox)
    return negatives + root_table(system, sorting_word_w0(system, cox).word, ())


def lr_position(system: CoxeterSystem, cox: Word, root: SignedRoot) -> int:
    """1-based position of an almost positive root among the letters of c*w0(c)."""
    labels = lr_labels(system, cox)
    try:
        return labels.index(root) + 1
    except ValueError:
        raise CoxeterError(f"{root} is not an almost positive root label") from None


def c_compatible(
    system: CoxeterSystem, cox: Word, root1: SignedRoot, root2: SignedRoot
) -> bool:
    """Compatibility of two almost positive roots relative to a Coxeter word:
    their letters of c * w0(c) form a face of the cluster complex."""
    if root1 == root2:
        raise CoxeterError("compatibility is a relation on distinct roots")
    cox = check_coxeter_word(system, cox)
    positions = (lr_position(system, cox, root1), lr_position(system, cox, root2))
    word = multi_cluster_word(system, cox, 1)
    return is_face(system, word, longest_element(system), positions)


def sigma_involution(
    system: CoxeterSystem, s: int, root: SignedRoot
) -> SignedRoot:
    """Involution on almost positive roots: fix -alpha_t for t != s, else apply s."""
    check_word(system, (s,))
    image = system.generators[s - 1].apply(*root)  # checks the index and the sign
    if root.sign < 0:
        if root.root >= system.rank:
            raise CoxeterError("negated roots must be simple")
        if root.root != s - 1:
            return root
        return SignedRoot(root.root, 1)
    if image.sign < 0:
        # Only alpha_s is sent negative, landing on -alpha_s.
        return SignedRoot(image.root, -1)
    return image


# ---------------------------------------------------------------------------
# The next-occurrence cyclic action

def theta_permutation(system: CoxeterSystem, cox: Word, k: int) -> tuple[int, ...]:
    """Position permutation: each letter moves to the next occurrence of the
    same generator, wrapping to the first occurrence of psi(s).

    Entry p-1 holds the image of position p (1-based).
    """
    word = multi_cluster_word(system, cox, k)
    where: dict[int, list[int]] = {}  # the positions of each letter, in order
    for p, s in enumerate(word, start=1):
        where.setdefault(s, []).append(p)
    return tuple(
        where[s][j] if j < len(where[s]) else where[system.psi_table[s - 1]][0]
        for s, j in zip(word, occurrence_indices(word))
    )


def permutation_order(perm: tuple[int, ...]) -> int:
    """The order of a permutation of 1..n: the lcm of its cycle lengths."""
    perm = tuple(_read_int(p, "permutation entry") for p in perm)
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise CoxeterError("not a permutation of 1..n")
    order = 1
    seen: set[int] = set()
    for p in perm:
        length = 0
        while p not in seen:
            seen.add(p)
            p = perm[p - 1]
            length += 1
        order = lcm(order, length or 1)
    return order


def theta_order_formula(system: CoxeterSystem, k: int) -> int:
    """k + h/2 when the longest element is central, 2k + h otherwise."""
    k = _read_k(k)
    h = system.coxeter_number
    if all(system.psi_table[s] == s + 1 for s in range(system.rank)):
        return k + h // 2
    return 2 * k + h


def theta_orbits_on_facets(
    system: CoxeterSystem, cox: Word, k: int
) -> tuple[tuple[Facet, ...], ...]:
    """Partition of the facets into orbits of the next-occurrence action."""
    complex_ = multi_cluster_complex(system, cox, k)
    perm = theta_permutation(system, cox, k)
    facet_set = set(complex_.facets)
    seen: set[Facet] = set()
    orbits = []
    for facet in complex_.facets:
        if facet in seen:
            continue
        orbit = [facet]
        while True:
            current = tuple(sorted(perm[p - 1] for p in orbit[-1]))
            if current == facet:
                break
            if current not in facet_set:
                raise CoxeterError("the action failed to map a facet to a facet")
            orbit.append(current)
        seen.update(orbit)
        orbits.append(tuple(orbit))
    return tuple(orbits)


# ---------------------------------------------------------------------------
# Polygon models, types A and B

def _polygon_rank(family: str, m: int, k: int) -> int:
    """The rank n of the polygon model: m = n + 2k + 1 in type A (n >= 1),
    m = n + k in type B (n >= 2)."""
    if family == "A":
        n, least, rule = m - 2 * k - 1, 1, "2k + 2"
    else:
        n, least, rule = m - k, 2, "k + 2"
    if n < least:
        raise CoxeterError(
            f"type {family} with k={k} needs m >= {m - n + least} ({rule}), got m={m}"
        )
    return n


def _rotated_seeds(family: str, m: int, k: int, cox: Word) -> list[tuple[int, int]]:
    """The diagonal of each position of the multi-cluster word of type A or
    B, before its endpoints are reduced.

    With a_i and d_i the ascents and descents of c among s_1..s_i (s_{i-1}
    before, or after, s_i in c), the letter s_i seeds (a_i, b_i), where
    b_i = -k-1-d_i in type A and m-d_i in type B; its j-th copy is that
    seed rotated j-1 steps (both endpoints + j - 1).
    """
    system = CoxeterSystem(f"{family}{_polygon_rank(family, m, k)}")
    word = multi_cluster_word(system, cox, k)
    position = {s: i for i, s in enumerate(cox)}
    seeds = {1: (0, -k - 1 if family == "A" else m)}
    for i in range(2, system.rank + 1):
        a, b = seeds[i - 1]
        ascent = position[i - 1] < position[i]
        seeds[i] = (a + 1, b) if ascent else (a, b - 1)
    return [
        (seeds[s][0] + j - 1, seeds[s][1] + j - 1)
        for s, j in zip(word, occurrence_indices(word))
    ]


def type_a_bijection(m: int, k: int, cox: Word) -> tuple[Diagonal, ...]:
    """Positions of the type-A multi-cluster word to diagonals of the m-gon:
    the rotated seeds, labels mod m."""
    m, k = _read_int(m, "m"), _read_k(k)
    return tuple(_normalize_diagonal(a % m, b % m) for a, b in _rotated_seeds("A", m, k, cox))


def _normalize_diagonal(a: int, b: int) -> Diagonal:
    return (a, b) if a < b else (b, a)


def _read_diagonal(m: int, diagonal: Diagonal) -> Diagonal:
    """The two endpoints as ints (``coxeter._read_int``), reduced mod m and
    sorted; a diagonal that is not a pair, or whose endpoints coincide mod
    m, is refused by name."""
    try:
        a, b = diagonal
    except (TypeError, ValueError):
        raise CoxeterError(f"diagonal {diagonal!r} is not a pair of endpoints") from None
    a, b = (_read_int(v, "diagonal endpoint") % m for v in (a, b))
    if a == b:
        raise CoxeterError(f"diagonal {diagonal!r} has endpoints that coincide mod {m}")
    return _normalize_diagonal(a, b)


def _cross(d1: Diagonal, d2: Diagonal) -> bool:
    """Do two diagonals read by ``_read_diagonal`` cross?"""
    (a, b), (x, y) = d1, d2
    return a < x < b < y or x < a < y < b


def diagonal_is_relevant(m: int, k: int, diagonal: Diagonal) -> bool:
    """At least k polygon vertices strictly on each side."""
    m, k = _read_m(m), _read_k(k)
    a, b = _read_diagonal(m, diagonal)
    gap = b - a  # the other side has m - gap, so the order does not matter
    return gap - 1 >= k and m - gap - 1 >= k


def diagonals_cross(m: int, d1: Diagonal, d2: Diagonal) -> bool:
    """Strict crossing: endpoints interleave cyclically, no shared vertex.

    With the endpoints reduced mod m and sorted, the diagonals cross exactly
    when one endpoint of the second lies strictly inside the first's interval
    and the other strictly outside.
    """
    m = _read_m(m)
    return _cross(_read_diagonal(m, d1), _read_diagonal(m, d2))


def contains_pairwise_crossing(m: int, count: int, diagonals) -> bool:
    """Is there a subset of ``count`` pairwise-crossing diagonals?"""
    m, count = _read_m(m), _read_int(count, "count")
    if count < 0:
        raise CoxeterError(f"the crossing count must be nonnegative, got count={count}")
    items = [_read_diagonal(m, d) for d in diagonals]
    later: list[set[int]] = [set() for _ in items]  # crossing partners j > i
    for (i, d), (j, e) in combinations(enumerate(items), 2):
        if _cross(d, e):
            later[i].add(j)

    def extend(size: int, candidates: set[int]) -> bool:
        if size == count:
            return True
        if size + len(candidates) < count:
            return False
        for j in sorted(candidates):
            if extend(size + 1, candidates & later[j]):
                return True
        return False

    return extend(0, set(range(len(items))))


def type_b_bijection(m: int, k: int, cox: Word) -> tuple[frozenset, ...]:
    """Positions of the type-B multi-cluster word to symmetric diagonal pairs
    of the 2m-gon (a singleton frozenset for diameters): each rotated seed
    with its half-turn, labels mod 2m."""
    m, k = _read_int(m, "m"), _read_k(k)
    return tuple(
        frozenset({
            _normalize_diagonal(a % (2 * m), b % (2 * m)),
            _normalize_diagonal((a + m) % (2 * m), (b + m) % (2 * m)),
        })
        for a, b in _rotated_seeds("B", m, k, cox)
    )


# ---------------------------------------------------------------------------
# Rank-two facets by Gale evenness

def gale_facets_rank2(m: int, k: int) -> tuple[Facet, ...]:
    """2k-subsets of 1..2k+m where any two outside positions are separated by
    an even count of inside positions; these are the rank-two facets.

    Even counts between consecutive outside positions a < b add up to even
    counts between any two, and only inside positions lie between a and b,
    so each such gap b - a must be odd.  Subsets come in lexicographic order.
    All C(2k + m, 2k) subsets are scanned, so more than ``MAX_FACES`` of them
    raise ``ResourceLimitError`` before the scan starts.
    """
    m = _read_int(m, "m")
    if m < 3:
        raise CoxeterError("I2(m) needs m >= 3")
    k = _read_k(k)
    count = comb(2 * k + m, 2 * k)
    check_budget(
        count, subword.MAX_FACES, f"the Gale scan for m={m}, k={k}", "subsets",
        f"C({2 * k + m}, {2 * k}) = {count}",
    )
    positions = range(1, 2 * k + m + 1)
    out = []
    for subset in combinations(positions, 2 * k):
        outside = sorted(set(positions) - set(subset))
        if all((b - a) % 2 for a, b in zip(outside, outside[1:])):
            out.append(subset)
    return tuple(out)


# ---------------------------------------------------------------------------
# Counting formula and its q-analogue

def facet_count_formula(system: CoxeterSystem, k: int) -> Fraction:
    """Product over degrees: (d_i + h + 2j) / (d_i + 2j) for 0 <= j < k, as
    one fraction of two integer products."""
    k = _read_k(k)
    h = system.coxeter_number
    bottoms = [d + 2 * j for j in range(k) for d in system.degrees]
    return Fraction(prod(b + h for b in bottoms), prod(bottoms))


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of ``num`` by the monic polynomial ``den``."""
    num = list(num)
    quotient = [0] * (len(num) - len(den) + 1)
    for shift in range(len(quotient) - 1, -1, -1):
        coef = num[shift + len(den) - 1]
        if coef:
            quotient[shift] = coef
            for j, y in enumerate(den):
                num[shift + j] -= coef * y
    while num and num[-1] == 0:
        num.pop()
    return quotient, num


def csp_polynomial(system: CoxeterSystem, k: int) -> tuple[int, ...] | None:
    """Coefficients (constant term first) of the q-analogue of the count
    formula, or None when the quotient of q-integer products is not a
    polynomial over the integers.  At q = 1 it sums to the facet count.

    With [a]_q = (1 - q^a) / (1 - q), and n k factors above and below, the
    quotient is prod (1 - q^(d + h + 2j)) / prod (1 - q^(d + 2j)).  Each
    factor 1 - q^a above subtracts a copy shifted by a, in place; each
    factor 1 - q^b below is divided out by adding in the coefficient b
    places back, exactly when the top b coefficients come out 0.
    """
    k = _read_k(k)
    h = system.coxeter_number
    bottoms = [d + 2 * j for j in range(k) for d in system.degrees]
    poly = [1] + [0] * (sum(bottoms) + h * len(bottoms))
    for a in (b + h for b in bottoms):
        for i in range(len(poly) - 1, a - 1, -1):
            poly[i] -= poly[i - a]
    for b in bottoms:
        for i in range(b, len(poly)):
            poly[i] += poly[i - b]
        if any(poly[-b:]):
            return None
        del poly[-b:]
    return tuple(poly)


def _cyclotomic(e: int) -> list[int]:
    """Coefficients of the cyclotomic polynomial Phi_e, constant term first:
    q^e - 1 divided by Phi_d for every proper divisor d of e."""
    poly = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            poly, _ = _poly_divmod(poly, _cyclotomic(d))
    return poly


def csp_fixed_point_table(
    system: CoxeterSystem, cox: Word, k: int
) -> tuple[tuple[int, int], ...]:
    """Rows (fixed facet count of the d-th power, polynomial value).

    The cyclic group has order 2k + h; its d-th element acts as the d-th
    power of the next-occurrence action, and the polynomial is evaluated at
    exp(2 pi i d / (2k + h)), a primitive e-th root of unity with
    e = (2k + h) / gcd(d, 2k + h).  That value is the remainder of the
    polynomial modulo Phi_e, which must be a constant: the powers of the
    root below the degree of Phi_e are linearly independent over Q.  The
    d-th power fixes a facet exactly when d is a multiple of the length of
    its orbit (``theta_orbits_on_facets``).
    """
    k = _read_k(k)
    order = 2 * k + system.coxeter_number
    poly = csp_polynomial(system, k)
    if poly is None:
        raise CoxeterError("the q-analogue is not a polynomial")
    lengths = [len(orbit) for orbit in theta_orbits_on_facets(system, cox, k)]
    values = {}  # the value depends on d only through e
    rows = []
    for d in range(order):  # d in order: an error names the e of the first failing d
        fixed = sum(length for length in lengths if d % length == 0)
        e = order // gcd(d, order)
        if e not in values:
            _, remainder = _poly_divmod(poly, _cyclotomic(e))
            if len(remainder) > 1:
                raise CoxeterError(
                    f"the q-analogue is not an integer at a root of unity of order {e}"
                )
            values[e] = remainder[0] if remainder else 0
        rows.append((fixed, values[e]))
    return tuple(rows)
