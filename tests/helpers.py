"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the code paths they check: word checks one
letter at a time instead of one ``bytes`` translate, word-length by
breadth-first search over the group and by comparing codes one at a time
instead of the sign table, sorting words by their lexicographic
definition over whole ``Element`` products instead of the greedy scan on
code sequences, face tests by brute-force subword search and by the
Demazure product of the complement completed to w0 instead of the greedy
scan, commutation classes by breadth-first search over adjacent swaps,
facets, root tables and flips by ``Element`` products instead of the code
sequences of the kernel, facets also as the closure of a seed facet under
the public ``flip``, facets of multi-cluster complexes by reflection
products, element orders by repeated multiplication, f-vectors and minimal
non-faces by materialising every subset of every facet instead of the
h-vector and the facet-bitset growth, diagonal crossings by cyclic
interleaving, cyclic-sieving values by complex floating-point evaluation
instead of cyclotomic remainders, q-analogues by products of q-integers and
long division instead of shifted (1 - q^a) factors, counts by closed formulas from outside the
package, the next-occurrence action by rescanning the word, the
pairwise-compatibility complex by scanning every root set, the SIN
alternation and the knitted arrows by one scan of the word per
Coxeter-graph edge, root closures by a dot product per reflection instead
of carried pairings, reflection tables by composing code lists entry by
entry instead of joining slices and translating, and products by a
generator by its whole table instead of the cut one.
"""

from __future__ import annotations

import cmath
from collections import deque
from functools import lru_cache
from itertools import combinations, permutations
from math import comb

from subwordlab import subword
from subwordlab.coxeter import (
    CoxeterError,
    CoxeterSystem,
    Element,
    Word,
    check_budget,
    demazure_product,
    element_from_word,
    enumerate_coxeter_words,
    longest_element,
    psi_word,
)
from subwordlab.multicluster import almost_positive_roots, c_compatible, multi_cluster_word
from subwordlab.subword import flip, is_face, reduce_to_w0, root_table


@lru_cache(maxsize=None)
def system(name: str) -> CoxeterSystem:
    return CoxeterSystem(name)


def group_by_bfs(sys: CoxeterSystem) -> dict[Element, int]:
    """Every group element with its distance from the identity.

    Distance in the Cayley graph equals reduced-word length, giving an
    independent length oracle for small groups.
    """
    distances = {sys.identity: 0}
    queue = deque([sys.identity])
    while queue:
        w = queue.popleft()
        for s in range(1, sys.rank + 1):
            nxt = w * sys.generators[s - 1]
            if nxt not in distances:
                distances[nxt] = distances[w] + 1
                queue.append(nxt)
    return distances


def brute_check_word(sys: CoxeterSystem, word):
    """``check_word`` one letter at a time: the word as a tuple when every
    letter is an int (or a bool) from 1 to the rank, otherwise the refusal
    message naming the first letter that is not."""
    word = tuple(word)
    for s in word:
        if type(s) not in (int, bool) or not 1 <= s <= sys.rank:
            return f"generator s{s!r} out of range for {sys.descriptor.name()}"
    return word


def brute_min_word_length(sys: CoxeterSystem, w: Element) -> int:
    return group_by_bfs(sys)[w]


def brute_length(sys: CoxeterSystem, w: Element) -> int:
    """The number of positive roots that w sends to negative ones, read one
    code at a time."""
    N = sys.number_of_positive_roots
    top = sys.codes[N]  # codes above it are negative
    return sum(w.image[c:c + 1] > top for c in range(1, N + 1))


def brute_is_sorting_word(sys: CoxeterSystem, cox, w: Element, word) -> bool:
    """Is ``word`` the c-sorting word of w, by its definition and whole
    ``Element`` products: a reduced word for w whose letters, each placed at
    the first free position of c,c,c,..., skip no position whose letter
    starts a reduced word of the still-unwritten rest?"""
    if element_from_word(sys, word) != w or len(word) != brute_length(sys, w):
        return False
    rest, p = w, 0  # rest = (letters so far)^{-1} w; p the next position of c,c,c,...
    for s in word:
        while cox[p % len(cox)] != s:
            skipped = sys.generators[cox[p % len(cox)] - 1] * rest
            if brute_length(sys, skipped) < brute_length(sys, rest):
                return False
            p += 1
        rest, p = sys.generators[s - 1] * rest, p + 1
    return True


def brute_contains_reduced_word(sys: CoxeterSystem, word, target: Element) -> bool:
    """Exponential scan over all subwords; reliable for short words."""
    t_len = target.length()
    found = [False]

    def rec(pos, current, used):
        if found[0]:
            return
        if used == t_len:
            if current == target:
                found[0] = True
            return
        if len(word) - pos < t_len - used:
            return
        rec(pos + 1, current, used)
        s = word[pos]
        if not current.has_right_descent(s):
            rec(pos + 1, current * sys.generators[s - 1], used + 1)

    rec(0, sys.identity, 0)
    return found[0]


def completed_is_face(sys: CoxeterSystem, word, target: Element, positions) -> bool:
    """The face test as a Demazure product: the complement of the positions,
    followed by the ``reduce_to_w0`` completion of target, has product w0."""
    rest = tuple(s for p, s in enumerate(word, start=1) if p not in positions)
    return demazure_product(sys, reduce_to_w0(sys, rest, target)) == longest_element(sys)


def brute_facets(sys: CoxeterSystem, word, target: Element) -> tuple:
    """Facets by depth-first search over positions with ``Element`` products."""
    r = len(word)
    target_length = target.length()
    facet_size = r - target_length
    if facet_size < 0:
        return ()
    facets = []
    face = []

    def walk(pos, product, product_length):
        if r - pos < target_length - product_length:
            return
        if pos == r:
            if product == target:
                facets.append(tuple(face))
            return
        if len(face) < facet_size:
            face.append(pos + 1)
            walk(pos + 1, product, product_length)
            face.pop()
        s = word[pos]
        if not product.has_right_descent(s):
            walk(pos + 1, product * sys.generators[s - 1], product_length + 1)

    walk(0, sys.identity, 0)
    return tuple(sorted(facets))


def reflection_sequence(system: CoxeterSystem, word: Word) -> tuple[Element, ...]:
    """Reflections t_i = q_1...q_{i-1} q_i q_{i-1}...q_1 along a word: t_i is
    the reflection in r(empty facet, i), so one root walk gives them all."""
    reflections = system.reflections
    return tuple(
        Element(system, reflections[r.root]) for r in root_table(system, word, ())
    )


def is_facet_by_reflections(
    system: CoxeterSystem, cox: Word, k: int, positions
) -> bool:
    """Facet test: the reflections at the chosen positions, multiplied in
    decreasing position order, must equal c^k."""
    word = multi_cluster_word(system, cox, k)
    chosen = tuple(sorted(positions))
    if len(chosen) != k * system.rank:
        raise CoxeterError(f"a facet candidate needs exactly {k * system.rank} positions")
    if len(set(chosen)) != len(chosen) or chosen and (
        chosen[0] < 1 or chosen[-1] > len(word)
    ):
        raise CoxeterError("bad position set")
    reflections = reflection_sequence(system, word)
    product = system.identity
    for p in reversed(chosen):
        product = product * reflections[p - 1]
    return product == element_from_word(system, tuple(cox) * k)  # c^k


def element_order(w: Element) -> int:
    """The order of w by repeated multiplication."""
    power = w
    order = 1
    while not power.is_identity():
        power = power * w
        order += 1
        if order > 2 * w.system.number_of_positive_roots ** 2:
            raise CoxeterError("runaway order computation")
    return order


def flip_closure(sys: CoxeterSystem, word, target: Element, seed) -> tuple:
    """Every facet reached from a seed facet by the public ``flip``, sorted.

    The flips run over ``reduce_to_w0(word, target)``, so they exist for
    balls too; a flip that lands in the appended completion is a boundary
    wall and is skipped.
    """
    seed = tuple(sorted(seed))
    if len(seed) != len(word) - target.length() or not is_face(sys, word, target, seed):
        raise ValueError("seed is not a facet")
    completed = reduce_to_w0(sys, word, target)
    seen = {seed}
    queue = deque([seed])
    while queue:
        facet = queue.popleft()
        for q in facet:
            neighbor, landing = flip(sys, completed, facet, q)
            if landing <= len(word) and neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    return tuple(sorted(seen))


def brute_root_table(sys: CoxeterSystem, word, facet) -> tuple:
    """Root function values w(alpha_s) by ``Element`` products and ``apply``."""
    out = []
    prefix = sys.identity
    for p, s in enumerate(word, start=1):
        out.append(prefix.apply(s - 1))
        if p not in facet:
            prefix = prefix * sys.generators[s - 1]
    return tuple(out)


def brute_flip(sys: CoxeterSystem, word, facet, q: int) -> tuple:
    """The flip of q by ``brute_root_table``: (the facet with q swapped for
    its partner, the partner), the partner being the one position outside
    the facet whose root is the root of q up to sign.  With none, or more
    than one, raises ``CoxeterError`` with the message of ``flip``, which
    lists the candidates in position order."""
    table = brute_root_table(sys, word, facet)
    wanted = table[q - 1].root
    partners = [
        p for p in range(1, len(word) + 1) if p not in facet and table[p - 1].root == wanted
    ]
    if len(partners) != 1:
        if partners:
            where = f"positions {', '.join(map(str, partners))} outside the facet carry"
        else:
            where = "no position outside the facet carries"
        raise CoxeterError(
            f"cannot flip position {q}: {where} its root"
            " (flips need a facet of a spherical complex)"
        )
    (partner,) = partners
    return tuple(sorted(set(facet) - {q} | {partner})), partner


def brute_right_multiply(sys: CoxeterSystem, image, s: int):
    """The image of w * s_s as the whole table of s translated by the image
    of w, with no cut to the codes that name roots."""
    return sys.reflections[s - 1].translate(image)


def brute_closure_roots(n: int, cartan, expected: int):
    """The positive roots and simple-reflection images by a breadth-first
    closure that reflects each root with a fresh dot product against the
    Cartan columns, instead of the pairings the library carries: (roots,
    images), images[t][i] the code of s_{t+1}(beta_i)."""

    def reflect(vec, t):
        coef = sum(vec[s] * cartan[s][t] for s in range(n) if vec[s])
        out = list(vec)
        out[t] = vec[t] - coef
        return tuple(out)

    roots = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    index = {root: i for i, root in enumerate(roots)}
    images = [[] for _ in range(n)]
    head = 0
    while head < len(roots):
        for t in range(n):
            if head == t:
                images[t].append(2 * expected - t)
                continue
            image = reflect(roots[head], t)
            if image not in index:
                index[image] = len(roots)
                roots.append(image)
            images[t].append(index[image] + 1)
        head += 1
        assert len(roots) <= expected
    assert len(roots) == expected
    return tuple(roots), images


def brute_reflection_tables(simple_images, encode) -> tuple:
    """Every root reflection as a list of codes, composed entry by entry
    instead of joined from slices and translated: the simple tables set
    each image and its negation (code 2N + 1 - c) in a list, and
    t_{s(beta)} = s t_beta s."""
    N = len(simple_images[0])
    codes = 2 * N + 1
    tables = [None] * N
    for t, images in enumerate(simple_images):
        table = list(range(max(codes, 256)))
        for j, c in enumerate(images, start=1):
            table[j] = c
            table[codes - j] = codes - c
        tables[t] = table
    simple = tables[:len(simple_images)]
    order = list(range(len(simple_images)))
    for i in order:
        for s, images in enumerate(simple_images):
            j = images[i] - 1
            if j < N and tables[j] is None:
                tables[j] = [simple[s][tables[i][simple[s][c]]] for c in range(len(simple[s]))]
                order.append(j)
    return tuple(encode(table) for table in tables)


# Every family at a few ranks, the exceptional types included.
ALL_TYPES = [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "D3", "D4", "D5",
    "E6", "E7", "E8", "F4", "G2", "H3", "H4",
    "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(7)", "I2(8)", "I2(11)",
]

# Small groups of most families, for draws that run an exponential oracle
# on every example.
SMALL_TYPES = ["A1", "A2", "A3", "B2", "B3", "G2", "H3", "D4"]

# Types on both sides of the byte/str boundary of code sequences: I2(127) is
# the last byte-coded type, I2(128) and A16 are str-coded.
CODE_EDGE_TYPES = ("I2(127)", "I2(128)", "A16")


def oracle_coxeter_words(sys: CoxeterSystem) -> tuple:
    """Every Coxeter word, or only the lex-first one s1 s2 ... sn on the
    code-edge types, where A16 alone has 2^15 Coxeter words."""
    if sys.descriptor.name() in CODE_EDGE_TYPES:
        return (tuple(range(1, sys.rank + 1)),)
    return enumerate_coxeter_words(sys)


def brute_theta(sys: CoxeterSystem, word) -> tuple:
    """The next-occurrence permutation by rescanning the word at every
    position: the next later copy of the letter, else the first copy of its
    psi image."""
    out = []
    for p, s in enumerate(word, start=1):
        later = [q for q in range(p + 1, len(word) + 1) if word[q - 1] == s]
        if later:
            out.append(later[0])
        else:
            partner = sys.psi_table[s - 1]
            out.append(next(q for q, x in enumerate(word, start=1) if x == partner))
    return tuple(out)


# Types for draws against the one-scan-per-edge oracles: every family but E,
# the exact and the float dihedral roots, and a branch node (D4).
SCAN_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "D4", "F4", "G2", "H3", "I2(7)"]


def _edges(sys: CoxeterSystem) -> list:
    return [(s, t) for s in range(1, sys.rank + 1) for t in sys.neighbors[s - 1] if s < t]


def brute_sin_property(sys: CoxeterSystem, word) -> bool:
    """Strong intervening-neighbors test by one scan of the doubled word
    w + psi(w) per Coxeter-graph edge: the Demazure product must be w0, and
    the two letters of every edge must strictly alternate."""
    if demazure_product(sys, word) != longest_element(sys):
        return False
    doubled = tuple(word) + psi_word(sys, word)
    for edge in _edges(sys):
        chain = [x for x in doubled if x in edge]
        if any(a == b for a, b in zip(chain, chain[1:])):
            return False
    return True


def brute_knitting_arrows(sys: CoxeterSystem, word, origin: int = 1) -> tuple:
    """The sorted arrows of the knitted quiver by one scan of the word per
    Coxeter-graph edge: consecutive occurrences of the two letters of an
    edge give an arrow when they differ.  The j-th occurrence of s is the
    vertex (origin + j - 1, s), counted by rescanning the prefix."""
    labels = [(origin + word[:p + 1].count(s) - 1, s) for p, s in enumerate(word)]
    arrows = []
    for edge in _edges(sys):
        chain = [p for p, x in enumerate(word) if x in edge]
        arrows += [
            (labels[a], labels[b]) for a, b in zip(chain, chain[1:]) if word[a] != word[b]
        ]
    return tuple(sorted(arrows))


def naive_complex_max_face_sizes(sys: CoxeterSystem, cox, k: int) -> tuple:
    """Maximal face sizes of the pairwise-compatibility complex.

    Faces are the root sets with no k+1 pairwise-incompatible members; the
    construction fails purity in general, which is why the multi-cluster
    complex is not defined this way.  More than ``subword.MAX_FACES`` root
    sets raise ``ResourceLimitError`` before the scan starts.
    """
    roots = almost_positive_roots(sys)
    total = len(roots)
    check_budget(
        1 << total, subword.MAX_FACES,
        f"the compatibility complex of {sys.descriptor.name()} with k={k}", "root sets",
        f"2^{total} = {1 << total}",
    )
    incompatible = [[False] * total for _ in range(total)]
    for i in range(total):
        for j in range(i + 1, total):
            bad = not c_compatible(sys, cox, roots[i], roots[j])
            incompatible[i][j] = incompatible[j][i] = bad

    def admissible(members: tuple) -> bool:
        # no k+1 pairwise-incompatible subset
        for group in combinations(members, k + 1):
            if all(incompatible[a][b] for a in group for b in group if a < b):
                return False
        return True

    faces = set()
    for mask in range(1 << total):
        members = tuple(i for i in range(total) if mask >> i & 1)
        if admissible(members):
            faces.add(frozenset(members))
    maximal_sizes = set()
    for face in faces:
        if not any(face | {v} in faces for v in range(total) if v not in face):
            maximal_sizes.add(len(face))
    return tuple(sorted(maximal_sizes))


def brute_all_faces(complex_) -> frozenset:
    """Every subset of every facet, as sorted position tuples."""
    return frozenset(
        sub
        for facet in complex_.facets
        for size in range(len(facet) + 1)
        for sub in combinations(facet, size)
    )


def brute_f_vector(complex_) -> tuple:
    """Face counts (f_-1, ..., f_dim) by materialising every face."""
    faces = brute_all_faces(complex_)
    if not faces:
        return (0,)
    counts = [0] * (max(len(face) for face in faces) + 1)
    for face in faces:
        counts[len(face)] += 1
    return tuple(counts)


def brute_minimal_nonfaces(complex_, max_size: int) -> tuple:
    """Minimal non-faces of size <= max_size by scanning every vertex subset."""
    faces = brute_all_faces(complex_)
    out = []
    for size in range(1, max_size + 1):
        for candidate in combinations(complex_.vertices, size):
            drops = (candidate[:j] + candidate[j + 1:] for j in range(size))
            if candidate not in faces and all(drop in faces for drop in drops):
                out.append(candidate)
    return tuple(sorted(out))


def brute_diagonals_cross(m: int, d1, d2) -> bool:
    """Strict crossing by cyclic interleaving: exactly one endpoint of d2 lies
    strictly between the endpoints of d1 going round the m-gon."""
    a, b = d1
    x, y = d2
    if {a, b} & {x, y}:
        return False

    def inside(v):
        return 0 < (v - a) % m < (b - a) % m

    return inside(x) != inside(y)


def float_csp_values(poly, order: int) -> list:
    """The polynomial with coefficients ``poly`` (constant term first) at
    exp(2 pi i d / order) for 0 <= d < order, each rounded after checking it
    lies within 1e-9 of an integer."""
    values = []
    for d in range(order):
        q = cmath.exp(2j * cmath.pi * d / order)
        value = 0
        for c in reversed(poly):
            value = value * q + c
        rounded = round(value.real)
        assert abs(value - rounded) < 1e-9, (d, value)
        values.append(rounded)
    return values


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_divmod(num: list, den: list) -> tuple:
    """Long division over the integers; stops with the current remainder at
    the first quotient coefficient that is not an integer."""
    num = list(num)
    quotient = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for shift in range(len(quotient) - 1, -1, -1):
        coef, remainder = divmod(num[shift + len(den) - 1], lead)
        if remainder:
            return quotient, num
        if coef:
            quotient[shift] = coef
            for j, y in enumerate(den):
                num[shift + j] -= coef * y
    while num and num[-1] == 0:
        num.pop()
    return quotient, num


def brute_csp_polynomial(sys: CoxeterSystem, k: int):
    """The q-analogue of the count formula as the product of the q-integers
    [d + h + 2j]_q over that of the [d + 2j]_q, by general polynomial
    products and one long division; None when the division leaves a
    remainder."""
    numerator, denominator = [1], [1]
    h = sys.coxeter_number
    for j in range(k):
        for d in sys.degrees:
            numerator = _poly_mul(numerator, [1] * (d + h + 2 * j))
            denominator = _poly_mul(denominator, [1] * (d + 2 * j))
    quotient, remainder = _poly_divmod(numerator, denominator)
    return None if remainder else tuple(quotient)


def commutation_class(sys: CoxeterSystem, word) -> frozenset:
    """Every word reachable by swaps of adjacent commuting letters (BFS)."""
    seen = {tuple(word)}
    queue = deque(seen)
    while queue:
        current = queue.popleft()
        for i in range(len(current) - 1):
            s, t = current[i], current[i + 1]
            if s != t and sys.commute(s, t):
                swapped = current[:i] + (t, s) + current[i + 2:]
                if swapped not in seen:
                    seen.add(swapped)
                    queue.append(swapped)
    return frozenset(seen)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def word_has_suffix_up_to_commutations(sys: CoxeterSystem, word, suffix) -> bool:
    """Greedy right-peel: a letter can move to the end iff nothing after its
    last occurrence fails to commute with it."""
    remaining = list(word)
    for s in reversed(list(suffix)):
        hits = [i for i, x in enumerate(remaining) if x == s]
        if not hits:
            return False
        last = hits[-1]
        if any(
            x == s or not sys.commute(x, s) for x in remaining[last + 1:]
        ):
            return False
        del remaining[last]
    return True


def linear_extension_words(sys: CoxeterSystem, quiver) -> frozenset:
    """All words read off linear extensions of (the transitive closure of) a
    quiver whose vertices are (occurrence, generator) pairs."""
    vertices = list(quiver.vertices)
    succ = {v: set() for v in vertices}
    preds = {v: set() for v in vertices}
    for a, b in quiver.arrows:
        succ[a].add(b)
        preds[b].add(a)
    # same-generator occurrences are forced in increasing order
    by_gen: dict[int, list] = {}
    for v in sorted(vertices):
        by_gen.setdefault(v[1], []).append(v)
    for chain in by_gen.values():
        for a, b in zip(chain, chain[1:]):
            succ[a].add(b)
            preds[b].add(a)

    out = set()

    def rec(taken, available, word):
        if len(word) == len(vertices):
            out.add(tuple(word))
            return
        for v in sorted(available):
            rec(
                taken | {v},
                (available - {v})
                | {w for w in succ[v] if preds[w] <= (taken | {v})},
                word + [v[1]],
            )

    start = {v for v in vertices if not preds[v]}
    rec(frozenset(), start, [])
    return frozenset(out)
