"""Lattices, extreme cycles, and candidate spectra.

The digit lattice of a system (R, B) is the smallest lattice containing B
and stable under multiplication by R; its dual is stable under S = R^T and
contains Z^d whenever the digits are integral. Candidate frequencies for an
orthogonal spectrum live in that dual, inside a certified box around the
attractor of the dual system (S, L). Cycles of the expanding map
x -> S x - l that stay in that attractor and on which the geometric side's
|m| is identically 1 are what a spectrum grows from: level n applies every
digit word of length n to the negated cycle points.

Two independent cycle searches are provided -- a graph search over lattice
candidates in the box, and a scan over Lyndon digit words (about N^m / m of
length m) whose composite fixed points are computed exactly in integer
arithmetic -- and they cross-check each other in tests. The word scan, the
extreme test and the spectrum keep points as integer numerators over one
denominator per record or level, and build ``Fraction``s once, for output.

|m| = 1 at x exactly when x lies in U = {x : all phases b.x agree mod 1}: a
positive combination of unit vectors has modulus one only when they
coincide. An extreme cycle lies in U point by point, so the word route of
``extreme_cycles`` drops a word at its first point outside U, before the
rest of its orbit is stepped or any record is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import ceil, floor, lcm
from operator import add

from .errors import AifsError, BudgetExceeded, RankDeficient
from .fourier import _phase_residues, _residues
from .ifs_core import AffineSystem, bounding_box
from .linalg_exact import Matrix, fvec, int_mat_vec, int_orbits, int_rows, integer_rows
from .linalg_exact import vec_sub


def _xgcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def integer_span_basis(gens) -> list:
    """Hermite-form basis of the lattice generated by integer vectors.

    Rows are inserted one by one with Euclidean pivot combination, then
    normalised (positive pivots, entries above a pivot reduced modulo it),
    which makes the output canonical: two generating sets span the same
    lattice iff they produce the same list.
    """
    gens = [list(map(int, g)) for g in gens]
    if not gens:
        return []
    d = len(gens[0])
    ech = [None] * d
    for v in gens:
        v = list(v)
        for j in range(d):
            if v[j] == 0:
                continue
            if ech[j] is None:
                ech[j] = v
                break
            a, b = ech[j][j], v[j]
            g, x, y = _xgcd(a, b)
            ech[j], v = (
                [x * p + y * q for p, q in zip(ech[j], v)],
                [(a // g) * q - (b // g) * p for p, q in zip(ech[j], v)],
            )
    pivots = [j for j in range(d) if ech[j] is not None]
    for j in pivots:
        if ech[j][j] < 0:
            ech[j] = [-x for x in ech[j]]
    for j in pivots:
        for i in pivots:
            if i < j and ech[i][j] != 0:
                f = ech[i][j] // ech[j][j]
                ech[i] = [p - f * q for p, q in zip(ech[i], ech[j])]
    return [ech[j] for j in pivots]


def build_digit_lattice(sys: AffineSystem) -> Matrix:
    """Smallest lattice containing the digits and stable under R, as the
    matrix whose columns are a basis of it.

    By Cayley-Hamilton (an integer R has a monic integer characteristic
    polynomial) it is spanned by R^k b, b a digit and 0 <= k < d, and one
    Hermite-form reduction gives its basis. Raises RankDeficient when the
    result has rank < d (its dual is then a continuum and candidate
    enumeration is meaningless).
    """
    if not sys.R.is_integer:
        raise ValueError("digit lattice is defined for integer matrices only")
    den, gens = integer_rows(sys.digits)
    gens = [g for g in gens if any(g)]
    basis = integer_span_basis(int_orbits(int_rows(sys.R.rows, 1), gens))
    if len(basis) < sys.dim:
        raise RankDeficient(
            "digit lattice has rank %d < %d" % (len(basis), sys.dim),
            rank=len(basis),
        )
    return Matrix(list(zip(*[[Fraction(x, den) for x in v] for v in basis])))


#: lattice coordinate vectors scanned by one box enumeration
BOX_CAP = 1_000_000


def enumerate_box_points(g: Matrix, lo, hi) -> list:
    """All points of the lattice spanned by the columns of g in the closed
    box [lo, hi], exactly.

    Coordinates k of a point x = G k are bounded by evaluating G^{-1} on the
    box corners; the integer ranges are scanned and each candidate compared
    against the box exactly.
    """
    ginv = g.inverse()
    d = g.n
    lo_f = [Fraction(c) for c in lo]
    hi_f = [Fraction(c) for c in hi]
    corners = [ginv.mat_vec(c) for c in product(*zip(lo_f, hi_f))]
    kranges = []
    total = 1
    for i in range(d):
        vals = [c[i] for c in corners]
        kranges.append(range(floor(min(vals)), ceil(max(vals)) + 1))
        total *= len(kranges[-1])
        if total > BOX_CAP:
            raise BudgetExceeded("box enumeration would scan %d points" % total)
    out = []
    for k in product(*kranges):
        x = g.mat_vec(fvec(k))
        if all(lo_f[i] <= x[i] <= hi_f[i] for i in range(d)):
            out.append(x)
    return out


# ---------------------------------------------------------------------------
# cycles


@dataclass(frozen=True)
class CycleRecord:
    """A cycle of x -> S x - l.

    Invariant: points[(i+1) % m] == S points[i] - digits[digit_indices[i]].
    Each point is therefore the image of the next one under a contraction of
    the dual system, so cycle points always lie in its attractor.
    """

    points: tuple
    digit_indices: tuple
    extreme: bool | None = None  # |m| = 1 at every point (set by classify)

    @property
    def period(self) -> int:
        return len(self.points)

    def key(self) -> frozenset:
        return frozenset(self.points)


def _canonical(points: list, digits: list) -> CycleRecord:
    m = len(points)
    best = min(range(m), key=lambda i: points[i])
    return CycleRecord(
        points=tuple(points[(best + i) % m] for i in range(m)),
        digit_indices=tuple(digits[(best + i) % m] for i in range(m)),
    )


#: DFS steps one box cycle search may take
DFS_BUDGET = 2_000_000


def find_cycles_in_box(sys_dual: AffineSystem, candidates, max_period: int) -> list:
    """All simple cycles of x -> S x - l with every point in ``candidates``.

    Builds the transition graph on the candidate set (an edge per digit that
    keeps the image inside the set), prunes dead ends to a fixpoint, then
    enumerates simple cycles by rooted DFS (each cycle is reported from its
    smallest node). For certified digit matrices the successor inside the
    attractor is unique, so simple cycles are all there are.
    """
    s = sys_dual.R
    cand = {fvec(c) for c in candidates}
    succ = {}
    for x in cand:
        sx = s.mat_vec(x)
        succ[x] = [
            (i, y)
            for i, l in enumerate(sys_dual.digits)
            if (y := vec_sub(sx, l)) in cand
        ]
    changed = True
    while changed:
        changed = False
        for x in [x for x, outs in succ.items() if not outs]:
            del succ[x]
            changed = True
        if changed:
            for x in succ:
                succ[x] = [(i, y) for i, y in succ[x] if y in succ]
    cycles = {}
    nodes = sorted(succ)
    order = {x: i for i, x in enumerate(nodes)}
    steps = 0
    for start in nodes:
        stack = [(start, [], [])]
        while stack:
            x, path, digs = stack.pop()
            steps += 1
            if steps > DFS_BUDGET:
                raise BudgetExceeded("cycle search exceeded %d steps" % DFS_BUDGET)
            if len(path) >= max_period:
                continue
            for i, y in succ[x]:
                if y == start:
                    rec = _canonical(path + [x], digs + [i])
                    cycles[rec.key()] = rec
                elif order[y] > order[start] and y not in path:
                    stack.append((y, path + [x], digs + [i]))
    return sorted(cycles.values(), key=lambda r: r.points)


#: digit words, of every length up to the period, one word scan may cover
WORD_BUDGET = 2_000_000

_WORD_PERIOD_CAP = 8  # the longest words either search route scans


def find_cycles_by_words(sys_dual: AffineSystem, max_period: int) -> list:
    """Cycles of x -> S x - l found through digit words.

    A word (l_1 ... l_m) has exactly one periodic point,
    x0 = (S^m - I)^{-1} sum_j S^{m-j} l_j, and it automatically lies in the
    attractor of the dual system. Every cycle of period m is the orbit of
    exactly one Lyndon word of length m (its least rotation), so scanning
    the Lyndon words up to length max_period -- about N^m / m of them,
    generated in lexicographic order by Duval's algorithm -- is exhaustive
    for all periods up to that length and needs no candidate box.

    The scan runs in integers. With T = a S and L_i = c l_i integral, the
    prefix sums A_k = T A_{k-1} + a^k L_{w_k} are shared along the word
    trie, the fixed point is J A_m / D with J = e (S^m - I)^{-1} integral and
    D = e c a^m, and the rest of the cycle keeps that denominator. Records
    are rotated and deduped on those integer points; Fractions are built
    once, for the returned records. The ``WORD_BUDGET`` guard still
    counts all N^m words. A word whose orbit revisits a point strings shorter
    cycles together and is skipped; an orbit that fails to close raises
    RuntimeError, since that can only be a bug. Every cycle is returned,
    unclassified: ``extreme_cycles`` runs the same scan, but drops a word at
    its first point outside U, where |m| < 1, so only extreme cycles remain.
    """
    return _scan_words(sys_dual, max_period, None)


def _scan_words(sys_dual: AffineSystem, max_period: int, sys_geom) -> list:
    """The word scan of ``find_cycles_by_words``. Given the geometric
    system, it drops each word at its first point outside U (see the module
    docstring), skipping the closure check, and marks the rest extreme."""
    n = sys_dual.n_digits
    d = sys_dual.dim
    if sum(n**m for m in range(1, max_period + 1)) > WORD_BUDGET:
        raise BudgetExceeded("word scan would be larger than %d" % WORD_BUDGET)
    if sys_geom is not None and sys_geom.dim != d:
        raise ValueError("dimension mismatch")
    s = sys_dual.R
    a, t = integer_rows(s.rows)
    c, digits = integer_rows(sys_dual.digits)
    # shifted[k][i] = a^k L_i, the digit term at depth k of the trie
    shifted = [int_rows(digits, a**k) for k in range(max_period + 1)]
    ident = Matrix.identity(d)
    per_length = [None]  # m -> (J, D, [e a^m L_i])
    for m in range(1, max_period + 1):
        inv = s.pow(m).add(ident.scale(-1)).inverse()
        e, inv_rows = integer_rows(inv.rows)
        per_length.append((inv_rows, e * c * a**m, int_rows(digits, e * a**m)))
    cycles = {}
    word = [0]
    accs = [(0,) * d]  # accs[k]: A_k of the current word's length-k prefix
    while True:
        m = len(word)
        for k in range(len(accs), m + 1):
            accs.append(
                tuple(map(add, int_mat_vec(t, accs[-1]), shifted[k][word[k - 1]]))
            )
        inv, den, stepped = per_length[m]
        x = int_mat_vec(inv, accs[m])
        pts = []
        for li in word:
            if sys_geom is not None and len(set(_residues(sys_geom, x, den)[0])) > 1:
                break  # |m_B| < 1 here: no extreme cycle through this word
            pts.append(x)
            # D (S x - l_i) = T X / a - e a^m L_i, exact for a cycle point
            x = tuple(y // a - z for y, z in zip(int_mat_vec(t, x), stepped[li]))
        else:
            if x != pts[0]:
                raise RuntimeError(
                    "orbit of word %s does not close up" % (tuple(word),)
                )
            key = frozenset(pts)
            # a primitive word can still revisit a point: it then strings
            # together shorter cycles, found at their own lengths
            if len(key) == m and key not in cycles:
                cycles[key] = _canonical(pts, word), den
        # Duval's successor: repeat the word up to max_period, drop trailing
        # maximal letters, bump the last one
        while len(word) < max_period:
            word.append(word[-m])
        while word and word[-1] == n - 1:
            word.pop()
        if not word:
            break
        word[-1] += 1
        del accs[len(word):]
    entries = {(y, den) for r, den in cycles.values() for p in r.points for y in p}
    fr = {k: Fraction(*k) for k in entries}  # one Fraction per distinct entry
    extreme = None if sys_geom is None else True
    records = (CycleRecord(tuple(tuple(fr[y, den] for y in p) for p in r.points),
                           r.digit_indices, extreme) for r, den in cycles.values())
    return sorted(records, key=lambda r: r.points)


def classify_extreme(sys_geom: AffineSystem, cycles) -> list:
    """Mark each cycle by whether the geometric symbol has modulus one on
    every one of its points (only those can seed a spectrum): all phase
    residues of a point, over its record's denominator, agree. Most cycles
    fail at their first point, so numerators are built point by point."""
    out = []
    for c in cycles:
        den = lcm(*[x.denominator for p in c.points for x in p])
        nums = ([x.numerator * (den // x.denominator) for x in p] for p in c.points)
        res = (_phase_residues(sys_geom, y, den)[0] for y in nums)
        unimodular = (len(set(r)) == 1 for r in res)
        out.append(CycleRecord(c.points, c.digit_indices, extreme=all(unimodular)))
    return out


def search_cycles(
    sys_geom: AffineSystem, sys_dual: AffineSystem, max_period: int, via: str
) -> list:
    """Every cycle of the dual system up to max_period, through either
    search route (the word scan is capped at period 8).

    The box route takes its candidates from D* = {x : g.x in Z for g in D},
    the dual of the digit lattice D (``build_digit_lattice``), inside the
    dual attractor's box, and keeps an edge x -> S x - l only when its end
    is a candidate. R D lies in D, so S maps D* into itself, and for x in
    D*, S x - l lies in D* exactly when l does: a dual digit outside D*
    gives no edge at all, and every cycle through it would be dropped
    without a sign. The box route therefore refuses such a digit
    (AifsError); the word route uses no lattice. With every digit in D*,
    the box route finds every cycle up to max_period whose points lie in
    D*, and no others.

    The cycles come back unclassified. Only those inside U (all phases b.x
    agree mod 1) are extreme; the word route of ``extreme_cycles`` drops
    the others during the scan, this function keeps them.
    """
    if via == "box":
        basis_t = build_digit_lattice(sys_geom).transpose()
        # x is in D* iff basis^T x is integral
        kg, rows = integer_rows(basis_t.rows)
        kl, nums = integer_rows(sys_dual.digits)
        for l, num in zip(sys_dual.digits, nums):
            if any(v % (kg * kl) for v in int_mat_vec(rows, num)):
                raise AifsError(
                    "dual digit (%s) lies outside the dual of the digit lattice,"
                    " so the box route cannot see its cycles; use --via words"
                    % ", ".join(map(str, l))
                )
        dual_basis = basis_t.inverse()
        lo, hi = bounding_box(sys_dual)
        cands = enumerate_box_points(dual_basis, lo, hi)
        return find_cycles_in_box(sys_dual, cands, max_period=max_period)
    if via == "words":
        return find_cycles_by_words(sys_dual, min(max_period, _WORD_PERIOD_CAP))
    raise ValueError("via must be 'box' or 'words'")


def extreme_cycles(
    sys_geom: AffineSystem,
    sys_dual: AffineSystem,
    max_period: int = 64,
    via: str = "box",
) -> list:
    """Extreme cycles of the dual system, through either search route.

    Every point of an extreme cycle lies in U = {x : all phases b.x agree
    mod 1}. The word route drops a word at its first point outside U, so it
    builds no record for, and runs no closure check on, the other cycles.
    The box route classifies every cycle it finds and keeps the extreme ones.
    """
    if via == "words":
        return _scan_words(sys_dual, min(max_period, _WORD_PERIOD_CAP), sys_geom)
    cycles = search_cycles(sys_geom, sys_dual, max_period, via)
    return [c for c in classify_extreme(sys_geom, cycles) if c.extreme]


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class SpectrumSet:
    """Level-n candidate spectrum grown from extreme cycles.

    Level 0 is the negated cycle points; level k+1 applies every map
    x -> S x + l. Levels are nested -- following a cycle's own digit word
    reproduces its seeds -- so the stated level contains all lower ones.
    """

    level: int
    elements: tuple  # sorted exact vectors

    @property
    def size(self) -> int:
        return len(self.elements)


#: elements one level of one cycle's spectrum may reach
SPECTRUM_CAP = 2_000_000


def spectrum_from_cycles(sys_dual: AffineSystem, cycles, level: int) -> SpectrumSet:
    """The negated points of extreme cycles, pushed ``level`` times through
    every x -> S x + l. A level is a set of integer numerators over one
    denominator: with S = T / a (T integral) and seeds and digits l = L / D
    over one D, level k lies over D a^k and a step is X -> T X + a^(k+1) L,
    so the tuples sort as the vectors do and Fractions are built once, when
    sorted. ``SPECTRUM_CAP`` bounds each level of each cycle."""
    cycles = list(cycles)  # read three times below
    if any(c.extreme is False for c in cycles):
        raise ValueError("spectrum seeds must be extreme cycles")
    a, t = integer_rows(sys_dual.R.rows)
    den, rows = integer_rows([*sys_dual.digits, *(p for c in cycles for p in c.points)])
    digits, seeds = rows[: sys_dual.n_digits], iter(rows[sys_dual.n_digits :])
    union = set()
    for cyc in cycles:
        layer = {tuple(-v for v in next(seeds)) for _ in cyc.points}
        for k in range(1, level + 1):
            shifted = int_rows(digits, a**k)
            nxt = set()
            for x in layer:
                tx = int_mat_vec(t, x)
                nxt.update(tuple(map(add, tx, l)) for l in shifted)
                if len(nxt) > SPECTRUM_CAP:
                    raise BudgetExceeded(
                        "spectrum grew past %d elements" % SPECTRUM_CAP
                    )
            layer = nxt
        union |= layer
    fr = {v: Fraction(v, den * a**level) for v in set(chain.from_iterable(union))}
    elements = tuple(tuple(fr[v] for v in x) for x in sorted(union))
    return SpectrumSet(level=level, elements=elements)
