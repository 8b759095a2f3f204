"""Exact vanishing-sum certificates, checked against cyclotomic divisibility."""

import time
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aifs import cyclotomy
from aifs.cyclotomy import (
    Q_CAP,
    cyclotomic,
    divisors,
    mobius,
    vanishing_sum,
)
from aifs.errors import ExactnessUnavailable


def poly_divides(f, g) -> bool:
    """Whether monic integer polynomial f divides integer polynomial g."""
    f = list(f)
    if not f or f[-1] != 1:
        raise ValueError("divisor must be monic")
    r = list(g)
    df = len(f) - 1
    while len(r) - 1 >= df:
        c = r[-1]
        if c:
            off = len(r) - 1 - df
            for i in range(df + 1):
                r[off + i] -= c * f[i]
        r.pop()
    return not any(r)


def test_divisors_and_mobius():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_cyclotomic_degree_counts_units():
    # the degree of the q-th cyclotomic polynomial is phi(q), the number of
    # units mod q
    def totient(q):
        return sum(1 for k in range(1, q + 1) if gcd(k, q) == 1)

    assert all(len(cyclotomic(q)) - 1 == totient(q) for q in range(1, 60))


def test_cyclotomic_small():
    # ascending coefficients: constant term first
    assert cyclotomic(1) == (-1, 1)  # t - 1
    assert cyclotomic(2) == (1, 1)  # 1 + t
    assert cyclotomic(4) == (1, 0, 1)  # 1 + t^2
    assert cyclotomic(6) == (1, -1, 1)  # 1 - t + t^2


def test_cyclotomic_105_has_coefficient_minus_two():
    # the first index where a coefficient outside {-1, 0, 1} appears;
    # catches naive constructions that assume flat coefficients
    coeffs = cyclotomic(105)
    assert len(coeffs) == 49  # degree phi(105) = 48
    assert min(coeffs) == -2


def test_poly_divides():
    # ascending coefficients; t^2 - 1 = (t - 1)(t + 1)
    assert poly_divides([-1, 1], [-1, 0, 1])
    assert poly_divides([1, 1], [-1, 0, 1])
    assert not poly_divides([1, 0, 1], [-1, 0, 1])


def test_cube_roots_of_unity_sum_to_zero():
    assert vanishing_sum([1, 1, 1], [Fraction(0), Fraction(1, 3), Fraction(2, 3)])


def test_pair_sum_nonzero():
    assert not vanishing_sum([1, 1], [Fraction(0), Fraction(1, 3)])


def test_half_turn_cancels():
    assert vanishing_sum([1, 1], [Fraction(0), Fraction(1, 2)])


def test_weighted_cancellation():
    # 2 e(0) + e(1/2) + e(1/2) = 0, with rational weights
    assert vanishing_sum(
        [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
        [Fraction(1, 2), Fraction(0), Fraction(0)],
    )


def test_gcd_reduction_handles_large_common_denominator():
    # phases k/999983 with k multiples of 999983/... : reduces to q = 3
    big = 999983 * 3
    assert vanishing_sum(
        [1, 1, 1],
        [Fraction(0), Fraction(999983, big), Fraction(2 * 999983, big)],
    )


def test_cap_raises_exactness_unavailable(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(cyclotomy, "Q_CAP", 1)
        with pytest.raises(ExactnessUnavailable):
            vanishing_sum([1, 1], [Fraction(0), Fraction(1, 2)])
    with pytest.raises(ExactnessUnavailable):
        vanishing_sum([1, 1], [Fraction(1, 3), Fraction(1, 1000003)])


def test_common_phase_rotated_out_before_the_cap():
    # x = 1/2000006 puts q over Q_CAP; rotating out e(x) leaves q = 2 or 3
    a = Fraction(1, 2 * 1000003)
    assert vanishing_sum([1, 1], [a, a + Fraction(1, 2)])
    assert not vanishing_sum([1, 1], [a, a + Fraction(1, 3)])
    assert vanishing_sum([1, 1, 1], [a, a + Fraction(1, 3), a + Fraction(2, 3)])


def test_integer_phases_reduce_to_constant():
    # both phases integral: sum = 2 != 0, via the q = 1 shortcut
    assert not vanishing_sum([1, 1], [Fraction(0), Fraction(3)])


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 40))
def test_full_root_system_vanishes(q):
    phases = [Fraction(k, q) for k in range(q)]
    assert vanishing_sum([1] * q, phases)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 31), st.integers(1, 12))
def test_scaling_phases_by_coprime_integer_keeps_vanishing(q, t):
    # Galois action: if sum e(k/q) over a full system vanishes, so does the
    # sum with phases multiplied by any integer t coprime to q
    from math import gcd

    if gcd(t, q) != 1:
        return
    phases = [Fraction(k * t % q, q) for k in range(q)]
    assert vanishing_sum([1] * q, phases)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 25), st.integers(0, 24))
def test_rotating_a_vanishing_sum_keeps_it_vanishing(q, shift):
    # multiplying every term by e(shift/q) preserves the zero
    phases = [Fraction((k + shift) % q, q) for k in range(q)]
    assert vanishing_sum([1] * q, phases)


def reference_vanishing_sum(weights, phases, q_cap=Q_CAP):
    """The dense route: the sum is zero exactly when Phi_q divides the
    length-q integer polynomial of its coefficients (with early returns for
    no terms, for terms that all cancel and for q = 1). The reference the
    sparse prime-by-prime decision must reproduce."""
    acc, qs, terms = {}, [1], []
    for w, a in zip(weights, phases, strict=True):
        w = Fraction(w)
        if w == 0:
            continue
        a = Fraction(a) % 1
        terms.append((w, a))
        qs.append(a.denominator)
    if not terms:
        return True
    q = lcm(*qs)
    if q > q_cap:
        raise ExactnessUnavailable("common denominator %d exceeds cap" % q)
    wden = lcm(*[w.denominator for w, _ in terms])
    for w, a in terms:
        e = int(a * q) % q
        acc[e] = acc.get(e, 0) + int(w * wden)
    acc = {e: c for e, c in acc.items() if c}
    if not acc:
        return True
    g = q
    for e in acc:
        g = gcd(g, e)
    if g > 1:
        q //= g
        acc = {e // g: c for e, c in acc.items()}
    if q == 1:
        return sum(acc.values()) == 0
    poly = [0] * q
    for e, c in acc.items():
        poly[e] = c
    return poly_divides(cyclotomic(q), poly)


_weights = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 3)])
_fraction_phases = st.builds(
    Fraction, st.integers(-13, 13), st.sampled_from([1, 1, 2, 3, 4, 6, 12])
)
#: Fractions, plain ints and strings: the exact inputs vanishing_sum accepts
_phases = st.one_of(
    _fraction_phases, st.integers(-3, 3), _fraction_phases.map(str)
)


@st.composite
def root_sums(draw):
    """Short weighted sums of roots of unity: empty lists, integer phases,
    a full root system, or terms followed by their negatives (which
    cancel, with phases moved by whole turns)."""
    n = draw(st.integers(0, 6))
    weights = draw(st.lists(_weights, min_size=n, max_size=n))
    phases = draw(st.lists(_phases, min_size=n, max_size=n))
    extra = draw(st.sampled_from(["none", "cancel", "roots"]))
    if extra == "cancel":
        turns = draw(st.integers(-2, 2))
        weights = weights + [-w for w in weights]
        phases = phases + [Fraction(a) + turns for a in phases]
    elif extra == "roots":
        q = draw(st.integers(1, 12))
        weights = weights + [draw(_weights)] * q
        phases = phases + [Fraction(k, q) for k in range(q)]
    return weights, phases


@settings(max_examples=400, deadline=None)
@given(root_sums())
def test_vanishing_sum_matches_reference(case):
    weights, phases = case
    assert vanishing_sum(weights, phases) == reference_vanishing_sum(weights, phases)


def test_degenerate_sums_decided_by_the_general_path():
    assert vanishing_sum([], [])
    assert vanishing_sum([0, 0], [Fraction(1, 3), Fraction(1, 2)])
    assert vanishing_sum([1, -1], [Fraction(1, 3), Fraction(4, 3)])
    assert vanishing_sum([2, -1, -1], [Fraction(0), Fraction(5), Fraction(-2)])
    assert not vanishing_sum([1, 2], [Fraction(7), Fraction(0)])


def _factor(q):
    """{prime: exponent} for q >= 2, by trial division."""
    out, p = {}, 2
    while p * p <= q:
        while q % p == 0:
            out[p] = out.get(p, 0) + 1
            q //= p
        p += 1
    if q > 1:
        out[q] = out.get(q, 0) + 1
    return out


_FACTORED = {q: _factor(q) for q in range(2, 2001)}
#: moduli up to 2000 by shape: a prime meets only the q = p base, other
#: prime powers the p^2 | q reduction, squarefree q the p || q one, mixed
#: q both
_MODULI = {
    "prime": [q for q, f in _FACTORED.items() if list(f.values()) == [1]],
    "prime power": [
        q for q, f in _FACTORED.items() if len(f) == 1 and max(f.values()) > 1
    ],
    "squarefree": [
        q for q, f in _FACTORED.items() if len(f) > 1 and max(f.values()) == 1
    ],
    "mixed": [
        q for q, f in _FACTORED.items() if len(f) > 1 and max(f.values()) > 1
    ],
}


@st.composite
def coset_sums(draw):
    """(weights, phases, perturbed): an integer combination of rotated
    p-coset sums sum_j e(s / q + j / p) over primes p | q, which generate
    every vanishing sum over q-th roots (de Bruijn 1953; Lam and Leung
    2000), and, when perturbed, one or two stray terms: a new term, or the
    negation of a term already there."""
    kind = draw(st.sampled_from(sorted(_MODULI)))
    q = draw(st.sampled_from(_MODULI[kind]))
    primes = sorted(_FACTORED[q])
    weights, phases = [], []
    for _ in range(draw(st.integers(1, 3))):
        p = draw(st.sampled_from(primes))
        s = draw(st.integers(0, q - 1))
        weights += [draw(st.sampled_from([1, -1, 2, -3]))] * p
        phases += [Fraction(s + j * (q // p), q) for j in range(p)]
    perturbed = draw(st.booleans())
    if perturbed:
        for _ in range(draw(st.integers(1, 2))):
            if draw(st.booleans()):
                i = draw(st.integers(0, len(weights) - 1))
                weights.append(-weights[i])
                phases.append(phases[i])
            else:
                weights.append(draw(st.sampled_from([1, -1, 2])))
                phases.append(Fraction(draw(st.integers(0, q - 1)), q))
    return weights, phases, perturbed


@settings(max_examples=300, deadline=None)
@given(coset_sums())
def test_sparse_decision_matches_dense_reference(case):
    weights, phases, perturbed = case
    zero = vanishing_sum(weights, phases)
    assert zero == reference_vanishing_sum(weights, phases)
    assert zero or perturbed


def test_large_moduli_decided_in_time():
    # four terms with one exponent near q: a dense division by Phi_q takes
    # seconds at q = 30030 and about half an hour at q = 510510
    start = time.perf_counter()
    for q in (30030, 510510):
        near = Fraction(q - 1, q)
        assert vanishing_sum(
            [1, 1, 1, 1], [Fraction(0), Fraction(1, 2), near, near + Fraction(1, 2)]
        )
        assert not vanishing_sum(
            [1, 1, 1, 1], [Fraction(0), Fraction(1, 3), near, Fraction(1, 5)]
        )
    assert time.perf_counter() - start < 1.0
