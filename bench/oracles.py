"""Reference computations made apart from salemtori.

Exact helpers are written from first principles (convolution, long division,
Leibniz expansion, bisection at dyadic points), irreducibility and exact real
root counts come from sympy, and logarithms from mpmath at 50 digits with an
explicit slack.  Polynomials are tuples of integers, highest degree first.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import mpmath
import numpy
import sympy

from exact import add, evaluate, mul, sign_at_dyadic, wedge_poly

_X = sympy.Symbol("x")


# ----------------------------------------------------------------------
# factoring and Salem certification


@lru_cache(maxsize=None)
def factor_list(p):
    """Monic irreducible factors with multiplicities, as a sorted tuple."""
    _, facs = sympy.Poly(list(p), _X).factor_list()
    out = []
    for f, mult in facs:
        c = tuple(int(x) for x in f.all_coeffs())
        if c[0] < 0:
            c = tuple(-x for x in c)
        out.append((c, mult))
    return tuple(sorted(out))


def is_cyclotomic(p) -> bool:
    return bool(sympy.Poly(list(p), _X).is_cyclotomic)


def non_cyclotomic_part(p):
    out = (1,)
    for f, mult in factor_list(p):
        if not is_cyclotomic(f):
            for _ in range(mult):
                out = mul(out, f)
    return out


def trace_poly(p):
    """T with p(t) = t**e T(t + 1/t), by interpolation at t = 2, 3, ..."""
    e = (len(p) - 1) // 2
    pts = [(Fraction(t * t + 1, t), Fraction(evaluate(p, t), t**e)) for t in range(2, e + 3)]
    total = (Fraction(0),)
    for i, (ui, vi) in enumerate(pts):
        basis = (Fraction(1),)
        for j, (uj, _) in enumerate(pts):
            if j != i:
                basis = mul(basis, (Fraction(1) / (ui - uj), -uj / (ui - uj)))
        total = add(total, tuple(vi * c for c in basis))
    assert all(c.denominator == 1 for c in total)
    return tuple(int(c) for c in total)


@lru_cache(maxsize=None)
def salem_verdict(p):
    """(is Salem, reason) by the library's documented definition.

    Reasons are checked in the documented order: not-reciprocal, reducible
    (an irreducibility test by sympy), then the Sturm layout of the trace
    polynomial, counted exactly by sympy: one root above 2, none at or below
    -2, e - 1 in between.
    """
    if p != p[::-1]:
        return False, "not-reciprocal"
    if len(p) % 2 == 0 or factor_list(p) != ((p, 1),):
        return False, "reducible"
    if len(p) < 3:
        return False, "wrong-circle-count"
    e = (len(p) - 1) // 2
    t = sympy.Poly(list(trace_poly(p)), _X)
    hi = t.count_roots(2, None) - (1 if t.eval(2) == 0 else 0)
    lo = t.count_roots(None, -2)
    if (hi, lo, t.count_roots() - hi - lo) != (1, 0, e - 1):
        return False, "wrong-circle-count"
    return True, None


# ----------------------------------------------------------------------
# the Salem number and its log

LAMBDA_BITS = 60


@lru_cache(maxsize=None)
def salem_root(p):
    """Enclosure (lo, hi) of width 2**-60 of the only root of p above 1.

    A float estimate gives the first bracket; a bracket is used only after
    its endpoint signs differ, and since p has one root above 1 any such
    bracket above 1 holds it.  Bisection runs at dyadic points in integers.
    """
    k = LAMBDA_BITS
    est = max(r.real for r in numpy.roots(p) if abs(r.imag) < 1e-6)
    lo = int((est - 1e-6) * 2**k)
    hi = int((est + 1e-6) * 2**k) + 1
    one = 1 << k
    if lo <= one or sign_at_dyadic(p, lo, k) * sign_at_dyadic(p, hi, k) >= 0:
        lo, hi = one, (1 + max(abs(c) for c in p)) << k
    s_lo = sign_at_dyadic(p, lo, k)
    assert s_lo * sign_at_dyadic(p, hi, k) < 0, f"no sign change for {p}"
    while hi - lo > 1:
        mid = (lo + hi) // 2
        s = sign_at_dyadic(p, mid, k)
        if s == 0:
            return Fraction(mid, one), Fraction(mid, one)
        if s == s_lo:
            lo = mid
        else:
            hi = mid
    return Fraction(lo, one), Fraction(hi, one)


_LOG_SLACK = Fraction(1, 10**30)


def _mp_log(x: Fraction) -> Fraction:
    sign, man, exp, _ = mpmath.log(mpmath.mpf(x.numerator) / x.denominator)._mpf_
    v = Fraction(int(man)) * Fraction(2) ** exp
    return -v if sign else v


@lru_cache(maxsize=None)
def log_salem_root(p):
    """Enclosure of log(lambda): 50-digit logs of the bracket, widened by 1e-30."""
    lo, hi = salem_root(p)
    with mpmath.workdps(50):
        return _mp_log(lo) - _LOG_SLACK, _mp_log(hi) + _LOG_SLACK


# ----------------------------------------------------------------------
# atlas sweeps


@lru_cache(maxsize=None)
def salem_sweep(degree: int, bound: int):
    """Salem polynomials among the reciprocal candidates of a sweep.

    p(1) < 0 < p(-1) is necessary (T(2) < 0 and T(-2) has sign (-1)**e), so
    only those candidates go to the full verdict.
    """
    rng = range(-bound, bound + 1)
    half = degree // 2
    found = set()
    for mid in itertools.product(rng, repeat=half):
        p = (1,) + mid + mid[-2::-1] + (1,) if half > 1 else (1,) + mid + (1,)
        if evaluate(p, 1) < 0 < evaluate(p, -1) and salem_verdict(p)[0]:
            found.add(p)
    return frozenset(found)


# ----------------------------------------------------------------------
# exterior-square preimages


@lru_cache(maxsize=None)
def wedge_preimages(sextic):
    """Every t^4 + p t^3 + s t^2 + r t + 1 whose exterior square is the sextic.

    s is the sum of the pairwise root products, minus the t^5 coefficient.
    With constant term 1, -q(1) = (p - r)**2 and q(-1) = (p + r)**2, which
    bounds |p| and |r|; every (p, r) within the bound is tried by the
    compound-matrix charpoly.
    """
    s = -sextic[1]
    bound = (isqrt(abs(evaluate(sextic, 1))) + isqrt(abs(evaluate(sextic, -1)))) // 2 + 1
    rng = range(-bound, bound + 1)
    return sorted((1, p, s, r, 1) for p in rng for r in rng if wedge_poly((1, p, s, r, 1)) == sextic)
