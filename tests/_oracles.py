"""Independent reference implementations used to freeze expected values.

Everything here is written from first principles (naive convolution, long
division over Fractions, Leibniz determinant expansion, plain bisection) so
agreement with the package is meaningful.
"""

import decimal
from fractions import Fraction
from itertools import permutations

import mpmath


def o_mul(a, b):
    """Convolution product of ascending coefficient tuples."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def o_add(a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def o_neg(a):
    return tuple(-x for x in a)


def o_eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def o_divmod(a, b):
    """Long division over Fractions; returns (quotient, remainder) tuples."""
    r = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    lead = Fraction(b[-1])
    while len(r) >= len(b) and any(x != 0 for x in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(b):
            break
        f = r[-1] / lead
        d = len(r) - len(b)
        q[d] = f
        for i, c in enumerate(b):
            r[d + i] -= f * c
        assert r[-1] == 0
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    while q and q[-1] == 0:
        q.pop()
    return tuple(q), tuple(r)


def o_companion(coeffs):
    """Companion matrix (rows) of a monic ascending-coefficient polynomial."""
    assert coeffs[-1] == 1
    n = len(coeffs) - 1
    return tuple(
        tuple(
            (1 if i == j + 1 else 0) if j < n - 1 else -coeffs[i]
            for j in range(n)
        )
        for i in range(n)
    )


def _perm_sign(p):
    sign = 1
    seen = [False] * len(p)
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def o_charpoly(m):
    """det(tI - M) by Leibniz expansion; ascending integer tuple."""
    n = len(m)
    total = ()
    for perm in permutations(range(n)):
        term = (1,)
        for i in range(n):
            j = perm[i]
            entry = (-m[i][j], 1) if i == j else (-m[i][j],)
            term = o_mul(term, entry)
        if _perm_sign(perm) < 0:
            term = o_neg(term)
        total = o_add(total, term)
    return total


def o_second_compound(m):
    """Second compound matrix: minors on sorted index pairs."""
    n = len(m)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return tuple(
        tuple(
            m[i][k] * m[j][l] - m[i][l] * m[j][k]
            for (k, l) in pairs
        )
        for (i, j) in pairs
    )


def o_wedge_charpoly(quartic):
    """Exterior-square polynomial via the compound of the companion matrix."""
    return o_charpoly(o_second_compound(o_companion(quartic)))


class MidpointRoot(ArithmeticError):
    """o_bisect met the root at a midpoint."""


def o_bisect(coeffs, lo, hi, min_width):
    """Bisection enclosure of a sign-changing root over exact Fractions.

    Raises ValueError unless the ends have opposite nonzero signs, and
    MidpointRoot when a midpoint is a root; both hold under python -O.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    s_lo = o_eval(coeffs, lo)
    s_hi = o_eval(coeffs, hi)
    if s_lo * s_hi >= 0:
        raise ValueError(f"({lo}, {hi}) does not bracket a sign change")
    while hi - lo > min_width:
        mid = (lo + hi) / 2
        v = o_eval(coeffs, mid)
        if v == 0:
            raise MidpointRoot(f"root {mid} at a midpoint")
        if (v < 0) == (s_lo < 0):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _mpf_to_frac(x):
    sign, man, exp, _ = x._mpf_
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


def o_log_bounds(lo, hi, slack=Fraction(1, 10**30), dps=60):
    """Crude certified log enclosure: mpmath's logs at dps digits, as the
    exact Fractions of the binary floats it returns, widened by slack."""
    with mpmath.workdps(dps):
        a = _mpf_to_frac(mpmath.log(mpmath.mpf(lo.numerator) / mpmath.mpf(lo.denominator)))
        b = _mpf_to_frac(mpmath.log(mpmath.mpf(hi.numerator) / mpmath.mpf(hi.denominator)))
    return a - slack, b + slack


def o_rounded(x, places=12):
    """x rounded to `places` decimals by the decimal module.

    x is an mpf or a Fraction; an mpf is taken at its exact binary value.
    Raises when x lies within 10**-(places + 40) of a rounding boundary, so
    that an oracle value with an error far below that rounds as the true
    value does.
    """
    if isinstance(x, mpmath.mpf):
        x = _mpf_to_frac(x)
    scaled = x * 10**places
    if abs(scaled - (scaled.numerator // scaled.denominator) - Fraction(1, 2)) < Fraction(1, 10**40):
        raise ValueError(f"{float(x)} is too close to a rounding boundary")
    with decimal.localcontext() as ctx:
        ctx.prec = 200
        value = decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)
        value = value.quantize(decimal.Decimal(1).scaleb(-places), rounding=decimal.ROUND_HALF_EVEN)
    # a value that rounds to zero prints without a sign
    return format(value if value else abs(value), "f")
