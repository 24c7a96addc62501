"""Independent reference implementations used to freeze expected values.

Everything here is written from first principles (naive convolution, long
division over Fractions, Leibniz determinant expansion, plain bisection) so
agreement with the package is meaningful.
"""

import decimal
from fractions import Fraction
from itertools import permutations
from math import isqrt

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


def o_divisors(n):
    """Divisors of n != 0 by trial of every d up to sqrt(|n|), by increasing
    size, each followed by its negative."""
    n = abs(n)
    low = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    high = [n // d for d in reversed(low) if d * d != n]
    return [s for d in low + high for s in (d, -d)]


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
        # 200 digits after those of the integer part, which reach 201 for
        # a root near 10**200
        ctx.prec = 200 + len(str(abs(x.numerator) // x.denominator))
        value = decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)
        value = value.quantize(decimal.Decimal(1).scaleb(-places), rounding=decimal.ROUND_HALF_EVEN)
    # a value that rounds to zero prints without a sign
    return format(value if value else abs(value), "f")


# g1*g2, the eigenvalue on (2,0)-forms, at DPS digits, and whether a
# polynomial vanishes there: the reference for every projectivity verdict
# and case-3b split of torus
DPS = 50
TINY = mpmath.mpf(10) ** -30


def o_roots(model):
    """Every root of model.root_poly at DPS digits.  For a model over an
    imaginary quadratic order (origin.quad set) these are the roots of
    q = t^2 - tau t + delta of its 2x2 matrix, by mpmath's square root, and
    their conjugates; for any other model they come from mpmath.polyroots."""
    with mpmath.workdps(DPS):
        quad = model.origin.quad
        if quad is None:
            return mpmath.polyroots(list(reversed(model.root_poly.coeffs)), maxsteps=200, extraprec=400)
        unit = mpmath.sqrt(quad.d_param) * 1j
        (a, b), (c, d) = [[x + y * unit for x, y in row] for row in quad.entries]
        tau, delta = a + d, a * d - b * c
        s = mpmath.sqrt(tau * tau - 4 * delta)
        return [z for g in ((tau + s) / 2, (tau - s) / 2) for z in (g, mpmath.conj(g))]


def _nearest(roots, root_box):
    re, im = root_box.re.mid, root_box.im.mid
    centre = mpmath.mpc(mpmath.mpf(re.numerator) / re.denominator, mpmath.mpf(im.numerator) / im.denominator)
    return min(roots, key=lambda z: abs(z - centre))


def o_gammas(model, roots=None):
    """g1 and g2 at DPS digits: the roots nearest the centres of their boxes."""
    roots = o_roots(model) if roots is None else roots
    return _nearest(roots, model.gamma1), _nearest(roots, model.gamma2)


def o_h20(model, roots=None):
    """g1*g2 at DPS digits."""
    g1, g2 = o_gammas(model, roots)
    with mpmath.workdps(DPS):
        return g1 * g2


def o_vanishes(coeffs, z):
    """Is the polynomial with ascending coeffs below TINY at z?  Repeated
    roots, where polyroots does not converge, are found this way too."""
    with mpmath.workdps(DPS):
        return abs(mpmath.polyval(list(reversed(coeffs)), z)) < TINY


def o_projective(model, roots=None):
    """Is g1*g2 a root of the cyclotomic cofactor of the degree-2 action?"""
    cofactor, rem = o_divmod(model.h2_charpoly.coeffs, model.salem_factor().coeffs)
    assert rem == ()
    return o_vanishes([int(c) for c in cofactor], o_h20(model, roots))


def o_split_indices(model, quads, roots=None):
    """Indices of the polynomials in quads that vanish at g1*g2."""
    z = o_h20(model, roots)
    return [w for w, f in enumerate(quads) if o_vanishes(f.coeffs, z)]
