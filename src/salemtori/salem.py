"""Salem certification and certified root isolation.

A Salem polynomial here: monic, reciprocal, irreducible, with exactly one
root outside the unit circle (real, > 1) and its inverse inside; everything
else on the circle.  Degree 2 is allowed, with an empty circle part.

The test runs entirely in integer arithmetic: the substitution u = t + 1/t
halves the degree, Sturm counts of the image polynomial on (-inf, -2),
(-2, 2), (2, inf) decide the root layout, and under the Salem layout
Kronecker's theorem reduces irreducibility to a few exact divisions of the
image.  The same image gives the circle roots of a reciprocal polynomial
whose image has only real roots.  Floating point appears only to seed the
boxes of other complex roots, which are then certified exactly.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import _kernels as kern
from .errors import (
    CertificationError,
    DegreeTooLargeError,
    NotMonicError,
    NotReciprocalError,
    NotSquarefreeError,
    OddDegreeError,
)
from .intervals import Box, Interval, sqrt_lb, sqrt_ub
from .poly import CYCLOTOMIC_INDICES, IntPoly, _radical, cyclotomic, factor_bounded, remainder_sequence

MAX_DEGREE = 8
# is_salem brackets lambda to 2**-48, and isolate_real_roots the real roots to
# 2**-28
_LAMBDA_BITS = 48
_REAL_BITS = 28
# float-seeded complex root boxes, and the closed-form boxes of torus, are
# certified at 2**-200 or finer, so their 12-place decimals are those of the
# roots themselves; a seeded box wider than 2**-24 fails, and circle boxes
# start at 2**-24
_BOX_BITS = 200
_MAX_BOX_WIDTH = Fraction(1, 1 << 24)
_ABERTH_STEPS = 500
_NEWTON_STEPS = 64


def trace_transform(p: IntPoly) -> IntPoly:
    """Degree-halving image under u = t + 1/t.

    For monic reciprocal p of degree 2e, returns monic T of degree e with
    p(t) = t**e * T(t + 1/t).
    """
    if not p.is_monic:
        raise NotMonicError("trace transform needs a monic polynomial")
    if not p.is_reciprocal:
        raise NotReciprocalError(f"{p} is not reciprocal")
    if p.degree % 2:
        raise OddDegreeError(f"degree {p.degree} is odd")
    e = p.degree // 2
    top = p.coeffs[e:]
    return IntPoly(tuple(sum(map(int.__mul__, row, top[j:])) for j, row in enumerate(_trace_basis(e))))


@lru_cache(maxsize=None)
def _trace_basis(e: int):
    """Row j holds the u**j coefficients of W_j, ..., W_e, where W_0 = 1 and
    t**k + t**-k = W_k(u) for k >= 1, so that T = sum_k c[e + k] * W_k."""
    # W_{k+1} = u W_k - W_{k-1}, with 2 in place of W_0 for k = 1
    basis = [(1,), (0, 1)][: e + 1]
    for k in range(1, e):
        basis.append(kern.sub(kern.shift(basis[k], 1), basis[k - 1] if k > 1 else (2,)))
    return tuple(tuple(w[j] for w in basis[j:]) for j in range(e + 1))


class SturmChain:
    """Signed pseudo-remainder chain with exact variation counts.

    The chain is poly.remainder_sequence(p, p'), so its last entry is
    +-gcd(p, p').  Variation counts skip zero entries, which makes V(x) the
    right limit V(x+); hence count(a, b] = V(a) - V(b) for any rational
    a <= b.
    """

    def __init__(self, p: IntPoly):
        if p.is_zero:
            raise ValueError("Sturm chain of zero polynomial")
        self.chain = remainder_sequence(p, p.derivative())

    @property
    def squarefree(self) -> bool:
        """True when gcd(p, p'), the last entry, is a constant."""
        return len(self.chain[-1]) == 1

    def radical(self) -> IntPoly:
        """The first entry, p without its content, over gcd(p, p')."""
        return _radical(IntPoly(self.chain[0]), IntPoly(self.chain[-1]))

    @staticmethod
    def _variations(values) -> int:
        """Sign changes along a sequence of integers, zeros skipped."""
        out = 0
        last = 0
        for v in values:
            if v:
                if last and (v > 0) != (last > 0):
                    out += 1
                last = v
        return out

    def variations_at(self, num: int, den: int = 1) -> int:
        """V(num/den), for integers num and den > 0."""
        return self._variations(kern.eval_qq(f, num, den) for f in self.chain)

    def variations_pos_inf(self) -> int:
        return self._variations(f[-1] for f in self.chain)

    def variations_neg_inf(self) -> int:
        return self._variations(f[-1] * (-1) ** (len(f) - 1) for f in self.chain)

    def count_real(self) -> int:
        return self.variations_neg_inf() - self.variations_pos_inf()


@dataclass(frozen=True)
class NotSalem:
    """Negative certification outcome.  Falsy, with a checkable witness."""

    reason: str  # not-monic | not-reciprocal | reducible | wrong-circle-count
    witness: object = None
    detail: str = ""

    def __bool__(self):
        return False


@dataclass(frozen=True)
class SalemCertificate:
    poly: IntPoly
    degree: int
    trace_poly: IntPoly
    root_interval: Interval
    circle_root_count: int

    def __bool__(self):
        return True


def cauchy_bound(p: IntPoly) -> int:
    """Integer strictly above the modulus of every root (monic input)."""
    if not p.is_monic:
        raise NotMonicError("Cauchy bound needs a monic polynomial")
    return 1 + max(abs(c) for c in p.coeffs)


def _continue_bracket(p: IntPoly, bracket: Interval, width: Fraction) -> Interval:
    """Narrow a bracket of one root of p to the cell where bisection to at
    most width ends.

    Bisection would halve the bracket k times, k fixed by the widths, so it
    ends in one of the 2**k equal cells of the bracket and tests only cell
    ends.  With the bracket ends as integer numerators a, b over their lcm
    den, cell end i is a * 2**k + i * (b - a) over den * 2**k.  Quadratic
    interval refinement (Abbott, 2006) keeps a sign change between cell
    ends l < r, with the values of p over that one denominator, until
    r = l + 1.  Each step tests the ends of a window of (r - l) // N cells
    around the secant guess, skipping an end that is l or r: a window that
    holds the sign change becomes the bracket and N is squared; otherwise
    the side that holds it is kept and N falls to its square root, never
    below 2.  A root at a cell end raises CertificationError.  Bisection
    raises there too, and refinement cannot miss it, as the final cell has
    nonzero values at both ends.  So continuing a bracket ends where a
    fresh run from the first one ends.  Raises CertificationError unless p
    has opposite nonzero signs at the bracket ends.
    """
    c = p.coeffs
    lo, hi = bracket.lo, bracket.hi
    den = math.lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
    v_lo, v_hi = kern.eval_qq(c, a, den), kern.eval_qq(c, b, den)
    if v_lo == 0 or v_hi == 0 or (v_lo > 0) == (v_hi > 0):
        raise CertificationError(f"({lo}, {hi}] does not bracket a root")
    # the least k with (b - a) / (den * 2**k) <= width
    k = (-(-(b - a) * width.denominator // (width.numerator * den)) - 1).bit_length()
    step, a, den = b - a, a << k, den << k
    # cell ends 0 and 2**k, with their values over den * 2**k
    shift = k * (len(c) - 1)
    l, r, v_l, v_r = 0, 1 << k, v_lo << shift, v_hi << shift
    n = 2
    while r - l > 1:
        h = max(1, (r - l) // n)
        guess = l + (r - l) * v_l // (v_l - v_r)
        w0 = min(max(guess - (h - 1) // 2, l), r - h)
        w1 = w0 + h
        v0, v1 = v_l, v_r
        # a sign change between l and w0 needs no test at w1
        if w0 != l:
            v0 = _cell_end_value(c, a + w0 * step, den)
            if (v0 > 0) != (v_l > 0):
                r, v_r, n = w0, v0, max(2, math.isqrt(n))
                continue
        if w1 != r:
            v1 = _cell_end_value(c, a + w1 * step, den)
        if (v1 > 0) != (v0 > 0):
            l, r, v_l, v_r, n = w0, w1, v0, v1, n * n
        else:
            l, v_l, n = w1, v1, max(2, math.isqrt(n))
    return Interval(Fraction(a + l * step, den), Fraction(a + r * step, den))


def _cell_end_value(c, num: int, den: int) -> int:
    """kern.eval_qq(c, num, den), raising CertificationError when it is 0."""
    v = kern.eval_qq(c, num, den)
    if v == 0:
        raise CertificationError(f"rational root {Fraction(num, den)} hit during bisection")
    return v


def _bits_below(eps: Fraction) -> int:
    """The least k with 2**-k < eps / 2, for eps > 0."""
    return (eps.denominator // eps.numerator).bit_length() + 1


def lambda_interval(p: IntPoly, bits: int = _LAMBDA_BITS) -> Interval:
    """Certified enclosure of the unique root in (1, inf).

    The caller is responsible for p actually being Salem (or at least having
    exactly one simple root beyond 1 and p(1) < 0); CertificationError
    guards misuse.
    """
    return _continue_bracket(p, Interval(1, cauchy_bound(p)), Fraction(1, 1 << bits))


def trace_layout(p: IntPoly):
    """The trace polynomial T of a monic reciprocal p of even degree 2e, and
    how many distinct roots T has above 2, below -2 and between, (n_hi,
    n_lo, n_mid).  A Salem p has the layout (1, 0, e - 1)."""
    t_poly = trace_transform(p)
    at_lo, at_hi, at_neg_inf, at_pos_inf = [], [], [], []
    for f in SturmChain(t_poly).chain:
        # f(2) and f(-2) from one pass: the even and odd parts of f at 2
        even = odd = 0
        for x in reversed(f):
            even, odd = 2 * odd + x, 2 * even
        at_lo.append(even - odd)
        at_hi.append(even + odd)
        at_neg_inf.append(f[-1] if len(f) % 2 else -f[-1])
        at_pos_inf.append(f[-1])
    count = SturmChain._variations
    v_lo, v_hi = count(at_lo), count(at_hi)
    return t_poly, (v_hi - count(at_pos_inf), count(at_neg_inf) - v_lo, v_lo - v_hi)


@lru_cache(maxsize=None)
def _trace_cyclotomics(e: int):
    """(n, T_n) for every n in CYCLOTOMIC_INDICES but 2 with phi(n) <= 2(e - 1),
    where T_n, the minimal polynomial of 2cos(2pi/n), is the trace polynomial
    of Phi_n, and of Phi_1**2 = t**2 - 2t + 1 for n = 1.

    If the trace polynomial T of p (degree 2e) has the Salem layout, a
    cyclotomic factor Phi_n of p has its trace roots in (-2, 2] beside the
    root of T above 2, so phi(n) <= 2(e - 1); and n != 2, as no root of T
    is -2.  Phi_n divides p exactly when T_n divides T, and Phi_1 does so
    only squared, as u - 2 = (t - 1)**2 / t.
    """
    return tuple(
        (n, (-2, 1) if n == 1 else trace_transform(cyclotomic(n)).coeffs)
        for n in CYCLOTOMIC_INDICES
        if n != 2 and cyclotomic(n).degree <= 2 * (e - 1)
    )


def is_salem(p: IntPoly):
    """Certify p as a Salem polynomial.

    Returns a SalemCertificate (truthy) or NotSalem (falsy) with a reason in
    {not-monic, not-reciprocal, reducible, wrong-circle-count} and a witness.
    A p whose trace polynomial has the Salem layout and no cyclotomic factor
    is certified without factoring; every other p is factored, and a
    reducible one is reported as such before its layout.  The layout is not
    computed for a p whose signs at 1 and -1 already rule the Salem layout
    out, until an irreducible p needs it as its witness.
    """
    if p.degree > MAX_DEGREE:
        raise DegreeTooLargeError(f"degree {p.degree} > {MAX_DEGREE}")
    if p.is_zero or not p.is_monic:
        return NotSalem("not-monic", witness=p.leading, detail=f"leading coefficient {p.leading}")
    if not p.is_reciprocal:
        d = p.degree
        bad = next(i for i in range(d + 1) if p.coeffs[i] != p.coeffs[d - i])
        return NotSalem(
            "not-reciprocal",
            witness=(bad, p.coeffs[bad], p.coeffs[d - bad]),
            detail=f"coefficients {bad} and {d - bad} differ",
        )
    if p.degree % 2:
        # odd reciprocal polynomials vanish at -1
        return NotSalem("reducible", witness=IntPoly((1, 1)), detail="odd degree forces the factor t + 1")
    if p.degree < 2:
        return NotSalem("wrong-circle-count", witness=(0, 0, 0), detail="degree below 2")
    e = p.degree // 2
    salem_layout = (1, 0, e - 1)
    layout = None
    # a Salem p has p(1) = T(2) < 0 < p(-1) = (-1)**e T(-2), so other signs
    # rule out the Salem layout before it is computed
    if sum(p.coeffs) < 0 < kern.eval_int(p.coeffs, -1):
        t_poly, layout = trace_layout(p)
        # Kronecker's rule: under the Salem layout, p over the minimal
        # polynomial of its root above 1 has every root on the unit circle,
        # so it is a product of cyclotomic polynomials, and p is irreducible
        # when no T_n divides T
        if layout == salem_layout and all(
            kern.divmod_monic(t_poly.coeffs, t_n)[1] for _, t_n in _trace_cyclotomics(e)
        ):
            return SalemCertificate(
                poly=p,
                degree=p.degree,
                trace_poly=t_poly,
                root_interval=lambda_interval(p),
                circle_root_count=p.degree - 2,
            )
    factors = factor_bounded(p)
    if factors != ((p, 1),):
        g = factors[0][0]
        return NotSalem("reducible", witness=g, detail=f"factor {g}")
    if layout is None:
        layout = trace_layout(p)[1]
    if layout == salem_layout:
        raise CertificationError(f"{p} has a cyclotomic factor yet factors as irreducible")
    n_hi, n_lo, n_mid = layout
    return NotSalem(
        "wrong-circle-count",
        witness=layout,
        detail=f"trace roots: {n_hi} above 2, {n_lo} below -2, {n_mid} between",
    )


def lambda_approx(cert, eps) -> Interval:
    """Shrink a certificate's root enclosure below a requested width.

    A wider bracket is continued to 2**-k, the widest power of two below
    eps / 2, which is where a fresh bisection to 2**-k ends.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    iv = cert.root_interval
    if iv.width <= eps:
        return iv
    return _continue_bracket(cert.poly, iv, Fraction(1, 1 << _bits_below(eps)))


@dataclass(frozen=True)
class RootBox:
    """Certified box around exactly one root of the isolated polynomial."""

    re: Interval
    im: Interval
    conjugate_index: Optional[int] = None

    @property
    def is_real(self) -> bool:
        return self.im.lo == 0 == self.im.hi

    @property
    def box(self) -> Box:
        return Box(self.re, self.im)


def isolate_real_roots(p: IntPoly):
    """Disjoint rational intervals, one per distinct real root.

    One Sturm subdivision of (-B, B] finds every root, the work growing with
    log B.  A bracket that holds one root is halved until it is at most 1
    wide, where the only integer it can hold is floor(hi); a rational root of
    a monic p is an integer, so the bracket becomes a point interval when p
    vanishes there.  The other brackets are refined by sign tests of the
    radical with the integer roots divided out, which has no rational root,
    so no point tested is a root.  Irrational roots come back
    as open intervals with non-root dyadic endpoints, at most 2**-_REAL_BITS
    wide and separated from each other and from the integer roots.
    """
    if not p.is_monic:
        raise NotMonicError("real root isolation needs a monic polynomial")
    return _real_roots(p, SturmChain(p))


def _real_roots(p: IntPoly, chain: SturmChain):
    """isolate_real_roots(p), given the Sturm chain of p."""
    if not chain.squarefree:
        # every entry vanishes at a repeated root; count with the radical
        chain = SturmChain(chain.radical())
    b = cauchy_bound(p)
    # brackets are (lo, hi, den): numerators over a power of two
    work = [(-b, b, 1, chain.variations_at(-b), chain.variations_at(b))]
    int_roots, isolated = [], []
    while work:
        lo, hi, den, v_lo, v_hi = work.pop()
        n = v_lo - v_hi
        if n > 1 or (n == 1 and hi - lo > den):
            mid, den = lo + hi, 2 * den
            v_mid = chain.variations_at(mid, den)
            work.append((2 * lo, mid, den, v_lo, v_mid))
            work.append((mid, 2 * hi, den, v_mid, v_hi))
        elif n == 1:
            r = hi // den
            if r * den > lo and kern.eval_int(p.coeffs, r) == 0:
                int_roots.append(r)
            else:
                isolated.append(Interval(Fraction(lo, den), Fraction(hi, den)))
    if isolated:
        # without its integer roots the radical, the chain's first entry, has
        # no rational root: it changes sign across each irrational root and
        # vanishes at no end of a bracket
        radical = IntPoly(chain.chain[0])
        for r in int_roots:
            radical //= IntPoly((-r, 1))
        target = Fraction(1, 1 << _REAL_BITS)
        while True:
            isolated = sorted((_continue_bracket(radical, iv, target) for iv in isolated), key=lambda iv: iv.lo)
            if all(x.hi < y.lo for x, y in zip(isolated, isolated[1:])) and not any(
                iv.contains(r) for iv in isolated for r in int_roots
            ):
                break
            target /= 2
    return sorted([Interval.point(r) for r in int_roots] + isolated, key=lambda iv: iv.lo)


def _float_seeds(p: IntPoly):
    """Every complex root of a monic p to about float accuracy, by Aberth's
    simultaneous iteration.

    The start points sit on a circle of Fujiwara's root-bound radius, turned
    off the real axis so that real arithmetic cannot trap them there.  Raises
    CertificationError when the coefficients or the iterates leave the float
    range.
    """
    n = p.degree
    try:
        a = [float(x) for x in p.coeffs]
        rho = 2 * max(abs(a[j]) ** (1 / (n - j)) for j in range(n))
        z = [rho * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]
        for _ in range(_ABERTH_STEPS):
            settled = True
            for i in range(n):
                zi = z[i]
                pv = dv = 0j
                for coef in reversed(a):
                    dv = dv * zi + pv
                    pv = pv * zi + coef
                if pv == 0:
                    continue
                ratio = pv / dv
                w = ratio / (1 - ratio * sum(1 / (zi - z[j]) for j in range(n) if j != i))
                z[i] = zi - w
                settled = settled and abs(w) <= 1e-15 * abs(z[i])
            if settled:
                break
    except (OverflowError, ZeroDivisionError) as exc:
        raise CertificationError(f"float seeding failed for {p}: {exc}") from None
    if not all(cmath.isfinite(zi) for zi in z):
        raise CertificationError(f"float seeding left the float range for {p}")
    return z


def _scaled_eval(c, x: int, y: int, k: int):
    """2**(k*m) * f((x + iy) / 2**k) as a Gaussian integer, for f of degree m
    with ascending coefficients c."""
    m = len(c) - 1
    re, im = c[m], 0
    for j in range(m - 1, -1, -1):
        s = c[j] << (k * (m - j))
        re, im = re * x - im * y + s, re * y + im * x
    return re, im


def _round_div(a: int, b: int) -> int:
    """a / b rounded to the nearest integer, for b > 0."""
    return (2 * a + b) // (2 * b)


def _newton_box(p: IntPoly, x: Fraction, y: Fraction, bits: int) -> Box:
    """Certified box around the root that Newton's method reaches from x + iy.

    The iterate is a Gaussian integer over 2**k.  Each Newton step is exact
    and rounds to the nearest point over 2**min(2k, bits), so the precision
    doubles up to 2**-bits; there the steps go on until they move the
    iterate by at most one unit.  k starts at the precision of the start
    point, with 2**k the larger denominator when x and y are dyadic, so the
    start point is taken exactly at any size.  The box is the inclusion disc of
    radius n*|p/p'| at the last iterate, rounded outward to whole units of
    2**-bits with one unit to spare, so the root it holds lies at least
    2**-bits inside every edge.
    """
    c = p.coeffs
    dc = kern.deriv(c)
    n = p.degree
    k = max(1, min(bits, max(x.denominator, y.denominator).bit_length() - 1))
    X, Y = round(x * (1 << k)), round(y * (1 << k))
    settled = False
    for _ in range(_NEWTON_STEPS):
        pr, pi = _scaled_eval(c, X, Y, k)
        qr, qi = _scaled_eval(dc, X, Y, k)
        # p / p' = (pr + i pi) / ((qr + i qi) 2**k)
        den = qr * qr + qi * qi
        if den == 0:
            raise CertificationError(f"p' vanishes at a Newton iterate for {p}")
        if settled:
            m = -(-(n * n * (pr * pr + pi * pi)) // den)
            r = math.isqrt(m) + 2
            s = 1 << bits
            return Box(
                Interval(Fraction(X - r, s), Fraction(X + r, s)),
                Interval(Fraction(Y - r, s), Fraction(Y + r, s)),
            )
        k2 = min(2 * k, bits)
        shift = k2 - k
        dx = _round_div((pr * qr + pi * qi) << shift, den)
        dy = _round_div((pi * qr - pr * qi) << shift, den)
        X, Y, k = (X << shift) - dx, (Y << shift) - dy, k2
        settled = k == bits and abs(dx) <= 1 and abs(dy) <= 1
    raise CertificationError(f"Newton's method did not settle on a root of {p}")


@lru_cache(maxsize=1024)
def isolate_all_roots(p: IntPoly):
    """Certified boxes isolating every complex root of a squarefree monic p.

    Returns RootBox tuples: pairwise disjoint, exactly one root in each, real
    roots flagged with zero imaginary part and listed first in ascending
    order, then each upper-half-plane root followed by its conjugate, the
    upper ones ordered by the (re, im) of their box centres; conjugate_index
    wires up each pair.  The real roots come from the Sturm chain of p, the
    upper ones from the trace polynomial when _circle_trace finds that they
    lie on the unit circle, and from float seeds otherwise.  Results are
    memoised per polynomial.
    """
    if p.degree > MAX_DEGREE:
        raise DegreeTooLargeError(f"degree {p.degree} > {MAX_DEGREE}")
    if not p.is_monic:
        raise NotMonicError("root isolation needs a monic polynomial")
    chain = SturmChain(p)
    if not chain.squarefree:
        raise NotSquarefreeError(f"{p} has repeated roots")
    reals = _real_roots(p, chain)
    n_pairs, odd = divmod(p.degree - len(reals), 2)
    if odd:
        raise CertificationError(f"{len(reals)} real roots for degree {p.degree}")
    boxes = _with_conjugates(reals, _upper_boxes(p, n_pairs) if n_pairs else [])
    if any(a.box.intersects(b.box) for a, b in itertools.combinations(boxes, 2)):
        raise CertificationError("root boxes overlap")
    return boxes


def _with_conjugates(reals, uppers):
    """RootBoxes in isolate_all_roots' order: a real box per interval of
    reals, then each box of uppers followed by its mirror image, the two
    wired to each other by conjugate_index."""
    boxes = [RootBox(iv, Interval.point(0)) for iv in reals]
    for up in uppers:
        i = len(boxes)
        boxes += [RootBox(up.re, up.im, i + 1), RootBox(up.re, -up.im, i)]
    return tuple(boxes)


def _upper_boxes(p: IntPoly, n_pairs: int):
    circle = _circle_trace(p)
    if circle is not None:
        t_poly, brackets = circle
        if len(brackets) != n_pairs:
            raise CertificationError(f"{len(brackets)} circle roots for {n_pairs} conjugate pairs of {p}")
        # the brackets ascend, and so do the real parts u/2
        return [_circle_box(t_poly, iv, _MAX_BOX_WIDTH) for iv in brackets]
    # real roots come out of the float iteration with rounding noise in the
    # imaginary part; the n_pairs largest imaginary parts are the complex ones
    seeds = sorted(_float_seeds(p), key=lambda z: -z.imag)[:n_pairs]
    boxes = []
    for z in seeds:
        # a root closer to the real axis than 1/2 gets one more bit for each
        # binary place it is closer, so its box stays clear of the axis
        box = _newton_box(p, Fraction(z.real), Fraction(z.imag), _BOX_BITS - min(0, math.frexp(z.imag)[1]))
        if box.im.lo <= 0 or box.re.width > _MAX_BOX_WIDTH:
            raise CertificationError(f"complex root isolation failed for {p}: box {box}")
        boxes.append(box)
    boxes.sort(key=lambda b: (b.re.mid, b.im.mid))
    return boxes


@lru_cache(maxsize=1024)
def _circle_trace(p: IntPoly):
    """(T, brackets) when every non-real root of p lies on the unit circle,
    read off the trace polynomial; None otherwise.

    With t - 1 and t + 1 divided out once each, p must leave a reciprocal
    quotient r of positive even degree whose trace polynomial T has only
    real roots.  A root t of r is then real or on the circle, over the root
    u = t + 1/t of T: |u| > 2 for a real pair, u in (-2, 2) for the circle
    pair (u +- i sqrt(4 - u**2))/2.  brackets holds one bracket within
    [-2, 2] for each root of T in (-2, 2), ascending; T is nonzero at +-2,
    as r has no root +-1 when p is squarefree.
    """
    r = p
    for x in (1, -1):
        if kern.eval_int(r.coeffs, x) == 0:
            r //= IntPoly((-x, 1))
    if r.degree == 0 or r.degree % 2 or not r.is_reciprocal:
        return None
    t_poly = trace_transform(r)
    roots = _real_roots(t_poly, SturmChain(t_poly))
    if len(roots) != t_poly.degree:
        return None
    brackets = []
    for iv in roots:
        lo, hi = max(iv.lo, -2), min(iv.hi, 2)
        if iv.width == 0:
            if -2 < lo < 2:
                brackets.append(iv)
        # T changes sign across the part of the bracket within [-2, 2]
        elif lo < hi and (t_poly(lo) > 0) != (t_poly(hi) > 0):
            brackets.append(Interval(lo, hi))
    return t_poly, tuple(brackets)


def _circle_box(t_poly: IntPoly, iv: Interval, width: Fraction) -> Box:
    """Box, at most width wide, around the upper circle root
    (u + i sqrt(4 - u**2))/2 over the root u in (-2, 2) of t_poly that iv,
    within [-2, 2], brackets.

    The bracket is continued by _continue_bracket on t_poly until it lies
    inside (-2, 2), squaring its width each time, and until the box over it
    is narrow enough: u/2 over the bracket, and over its ends the square
    root bounds of 4 - u**2, nearest and farthest from 0.
    """
    target = 2 * width
    while True:
        if iv.width > target:
            iv = _continue_bracket(t_poly, iv, target)
        if -2 < iv.lo and iv.hi < 2:
            far, near = max(-iv.lo, iv.hi), max(0, iv.lo, -iv.hi)
            v = 4 - far * far
            # 2**-bits is below width / 4 and below sqrt(v) / 2
            bits = max(_bits_below(width) + 1, (v.denominator // v.numerator).bit_length() // 2 + 2)
            im = Interval(sqrt_lb(v, bits) / 2, sqrt_ub(4 - near * near, bits) / 2)
            if im.width <= width:
                return Box(Interval(iv.lo / 2, iv.hi / 2), im)
            # sqrt(4 - u**2)/2 has slope below 1/(2 im.lo) on the bracket, so
            # a bracket width * im.lo / 2 wide spreads it by width/4 at most
            target = min(target / 2, width * im.lo / 2)
        else:
            target = min(target / 2, target * target)


def refine_root_box(p: IntPoly, rb: RootBox, width: Fraction) -> RootBox:
    """Shrink a certified box around its root to the requested width.

    A lower box is refined as the mirror image of its upper one.  A real
    box is continued by _continue_bracket on p, a circle box by
    _continue_bracket on the trace polynomial, and any other box by Newton's
    method from its centre.
    """
    if rb.re.width <= width and rb.im.width <= width:
        return rb
    if rb.im.hi < 0:
        up = refine_root_box(p, RootBox(rb.re, -rb.im), width)
        return RootBox(up.re, -up.im, rb.conjugate_index)
    if rb.is_real:
        return RootBox(_continue_bracket(p, rb.re, width), Interval.point(0), rb.conjugate_index)
    circle = _circle_trace(p)
    if circle is not None:
        # a circle root's real part is u/2, so 2 * re holds u, and so does the
        # one isolating bracket of a root of T in (-2, 2) that 2 * re meets
        t_poly, brackets = circle
        u = Interval(2 * rb.re.lo, 2 * rb.re.hi)
        hits = [iv for iv in brackets if iv.intersects(u)]
        if len(hits) != 1:
            raise CertificationError(f"box {rb.box} meets {len(hits)} trace roots of {p} in (-2, 2)")
        box = _circle_box(t_poly, Interval(max(u.lo, hits[0].lo), min(u.hi, hits[0].hi)), width)
        return RootBox(box.re, box.im, rb.conjugate_index)
    target = rb.box
    box = _newton_box(p, target.re.mid, target.im.mid, _bits_below(width) + 6)
    inside = (
        target.re.lo <= box.re.lo
        and box.re.hi <= target.re.hi
        and target.im.lo <= box.im.lo
        and box.im.hi <= target.im.hi
    )
    if not inside or box.re.width > width:
        raise CertificationError(f"could not refine box for {p}")
    return RootBox(box.re, box.im, rb.conjugate_index)
