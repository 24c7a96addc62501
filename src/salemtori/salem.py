"""Salem certification and certified root isolation.

A Salem polynomial here: monic, reciprocal, irreducible, with exactly one
root outside the unit circle (real, > 1) and its inverse inside; everything
else on the circle.  Degree 2 is allowed, with an empty circle part.

The test runs entirely in integer arithmetic: the substitution u = t + 1/t
halves the degree, and the root layout of the image polynomial T on
(-inf, -2), (-2, 2), (2, inf) is decided by the signs of T(+-2), with the
discriminant and T'(+-2) of a cubic T and Sturm counts only for a quartic
T.  Under the Salem layout Kronecker's theorem reduces irreducibility to a
few exact divisions by cyclotomic polynomials.  lambda is bracketed on the
grid of bisection from (1, B] by one refinement routine, _continue_bracket,
which certifies its cell by exact signs of p; a Newton walk down to T's root
above 2 only seeds the first window, so a good seed costs two sign tests and
a bad one never moves the cell.  Root isolation takes one route per kind of
root: real roots from a Sturm subdivision, every other root an inclusion
disc from Aberth's iteration in Gaussian integers; no step uses floating
point.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from . import _kernels as kern
from ._record import Record, set_field
from .errors import (
    CertificationError,
    DegreeTooLargeError,
    NotMonicError,
    NotReciprocalError,
    NotSquarefreeError,
    OddDegreeError,
)
from .intervals import Box, Interval
from .poly import _SIEVE_AT, IntPoly, _cyclotomic_sieve, factor_bounded, remainder_sequence

MAX_DEGREE = 8
# is_salem brackets lambda to 2**-48, and isolate_real_roots the real roots to
# 2**-28
_LAMBDA_BITS = 48
_REAL_BITS = 28
# every non-real root box, _aberth's and torus's closed-form ones, starts on
# a grid of 2**-200 or finer, so their 12-place decimals are the roots' own;
# an _aberth box on the axis or over 2**-24 wide doubles that, up to
# _ABERTH_ROUNDS times
_BOX_BITS = 200
_MAX_BOX_WIDTH = Fraction(1, 1 << 24)
_ABERTH_ROUNDS = 3
_START_BITS = 16
_ABERTH_SWEEPS = 2000
# _trace_seed's Newton walk takes at most m.bit_length() + _NEWTON_STEPS
# steps on the grid of 2**-m
_NEWTON_STEPS = 16


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
        """The first entry, p without its content, over the last, gcd(p, p'):
        the monic radical for monic p."""
        p, g = IntPoly(self.chain[0]), IntPoly(self.chain[-1])
        if g.degree == 0:
            return p
        if abs(g.leading) != 1:
            raise NotMonicError("radical of a non-monic polynomial")
        return p // (g * g.leading)

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


class NotSalem(Record):
    """Negative certification outcome.  Falsy, with a checkable witness."""

    __slots__ = ("reason", "witness", "detail")

    # reason: not-monic | not-reciprocal | reducible | wrong-circle-count
    def __init__(self, reason: str, witness: object = None, detail: str = ""):
        super().__init__(reason, witness, detail)

    def __bool__(self):
        return False


class SalemCertificate(Record):
    __slots__ = ("poly", "degree", "trace_poly", "root_interval", "circle_root_count")

    def __init__(
        self, poly: IntPoly, degree: int, trace_poly: IntPoly, root_interval: Interval, circle_root_count: int
    ):
        super().__init__(poly, degree, trace_poly, root_interval, circle_root_count)

    def __bool__(self):
        return True


def cauchy_bound(p: IntPoly) -> int:
    """Integer strictly above the modulus of every root (monic input)."""
    if not p.is_monic:
        raise NotMonicError("Cauchy bound needs a monic polynomial")
    return 1 + max(abs(c) for c in p.coeffs)


def _continue_bracket(p: IntPoly, bracket: Interval, width: Fraction, seed: Fraction | None = None) -> Interval:
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
    below 2.  A seed strictly inside the bracket places the first window
    instead: the one cell that holds the seed, with N the cell count, so a
    good seed ends the search after the sign tests at the cell's two ends,
    and a bad one costs steps but never moves the cell found.  A seed
    elsewhere is ignored.  A root at a cell end raises CertificationError.
    Bisection raises there too, and refinement cannot miss it, as the final
    cell has nonzero values at both ends.  So continuing a bracket ends
    where a fresh run from the first one ends.  Raises CertificationError
    unless p has opposite nonzero signs at the bracket ends.
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
    n, guess = 2, None
    if seed is not None:
        # the seed's offset from lo over den * seed.denominator, in which
        # one cell is unit
        t, unit = seed.numerator * den - a * seed.denominator, step * seed.denominator
        if 0 < t < unit << k:
            # its cell, a window of one cell when N is the cell count
            n, guess = r, t // unit
    while r - l > 1:
        h = max(1, (r - l) // n)
        if guess is None:
            guess = l + (r - l) * v_l // (v_l - v_r)
        w0, guess = min(max(guess - (h - 1) // 2, l), r - h), None
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
    """Certified enclosure of the unique root in (1, inf): the cell of width
    at most 2**-bits where bisection of (1, B] ends, B the Cauchy bound.

    The caller is responsible for p actually being Salem (or at least having
    exactly one simple root beyond 1 and p(1) < 0); CertificationError
    guards misuse.  The refinement is unseeded: the package's callers hold
    p's trace polynomial already and seed it through _lambda_bracket, while
    finding it here would cost a degree-8 p more than the seed saves.
    """
    return _lambda_bracket(p, bits, None)


def _lambda_bracket(p: IntPoly, bits: int, t_poly: IntPoly | None) -> Interval:
    """lambda_interval(p, bits), seeded from t_poly, p's trace polynomial
    with the Salem layout, or unseeded when t_poly is None."""
    hi = cauchy_bound(p)
    seed = None
    if t_poly is not None:
        # m = k + 16, for the 2**k cells of _continue_bracket's grid on
        # (1, hi] at most 2**-bits wide
        seed = _trace_seed(t_poly, bits + (hi - 2).bit_length() + 16)
    return _continue_bracket(p, Interval(1, hi), Fraction(1, 1 << bits), seed)


def _trace_seed(t_poly: IntPoly, m: int) -> Fraction | None:
    """An estimate of lambda over 2**(m + 1), from t_poly, the trace
    polynomial T of degree e >= 1 with the Salem layout, or None.

    T has only real roots, so they lie at most at the Laguerre-Samuelson
    bound (Laguerre, 1880; Samuelson, 1968)
    (-a1 + sqrt((e - 1) ((e - 1) a1**2 - 2 e a2))) / e, for
    T = u**e + a1 u**(e - 1) + a2 u**(e - 2) + ...  Above its largest root
    u* = lambda + 1/lambda, T is positive, increasing and convex, so
    Newton's method falls from the bound to u* monotonically.  The walk runs
    in units of 2**-m from the bound rounded up, each step rounded down so
    that the iterate stays above u*, and stops at the first step below a
    unit; lambda = (u + sqrt(u**2 - 4)) / 2 at the last iterate u.  The seed
    is only a guess: _continue_bracket certifies the cell by signs of p.  So
    this never raises, and gives None where the bound's radicand or u**2 - 4
    is negative, T' is not positive at an iterate, or the walk takes more
    than m.bit_length() + _NEWTON_STEPS steps.
    """
    c = t_poly.coeffs
    e = len(c) - 1
    # at e = 1, a2 reads the leading 1, and its factor e - 1 is 0
    a1, a2 = c[e - 1], c[e - 2]
    radicand = (e - 1) * ((e - 1) * a1 * a1 - 2 * e * a2)
    if radicand < 0:
        return None
    x = ((-a1 << m) + math.isqrt(radicand << 2 * m) + e) // e
    # T over 2**m: v = 2**(m e) T(x / 2**m) and d = dv/dx, so v // d is the
    # step in units; a real Horner pass, as _scaled_values' Gaussian one
    # costs an atlas round about 4%
    scaled = [a << m * (e - j) for j, a in enumerate(c)][::-1]
    for _ in range(m.bit_length() + _NEWTON_STEPS):
        v = d = 0
        for a in scaled:
            v, d = v * x + a, d * x + v
        if d <= 0:
            return None
        dx = v // d
        if not dx:
            break
        x -= dx
    else:
        return None
    disc = x * x - (1 << 2 * m + 2)
    if disc < 0:
        return None
    return Fraction(x + math.isqrt(disc), 1 << m + 1)


def trace_layout(p: IntPoly):
    """The trace polynomial T of a monic reciprocal p of even degree 2e, and
    how many distinct roots T has above 2, below -2 and between, (n_hi,
    n_lo, n_mid), from the Sturm chain of T.  A Salem p has the layout
    (1, 0, e - 1).  The Salem decision reads that layout in closed form up
    to e = 3 (_salem_trace); the chain serves e >= 4 and the witness
    of a rejected irreducible p."""
    t_poly = trace_transform(p)
    return t_poly, _sturm_layout(t_poly)


def _sturm_layout(t_poly: IntPoly):
    """trace_layout's counts for the trace polynomial t_poly."""
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
    return v_hi - count(at_pos_inf), count(at_neg_inf) - v_lo, v_lo - v_hi


def _salem_trace(p: IntPoly):
    """The trace polynomial T of a monic reciprocal p of even degree 2e >= 2
    when p(1) < 0 < p(-1) and trace_layout(p) is the Salem layout
    (1, 0, e - 1), and None otherwise.

    p(1) = T(2) and p(-1) = (-1)**e T(-2).  Up to e = 2 these signs are the
    layout: T(2) < 0 puts one root of T above 2, and (-1)**e T(-2) > 0 puts
    the rest in (-2, 2).  For e = 3 and T = u**3 + a u**2 + b u + c they
    leave T(2) < 0 and T(-2) < 0, and the layout holds exactly when T has
    three real roots r1 < r2 < r3, disc T > 0, and its smaller critical
    point x1, in (r1, r2), lies in (-2, 2).  x1 > -2 exactly when
    T'(-2) = 12 - 4a + b > 0 and the midpoint -a/3 of the critical points
    is above -2, a < 6; then x1 < 2 exactly when 2 lies between the
    critical points, T'(2) = 12 + 4a + b < 0, or their midpoint is below 2,
    a > -6.  T rises up to x1, so T(-2) < 0 puts r1 above -2, and T(2) < 0
    puts 2 between r2 and r3.  For e >= 4 the Sturm chain of T decides.
    Any other monic reciprocal p fails the signs: p(-1) = 0 at an odd
    degree, and p(1) = 1 at degree 0.
    """
    if not sum(p.coeffs) < 0 < kern.eval_int(p.coeffs, -1):
        return None
    e = p.degree // 2
    t_poly = trace_transform(p)
    if e <= 2:
        return t_poly
    if e >= 4:
        return t_poly if _sturm_layout(t_poly) == (1, 0, e - 1) else None
    c, b, a, _ = t_poly.coeffs
    if (
        a * a * b * b - 4 * b * b * b - 4 * a * a * a * c - 27 * c * c + 18 * a * b * c > 0
        and 12 - 4 * a + b > 0
        and a < 6
        and (12 + 4 * a + b < 0 or a > -6)
    ):
        return t_poly
    return None


def _salem_certificate(p: IntPoly):
    """The decision of is_salem, without its witnesses: (certificate, layout)
    for a monic reciprocal p of even degree 2e >= 2.

    certificate is p's SalemCertificate when p is Salem, and None otherwise.
    layout is (1, 0, e - 1) when _salem_trace established it, and None
    otherwise: then p(1) >= 0, p(-1) <= 0 or the trace roots lie otherwise,
    and the decision computes no other layout.  Under the Salem layout,
    Kronecker's rule decides irreducibility: p over the minimal polynomial
    of its root above 1 has every root on the unit circle, so it is a
    product of cyclotomic polynomials, and p is irreducible when no Phi_n
    divides p.  Such a Phi_n has n > 2, as p(1) and p(-1) are not 0, and
    phi(n) <= 2e - 2, as it leaves out p's two real roots.  A Phi_n is
    divided into p only when Phi_n(_SIEVE_AT) divides p(_SIEVE_AT), which
    p(_SIEVE_AT) = 0 always passes.  Nothing here factors p.
    """
    t_poly = _salem_trace(p)
    if t_poly is None:
        return None, None
    c = p.coeffs
    e = p.degree // 2
    layout = (1, 0, e - 1)
    at = kern.eval_int(c, _SIEVE_AT)
    for n, phi, v in _cyclotomic_sieve():
        if n > 2 and len(phi) < 2 * e and at % v == 0 and not kern.divmod_monic(c, phi)[1]:
            return None, layout
    cert = SalemCertificate(
        poly=p,
        degree=p.degree,
        trace_poly=t_poly,
        root_interval=_lambda_bracket(p, _LAMBDA_BITS, t_poly),
        circle_root_count=p.degree - 2,
    )
    return cert, layout


def is_salem(p: IntPoly):
    """Certify p as a Salem polynomial.

    Returns a SalemCertificate (truthy) or NotSalem (falsy) with a reason in
    {not-monic, not-reciprocal, reducible, wrong-circle-count} and a witness.
    Past the input guards, _salem_certificate decides without factoring;
    only a p it rejects is factored, for the witness, and a reducible one
    is reported as such before its layout.  An irreducible p's witness is
    its trace layout: the Salem layout when the decision established it,
    which contradicts irreducibility, and otherwise trace_layout's count.
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
    cert, layout = _salem_certificate(p)
    if cert:
        return cert
    factors = factor_bounded(p)
    if factors != ((p, 1),):
        g = factors[0][0]
        return NotSalem("reducible", witness=g, detail=f"factor {g}")
    if layout is None:
        layout = trace_layout(p)[1]
    if layout == (1, 0, p.degree // 2 - 1):
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


class RootBox(Record):
    """Certified box around exactly one root of the isolated polynomial."""

    __slots__ = ("re", "im", "conjugate_index")

    def __init__(self, re: Interval, im: Interval, conjugate_index: int | None = None):
        set_field(self, "re", re)
        set_field(self, "im", im)
        set_field(self, "conjugate_index", conjugate_index)

    @property
    def is_real(self) -> bool:
        return self.im.lo == 0 == self.im.hi

    @property
    def box(self) -> Box:
        return Box(self.re, self.im)


def isolate_real_roots(p: IntPoly):
    """Disjoint rational intervals, one per distinct real root.

    One Sturm subdivision of (-B, B], B the Cauchy bound, finds every root,
    the work growing with log B.  A bracket that holds one root is halved
    until it is at most 1 wide, where the only integer it can hold is
    floor(hi); a rational root of a monic p is an integer, so the bracket
    becomes a point interval when p vanishes there.  The other brackets are
    refined by sign tests of the radical with the integer roots divided out,
    which has no rational root, so no point tested is a root.  Irrational
    roots come back as open intervals with non-root dyadic endpoints, at
    most 2**-_REAL_BITS wide and separated from each other and from the
    integer roots.
    """
    if not p.is_monic:
        raise NotMonicError("real root isolation needs a monic polynomial")
    return _real_roots(p, SturmChain(p))


def _real_roots(p: IntPoly, chain: SturmChain):
    """isolate_real_roots(p), given the Sturm chain of p."""
    b = cauchy_bound(p)
    if not chain.squarefree:
        # every entry vanishes at a repeated root; count with the radical
        chain = SturmChain(chain.radical())
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


def _newton_polygon(c):
    """(e, m) per edge of the upper hull of the points (j, bit_length|c_j|),
    from left to right, each vertex followed by the steepest point ahead,
    the farthest on a tie: m roots of modulus about 2**e, for m the width of
    the edge and -e its slope, rounded down (Bini, 1996).  A zero c_0 gives
    its root a start on an inner circle."""
    points = [(j, abs(a).bit_length()) for j, a in enumerate(c)]
    edges, (x0, y0) = [], points[0]
    while x0 < len(c) - 1:
        x1, y1 = max((q for q in points if q[0] > x0), key=lambda q: (Fraction(q[1] - y0, q[0] - x0), q[0]))
        edges.append(((y0 - y1) // (x1 - x0), x1 - x0))
        x0, y0 = x1, y1
    return edges


def _scaled_values(c, x: int, y: int, k: int):
    """(P, Q) for f with ascending coefficients c, of degree m, at
    z = (x + iy) / 2**k: the Gaussian integers P = 2**(k*m) * f(z) and
    Q = 2**(k*(m - 1)) * f'(z), by one Horner pass for both."""
    m = len(c) - 1
    pr, pi, qr, qi = c[m], 0, 0, 0
    for j in range(m - 1, -1, -1):
        qr, qi = qr * x - qi * y + pr, qr * y + qi * x + pi
        pr, pi = pr * x - pi * y + (c[j] << (k * (m - j))), pr * y + pi * x
    return pr, pi, qr, qi


def _round_div(a: int, b: int) -> int:
    """a / b rounded to the nearest integer, for b > 0."""
    return (2 * a + b) // (2 * b)


class _UndefinedIterate(CertificationError):
    """An Aberth iterate where the correction or p' is undefined."""


def _aberth(p: IntPoly, bits: int, starts=None):
    """One certified box per iterate of Aberth's simultaneous iteration
    (Aberth, 1973), around the root the iterate reaches.

    Iterates are Gaussian integers over 2**k.  A sweep moves each in turn by
    w = N / (1 - N S), N = p/p' at it and S the sum of 1/(z - z') over the
    others, exact and rounded to the nearest unit; one that lands on another
    moves up a unit.  With one iterate this is Newton's method.  From the
    first sweep that moves none by more than a unit, k doubles each sweep up
    to bits, where such a sweep ends the iteration.  Without starts, the
    Newton polygon places p.degree iterates, 2**e (3 + 4i)**j / 5**j for m
    running counts j per edge of m roots of modulus about 2**e: none real,
    no two alike, as (3 + 4i)/5 is no root of unity.  k starts at
    _START_BITS, k and bits raised by -e of the innermost edge if positive,
    so each root starts with as many bits of its own size.  Otherwise starts
    holds dyadic (x, y) pairs, taken exactly up to 2**-bits.

    A box is the inclusion disc of radius n*|p/p'| at the last iterate,
    n = p.degree, which holds a root, rounded outward to units of 2**-bits
    with one unit to spare.  Raises CertificationError after _ABERTH_SWEEPS
    sweeps, and _UndefinedIterate where a correction or a radius is
    undefined.
    """
    c, n = p.coeffs, p.degree
    if starts is None:
        edges = _newton_polygon(c)
        extra = max(0, -edges[0][0])
        k, bits = _START_BITS + extra, bits + extra
        zs, a, b, five = [], 1, 0, 1
        for e in [e for e, m in edges for _ in range(m)]:
            a, b, five = 3 * a - 4 * b, 4 * a + 3 * b, 5 * five
            zs.append((_round_div(a << (e + k), five), _round_div(b << (e + k), five)))
    else:
        k = max(1, min(bits, max(max(x.denominator, y.denominator) for x, y in starts).bit_length() - 1))
        zs = [(round(x * (1 << k)), round(y * (1 << k))) for x, y in starts]
    k0 = k
    for _ in range(_ABERTH_SWEEPS):
        settled = True
        for i, (x, y) in enumerate(zs):
            pr, pi, qr, qi = _scaled_values(c, x, y, k)
            # S / 2**k = A / B, the sum of 1 / (z - z') over units of 2**-k
            ar, ai, br, bi = 0, 0, 1, 0
            for u, v in zs[:i] + zs[i + 1 :]:
                dr, di = x - u, y - v
                ar, ai = ar * dr - ai * di + br, ar * di + ai * dr + bi
                br, bi = br * dr - bi * di, br * di + bi * dr
            # w * 2**k = P B / (Q B - P A), since N = P / (Q 2**k)
            nr, ni = pr * br - pi * bi, pr * bi + pi * br
            dr, di = qr * br - qi * bi - pr * ar + pi * ai, qr * bi + qi * br - pr * ai - pi * ar
            den = dr * dr + di * di
            if den == 0:
                raise _UndefinedIterate(f"Aberth's correction is undefined at an iterate for {p}")
            dx, dy = _round_div(nr * dr + ni * di, den), _round_div(ni * dr - nr * di, den)
            x, y, zs[i] = x - dx, y - dy, None
            while (x, y) in zs:
                y += 1
            zs[i] = x, y
            settled = settled and abs(dx) <= 1 and abs(dy) <= 1
        if k == bits:
            if settled:
                break
        elif settled or k > k0:
            shift = min(k, bits - k)
            zs, k = [(x << shift, y << shift) for x, y in zs], k + shift
    else:
        raise CertificationError(f"Aberth's iteration did not settle on the roots of {p}")
    boxes, unit = [], Fraction(1, 1 << bits)
    for x, y in zs:
        pr, pi, qr, qi = _scaled_values(c, x, y, k)
        if qr == qi == 0:
            raise _UndefinedIterate(f"p' vanishes at an Aberth iterate for {p}")
        r = math.isqrt(-(-(n * n * (pr * pr + pi * pi)) // (qr * qr + qi * qi))) + 2
        boxes.append(Box(Interval(x - r, x + r) * unit, Interval(y - r, y + r) * unit))
    return boxes


@lru_cache(maxsize=1024)
def isolate_all_roots(p: IntPoly):
    """Certified boxes isolating every complex root of a squarefree monic p.

    Returns RootBox tuples: pairwise disjoint, exactly one root in each, real
    roots flagged with zero imaginary part and listed first in ascending
    order, then each upper-half-plane root followed by its conjugate, the
    upper ones ordered by the (re, im) of their box centres; conjugate_index
    wires up each pair.  The real roots come from the Sturm subdivision of
    p, every other root from _aberth.  Results are memoised per polynomial.
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
    # the iterates of real roots settle within a unit of the real axis; the
    # n_pairs largest imaginary parts are the upper roots.  An undefined
    # iterate fails a round as a box on the axis does; one that does not
    # settle raises at once
    for r in range(_ABERTH_ROUNDS):
        try:
            boxes = _aberth(p, _BOX_BITS << r)
        except _UndefinedIterate:
            continue
        boxes = sorted(boxes, key=lambda b: -b.im.mid)[:n_pairs]
        if all(b.im.lo > 0 and b.re.width <= _MAX_BOX_WIDTH for b in boxes):
            return sorted(boxes, key=lambda b: (b.re.mid, b.im.mid))
    raise CertificationError(f"complex root isolation failed for {p}")


def refine_root_box(p: IntPoly, rb: RootBox, width: Fraction) -> RootBox:
    """Shrink a box that isolate_all_roots(p) returned to the requested
    width.

    A lower box is refined as the mirror image of its upper one.  A real
    box is continued by _continue_bracket on p, and any other box by _aberth
    from its centre alone, which is Newton's method; its new box holds the
    old box's root, as it must lie within the old box.  Raises ValueError
    unless width > 0.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    if rb.re.width <= width and rb.im.width <= width:
        return rb
    if rb.im.hi < 0:
        up = refine_root_box(p, RootBox(rb.re, -rb.im), width)
        return RootBox(up.re, -up.im, rb.conjugate_index)
    if rb.is_real:
        return RootBox(_continue_bracket(p, rb.re, width), Interval.point(0), rb.conjugate_index)
    target = rb.box
    box = _aberth(p, _bits_below(width) + 6, [(target.re.mid, target.im.mid)])[0]
    if not (target.contains(box.re.lo, box.im.lo) and target.contains(box.re.hi, box.im.hi)) or box.re.width > width:
        raise CertificationError(f"could not refine box for {p}")
    return RootBox(box.re, box.im, rb.conjugate_index)
