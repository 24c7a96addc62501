"""Salem certification and certified root isolation.

A Salem polynomial here: monic, reciprocal, irreducible, with exactly one
root outside the unit circle (real, > 1) and its inverse inside; everything
else on the circle.  Degree 2 is allowed, with an empty circle part.

The test runs entirely in integer arithmetic: the substitution u = t + 1/t
halves the degree, and Sturm counts of the image polynomial on (-inf, -2),
(-2, 2), (2, inf) decide the root layout.  Floating point appears only to
seed complex root boxes, which are then certified exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath

from . import _kernels as kern
from .errors import (
    CertificationError,
    DegreeTooLargeError,
    NotMonicError,
    NotReciprocalError,
    NotSquarefreeError,
    OddDegreeError,
)
from .intervals import Box, Interval, mpf_tuple_to_fraction, sqrt_ub
from .poly import IntPoly, _signed_divisors, factor_bounded, is_squarefree

MAX_DEGREE = 8


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
    c = p.coeffs
    # t**k + t**-k = V_k(u): V_0 = 2, V_1 = u, V_{k+1} = u V_k - V_{k-1}
    out = (c[e],)
    v_prev, v_cur = (2,), (0, 1)
    for k in range(1, e + 1):
        out = kern.add(out, kern.mul_scalar(v_cur, c[e + k]))
        v_prev, v_cur = v_cur, kern.sub(kern.shift(v_cur, 1), v_prev)
    return IntPoly(out)


class SturmChain:
    """Signed pseudo-remainder chain with exact variation counts.

    Variation counts skip zero entries, which makes V(x) the right limit
    V(x+); hence count(a, b] = V(a) - V(b) for any rational a <= b.
    """

    def __init__(self, p: IntPoly):
        if p.is_zero:
            raise ValueError("Sturm chain of zero polynomial")
        f0 = p.primitive().coeffs
        chain = [f0]
        f1 = kern.deriv(f0)
        if f1:
            cont = kern.content(f1)
            if cont > 1:
                f1 = kern.div_scalar_exact(f1, cont)
            chain.append(f1)
            while chain[-1]:
                prev, cur = chain[-2], chain[-1]
                r = kern.prem(prev, cur)
                if not r:
                    break
                # prem scales the true remainder by lc(cur)**(delta+1);
                # flip so the entry has the sign of -remainder
                delta = (len(prev) - 1) - (len(cur) - 1)
                if cur[-1] > 0 or delta % 2 == 1:
                    r = kern.neg(r)
                cont = kern.content(r)
                if cont > 1:
                    r = kern.div_scalar_exact(r, cont)
                chain.append(r)
        self.chain = chain

    @staticmethod
    def _variations(signs) -> int:
        out = 0
        last = 0
        for s in signs:
            if s == 0:
                continue
            if last and s != last:
                out += 1
            last = s
        return out

    def variations_at(self, x) -> int:
        if isinstance(x, Fraction):
            num, den = x.numerator, x.denominator
        else:
            num, den = int(x), 1
        signs = []
        for f in self.chain:
            v = kern.eval_qq(f, num, den)
            signs.append((v > 0) - (v < 0))
        return self._variations(signs)

    def variations_pos_inf(self) -> int:
        return self._variations((1 if f[-1] > 0 else -1) for f in self.chain)

    def variations_neg_inf(self) -> int:
        signs = []
        for f in self.chain:
            s = 1 if f[-1] > 0 else -1
            if (len(f) - 1) % 2:
                s = -s
            signs.append(s)
        return self._variations(signs)

    def count_half_open(self, a, b) -> int:
        """Distinct real roots in (a, b]."""
        return self.variations_at(a) - self.variations_at(b)

    def count_gt(self, a) -> int:
        """Distinct real roots in (a, inf)."""
        return self.variations_at(a) - self.variations_pos_inf()

    def count_le(self, a) -> int:
        """Distinct real roots in (-inf, a]."""
        return self.variations_neg_inf() - self.variations_at(a)

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


def _bisect(lo: Fraction, hi: Fraction, width: Fraction, root_left):
    """Halve (lo, hi] around its one root until it is at most width wide.

    root_left(x) is True when the root lies in (lo, x], False when it lies
    beyond x, and None when x is itself a root.  Raises CertificationError
    unless root_left is False at lo and True at hi, or if a midpoint is a root.
    """
    if root_left(lo) is not False or root_left(hi) is not True:
        raise CertificationError(f"({lo}, {hi}] does not bracket a root")
    while hi - lo > width:
        mid = (lo + hi) / 2
        left = root_left(mid)
        if left is None:
            raise CertificationError(f"rational root {mid} hit during bisection")
        if left:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _sign_test(p: IntPoly, hi: Fraction):
    """root_left for a sign change of p below hi: p(x) has the sign of p(hi)."""
    s_hi = p.sign_at(hi)

    def root_left(x):
        s = p.sign_at(x)
        return None if s == 0 else s == s_hi

    return root_left


def _sturm_test(chain: SturmChain, lo: Fraction):
    """root_left for the one root of the chain's polynomial in (lo, hi]."""
    v_lo = chain.variations_at(lo)
    return lambda x: v_lo - chain.variations_at(x) == 1


def lambda_interval(p: IntPoly, bits: int = 48) -> Interval:
    """Certified enclosure of the unique root in (1, inf).

    The caller is responsible for p actually being Salem (or at least having
    exactly one simple root beyond 1 and p(1) < 0); CertificationError
    guards misuse.
    """
    b = Fraction(cauchy_bound(p))
    return Interval(*_bisect(Fraction(1), b, Fraction(1, 1 << bits), _sign_test(p, b)))


def is_salem(p: IntPoly, bits: int = 48):
    """Certify p as a Salem polynomial.

    Returns a SalemCertificate (truthy) or NotSalem (falsy) with a reason in
    {not-monic, not-reciprocal, reducible, wrong-circle-count} and a witness.
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
    factors = factor_bounded(p)
    if factors != ((p, 1),):
        g = factors[0][0]
        return NotSalem("reducible", witness=g, detail=f"factor {g}")
    t_poly = trace_transform(p)
    chain = SturmChain(t_poly)
    e = p.degree // 2
    n_hi = chain.count_gt(2)
    n_lo = chain.count_le(-2)
    n_mid = chain.count_half_open(-2, 2)
    if (n_hi, n_lo, n_mid) != (1, 0, e - 1):
        return NotSalem(
            "wrong-circle-count",
            witness=(n_hi, n_lo, n_mid),
            detail=f"trace roots: {n_hi} above 2, {n_lo} below -2, {n_mid} between",
        )
    lam = lambda_interval(p, bits)
    return SalemCertificate(
        poly=p,
        degree=p.degree,
        trace_poly=t_poly,
        root_interval=lam,
        circle_root_count=p.degree - 2,
    )


def count_real_roots(p: IntPoly, a, b) -> int:
    """Number of real roots in the half-open interval (a, b], exactly."""
    if p.is_zero or not is_squarefree(p):
        raise NotSquarefreeError(f"{p} has repeated roots")
    a = Fraction(a)
    b = Fraction(b)
    if a >= b:
        return 0
    return SturmChain(p).count_half_open(a, b)


def lambda_approx(cert, eps) -> Interval:
    """Shrink a certificate's root enclosure below a requested width."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    bits = (eps.denominator // eps.numerator).bit_length() + 1
    iv = cert.root_interval
    while iv.width > eps:
        iv = Interval(*_bisect(iv.lo, iv.hi, Fraction(1, 1 << bits), _sign_test(cert.poly, iv.hi)))
        bits += 8
    return iv


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


def _integer_roots(p: IntPoly):
    """Distinct integer roots and the cofactor with those roots removed."""
    c = p.coeffs
    roots = []
    if c[0] == 0:
        roots.append(0)
        while c[0] == 0:
            c = c[1:]
    if len(c) > 1:
        for r in sorted(_signed_divisors(c[0]), key=lambda d: (abs(d), d)):
            if kern.eval_int(c, r) == 0:
                roots.append(r)
                while kern.eval_int(c, r) == 0:
                    c, _ = kern.divmod_monic(c, (-r, 1))
    return sorted(roots), IntPoly(c)


def isolate_real_roots(p: IntPoly, bits: int = 24):
    """Disjoint rational intervals, one per distinct real root.

    Integer roots come back as point intervals; irrational roots as open
    intervals with non-root dyadic endpoints, shrunk below 2**-bits and
    separated from each other and from the integer roots.
    """
    if not p.is_monic:
        raise NotMonicError("real root isolation needs a monic polynomial")
    int_roots, g = _integer_roots(p)
    out = [Interval.point(r) for r in int_roots]
    if g.degree >= 1:
        chain = SturmChain(g)
        total = chain.count_real()
        if total:
            b = cauchy_bound(g)
            work = [(Fraction(-b), Fraction(b))]
            isolated = []
            while work:
                lo, hi = work.pop()
                n = chain.count_half_open(lo, hi)
                if n == 0:
                    continue
                if n == 1:
                    isolated.append((lo, hi))
                    continue
                mid = (lo + hi) / 2
                work.append((lo, mid))
                work.append((mid, hi))
            target = Fraction(1, 1 << bits)
            while True:
                refined = [_bisect(lo, hi, target, _sturm_test(chain, lo)) for lo, hi in isolated]
                ok = all(a_hi < b_lo for (_, a_hi), (b_lo, _) in zip(sorted(refined), sorted(refined)[1:]))
                if ok and all(
                    not (lo <= r <= hi) for lo, hi in refined for r in int_roots
                ):
                    break
                target /= 2
                isolated = refined
            out.extend(Interval(lo, hi) for lo, hi in refined)
    out.sort(key=lambda iv: (iv.lo, iv.hi))
    return out


def _eval_complex(c, x: Fraction, y: Fraction):
    """Exact p(x + iy) as a pair of Fractions."""
    re, im = Fraction(0), Fraction(0)
    for coef in reversed(c):
        re, im = re * x - im * y + coef, re * y + im * x
    return re, im


def _dyadic(fr: Fraction, bits: int) -> Fraction:
    return Fraction(round(fr * (1 << bits)), 1 << bits)


_DPS_LADDER = (60, 120, 240, 480, 960)


def _seed_box(p: IntPoly, z, dps: int):
    """_certified_box at the dyadic rounding of an mpmath seed found at dps."""
    bits = int(dps * 3.32) + 16
    x0 = _dyadic(mpf_tuple_to_fraction(mpmath.re(z)._mpf_), bits)
    y0 = _dyadic(mpf_tuple_to_fraction(mpmath.im(z)._mpf_), bits)
    return _certified_box(p, x0, y0, bits)


def _certified_box(p: IntPoly, x0: Fraction, y0: Fraction, bits: int):
    """Inclusion box around a seed: half-width n*|p/p'| at the seed, inflated
    so the guaranteed root is strictly interior.  None if p'(seed) = 0."""
    c = p.coeffs
    n = p.degree
    pr, pi = _eval_complex(c, x0, y0)
    dr, di = _eval_complex(kern.deriv(c), x0, y0)
    d2 = dr * dr + di * di
    if d2 == 0:
        return None
    ratio = (pr * pr + pi * pi) / d2
    r = n * sqrt_ub(ratio, bits) * Fraction(1025, 1024)
    return Box(Interval(x0 - r, x0 + r), Interval(y0 - r, y0 + r))


def isolate_all_roots(p: IntPoly, width: Fraction = Fraction(1, 1 << 24)):
    """Certified boxes isolating every complex root of a squarefree monic p.

    Returns RootBox tuples: pairwise disjoint, exactly one root in each, real
    roots flagged with zero imaginary part, non-real ones in conjugate pairs
    wired up through conjugate_index.
    """
    if p.degree > MAX_DEGREE:
        raise DegreeTooLargeError(f"degree {p.degree} > {MAX_DEGREE}")
    if not p.is_monic:
        raise NotMonicError("root isolation needs a monic polynomial")
    if not is_squarefree(p):
        raise NotSquarefreeError(f"{p} has repeated roots")
    bits = max(24, -(width.numerator.bit_length() - width.denominator.bit_length()) + 4)
    reals = isolate_real_roots(p, bits=bits)
    while any(iv.width > width for iv in reals):
        bits += 8
        reals = isolate_real_roots(p, bits=bits)
    n_pairs, odd = divmod(p.degree - len(reals), 2)
    if odd:
        raise CertificationError(f"{len(reals)} real roots for degree {p.degree}")
    uppers = []
    if n_pairs:
        uppers = _upper_boxes(p, n_pairs, width)
    boxes = []
    for iv in reals:
        boxes.append(RootBox(iv, Interval.point(0)))
    for up in uppers:
        i = len(boxes)
        boxes.append(RootBox(up.re, up.im, conjugate_index=i + 1))
        boxes.append(RootBox(up.re, -up.im, conjugate_index=i))
    _check_disjoint(boxes)
    return tuple(boxes)


def _upper_boxes(p: IntPoly, n_pairs: int, width: Fraction):
    deg_coeffs = list(reversed(p.coeffs))
    last_err = "no attempt"
    for dps in _DPS_LADDER:
        with mpmath.workdps(dps):
            seeds = mpmath.polyroots(deg_coeffs, maxsteps=200, extraprec=2 * dps)
        ups = [z for z in seeds if mpmath.im(z) > 0]
        if len(ups) < n_pairs:
            last_err = f"only {len(ups)} upper seeds at dps {dps}"
            continue
        # real roots can leak in with tiny imaginary noise; the genuinely
        # complex seeds dominate once the precision is high enough
        ups.sort(key=lambda z: -mpmath.im(z))
        cand = ups[:n_pairs]
        cand.sort(key=lambda z: (mpmath.re(z), mpmath.im(z)))
        boxes = []
        ok = True
        for z in cand:
            box = _seed_box(p, z, dps)
            if box is None or box.im.lo <= 0 or box.re.width > width or box.im.width > width:
                ok = False
                last_err = f"seed at dps {dps} not certifiable"
                break
            boxes.append(box)
        if not ok:
            continue
        disjoint = all(
            not boxes[i].intersects(boxes[j]) for i in range(len(boxes)) for j in range(i + 1, len(boxes))
        )
        if disjoint:
            return boxes
        last_err = f"boxes overlap at dps {dps}"
    raise RuntimeError(f"complex root isolation failed for {p}: {last_err}")


def _check_disjoint(boxes):
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            if boxes[i].box.intersects(boxes[j].box):
                raise RuntimeError("root boxes overlap")


def refine_root_box(p: IntPoly, rb: RootBox, width: Fraction) -> RootBox:
    """Shrink a certified box around its root to the requested width."""
    if rb.re.width <= width and rb.im.width <= width:
        return rb
    if rb.is_real:
        lo, hi = _bisect(rb.re.lo, rb.re.hi, width, _sign_test(p, rb.re.hi))
        return RootBox(Interval(lo, hi), Interval.point(0), rb.conjugate_index)
    deg_coeffs = list(reversed(p.coeffs))
    target = rb.box
    for dps in _DPS_LADDER:
        with mpmath.workdps(dps):
            seeds = mpmath.polyroots(deg_coeffs, maxsteps=200, extraprec=2 * dps)
            cx = float((target.re.lo + target.re.hi) / 2)
            cy = float((target.im.lo + target.im.hi) / 2)
            seeds.sort(key=lambda z: abs(z - mpmath.mpc(cx, cy)))
            z = seeds[0]
        box = _seed_box(p, z, dps)
        if box is None:
            continue
        inside = (
            target.re.lo <= box.re.lo
            and box.re.hi <= target.re.hi
            and target.im.lo <= box.im.lo
            and box.im.hi <= target.im.hi
        )
        if inside and box.re.width <= width and box.im.width <= width:
            return RootBox(box.re, box.im, rb.conjugate_index)
    raise RuntimeError(f"could not refine box for {p}")
