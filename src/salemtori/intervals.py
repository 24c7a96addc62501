"""Exact rational intervals and boxes, certified log enclosures and
correctly rounded decimals.

Interval endpoints are Fractions and all interval arithmetic is exact.  The
log is an integer fixed-point series with explicit error bounds, so nothing
beyond the standard library is needed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from ._record import Record, set_field


class Interval(Record):
    """Closed interval with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if type(lo) is not Fraction:
            lo = Fraction(lo)
        if type(hi) is not Fraction:
            hi = Fraction(hi)
        if lo > hi:
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)

    @classmethod
    def point(cls, x) -> "Interval":
        x = Fraction(x)
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __add__(self, other):
        other = _as_interval(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_as_interval(other))

    def __rsub__(self, other):
        return _as_interval(other) - self

    def __mul__(self, other):
        other = _as_interval(other)
        prods = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(prods), max(prods))

    __rmul__ = __mul__

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"


def _as_interval(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval.point(x)


class Box(Record):
    """Axis-aligned rectangle in the complex plane."""

    __slots__ = ("re", "im")

    def __init__(self, re: Interval, im: Interval):
        set_field(self, "re", re)
        set_field(self, "im", im)

    def intersects(self, other: "Box") -> bool:
        return self.re.intersects(other.re) and self.im.intersects(other.im)

    def contains(self, re, im) -> bool:
        return self.re.contains(re) and self.im.contains(im)

    def __mul__(self, other: "Box") -> "Box":
        # (a+bi)(c+di) with interval coordinates
        a, b, c, d = self.re, self.im, other.re, other.im
        return Box(a * c - b * d, a * d + b * c)

    def __str__(self):
        return f"({self.re} + {self.im}i)"


def isqrt_bounds(n: int):
    """floor and ceil of sqrt(n), for an integer n >= 0."""
    r = isqrt(n)
    return r, r + (r * r < n)


# The log below works in fixed point: an integer v stands for v * 2**-p.
# Every rounding goes down, and each enclosure adds an explicit bound for
# what the rounding and the truncated series can have lost, so the lower
# ends are rounded down and the upper ends up (Brent, "Fast multiple-
# precision evaluation of elementary functions", 1976).


def _atanh_units(num: int, den: int, p: int):
    """Integers lo <= hi with atanh(num/den) in [lo, hi] * 2**-p, for
    0 <= num/den <= 1/3.

    The series atanh r = sum r**(2k+1) / (2k+1) is summed with r**2 rounded
    down to R2 units, each power rounded down from the last, P_{k+1} =
    floor(P_k * R2 * 2**-p), and each term floor(P_k / (2k+1)).  In units:
    P_0 misses r by less than 1, and P_{k+1} misses r**(2k+3) by less than
    e * r**2 + r + 1, where e bounds the miss of P_k; with r <= 1/3 every
    miss stays below 1.5, so each term misses its true value by less than
    2.5.  The sum stops at the first P_n = 0, whose power r**(2n+1) is then
    below 1.5 units, and the tail beyond it is at most
    r**(2n+1) / ((2n+1)(1 - r**2)) < 1.5 * 9/8 < 2 units.  So atanh r lies
    in [S, S + 3n + 2] for the sum S of the n terms.
    """
    if num == 0:
        return 0, 0
    power = (num << p) // den
    r2 = (num * num << p) // (den * den)
    total = n = 0
    while power:
        total += power // (2 * n + 1)
        power = (power * r2) >> p
        n += 1
    return total, total + 3 * n + 2


@lru_cache(maxsize=64)
def _log2_units(p: int):
    """log 2 = 2 atanh(1/3) as an enclosure [lo, hi] * 2**-p."""
    lo, hi = _atanh_units(1, 3, p)
    return 2 * lo, 2 * hi


def _log_bounds(x: Fraction, bits: int):
    """Dyadic lo <= log x <= hi, for rational x > 0, about 2**-bits apart.

    x = 2**m * a/b with a/b in [1/sqrt(2), sqrt(2)], so that
    r = (a - b)/(a + b) has |r| <= 3 - 2*sqrt(2) < 0.18 and
    log x = m log 2 + 2 atanh(r), with atanh odd in r.
    """
    n, d = x.numerator, x.denominator
    m = n.bit_length() - d.bit_length()
    a, b = (n, d << m) if m >= 0 else (n << -m, d)
    # a/b now lies in (1/2, 2)
    if 2 * a * a < b * b:
        m, a = m - 1, 2 * a
    elif a * a > 2 * b * b:
        m, b = m + 1, 2 * b
    # the rounding loses at most 2(3n + 2)(|m| + 1) units, n being the
    # terms of the log 2 series, about p/3: below 2**(16 + log2|m|) units
    # for any p under 10,000 bits
    p = bits + 16 + abs(m).bit_length()
    t_lo, t_hi = _atanh_units(abs(a - b), a + b, p)
    if a < b:
        t_lo, t_hi = -t_hi, -t_lo
    l2_lo, l2_hi = _log2_units(p)
    if m < 0:
        l2_lo, l2_hi = l2_hi, l2_lo
    den = 1 << p
    return Fraction(m * l2_lo + 2 * t_lo, den), Fraction(m * l2_hi + 2 * t_hi, den)


def log_interval(iv: Interval, bits: int = 96) -> Interval:
    """Certified enclosure of {log x : x in iv}, for iv.lo > 0.

    Each endpoint's log is enclosed to about 2**-bits, with dyadic ends
    rounded outward, so the result is at most about iv.width / iv.lo +
    2**-(bits - 1) wide.
    """
    if iv.lo <= 0:
        raise ValueError("log of non-positive interval")
    lo, hi = _log_bounds(iv.lo, bits)
    if iv.hi != iv.lo:
        hi = _log_bounds(iv.hi, bits)[1]
    return Interval(lo, hi)


class RoundingBoundaryError(ValueError):
    """An enclosure meets a rounding boundary, so it does not decide how its
    numbers round."""


def decimal_string(iv: Interval, places: int = 12) -> str:
    """The correctly rounded `places`-digit decimal of every number in iv.

    Raises RoundingBoundaryError when iv meets a rounding boundary
    (k + 1/2) * 10**-places, since the numbers of iv then need not all round
    to the same decimal.  Narrow the enclosure and try again.  The work is
    floor divisions of the endpoints' numerators and denominators.
    """
    unit = 10**places
    a, b, c, d = iv.lo.numerator, iv.lo.denominator, iv.hi.numerator, iv.hi.denominator
    # in units of 10**-places the boundaries are k + 1/2; iv meets one when
    # the last boundary at or below hi, floor(hi * unit - 1/2), is at or
    # above the first at or above lo, ceil(lo * unit - 1/2)
    if (2 * c * unit - d) // (2 * d) >= -((b - 2 * a * unit) // (2 * b)):
        raise RoundingBoundaryError(f"{iv} meets a rounding boundary at {places} places")
    # lo * unit rounded to the nearest integer
    n = (2 * a * unit + b) // (2 * b)
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // unit}.{n % unit:0{places}d}"
