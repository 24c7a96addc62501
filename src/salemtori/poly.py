"""Exact integer polynomial arithmetic.

IntPoly wraps a tuple of int coefficients in ascending degree order.  All
operations are exact; nothing here touches floating point.  Heavy lifting is
delegated to the coefficient kernels in _kernels.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from operator import index

from . import _kernels as kern
from ._record import Record, set_field
from .errors import DegreeTooLargeError, NotMonicError, ParseError


class IntPoly(Record):
    """Integer polynomial.  coeffs[i] multiplies t**i; no trailing zeros.

    A coefficient that is not an integer (a float, a Fraction, a str) raises
    TypeError rather than being truncated.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        set_field(self, "coeffs", kern.normalize(map(index, coeffs)))

    @classmethod
    def from_descending(cls, seq) -> "IntPoly":
        return cls(tuple(reversed(tuple(seq))))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def __add__(self, other):
        other = _coerce(other)
        return IntPoly(kern.add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return IntPoly(kern.sub(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return IntPoly(kern.neg(self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(kern.mul_scalar(self.coeffs, other))
        other = _coerce(other)
        return IntPoly(kern.mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponent")
        out = IntPoly((1,))
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __divmod__(self, other: "IntPoly"):
        other = _coerce(other)
        if not other.is_monic:
            raise NotMonicError(f"division by non-monic {other}")
        q, r = kern.divmod_monic(self.coeffs, other.coeffs)
        return IntPoly(q), IntPoly(r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other: "IntPoly") -> bool:
        """True when self is monic and divides other exactly."""
        return divmod(other, self)[1].is_zero

    def __call__(self, x):
        if isinstance(x, Fraction):
            v = kern.eval_qq(self.coeffs, x.numerator, x.denominator)
            return Fraction(v, x.denominator ** max(self.degree, 0))
        return kern.eval_int(self.coeffs, x)

    def derivative(self) -> "IntPoly":
        return IntPoly(kern.deriv(self.coeffs))

    def reciprocal(self) -> "IntPoly":
        """t**deg * p(1/t): the coefficient sequence reversed."""
        return IntPoly(tuple(reversed(self.coeffs)))

    @property
    def is_reciprocal(self) -> bool:
        return self.coeffs == tuple(reversed(self.coeffs)) and bool(self.coeffs)

    def content(self) -> int:
        return kern.content(self.coeffs)

    def primitive(self) -> "IntPoly":
        c = self.content()
        if c <= 1:
            return self
        return IntPoly(kern.div_scalar_exact(self.coeffs, c))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "t" if i == 1 else f"t^{i}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"IntPoly({self})"


def _coerce(x) -> IntPoly:
    if isinstance(x, IntPoly):
        return x
    if isinstance(x, int):
        return IntPoly((x,))
    raise TypeError(f"cannot coerce {type(x).__name__} to IntPoly")


ONE = IntPoly((1,))


def quote_token(token: str) -> str:
    """repr of a bad input token, cut to its first 40 characters when longer."""
    return repr(token) if len(token) <= 40 else f"{token[:40]!r}... ({len(token)} characters)"


def parse_ints(text: str, what: str = "coefficient") -> list:
    """Parse comma-separated integers.

    Raises ParseError with the character position of the bad token; what
    names a token in the message, which quotes at most 40 characters of it.
    """
    out = []
    pos = 0
    for chunk in text.split(","):
        token = chunk.strip()
        start = pos + (len(chunk) - len(chunk.lstrip()))
        if not token:
            raise ParseError(f"empty {what}", start)
        try:
            out.append(int(token))
        except ValueError:
            raise ParseError(f"bad {what} {quote_token(token)}", start) from None
        pos += len(chunk) + 1
    return out


def parse_poly(text: str) -> IntPoly:
    """Parse comma-separated integer coefficients, highest degree first.

    "1,-3,1" is t^2 - 3t + 1.  Raises ParseError with the character position
    of the bad token.
    """
    if text is None or not text.strip():
        raise ParseError("empty polynomial", 0)
    return IntPoly.from_descending(parse_ints(text))


def format_poly(p: IntPoly) -> str:
    """Inverse of parse_poly: descending coefficients joined by commas."""
    if p.is_zero:
        return "0"
    return ",".join(str(c) for c in reversed(p.coeffs))


# |n| from which divisors() lists the divisors from the prime factorisation;
# the two routes break even near 2**16.5
_FACTOR_FROM = 1 << 17


def divisors(n: int):
    """Divisors of n != 0 by increasing size, each followed by its negative.

    Below _FACTOR_FROM by trial division up to sqrt(|n|); from there by the
    prime factorisation of |n|, in about |n|**(1/3) steps.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("zero has no divisor list")
    if n >= _FACTOR_FROM:
        ds = [1]
        for p, e in _prime_factors(n).items():
            ds = [d * p**i for d in ds for i in range(e + 1)]
        return [s for d in sorted(ds) for s in (d, -d)]
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small += (d, -d)
            if d * d != n:
                large += (-(n // d), n // d)
        d += 1
    return small + large[::-1]


def _icbrt(n: int) -> int:
    """floor(n ** (1/3)) for n >= 0, by Newton's method in integers."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // 3)  # above the root, as n < 2**bits
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def _prime_factors(n: int) -> dict:
    """{p: e} with n = prod(p**e), for n >= 1.

    Trial division takes out every prime d <= max(cbrt(m), 30) of what is
    left, m.  Each prime factor of m then lies above cbrt(m), so m is 1, a
    prime, the square of one, or a product p*q that _lehman splits; the
    floor 30 leaves _lehman no m below 31.
    """
    out = {}
    m, d = n, 2
    bound = max(_icbrt(m), 30)
    while d <= bound and d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
                out[d] = out.get(d, 0) + 1
            bound = max(_icbrt(m), 30)
        d += 1 if d == 2 else 2
    if m == 1:
        return out
    if d * d <= m:  # else m is a prime, as no d <= sqrt(m) divides it
        r = isqrt(m)
        g = r if r * r == m else _lehman(m)
        if g is not None:
            for q in (g, m // g):
                out[q] = out.get(q, 0) + 1
            return out
    out[m] = out.get(m, 0) + 1
    return out


def _lehman(n: int):
    """A factor 1 < g < n of n, or None when n is prime (Lehman, Math. Comp.
    28, 1974; Crandall & Pomerance, Algorithm 5.1.2).

    n must be odd, above 21, and free of prime factors up to cbrt(n).  Then
    n = p*q is composite exactly when a**2 - 4*k*n is a square b**2 for some
    k <= cbrt(n) and sqrt(4kn) <= a <= sqrt(4kn) + n**(1/6) / (4 sqrt(k)),
    and gcd(a + b, n) splits n.  Both bounds are rounded outward.
    """
    near = _icbrt(n >> 12)  # n // (4096 k**3) is 0 for every k > near
    four_kn = 0
    for k in range(1, _icbrt(n) + 2):
        four_kn += 4 * n
        root = isqrt(four_kn)
        top = root + 1
        if k <= near:
            # floor(n**(1/6) / (4 sqrt(k))) = floor((n / (4096 k**3)) ** (1/6))
            top += _icbrt(isqrt(n // (4096 * k * k * k)))
        for a in range(root + (root * root < four_kn), top + 1):
            b2 = a * a - four_kn
            b = isqrt(b2)
            if b * b == b2:
                g = gcd(a + b, n)
                if 1 < g < n:
                    return g
    return None


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _quadratic_split(c: IntPoly):
    """(a, b, s) with a <= b, s = 1 tried before s = -1, and c =
    (t^2 + at + s)(t^2 + bt + s) = t^4 + (a+b)t^3 + (ab+2s)t^2 + s(a+b)t + 1,
    or None; a and b are the roots of x^2 - c3*x + c2 - 2s."""
    if c.degree != 4 or c.coeffs[0] != 1 or c.coeffs[4] != 1:
        return None
    _, c1, c2, c3, _ = c.coeffs
    for s in (1, -1):
        disc = c3 * c3 - 4 * (c2 - 2 * s)
        if c1 == s * c3 and _is_square(disc):
            r = isqrt(disc)
            return ((c3 - r) // 2, (c3 + r) // 2, s)
    return None


def _trial(c, g):
    q, r = kern.divmod_monic(c, g)
    return q if not r else None


def _find_factor(c):
    """A monic irreducible factor of c of degree 2 .. deg//2 (tuple form, c
    with no integer roots), or None when c is irreducible.

    One walk over the divisor triples (a0, u, v) = (g(0), g(1), g(-1)) of
    c(0), c(1) and c(-1) solves every degree.  With e and o the sums of g's
    even- and odd-index coefficients, leading 1 included, u = e + o and
    v = e - o: a quadratic is fixed by (a0, u), a cubic by the triple, and a
    quartic up to a3, which pairing g(2) with g(-2) settles after the walk.
    The tests that prune come before trial division: g(x) != 0 and
    g(x) | c(x) at x = -2, 3, -3, and at x = -1 for a quadratic, as only
    cubics and quartics take g(-1) from the divisors of c(-1).  Mignotte's
    coefficient bound rejects too few candidates to pay.  Each test is a
    necessary condition for g | c (c(x) != 0 since c has no integer roots),
    so no factor can be missed, and trial division confirms every hit.  A
    quadratic or cubic hit is irreducible as c has no linear factor, and a
    quartic hit as the walk has ruled out every quadratic factor.
    """
    deg = len(c) - 1
    pm1 = kern.eval_int(c, -1)
    checks = tuple((x, kern.eval_int(c, x)) for x in (-2, 3, -3))

    def divides(g, points=checks):
        for x, cx in points:
            gx = kern.eval_int(g, x)
            if gx == 0 or cx % gx:
                return False
        return _trial(c, g) is not None

    us = divisors(kern.eval_int(c, 1))
    vs = divisors(pm1) if deg >= 6 else ()
    seeds = []  # (a0, a2, a1 + a3) of the quartic candidates
    for a0 in divisors(c[0]):
        for u in us:
            a1 = u - 1 - a0
            gm1 = a0 - a1 + 1
            if gm1 and pm1 % gm1 == 0 and divides((a0, a1, 1)):
                return (a0, a1, 1)
            for v in vs:
                if (u + v) & 1:
                    continue
                e, o = (u + v) // 2, (u - v) // 2
                if divides((a0, o - 1, e - a0, 1)):
                    return (a0, o - 1, e - a0, 1)
                if deg == 8:
                    seeds.append((a0, e - 1 - a0, o))
    if not seeds:
        return None
    pm2 = checks[0][1]
    d2s = divisors(kern.eval_int(c, 2))
    # g(2) + g(-2) = 32 + 8*a2 + 2*a0, so (a0, a2) pairs each divisor
    # d2 = g(2) with g(-2); keep the d2 whose partner divides c(-2), once per
    # value of the sum
    paired = {}
    for a0, a2, s in seeds:
        k = 32 + 8 * a2 + 2 * a0
        if k not in paired:
            paired[k] = [d2 for d2 in d2s if d2 != k and pm2 % (k - d2) == 0]
        for d2 in paired[k]:
            num = d2 - 16 - 4 * a2 - 2 * s - a0
            if num % 6:
                continue
            a3 = num // 6
            g = (a0, s - a3, a2, a3, 1)
            # g(-2) | c(-2) by the pairing
            if divides(g, checks[1:]):
                return g
    return None


def factor_bounded(p: IntPoly):
    """Factor a monic integer polynomial of degree <= 8 into monic irreducibles.

    Returns a tuple of (factor, multiplicity) sorted by (degree, coeffs).
    """
    if not p.is_monic:
        raise NotMonicError("factor_bounded expects a monic polynomial")
    if p.degree > 8:
        raise DegreeTooLargeError(f"degree {p.degree} > 8")
    found = {}

    def record(g):
        found[g] = found.get(g, 0) + 1

    c = p.coeffs
    while c[0] == 0:
        record((0, 1))
        c = c[1:]
    if len(c) > 1:
        for r in divisors(c[0]):
            lin = (-r, 1)
            while True:
                q = _trial(c, lin)
                if q is None or len(c) == 1:
                    break
                record(lin)
                c = q
    while len(c) - 1 >= 4:
        g = _find_factor(c)
        if g is None:
            break
        record(g)
        c = _trial(c, g)
    if len(c) > 1:
        record(c)
    return tuple(
        sorted(((IntPoly(g), m) for g, m in found.items()), key=lambda fm: (fm[0].degree, fm[0].coeffs))
    )


def remainder_sequence(a: IntPoly, b: IntPoly) -> list:
    """Primitive pseudo-remainders a, b, r1, ... as coefficient tuples, zeros
    left out, for deg a >= deg b.  Each r has the sign of minus the true
    remainder, so for b = a' this is a Sturm chain of a; the last entry is
    +-gcd(a, b) all the same."""
    seq = [f for f in (a.primitive().coeffs, b.primitive().coeffs) if f]
    while len(seq) > 1:
        prev, cur = seq[-2], seq[-1]
        r = kern.prem(prev, cur)
        if not r:
            break
        if cur[-1] > 0 or (len(prev) - len(cur)) % 2:
            r = kern.neg(r)
        cont = kern.content(r)
        seq.append(kern.div_scalar_exact(r, cont) if cont > 1 else r)
    return seq


# every n with totient(n) <= 8; no other cyclotomic polynomial can divide
# a polynomial of degree <= 8
CYCLOTOMIC_INDICES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 20, 24, 30)


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPoly:
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    if n == 1:
        return IntPoly((-1, 1))
    num = IntPoly((0,) * n + (1,)) - ONE
    for d in range(1, n):
        if n % d == 0:
            num //= cyclotomic(d)
    return num


@lru_cache(maxsize=1024)
def split_cyclotomic(p: IntPoly):
    """Split off all cyclotomic factors of a monic p of degree <= 8.

    Returns ((n, multiplicity), ...) and the non-cyclotomic cofactor, so that
    p == prod(cyclotomic(n)**m) * rest.  Results are memoised per p.
    """
    if not p.is_monic:
        raise NotMonicError("split_cyclotomic expects a monic polynomial")
    if p.degree > 8:
        raise DegreeTooLargeError(f"degree {p.degree} > 8")
    rest = p
    parts = []
    for n in CYCLOTOMIC_INDICES:
        phi = cyclotomic(n)
        if phi.degree > rest.degree:
            continue
        m = 0
        while rest.degree >= phi.degree:
            q, r = divmod(rest, phi)
            if not r.is_zero:
                break
            rest = q
            m += 1
        if m:
            parts.append((n, m))
    return tuple(parts), rest
