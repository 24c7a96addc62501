"""Second exterior power of a quartic, and the inverse problem.

exterior_square sends a monic quartic with roots g1..g4 to the monic sextic
whose roots are the six pairwise products gi*gj.  Everything runs through
power sums and Newton's identities, so no root is ever computed; all
divisions are exact and checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Optional

from .errors import CertificationError, NotMonicError, WrongDegreeError
from .poly import IntPoly, _is_square


def exterior_square(p: IntPoly) -> IntPoly:
    """Monic sextic with the pairwise root products of a monic quartic."""
    if not p.is_monic:
        raise NotMonicError("exterior square needs a monic polynomial")
    if p.degree != 4:
        raise WrongDegreeError(f"expected degree 4, got {p.degree}")
    c0, c1, c2, c3, _ = p.coeffs
    e1, e2, e3, e4 = -c3, c2, -c1, c0
    ps = [4, e1]
    ps.append(e1 * ps[1] - 2 * e2)
    ps.append(e1 * ps[2] - e2 * ps[1] + 3 * e3)
    ps.append(e1 * ps[3] - e2 * ps[2] + e3 * ps[1] - 4 * e4)
    for k in range(5, 13):
        ps.append(e1 * ps[k - 1] - e2 * ps[k - 2] + e3 * ps[k - 3] - e4 * ps[k - 4])
    # power sums of the pairwise products
    pair = [6]
    for k in range(1, 7):
        v, rem = divmod(ps[k] * ps[k] - ps[2 * k], 2)
        if rem:
            raise CertificationError(f"odd pairwise power sum at k = {k}")
        pair.append(v)
    es = [1]
    for k in range(1, 7):
        acc = 0
        sign = 1
        for i in range(1, k + 1):
            acc += sign * es[k - i] * pair[i]
            sign = -sign
        v, rem = divmod(acc, k)
        if rem:
            raise CertificationError(f"Newton's identity at k = {k} left remainder {rem}")
        es.append(v)
    return IntPoly((es[6], -es[5], es[4], -es[3], es[2], -es[1], 1))


@dataclass(frozen=True)
class SquareValues:
    """Witnesses m, n with m*m == -q(1) and n*n == q(-1)."""

    m: int
    n: int

    def __bool__(self):
        return True


@dataclass(frozen=True)
class NotSquare:
    """q(+-1) does not have the square shape a quartic preimage forces."""

    point: int  # +1 or -1
    value: int  # -q(1) or q(-1), whichever failed

    def __bool__(self):
        return False


def square_values(q: IntPoly):
    """Check the two square identities a preimage of q must satisfy.

    For q = exterior_square(P) with P(0) = 1, -q(1) and q(-1) are squares of
    integers; returns SquareValues (truthy) or NotSquare (falsy).
    """
    if not q.is_monic:
        raise NotMonicError("square_values needs a monic polynomial")
    if q.degree != 6:
        raise WrongDegreeError(f"expected degree 6, got {q.degree}")
    v1 = -q(1)
    if not _is_square(v1):
        return NotSquare(1, v1)
    vm1 = q(-1)
    if not _is_square(vm1):
        return NotSquare(-1, vm1)
    return SquareValues(isqrt(v1), isqrt(vm1))


@dataclass(frozen=True)
class InversionCandidates:
    sextic: IntPoly
    a5: int  # t^5 coefficient of the sextic, stored verbatim
    m: Optional[int]
    n: Optional[int]
    candidates: tuple
    verified: tuple
    obstruction: Optional[str]  # None | "not-square"


def invert_wedge(q: IntPoly) -> InversionCandidates:
    """All monic quartics with constant term 1 mapping to q, if any.

    From -q(1) = (p-r)**2 and q(-1) = (p+r)**2 for a preimage
    t^4 + p t^3 - a5 t^2 + r t + 1, the four sign arrangements of
    j = (n+m)/2, k = (n-m)/2 give the candidates; verified keeps those whose
    exterior square equals q exactly.
    """
    if not q.is_monic:
        raise NotMonicError("invert_wedge needs a monic polynomial")
    if q.degree != 6:
        raise WrongDegreeError(f"expected degree 6, got {q.degree}")
    a5 = q.coeffs[5]
    sv = square_values(q)
    if not sv:
        return InversionCandidates(q, a5, None, None, (), (), "not-square")
    m, n = sv.m, sv.n
    # m = n (mod 2), so j and k are integers: n*n - m*m = q(-1) + q(1) is
    # twice the sum of the even-index coefficients of q
    j = (n + m) // 2
    k = (n - m) // 2
    mid = -a5
    raw = (
        IntPoly((1, k, mid, j, 1)),
        IntPoly((1, -k, mid, -j, 1)),
        IntPoly((1, -j, mid, -k, 1)),
        IntPoly((1, j, mid, k, 1)),
    )
    cands = []
    for c in raw:
        if c not in cands:
            cands.append(c)
    verified = tuple(c for c in cands if exterior_square(c) == q)
    return InversionCandidates(q, a5, m, n, tuple(cands), verified, None)
