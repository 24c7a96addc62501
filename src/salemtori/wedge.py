"""Second exterior power of a quartic, and the inverse problem.

exterior_square sends a monic quartic with roots g1..g4 to the monic sextic
whose roots are the six pairwise products gi*gj.  Its coefficients are fixed
integer polynomials in the quartic's, so no root is ever computed.
"""

from __future__ import annotations

from math import isqrt

from ._record import Record
from .errors import NotMonicError, WrongDegreeError
from .poly import IntPoly, _is_square


def exterior_square(p: IntPoly) -> IntPoly:
    """Monic sextic with the pairwise root products of a monic quartic."""
    if not p.is_monic:
        raise NotMonicError("exterior square needs a monic polynomial")
    if p.degree != 4:
        raise WrongDegreeError(f"expected degree 4, got {p.degree}")
    c0, c1, c2, c3, _ = p.coeffs
    e1, e2, e3, e4 = -c3, c2, -c1, c0
    # the elementary symmetric functions of the six products gi*gj are e2,
    # s2, s3, e4*s2, e2*e4**2 and e4**3
    s2 = e1 * e3 - e4
    s3 = e1 * e1 * e4 + e3 * e3 - 2 * e2 * e4
    return IntPoly((e4 * e4 * e4, -e2 * e4 * e4, e4 * s2, -s3, s2, -e2, 1))


class SquareValues(Record):
    """Witnesses m, n with m*m == -q(1) and n*n == q(-1)."""

    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int):
        super().__init__(m, n)

    def __bool__(self):
        return True


class NotSquare(Record):
    """q(+-1) does not have the square shape a quartic preimage forces."""

    __slots__ = ("point", "value")

    # point is +1 or -1, value -q(1) or q(-1), whichever failed
    def __init__(self, point: int, value: int):
        super().__init__(point, value)

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


class InversionCandidates(Record):
    __slots__ = ("sextic", "a5", "m", "n", "candidates", "verified", "obstruction")

    # a5 is the t^5 coefficient of the sextic, stored verbatim, and
    # obstruction None or "not-square"
    def __init__(
        self,
        sextic: IntPoly,
        a5: int,
        m: int | None,
        n: int | None,
        candidates: tuple,
        verified: tuple,
        obstruction: str | None,
    ):
        super().__init__(sextic, a5, m, n, candidates, verified, obstruction)


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
    cands = tuple(dict.fromkeys(raw))
    verified = tuple(c for c in cands if exterior_square(c) == q)
    return InversionCandidates(q, a5, m, n, cands, verified, None)
