"""Deciding which Salem numbers arise from torus automorphisms.

The pipeline: a certified Salem polynomial S of degree 2, 4 or 6 is padded
with cyclotomic complements C to candidate sextics Q = S*C, the square-value
obstruction prunes Q, exact inversion of the exterior square recovers the
possible degree-1 characteristic polynomials P, and the root structure of
each P decides whether a complex-structure pairing exists.  Every surviving
(Q, C, P, pairing-class) quartet is an explicit torus witness.

Case tags follow the Salem degree: 6 and 4 directly, while degree 2 splits
on whether q = lambda + 1/lambda has q + 2 or q - 2 a perfect square (an
infinite family of witnesses) or neither (finitely many).  salem_case makes
that split and RANKS holds the Picard ranks each case forces; torus reads both.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from ._record import Record
from .errors import CertificationError, NotMonicError, NotSalemInputError, WrongDegreeError
from .poly import ONE, IntPoly, _is_square, _quadratic_split, cyclotomic
from .salem import NotSalem, SalemCertificate, is_salem
from .wedge import invert_wedge

CASE_DEG6 = "Case1_deg6"
CASE_DEG4 = "Case2_deg4"
CASE_3A = "Case3a_deg2"
CASE_3B = "Case3b_deg2"

SHORT_CASE = {CASE_DEG6: "1", CASE_DEG4: "2", CASE_3A: "3a", CASE_3B: "3b"}

UNCONSTRAINED = "unconstrained"

# the Picard rank each case forces, per projectivity type
RANKS = {
    CASE_DEG6: (("non_projective", 0),),
    CASE_DEG4: (("non_projective", 2), ("projective", 4)),
    CASE_3A: (("projective", UNCONSTRAINED),),
    CASE_3B: (("projective", 4),),
}
_TYPES = {tag: tuple(kind for kind, _ in ranks) for tag, ranks in RANKS.items()}


class Finite(Record):
    """Realized by finitely many quartets; count is the number found."""

    __slots__ = ("count",)

    def __init__(self, count: int):
        super().__init__(count)


class InfiniteFamily(Record):
    """Realized by an infinite family; r is the integer with q -sign- 2 = r^2."""

    __slots__ = ("r", "sign")

    def __init__(self, r: int, sign: str):
        super().__init__(r, sign)


class PairingClass(Record):
    """One complex-structure choice on a witness, up to overall conjugation.

    kind "conjugate": indices pick (g1, g2) among the isolated roots of the
    squarefree part of P, one per conjugate pair.  kind "real": P = G^2 for
    a real hyperbolic quadratic, realized by gl2z_model(*gl_params).
    """

    __slots__ = ("kind", "indices", "gl_params")

    def __init__(self, kind: str, indices: tuple | None = None, gl_params: tuple | None = None):
        super().__init__(kind, indices, gl_params)


class Witness(Record):
    __slots__ = ("q_poly", "c_poly", "p_poly", "classes")

    def __init__(self, q_poly: IntPoly, c_poly: IntPoly, p_poly: IntPoly, classes: tuple):
        super().__init__(q_poly, c_poly, p_poly, classes)


class ClassificationReport(Record):
    """Everything decidable about one Salem number's torus realizations.

    picard_ranks maps projectivity type to the forced rank (or
    UNCONSTRAINED).  finiteness is None until realizability has run;
    witnesses empty means log(lambda) is not an automorphism entropy.
    """

    __slots__ = (
        "salem", "case_tag", "q_value", "square_witness", "projective_types", "picard_ranks", "finiteness", "witnesses"
    )

    def __init__(
        self,
        salem: SalemCertificate,
        case_tag: str,
        q_value: int | None = None,
        square_witness: tuple | None = None,
        projective_types: tuple = (),
        picard_ranks: tuple = (),
        finiteness: object = None,
        witnesses: tuple = (),
    ):
        super().__init__(
            salem, case_tag, q_value, square_witness, projective_types, picard_ranks, finiteness, witnesses
        )


def _coerce_cert(s) -> SalemCertificate:
    if isinstance(s, SalemCertificate):
        cert = s
    elif isinstance(s, NotSalem):
        raise NotSalemInputError(f"not a Salem polynomial: {s.reason} ({s.detail})")
    elif isinstance(s, IntPoly):
        res = is_salem(s)
        if not res:
            raise NotSalemInputError(f"not a Salem polynomial: {res.reason} ({res.detail})")
        cert = res
    else:
        raise NotSalemInputError(f"expected IntPoly or SalemCertificate, got {type(s).__name__}")
    if cert.degree not in (2, 4, 6):
        raise WrongDegreeError(f"torus spectra need degree 2, 4 or 6, got {cert.degree}")
    return cert


def salem_case(s_poly: IntPoly):
    """(case tag, square witness) of a Salem polynomial of degree 2, 4 or 6;
    only case 3a has a witness, (r, sign) with q -sign- 2 = r^2."""
    d = s_poly.degree
    if d == 6:
        return CASE_DEG6, None
    if d == 4:
        return CASE_DEG4, None
    if d != 2:
        raise CertificationError(f"Salem factor {s_poly} has degree {d}, not 2, 4 or 6")
    # T(u) = u - q, so T(x^2 -/+ 2) has an integer root exactly when
    # q +/- 2 is a square; a Salem quadratic has q >= 3
    q = -s_poly.coeffs[1]
    if q <= 2:
        raise CertificationError(f"{s_poly} is not a Salem quadratic: q = {q}")
    for n, sign in ((q + 2, "+"), (q - 2, "-")):
        r = isqrt(n)
        if r * r == n:
            return CASE_3A, (r, sign)
    return CASE_3B, None


def case_of(s) -> ClassificationReport:
    """Partial report: case tag, projectivity types and forced ranks.

    No witness search; finiteness stays None until realizable() runs.
    """
    cert = _coerce_cert(s)
    tag, square = salem_case(cert.poly)
    return ClassificationReport(
        salem=cert,
        case_tag=tag,
        q_value=-cert.poly.coeffs[1] if cert.degree == 2 else None,
        square_witness=square,
        projective_types=_TYPES[tag],
        picard_ranks=RANKS[tag],
    )


def _complement_pool(degree: int) -> tuple:
    if degree == 6:
        return (ONE,)
    quads = tuple(IntPoly((1, a, 1)) for a in range(-2, 3))
    if degree == 4:
        return quads
    split = tuple(quads[i] * quads[j] for i in range(5) for j in range(i, 5))
    irred = tuple(cyclotomic(n) for n in (5, 8, 10, 12))
    return split + irred


@lru_cache(maxsize=None)
def _complement_sieve(degree: int) -> tuple:
    """(C, C(1), C(-1)) for each C of _complement_pool(degree)."""
    return tuple((c, c(1), c(-1)) for c in _complement_pool(degree))


def pairing_classes(p: IntPoly) -> tuple:
    """Complex-structure choices on the companion torus of a monic quartic
    P, up to conjugation.

    Squarefree P with no real roots: two classes, (upper, upper) and
    (upper, lower) across the two conjugate pairs.  P = G^2 with G real
    hyperbolic: the single diagonal class through gl2z_model.  Anything
    else admits no pairing.  Indices follow isolate_all_roots, which lists
    the two pairs of a quartic without real roots as (upper, lower, upper,
    lower).  Both facts come in closed form from the coefficients of
    P = t^4 + a t^3 + b t^2 + c t + d.  A P with disc P != 0 is squarefree,
    and it has no real root exactly when disc P > 0 and 8b - 3a^2 > 0 or
    64d - 16b^2 + 16a^2 b - 16ac - 3a^4 > 0 (Rees, 1922); otherwise it has
    two or four real roots.  A P with disc P = 0 qualifies only as the
    square of G = t^2 + (a/2) t + (b - a^2/4)/2 with integer coefficients,
    G(0) = +-1 and G hyperbolic.  Raises WrongDegreeError
    unless P is a quartic and NotMonicError unless it is monic: a non-monic
    P is the characteristic polynomial of no integer matrix.
    """
    if p.degree != 4:
        raise WrongDegreeError(f"expected a quartic, got degree {p.degree}")
    if not p.is_monic:
        raise NotMonicError(f"pairing classes need a monic quartic, got {p}")
    d, c, b, a, _ = p.coeffs
    disc = (
        256 * d**3 - 192 * a * c * d**2 - 128 * b**2 * d**2 + 144 * b * c**2 * d - 27 * c**4
        + 144 * a**2 * b * d**2 - 6 * a**2 * c**2 * d - 80 * a * b**2 * c * d + 18 * a * b * c**3
        + 16 * b**4 * d - 4 * b**3 * c**2 - 27 * a**4 * d**2 + 18 * a**3 * b * c * d
        - 4 * a**3 * c**3 - 4 * a**2 * b**3 * d + a**2 * b**2 * c**2
    )
    if disc:
        if disc > 0 and (8 * b - 3 * a * a > 0 or 64 * d - 16 * b * b + 16 * a * a * b - 16 * a * c - 3 * a**4 > 0):
            return (
                PairingClass("conjugate", indices=(0, 2)),
                PairingClass("conjugate", indices=(0, 3)),
            )
        return ()
    # a G with integer coefficients is the one floor division finds
    c1 = a // 2
    c0 = (b - c1 * c1) // 2
    if IntPoly((c0, c1, 1)) ** 2 == p and ((c0 == 1 and abs(c1) > 2) or (c0 == -1 and c1 != 0)):
        return (PairingClass("real", gl_params=(-c1, c0)),)
    return ()


def realizable(s) -> ClassificationReport:
    """Full witness search: which (Q, C, P, pairing) quartets exist.

    An empty witness list means log(lambda) is not the entropy of any torus
    automorphism.  Witnesses are sorted by (Q, P) coefficients, so the
    report does not depend on enumeration order.
    """
    report = case_of(s)
    cert = report.salem
    s1, sm1 = cert.poly(1), cert.poly(-1)
    witnesses = []
    for c_poly, c1, cm1 in _complement_sieve(cert.degree):
        # a Q that fails the square filter has no verified preimage, and
        # Q(+-1) = S(+-1) C(+-1) decides that filter before Q is formed
        if not (_is_square(-s1 * c1) and _is_square(sm1 * cm1)):
            continue
        q_poly = cert.poly * c_poly
        for p_poly in invert_wedge(q_poly).verified:
            classes = pairing_classes(p_poly)
            if not classes:
                continue
            if report.case_tag == CASE_3B:
                _check_split_complement(c_poly, p_poly)
            witnesses.append(Witness(q_poly, c_poly, p_poly, classes))
    witnesses.sort(key=lambda w: (w.q_poly.coeffs, w.p_poly.coeffs))
    verdict = None
    if witnesses:
        if report.square_witness is not None:
            verdict = InfiniteFamily(*report.square_witness)
        else:
            verdict = Finite(sum(len(w.classes) for w in witnesses))
    return report.replace(witnesses=tuple(witnesses), finiteness=verdict)


def _split_complement(c_poly: IntPoly) -> tuple:
    """The distinct quadratics t^2 + jt + 1, j < k, whose product is the
    cyclotomic complement c_poly of a case-3b Salem quadratic."""
    split = _quadratic_split(c_poly)
    if split is None or split[2] != 1 or split[0] == split[1]:
        raise CertificationError(f"complement {c_poly} does not split distinctly")
    return IntPoly((1, split[0], 1)), IntPoly((1, split[1], 1))


def _check_split_complement(c_poly: IntPoly, p_poly: IntPoly):
    # with both square tests failing, the complement must split into two
    # distinct quadratics t^2 + jt + 1 and P must be irreducible; P has no
    # real root or is G^2, so P(0) = 1 and P can only split into quadratics
    _split_complement(c_poly)
    if _quadratic_split(p_poly) is not None:
        raise CertificationError(f"witness {p_poly} unexpectedly factors")
