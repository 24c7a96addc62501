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

from dataclasses import dataclass, replace
from math import isqrt
from typing import Optional

from .errors import CertificationError, NotRealizableError, NotSalemInputError, WrongDegreeError
from .poly import ONE, IntPoly, _quadratic_split, cyclotomic
from .salem import NotSalem, SalemCertificate, SturmChain, is_salem
from .wedge import invert_wedge, square_values

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


@dataclass(frozen=True)
class Finite:
    """Realized by finitely many quartets; count is the number found."""

    count: int


@dataclass(frozen=True)
class InfiniteFamily:
    """Realized by an infinite family; r is the integer with q -sign- 2 = r^2."""

    r: int
    sign: str


@dataclass(frozen=True)
class PairingClass:
    """One complex-structure choice on a witness, up to overall conjugation.

    kind "conjugate": indices pick (g1, g2) among the isolated roots of the
    squarefree part of P, one per conjugate pair.  kind "real": P = G^2 for
    a real hyperbolic quadratic, realized by gl2z_model(*gl_params).
    """

    kind: str
    indices: Optional[tuple] = None
    gl_params: Optional[tuple] = None


@dataclass(frozen=True)
class Witness:
    q_poly: IntPoly
    c_poly: IntPoly
    p_poly: IntPoly
    classes: tuple


@dataclass(frozen=True)
class CandidateSet:
    s_poly: IntPoly
    complements: tuple
    admissible_q: tuple


@dataclass(frozen=True)
class ClassificationReport:
    """Everything decidable about one Salem number's torus realizations.

    picard_ranks maps projectivity type to the forced rank (or
    UNCONSTRAINED).  finiteness is None until realizability has run;
    witnesses empty means log(lambda) is not an automorphism entropy.
    """

    salem: SalemCertificate
    case_tag: str
    q_value: Optional[int] = None
    square_witness: Optional[tuple] = None
    projective_types: tuple = ()
    picard_ranks: tuple = ()
    finiteness: object = None
    witnesses: tuple = ()


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


def enumerate_complements(s) -> CandidateSet:
    """All cyclotomic complements of the right degree, then the square filter.

    Complement roots must satisfy x^2 + bx + 1 with b in [-2, 2]; degree 2
    needs two such quadratics (split options plus the four irreducible
    quartics whose roots pair up that way).  A candidate Q = S*C survives
    only if -Q(1) and Q(-1) are perfect squares.
    """
    cert = _coerce_cert(s)
    comps = _complement_pool(cert.degree)
    admissible = tuple(q for q in (cert.poly * c for c in comps) if square_values(q))
    return CandidateSet(cert.poly, comps, admissible)


def pairing_classes(p: IntPoly) -> tuple:
    """Complex-structure choices on the companion torus of P, up to conjugation.

    Squarefree P with no real roots: two classes, (upper, upper) and
    (upper, lower) across the two conjugate pairs.  P = G^2 with G real
    hyperbolic: the single diagonal class through gl2z_model.  Anything
    else admits no pairing.  Indices follow isolate_all_roots, which lists
    the two pairs of a quartic without real roots as (upper, lower, upper,
    lower), so an exact Sturm count decides the classes.
    """
    if p.degree != 4:
        raise WrongDegreeError(f"expected a quartic, got degree {p.degree}")
    chain = SturmChain(p)
    if chain.squarefree:
        if chain.count_real():
            return ()
        return (
            PairingClass("conjugate", indices=(0, 2)),
            PairingClass("conjugate", indices=(0, 3)),
        )
    g = chain.radical()
    if g.degree == 2 and g * g == p:
        c0, c1, _ = g.coeffs
        if (c0 == 1 and abs(c1) > 2) or (c0 == -1 and c1 != 0):
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
    witnesses = []
    for c_poly in _complement_pool(cert.degree):
        q_poly = cert.poly * c_poly
        # a Q that fails the square filter has no verified preimage
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
    return replace(report, witnesses=tuple(witnesses), finiteness=verdict)


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


def finiteness(s):
    """Finite(count) or InfiniteFamily(r, sign); raises if nothing realizes S."""
    report = realizable(s)
    if not report.witnesses:
        raise NotRealizableError(f"{report.salem.poly} is not realized by any torus automorphism")
    return report.finiteness
