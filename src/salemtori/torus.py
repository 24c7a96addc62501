"""Explicit torus automorphism models.

A model is a 4x4 integer matrix (the action on degree-1 integer cohomology)
together with a choice of eigenvalue pairing (g1, g2) that fixes the complex
structure.  The degree-2 action is the exterior square; its non-cyclotomic
part is the Salem factor, the product g1*g2 is the lone (2,0) eigenvalue, and
projectivity is exactly "that product is a root of unity".

Constructors cover companion matrices of quartics, 2x2 matrices over an
imaginary quadratic order Z[sqrt(-D)] lifted to the integer lattice of
E x E, real hyperbolic pairs acting diagonally, and the dyadic CM family.
All certification is exact, and every discrete decision is read off what a
model's constructor guarantees: root boxes serve only the output and
from_quartic's pairing check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import isqrt
from operator import index

from ._record import Record
from .classify import CASE_3B, RANKS, _split_complement, salem_case
from .errors import (
    BadParametersError,
    CertificationError,
    NotApplicableError,
    NotHyperbolicError,
    NotMonicError,
    NotUnitError,
    RealRootsError,
    WrongDegreeError,
    ZeroEntropyError,
)
from .intervals import Box, Interval, isqrt_bounds, log_interval
from .poly import ONE, IntPoly, split_cyclotomic
from .salem import _BOX_BITS, _LAMBDA_BITS, RootBox, SturmChain, _bits_below, _salem_trace, _with_conjugates
from .salem import isolate_all_roots, lambda_interval, refine_root_box, trace_transform
from .wedge import exterior_square


# ----------------------------------------------------------------------
# small exact matrix helpers (4x4 is the only size that matters here)


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _charpoly(matrix) -> IntPoly:
    """Characteristic polynomial t^4 - e1 t^3 + e2 t^2 - e3 t + e4 of a 4x4
    integer matrix: e_k sums the k x k principal minors, and e4, the
    determinant, is expanded along row 0.  r_xy and s_xy are the 2x2 minors
    on columns x, y of rows 2, 3 and of rows 0, 1.  Straight-line code: a
    generic Laplace expansion is slower than Faddeev-LeVerrier."""
    (a, b, c, d), (e, f, g, h), (i, j, k, l), (m, n, o, p) = matrix
    r01, r02, r03 = i * n - j * m, i * o - k * m, i * p - l * m
    r12, r13, r23 = j * o - k * n, j * p - l * n, k * p - l * o
    s01, s02, s03 = a * f - b * e, a * g - c * e, a * h - d * e
    s12, s13 = b * g - c * f, b * h - d * f
    e2 = s01 + a * k - c * i + a * p - d * m + f * k - g * j + f * p - h * n + r23
    # minors 123 and 023 along their top row, 012 and 013 along their bottom row
    m123 = f * r23 - g * r13 + h * r12
    e3 = m123 + (a * r23 - c * r03 + d * r02) + (i * s12 - j * s02 + k * s01) + (m * s13 - n * s03 + p * s01)
    e4 = (
        a * m123
        - b * (e * r23 - g * r03 + h * r02)
        + c * (e * r13 - f * r03 + h * r01)
        - d * (e * r12 - f * r02 + g * r01)
    )
    return IntPoly((e4, -e3, e2, -(a + f + k + p), 1))


# ----------------------------------------------------------------------
# arithmetic in Z[sqrt(-D)], elements as (a, b) integer pairs


def _qo_mul(x, y, d):
    return (x[0] * y[0] - x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0])


def _qo_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _qo_norm(x, d):
    return x[0] * x[0] + x[1] * x[1] * d


class QuadOrderMatrix(Record):
    """2x2 matrix over Z[sqrt(-d_param)]; entries are (a, b) pairs a + b*sqrt(-D).

    A parameter or coordinate that is not an integer raises TypeError.
    """

    __slots__ = ("d_param", "entries")

    def __init__(self, d_param: int, entries: tuple):
        d_param = index(d_param)
        if d_param < 1:
            raise BadParametersError(f"order parameter must be positive, got {d_param}")
        e = tuple(tuple(tuple(map(index, v)) for v in row) for row in entries)
        if len(e) != 2 or any(len(row) != 2 or any(len(v) != 2 for v in row) for row in e):
            raise BadParametersError("entries must form a 2x2 matrix of (a, b) pairs")
        super().__init__(d_param, e)

    def trace(self):
        e = self.entries
        return (e[0][0][0] + e[1][1][0], e[0][0][1] + e[1][1][1])

    def det(self):
        e = self.entries
        return _qo_sub(
            _qo_mul(e[0][0], e[1][1], self.d_param),
            _qo_mul(e[0][1], e[1][0], self.d_param),
        )

    def lift(self):
        """4x4 integer matrix on the basis {1, sqrt(-D)} of each factor."""
        d = self.d_param
        rows = []
        for bi in range(2):
            for r in range(2):
                row = []
                for bj in range(2):
                    a, b = self.entries[bi][bj]
                    blk = ((a, -b * d), (b, a))
                    row.extend(blk[r])
                rows.append(tuple(row))
        return tuple(rows)


def a_form_matrix(d_param: int, b1: int, b2: int) -> QuadOrderMatrix:
    """The one-step automorphism shape [[0, -1], [1, b1 + b2*sqrt(-D)]]."""
    return QuadOrderMatrix(d_param, (((0, 0), (-1, 0)), ((1, 0), (b1, b2))))


def _a_form_params(qm: QuadOrderMatrix):
    e = qm.entries
    if e[0][0] == (0, 0) and e[0][1] == (-1, 0) and e[1][0] == (1, 0):
        return e[1][1]
    return None


def _norm_charpoly(qm: QuadOrderMatrix) -> IntPoly:
    # (t^2 - tau t + delta)(t^2 - conj(tau) t + conj(delta)) expanded over Z
    ta, tb = qm.trace()
    da, db = qm.det()
    d = qm.d_param
    return IntPoly(
        (
            da * da + db * db * d,
            -2 * (ta * da + tb * db * d),
            ta * ta + tb * tb * d + 2 * da,
            -2 * ta,
            1,
        )
    )


# ----------------------------------------------------------------------
# the model record


class ModelOrigin(Record):
    """Constructor provenance; quad is set when the model came from E x E."""

    __slots__ = ("family", "params", "quad")

    def __init__(self, family: str, params: tuple = (), quad: QuadOrderMatrix | None = None):
        super().__init__(family, params, quad)


class TorusModel(Record):
    """Immutable torus automorphism model.

    matrix acts on the rank-4 lattice; h1_charpoly is its characteristic
    polynomial and h2_charpoly the exterior square.  root_boxes isolate the
    roots of root_poly (the squarefree part of h1_charpoly) and pairing picks
    the two eigenvalue indices (g1, g2) carrying the complex structure.
    """

    __slots__ = (
        "matrix", "h1_charpoly", "h2_charpoly", "root_poly", "root_boxes", "pairing", "reoriented", "origin"
    )

    def __init__(
        self,
        matrix: tuple,
        h1_charpoly: IntPoly,
        h2_charpoly: IntPoly,
        root_poly: IntPoly,
        root_boxes: tuple,
        pairing: tuple,
        reoriented: bool = False,
        origin: ModelOrigin | None = None,
    ):
        super().__init__(matrix, h1_charpoly, h2_charpoly, root_poly, root_boxes, pairing, reoriented, origin)

    @property
    def gamma1(self) -> RootBox:
        return self.root_boxes[self.pairing[0]]

    @property
    def gamma2(self) -> RootBox:
        return self.root_boxes[self.pairing[1]]

    @property
    def h20_product(self) -> Box:
        """Certified box for g1*g2, the eigenvalue on (2,0)-forms."""
        return self.gamma1.box * self.gamma2.box

    def salem_factor(self) -> IntPoly:
        """Non-cyclotomic part of h2_charpoly; the constant 1 at entropy zero."""
        return split_cyclotomic(self.h2_charpoly)[1]

    def refined(self, width: Fraction) -> "TorusModel":
        """New model with every root box shrunk below the given width, by
        the route its constructor took.  An E x E or gl2z model rebuilds its
        boxes from q in closed form (_q_roots) and keeps its pairing, each
        new box inside the old box at its index.  A quartic model refines
        each real and upper box by refine_root_box, once, and lists the
        results with the mirror image of each upper one by _with_conjugates,
        as isolate_all_roots does.  Raises BadParametersError unless
        width > 0."""
        width = Fraction(width)
        if width <= 0:
            raise BadParametersError("width must be positive")
        family, qm = (self.origin.family, self.origin.quad) if self.origin is not None else (None, None)
        if family == "gl2z":
            qm = _gl2z_block(*self.origin.params)
        if qm is not None:
            boxes = _q_roots(qm, self.root_poly, max(_BOX_BITS, _bits_below(width) + 2))[0]
            for old, new in zip(self.root_boxes, boxes):
                if not (old.box.contains(new.re.lo, new.im.lo) and old.box.contains(new.re.hi, new.im.hi)):
                    raise CertificationError(f"refined box {new.box} leaves {old.box} for {self.root_poly}")
            return self.replace(root_boxes=boxes)
        boxes = [refine_root_box(self.root_poly, b, width) for b in self.root_boxes if b.im.hi >= 0]
        reals, uppers = [b.re for b in boxes if b.is_real], [b.box for b in boxes if not b.is_real]
        return self.replace(root_boxes=_with_conjugates(reals, uppers))


def _same_half(model: TorusModel) -> bool:
    """Do g1 and g2, neither real, lie in the same half-plane?"""
    return (model.gamma1.im.lo > 0) == (model.gamma2.im.lo > 0)


# ----------------------------------------------------------------------
# constructors


def from_quartic(p: IntPoly, pairing_choice=None) -> TorusModel:
    """Companion-matrix model of a monic quartic with constant term 1.

    The quartic must have no real roots, so its roots split into conjugate
    pairs; pairing_choice indexes the isolated roots of the squarefree part
    and must take one root from each pair.  Defaults to both upper-half
    representatives.
    """
    if not p.is_monic:
        raise NotMonicError("from_quartic needs a monic polynomial")
    if p.degree != 4:
        raise WrongDegreeError(f"expected degree 4, got {p.degree}")
    if p.constant != 1:
        raise NotUnitError(f"constant term must be 1, got {p.constant}")
    c0, c1, c2, c3, _ = p.coeffs
    matrix = (
        (0, 0, 0, -c0),
        (1, 0, 0, -c1),
        (0, 1, 0, -c2),
        (0, 0, 1, -c3),
    )
    h1 = _charpoly(matrix)
    if h1 != p:
        raise CertificationError(f"companion model has characteristic polynomial {h1}, not {p}")
    chain = SturmChain(h1)
    sf = chain.radical()
    # an exact Sturm count decides the real roots before any is isolated
    n_real = chain.count_real()
    if n_real:
        raise RealRootsError(
            f"{p} has {n_real} real roots; this pairing needs none (real spectra pair through gl2z_model)"
        )
    boxes = isolate_all_roots(sf)
    squarefree = chain.squarefree
    if squarefree:
        if pairing_choice is None:
            pairing_choice = tuple(i for i, b in enumerate(boxes) if b.im.lo > 0)
    else:
        # p is the square of a non-real quadratic; both eigenvalue slots
        # range over the same pair
        if not (sf.degree == 2 and sf * sf == p):
            raise CertificationError(f"{p} is neither squarefree nor the square of a quadratic")
        if pairing_choice is None:
            pairing_choice = (0, 1)
    i, j = pairing_choice
    if not (0 <= i < len(boxes) and 0 <= j < len(boxes)):
        raise BadParametersError(f"pairing {pairing_choice} out of range")
    if squarefree and (j == i or j == boxes[i].conjugate_index):
        raise BadParametersError("pairing must take one root from each conjugate pair")
    return TorusModel(matrix, h1, exterior_square(h1), sf, boxes, (i, j), False, ModelOrigin("quartic", (p, (i, j))))


def quad_order_model(qm: QuadOrderMatrix) -> TorusModel:
    """Lift a unit-determinant matrix over Z[sqrt(-D)] to a 4x4 lattice model.

    The pairing (g1, g2) is the eigenvalues of the 2x2 complex matrix itself,
    the roots of q = t**2 - tau t + delta, and the root boxes are theirs and
    their conjugates', all read off q in closed form (_q_roots).
    """
    det = qm.det()
    n = _qo_norm(det, qm.d_param)
    if n != 1:
        raise NotUnitError(f"determinant {det} has norm {n}, not a unit")
    matrix = qm.lift()
    h1 = _charpoly(matrix)
    if h1 != _norm_charpoly(qm):
        raise CertificationError(f"lifted matrix has characteristic polynomial {h1}, not the norm's")
    root_poly = SturmChain(h1).radical()
    boxes, pairing = _q_roots(qm, root_poly, _BOX_BITS)
    return TorusModel(
        matrix, h1, exterior_square(h1), root_poly, boxes, pairing, False, ModelOrigin("quad_order", (), quad=qm)
    )


def _q_roots(qm: QuadOrderMatrix, root_poly: IntPoly, bits: int):
    """The root boxes of root_poly in isolate_all_roots' order, at most
    2**(1 - bits) wide, and the sorted indices of the roots g+ and g- of q.

    The roots of root_poly are g+, g- and their conjugates, once each.  The
    closed form gives equal boxes to equal roots: g- and g+ when q has a
    double root, conj(g-) and g+ when q is real; and a real root gets the
    point 0 as imaginary part.  The boxes certify the roots once they are
    pairwise disjoint and as many as the degree of root_poly; until then
    the precision doubles.  Boxes are (re_lo, re_hi, im_lo, im_hi)
    numerators over 2**(bits + 1) until the last step.
    """
    bits += _q_disc(qm)[2].bit_length() // 2
    for _ in range(4):
        gs = _q_root_boxes(qm, bits)
        den = 1 << (bits + 1)
        bits *= 2
        if any(g[2] <= 0 <= g[3] and g[2:] != (0, 0) for g in gs):
            continue
        reals = sorted({g for g in gs if g[2:] == (0, 0)})
        uppers = {g if g[2] > 0 else _conj(g) for g in gs if g[2:] != (0, 0)}
        uppers = sorted(uppers, key=lambda g: (g[0] + g[1], g[2] + g[3]))
        ends = reals + [h for g in uppers for h in (g, _conj(g))]
        if len(ends) == root_poly.degree and not any(_meet(a, b) for a, b in combinations(ends, 2)):
            index = {g: i for i, g in enumerate(ends)}
            reals = [_interval(g[0], g[1], den) for g in reals]
            uppers = [Box(_interval(g[0], g[1], den), _interval(g[2], g[3], den)) for g in uppers]
            return _with_conjugates(reals, uppers), tuple(sorted(index[g] for g in gs))
    raise CertificationError(f"the roots of {root_poly} did not separate")


def _conj(g):
    return g[0], g[1], -g[3], -g[2]


def _meet(a, b) -> bool:
    return a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3]


def _interval(lo: int, hi: int, den: int) -> Interval:
    return Interval(Fraction(lo, den), Fraction(hi, den))


def _q_disc(qm: QuadOrderMatrix):
    """(x, y, m): s**2 = tau**2 - 4 delta = x + y sqrt(-D), m = |s**2|**2."""
    ta, tb = qm.trace()
    da, db = qm.det()
    d = qm.d_param
    x = ta * ta - tb * tb * d - 4 * da
    y = 2 * ta * tb - 4 * db
    return x, y, x * x + y * y * d


def _q_root_boxes(qm: QuadOrderMatrix, bits: int):
    """Boxes of g+- = (tau +- s)/2, the roots of q, as numerators
    (re_lo, re_hi, im_lo, im_hi) over 2**(bits + 1).

    Re s = sqrt((sqrt(m) + x)/2) and Im s = sign(y) sqrt((sqrt(m) - x)/2),
    with sign(0) = 1, and Im tau = tb sqrt(D).  Every square root is taken
    by isqrt in units of 2**-bits, floored for a lower end and raised for an
    upper one, so an exact dyadic coordinate, 0 above all, is a point.
    """
    x, y, m = _q_disc(qm)
    ta, tb = qm.trace()
    shift = 2 * bits - 1
    # sqrt(m) and then (sqrt(m) +- x)/2 in units of 2**-(2 bits)
    m_lo, m_hi = isqrt_bounds(m << 2 * shift)
    xs = x << shift
    re_lo, re_hi = isqrt(m_lo + xs), isqrt_bounds(m_hi + xs)[1]
    im_lo, im_hi = isqrt(m_lo - xs), isqrt_bounds(m_hi - xs)[1]
    if y < 0:
        im_lo, im_hi = -im_hi, -im_lo
    tau_lo, tau_hi = isqrt_bounds(tb * tb * qm.d_param << 2 * bits)
    if tb < 0:
        tau_lo, tau_hi = -tau_hi, -tau_lo
    a = ta << bits
    return (
        (a + re_lo, a + re_hi, tau_lo + im_lo, tau_hi + im_hi),
        (a - re_hi, a - re_lo, tau_lo - im_hi, tau_hi - im_lo),
    )


def gl2z_model(r: int, det: int) -> TorusModel:
    """Two copies of the companion of t^2 - r t + det acting diagonally.

    Needs real eigenvalues off the unit circle: |r| > 2 when det = +1,
    r != 0 when det = -1.  The pairing is the real selection (both
    eigenvalues of the 2x2 block), with the block's roots in closed form
    by _q_roots.  origin.quad stays unset: the model is not over an order.
    """
    if det not in (1, -1):
        raise BadParametersError(f"det must be +1 or -1, got {det}")
    hyperbolic = (det == 1 and abs(r) > 2) or (det == -1 and r != 0)
    if not hyperbolic:
        raise NotHyperbolicError(f"{IntPoly((det, -r, 1))} has no real root off the unit circle")
    matrix = (
        (0, -det, 0, 0),
        (1, r, 0, 0),
        (0, 0, 0, -det),
        (0, 0, 1, r),
    )
    h1 = _charpoly(matrix)
    # r^2 - 4 det > 0, so q is squarefree: the radical of h1 = q^2
    root_poly = IntPoly((det, -r, 1))
    if h1 != root_poly * root_poly:
        raise CertificationError(f"H^1 polynomial {h1} is not the square of {root_poly}")
    boxes, pairing = _q_roots(_gl2z_block(r, det), root_poly, _BOX_BITS)
    return TorusModel(matrix, h1, exterior_square(h1), root_poly, boxes, pairing, False, ModelOrigin("gl2z", (r, det)))


def _gl2z_block(r: int, det: int) -> QuadOrderMatrix:
    """The companion of t^2 - r t + det as a matrix over Z[sqrt(-1)]."""
    return QuadOrderMatrix(1, (((0, 0), (-det, 0)), ((1, 0), (r, 0))))


def dyadic_cm_family(n: int, k: int) -> TorusModel:
    """E x E model for E with endomorphism sqrt(-4**k), one per 0 <= k <= n.

    The Salem factor of the degree-2 action is
    t^4 - (1+4^n) t^3 - 2^(2n+1) t^2 - (1+4^n) t + 1, the same for every k.
    """
    if n < 1 or k < 0 or k > n:
        raise BadParametersError(f"need n >= 1 and 0 <= k <= n, got n={n}, k={k}")
    qm = a_form_matrix(4**k, 1, 2 ** (n - k))
    model = quad_order_model(qm)
    return model.replace(origin=ModelOrigin("dyadic_cm", (n, k), quad=qm))


# ----------------------------------------------------------------------
# operations on models


def _salem_rest(model: TorusModel) -> IntPoly:
    rest = model.salem_factor()
    if rest == ONE:
        raise ZeroEntropyError("all eigenvalues lie on the unit circle")
    return rest


def reorient(model: TorusModel) -> TorusModel:
    """Replace the pairing (g1, g2) by (g1, conjugate of g2).

    Entropy is unchanged.  A real g2 is fixed by conjugation, so the pairing
    stays put and only the orientation flag flips.
    """
    _salem_rest(model)
    i, j = model.pairing
    jj = model.root_boxes[j].conjugate_index
    if jj is None:
        jj = j
    return model.replace(pairing=(i, jj), reoriented=not model.reoriented)


def is_projective(model: TorusModel) -> bool:
    """True iff g1*g2 is a root of unity (a root of the cyclotomic cofactor).

    Decided exactly, with no root box refined, by the rule below for the
    constructor the model came from; a model whose origin no rule covers
    raises.

    An E x E model (origin.quad set) is decided without its root boxes.
    Its pairing is the two roots g1, g2 of q = t**2 - tau t + delta, as
    _q_roots sets it and reorient, refined and dyadic_cm_family keep it;
    reorient alone swaps g2 for its conjugate.  The degree-2 action has
    the six roots g1 g2 = delta, conj(delta), lambda = |g1|**2,
    1/lambda = |g2|**2, g1 conj(g2) and its conjugate, and lambda is not
    1 since the entropy is positive.  delta is a unit of an imaginary
    quadratic order, so a root of unity: the model is projective.  After
    reorient the product is g1 conj(g2), of modulus |delta| = 1.  If it is
    a root of unity, so is its conjugate, and the Salem factor has the two
    roots lambda and 1/lambda.  If not, it is not real, and it and its
    conjugate are two more roots of the Salem factor, of degree 4.  So
    the factor has degree 2 or 4 in either orientation, and after
    reorient the model is projective exactly at degree 2.

    A gl2z model has g1 g2 = det = +-1 and a real g2, which reorient
    leaves in place: it is projective in both orientations.

    A quartic model pairs one root of each conjugate pair of its roots
    a = r e(x), b = e(y)/r and their conjugates, with x, y in (0, pi) and
    e(x) = cos x + i sin x.  Besides r**2 and 1/r**2 the degree-2 action
    has the same-half pair a b, conj(a b), of trace 2 cos(x + y), and the
    opposite-half pair a conj(b), conj(a) b, of the larger trace
    2 cos(x - y) = 2 cos(x + y) + 4 sin x sin y.  At positive entropy
    the Salem factor S holds r**2 and 1/r**2, and each pair, of modulus
    1, lies whole in S or in its cofactor.  So S of degree 2 makes the
    model projective and S of degree 6 does not.  At degree 4 the
    cofactor is the other pair, t**2 + j t + 1 of trace -j, and T_S, the
    trace polynomial of S, has the roots r**2 + 1/r**2 > 2 and the trace
    u of the pair in S.  So T_S(-j) > 0 exactly when u > -j, when the
    cofactor holds the same-half pair, which holds g1 g2 exactly when g1
    and g2 share a half-plane; T_S(-j) != 0 as u is irrational.
    """
    rest = _salem_rest(model)
    family, quad = (model.origin.family, model.origin.quad) if model.origin is not None else (None, None)
    if quad is not None:
        if rest.degree not in (2, 4):
            raise CertificationError(f"E x E model has a Salem factor {rest} of degree {rest.degree}, not 2 or 4")
        return not model.reoriented or rest.degree == 2
    if family == "gl2z":
        return True
    if family != "quartic":
        raise CertificationError(f"no projectivity rule for a model of origin {model.origin}")
    if rest.degree in (2, 6):
        return rest.degree == 2
    c = (model.h2_charpoly // rest).coeffs
    if rest.degree != 4 or len(c) != 3 or c[0] != 1 or c[2] != 1:
        raise CertificationError(f"quartic Salem factor {rest} has the cofactor {IntPoly(c)}, not t^2 + jt + 1")
    value = trace_transform(rest)(-c[1])
    if value == 0:
        raise CertificationError(f"the trace polynomial of {rest} vanishes at {-c[1]}")
    return (value > 0) == _same_half(model)


def entropy(model: TorusModel, eps=Fraction(1, 10**9)) -> Interval:
    """Certified interval of width <= eps around log(max |eigenvalue|^2).

    Exactly [0, 0] when the spectrum lies on the unit circle.  Otherwise
    salem._salem_trace certifies the Salem factor, of degree at most 6, in
    closed form, and lambda is bracketed afresh at each precision: nothing
    is factored and no Sturm chain is built.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise BadParametersError("eps must be positive")
    rest = model.salem_factor()
    if rest == ONE:
        return Interval.point(0)
    # with the Salem layout of its trace roots, lambda is the one root of
    # rest outside the unit disc; a factor without it would have every root
    # in the closed disc and so, by Kronecker's theorem, be cyclotomic, which
    # rest has none of: rest is Salem, and nothing is factored.  rest(1) and
    # rest(-1) are not 0, so the layout implies the signs _salem_trace tests
    # first
    if not (rest.is_reciprocal and rest.degree % 2 == 0) or _salem_trace(rest) is None:
        raise CertificationError(f"non-cyclotomic part {rest} failed certification")
    # 2**-8 below the width lambda_approx takes for eps; each pass brackets
    # lambda afresh at its own precision
    bits = max(_LAMBDA_BITS, _bits_below(eps) + 8)
    while True:
        out = log_interval(lambda_interval(rest, bits), bits=bits + 16)
        if out.width <= eps:
            return out
        bits *= 2


def picard_rank(model: TorusModel):
    """Rank that classify.RANKS forces for the case of the Salem factor and
    the projectivity of the model: an int, or UNCONSTRAINED.  A case with one
    projectivity type does not decide it."""
    ranks = RANKS[salem_case(_salem_rest(model))[0]]
    if len(ranks) == 1:
        return ranks[0][1]
    return dict(ranks)["projective" if is_projective(model) else "non_projective"]


def verify_jd(model: TorusModel, d_value: int) -> bool:
    """Does an integer lattice map square to -D and commute with the model?

    Only defined for models with E x E provenance; the candidate is pinned
    down on the order basis, where multiplication by sqrt(-D0) is the only
    lattice map with the right complexified action up to rational scale.  On
    the original orientation the map complexifies to (sqrt(D)i, sqrt(D)i);
    after reorientation the same integer matrix acts as (sqrt(D)i, -sqrt(D)i).
    """
    if model.origin is None or model.origin.quad is None:
        raise NotApplicableError("model has no quadratic-order provenance")
    if d_value < 1:
        raise BadParametersError(f"D must be a positive integer, got {d_value}")
    d0 = model.origin.quad.d_param
    prod = d_value * d0
    s = isqrt(prod)
    if s * s != prod or s % d0:
        return False
    # s/d0 times multiplication by sqrt(-d0) on the order basis of each factor
    c = s // d0
    j = ((0, -s, 0, 0), (c, 0, 0, 0), (0, 0, 0, -s), (0, 0, c, 0))
    if _mat_mul(j, j) != tuple(tuple(-d_value * (r == k) for k in range(4)) for r in range(4)):
        return False
    return _mat_mul(j, model.matrix) == _mat_mul(model.matrix, j)


class NotForced(Record):
    """The degree-(1,1) characteristic polynomial is not pinned down."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        super().__init__(reason)

    def __bool__(self):
        return False


def ns_charpoly(model: TorusModel):
    """Characteristic polynomial of the action on divisor classes, when forced.

    For one-step E x E models the closed quartic formula applies (and is
    cross-checked against the exterior square); for degree-2 Salem models
    that are projective with both square tests failing, the split
    S * (t^2 + k t + 1) applies with k from the factor away from g1*g2,
    which _split_index finds with no root box refined.  Everything else is
    NotForced.
    """
    rest = _salem_rest(model)
    # set for an unreoriented E x E model, whose g1*g2 is delta = det(quad)
    quad = model.origin.quad if model.origin is not None and not model.reoriented else None
    ab = _a_form_params(quad) if quad is not None else None
    if ab is not None:
        b1, b2 = ab
        s = b1 * b1 + b2 * b2 * quad.d_param
        out = IntPoly((1, -s, 2 * b1 * b1 - 2 * b2 * b2 * quad.d_param - 2, -s, 1))
        # the (2,0)+(0,2) block carries (t-1)^2 since g1*g2 = det = 1
        if model.h2_charpoly != IntPoly((1, -2, 1)) * out:
            raise CertificationError(f"closed quartic formula {out} disagrees with the exterior square")
        return out
    if rest.degree == 2 and salem_case(rest)[0] == CASE_3B and is_projective(model):
        quads = _split_complement(model.h2_charpoly // rest)
        return rest * quads[1 - _split_index(model, quads)]
    return NotForced("rank data does not pin down the divisor action")


def _split_index(model: TorusModel, quads) -> int:
    """Index of the quadratic in quads = (t^2 + j t + 1, t^2 + k t + 1),
    j < k, that vanishes at g1*g2 in a projective case-3b model.

    quads[0] has the larger root trace -j: for a quartic model that is the
    opposite-half pair (is_projective).  For an E x E model g1*g2
    is delta = det(quad) (_det_factor), and after reorient a root of the
    other quadratic.  A gl2z Salem trace r**2 - 2 det passes a square test.
    """
    if model.origin.quad is not None:
        return _det_factor(model.origin.quad, quads) ^ model.reoriented
    if model.origin.family == "quartic":
        return int(_same_half(model))
    raise CertificationError(f"no case-3b split for a model of origin {model.origin}")


def _det_factor(qm: QuadOrderMatrix, quads) -> int:
    """Index of the one quadratic t^2 + j t + 1 in quads that vanishes at
    delta = det(qm), evaluated exactly in Z[sqrt(-D)]."""
    delta = qm.det()
    sq = _qo_mul(delta, delta, qm.d_param)
    hits = [w for w, f in enumerate(quads) if sq[0] + f.coeffs[1] * delta[0] + 1 == 0 == sq[1] + f.coeffs[1] * delta[1]]
    if len(hits) != 1:
        raise CertificationError(f"{len(hits)} factors of the complement vanish at the determinant {delta}")
    return hits[0]
