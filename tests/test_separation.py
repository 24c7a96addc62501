"""Every discrete decision of torus against an mpmath oracle.

is_projective and the case-3b split of ns_charpoly are read off data each
model's constructor guarantees (the Salem factor's degree, delta for E x E
models, det for gl2z models, the half-planes of g1 and g2 and the trace
polynomial for quartic models) and refine no root box.  The oracle here
computes g1*g2 at 50 digits, from mpmath's roots nearest the model's root
boxes, and asks which factor of the degree-2 action vanishes there.  It
checks the decisions on root boxes widened far beyond what isolation
returns, and over the 245-model grid, small quartics in every pairing and
gl2z models, in both orientations.
"""

from dataclasses import replace
from fractions import Fraction
from itertools import product

import mpmath
import pytest

from salemtori.classify import CASE_3B, _split_complement, salem_case
from salemtori.errors import NotHyperbolicError, RealRootsError
from salemtori.intervals import Interval
from salemtori.poly import IntPoly
from salemtori.salem import RootBox
from salemtori.torus import (
    a_form_matrix,
    from_quartic,
    gl2z_model,
    is_projective,
    ns_charpoly,
    quad_order_model,
    reorient,
)

from _oracles import DPS, TINY, o_gammas, o_projective, o_roots, o_split_indices


def _widened(model, half=Fraction(1, 1 << 12)):
    """The model with every root box 2**-11 wide around its old centre."""
    boxes = []
    for b in model.root_boxes:
        im = Interval.point(0) if b.is_real else Interval(b.im.mid - half, b.im.mid + half)
        boxes.append(RootBox(Interval(b.re.mid - half, b.re.mid + half), im, b.conjugate_index))
    return replace(model, root_boxes=tuple(boxes))


WIDE_MODELS = {
    **{
        f"quad-order {d},{b1},{b2}": lambda d=d, b1=b1, b2=b2: quad_order_model(a_form_matrix(d, b1, b2))
        for d, b1, b2 in ((2, 0, 1), (1, 1, 1), (3, 2, -1), (2, -3, 1), (1, 3, 0))
    },
    "gl2z 3,1": lambda: gl2z_model(3, 1),
    # case 3b: is_projective, then the split of ns_charpoly
    "reoriented quad-order 2,0,1": lambda: reorient(quad_order_model(a_form_matrix(2, 0, 1))),
    # a quartic Salem factor of degree 4, and a case-3b split of a quartic
    "quartic 1,-3,1,3,1": lambda: from_quartic(IntPoly.from_descending((1, -3, 1, 3, 1))),
    "quartic 1,-3,2,3,1 0,3": lambda: from_quartic(IntPoly.from_descending((1, -3, 2, 3, 1)), (0, 3)),
}


@pytest.mark.parametrize("name", WIDE_MODELS)
def test_decisions_refine_wide_boxes(name):
    # a quartic model reads only the half-planes of its gammas off the
    # boxes, so wide boxes decide as narrow ones do
    model = WIDE_MODELS[name]()
    wide = _widened(model)
    assert all(b.re.width == Fraction(1, 1 << 11) for b in wide.root_boxes)
    assert o_projective(wide) == is_projective(wide) == is_projective(model)
    assert ns_charpoly(wide) == ns_charpoly(model)


def _grid():
    """All one-step models with D <= 5 and |b1|, |b2| <= 3 (245 of them)."""
    for d in range(1, 6):
        for b1 in range(-3, 4):
            for b2 in range(-3, 4):
                yield d, b1, b2, quad_order_model(a_form_matrix(d, b1, b2))


def _mp_roots(poly: IntPoly):
    return mpmath.polyroots(list(reversed(poly.coeffs)), maxsteps=200, extraprec=400)


def _check_split(model, roots) -> bool:
    """For a projective case-3b model, check that ns_charpoly keeps the
    quadratic of the cyclotomic complement that does not vanish at g1*g2;
    False for any other model."""
    rest = model.salem_factor()
    if rest.degree != 2 or salem_case(rest)[0] != CASE_3B or not is_projective(model):
        return False
    quads = _split_complement(model.h2_charpoly // rest)
    hits = o_split_indices(model, quads, roots)
    assert len(hits) == 1, (model.origin, model.pairing)
    assert ns_charpoly(model) == rest * quads[1 - hits[0]], (model.origin, model.pairing)
    return True


def test_grid_decisions_against_mpmath():
    """g1 and g2 are the eigenvalues of the 2x2 matrix over Z[sqrt(-D)],
    the roots of t^2 - tau t + 1 (for the reoriented model, g1 and the
    conjugate of g2), the model is projective exactly when g1*g2 is a root
    of the cyclotomic cofactor of the degree-2 action, and a case-3b split
    keeps the quadratic that does not vanish at g1*g2."""
    salem = checked = splits = 0
    with mpmath.workdps(DPS):
        for d, b1, b2, model in _grid():
            tau = b1 + b2 * mpmath.sqrt(d) * 1j
            orientations = [model]
            if model.salem_factor().degree:
                salem += 1
                orientations.append(reorient(model))
            for m in orientations:
                roots = _mp_roots(m.root_poly)
                g1, g2 = o_gammas(m, roots)
                e2 = mpmath.conj(g2) if m.reoriented else g2
                assert abs(g1 + e2 - tau) < TINY and abs(g1 * e2 - 1) < TINY, (d, b1, b2, m.reoriented)
                for g in (g1, e2):
                    assert abs(g * g - tau * g + 1) < TINY
                if m.salem_factor().degree == 0:
                    continue
                assert is_projective(m) == o_projective(m, roots), (d, b1, b2, m.reoriented)
                splits += _check_split(m, roots)
                checked += 1
    # every grid model with a Salem factor, each in both orientations
    assert checked == 2 * salem
    assert splits > 0


def test_quartic_and_gl2z_decisions_against_mpmath():
    """Quartic models with |coefficients| <= 3 in every pairing and gl2z
    models with |r| <= 12, each in both orientations: the same checks as
    on the grid."""
    verdicts, splits = set(), 0
    for a, b, c in product(range(-3, 4), repeat=3):
        p = IntPoly((1, a, b, c, 1))
        try:
            base = from_quartic(p)
        except RealRootsError:
            continue
        if base.salem_factor().degree == 0:
            continue
        roots = o_roots(base)
        for pairing in product((0, 1), (2, 3)):
            model = from_quartic(p, pairing)
            for m in (model, reorient(model)):
                verdict = is_projective(m)
                assert verdict == o_projective(m, roots), (p, m.pairing)
                verdicts.add((m.salem_factor().degree, verdict))
                splits += _check_split(m, roots)
    assert verdicts == {(2, True), (4, True), (4, False), (6, False)}
    assert splits > 0
    gl2z = 0
    for r, det in product(range(-12, 13), (1, -1)):
        try:
            model = gl2z_model(r, det)
        except NotHyperbolicError:
            continue
        for m in (model, reorient(model)):
            assert is_projective(m) and o_projective(m), (r, det, m.reoriented)
            assert not _check_split(m, None)
            gl2z += 1
    # |r| > 2 for det = 1 and r != 0 for det = -1, in two orientations each
    assert gl2z == 2 * (20 + 24)
