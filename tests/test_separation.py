"""The one refinement routine behind every which-root decision of torus.

torus._separate drives the location of g1*g2 behind is_projective and
ns_charpoly; quad_order_model reads its pairing off q in closed form, and
is_projective decides its models from the degree of the Salem factor.  On
the models the CLI builds every decision settles in the first round, so the
later rounds are exercised here with synthetic filters and with root boxes
widened far beyond what isolation returns.  An mpmath oracle then checks
the pairings and the decisions over the 245-model grid, in both
orientations.
"""

from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest

from salemtori.errors import CertificationError
from salemtori.intervals import Interval
from salemtori.poly import IntPoly, squarefree_part
from salemtori.salem import RootBox
from salemtori.torus import (
    _locate_product,
    _separate,
    a_form_matrix,
    gl2z_model,
    is_projective,
    ns_charpoly,
    quad_order_model,
    reorient,
)

DPS = 50


class TestSeparate:
    def test_survivor_after_three_rounds(self):
        seen = []

        def keep(cands, bits):
            seen.append(bits)
            return cands[:1] if bits >= 40 else cands

        assert _separate(["a", "b", "c"], keep, "test") == "a"
        assert seen == [24, 32, 40]

    def test_empty_list_raises(self):
        with pytest.raises(CertificationError, match="test lost every candidate"):
            _separate(["a", "b"], lambda cands, bits: [] if bits > 24 else cands, "test")

    def test_no_separation_raises_after_64_rounds(self):
        seen = []

        def keep(cands, bits):
            seen.append(bits)
            return cands

        with pytest.raises(CertificationError, match="test did not separate"):
            _separate(["a", "b"], keep, "test")
        assert len(seen) == 64
        assert seen[-1] == 528


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
}


@pytest.mark.parametrize("name", WIDE_MODELS)
def test_decisions_refine_wide_boxes(name):
    # E x E models decide projectivity without their boxes, so the location
    # of g1*g2 is called on the wide boxes directly
    model = WIDE_MODELS[name]()
    wide = _widened(model)
    assert all(b.re.width == Fraction(1, 1 << 11) for b in wide.root_boxes)
    rest = wide.salem_factor()
    located = _locate_product(wide, (rest, squarefree_part(wide.h2_charpoly // rest))) == 1
    assert located == is_projective(wide) == is_projective(model)
    assert ns_charpoly(wide) == ns_charpoly(model)


def _grid():
    """All one-step models with D <= 5 and |b1|, |b2| <= 3 (245 of them)."""
    for d in range(1, 6):
        for b1 in range(-3, 4):
            for b2 in range(-3, 4):
                yield d, b1, b2, quad_order_model(a_form_matrix(d, b1, b2))


def _mp_roots(poly: IntPoly):
    return mpmath.polyroots(list(reversed(poly.coeffs)), maxsteps=200, extraprec=400)


def _nearest(roots, box):
    re, im = box.re.mid, box.im.mid
    centre = mpmath.mpc(mpmath.mpf(re.numerator) / re.denominator, mpmath.mpf(im.numerator) / im.denominator)
    return min(roots, key=lambda z: abs(z - centre))


def test_grid_decisions_against_mpmath():
    """g1 and g2 are the eigenvalues of the 2x2 matrix over Z[sqrt(-D)],
    the roots of t^2 - tau t + 1 (for the reoriented model, g1 and the
    conjugate of g2), and the model is projective exactly when g1*g2 is a
    root of the cyclotomic cofactor of the degree-2 action."""
    tiny = mpmath.mpf(10) ** -30
    salem = checked = 0
    with mpmath.workdps(DPS):
        for d, b1, b2, model in _grid():
            tau = b1 + b2 * mpmath.sqrt(d) * 1j
            orientations = [model]
            if model.salem_factor().degree:
                salem += 1
                orientations.append(reorient(model))
            for m in orientations:
                roots = _mp_roots(m.root_poly)
                g1, g2 = _nearest(roots, m.gamma1.box), _nearest(roots, m.gamma2.box)
                e2 = mpmath.conj(g2) if m.reoriented else g2
                assert abs(g1 + e2 - tau) < tiny and abs(g1 * e2 - 1) < tiny, (d, b1, b2, m.reoriented)
                for g in (g1, e2):
                    assert abs(g * g - tau * g + 1) < tiny
                if m.salem_factor().degree == 0:
                    continue
                # the cofactor has repeated roots, which polyroots does not
                # converge on; a root of it is where it vanishes
                cyclo = m.h2_charpoly // m.salem_factor()
                near_unity = abs(mpmath.polyval(list(reversed(cyclo.coeffs)), g1 * g2)) < tiny
                assert is_projective(m) == near_unity, (d, b1, b2, m.reoriented)
                checked += 1
    # every grid model with a Salem factor, each in both orientations
    assert checked == 2 * salem
