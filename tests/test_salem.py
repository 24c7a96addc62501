"""Salem certification, trace transform, and certified root isolation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salemtori.errors import CertificationError, DegreeTooLargeError, NotReciprocalError, NotSquarefreeError
from salemtori.intervals import Interval
from salemtori.poly import IntPoly, cyclotomic
from salemtori.salem import (
    RootBox,
    SturmChain,
    count_real_roots,
    is_salem,
    isolate_all_roots,
    isolate_real_roots,
    lambda_approx,
    lambda_interval,
    refine_root_box,
    trace_transform,
)

from _oracles import o_bisect, o_eval

GOLDEN_QUARTIC = IntPoly((1, -2, -2, -2, 1))
GOLDEN_SEXTIC = IntPoly((1, 0, -1, -1, -1, 0, 1))


class TestTraceTransform:
    def test_quartic(self):
        # t^4 - 2t^3 - 2t^2 - 2t + 1 -> u^2 - 2u - 4
        assert trace_transform(GOLDEN_QUARTIC) == IntPoly((-4, -2, 1))

    def test_deg2(self):
        assert trace_transform(IntPoly((1, -3, 1))) == IntPoly((-3, 1))

    def test_sextic(self):
        t = trace_transform(GOLDEN_SEXTIC)
        assert t.degree == 3
        # u^3 - 4u - 1: check by resubstitution at sample points
        assert t == IntPoly((-1, -4, 0, 1))

    def test_reciprocal_required(self):
        with pytest.raises(NotReciprocalError):
            trace_transform(IntPoly((2, -3, 1)))

    @given(st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=2))
    def test_functional_equation(self, mid):
        # q has constant and leading 1, so q * reversed(q) is monic reciprocal
        q = IntPoly((1,) + tuple(mid) + (1,))
        p = q * q.reciprocal()
        t = trace_transform(p)
        e = p.degree // 2
        for x in (Fraction(2), Fraction(3), Fraction(7, 2)):
            assert p(x) == x**e * t(x + 1 / x)


class TestIsSalem:
    def test_accepts_golden(self):
        for p in (IntPoly((1, -3, 1)), IntPoly((1, -4, 1)), GOLDEN_QUARTIC, GOLDEN_SEXTIC):
            cert = is_salem(p)
            assert cert
            assert cert.poly == p
            assert cert.circle_root_count == p.degree - 2

    def test_rejects_cyclotomic(self):
        res = is_salem(cyclotomic(12))
        assert not res
        assert res.reason == "wrong-circle-count"

    def test_rejects_reducible_with_witness(self):
        p = IntPoly((1, -3, 1)) * IntPoly((1, 1)) ** 2
        res = is_salem(p)
        assert not res
        assert res.reason == "reducible"
        assert res.witness in (IntPoly((1, 1)), IntPoly((1, -3, 1)))

    def test_rejects_nonreciprocal(self):
        res = is_salem(IntPoly((2, -3, 1)))
        assert res.reason == "not-reciprocal"

    def test_rejects_odd_degree(self):
        res = is_salem(IntPoly((1, -3, -3, 1)))
        assert not res

    def test_rejects_nonmonic(self):
        assert is_salem(IntPoly((1, -3, 2))).reason == "not-monic"

    def test_degree_cap(self):
        with pytest.raises(DegreeTooLargeError):
            is_salem(IntPoly((1,) + (0,) * 9 + (1,)))

    def test_rejects_pisot_like(self):
        # t^2 - 3t + 1 is Salem; t^2 + 3t + 1 has its large root negative
        assert not is_salem(IntPoly((1, 3, 1)))

    def test_quadratic_window(self):
        # |a| <= 2 never Salem, a <= -3 always
        for a in (-2, -1, 0, 1, 2):
            assert not is_salem(IntPoly((1, a, 1)))
        for a in (-3, -4, -7):
            assert is_salem(IntPoly((1, a, 1)))


class TestLambda:
    def test_golden_quartic_value(self):
        # oracle bisection on (1, 4): frozen 2.890053638264 to 12 places
        cert = is_salem(GOLDEN_QUARTIC)
        iv = lambda_approx(cert, Fraction(1, 10**14))
        olo, ohi = o_bisect(GOLDEN_QUARTIC.coeffs, 1, 4, Fraction(1, 10**14))
        assert iv.lo <= ohi and olo <= iv.hi
        dec = Fraction("2.890053638264")
        half_ulp = Fraction(1, 2 * 10**12)
        assert iv.lo - half_ulp <= dec <= iv.hi + half_ulp

    def test_sextic_value(self):
        cert = is_salem(GOLDEN_SEXTIC)
        iv = lambda_approx(cert, Fraction(1, 10**13))
        assert Fraction("1.40126836793") <= iv.lo <= iv.hi <= Fraction("1.40126836794")

    def test_approx_tightens(self):
        cert = is_salem(IntPoly((1, -3, 1)))
        iv = lambda_approx(cert, Fraction(1, 10**12))
        assert iv.width <= Fraction(1, 10**12)
        # (3 + sqrt 5)/2: check against the defining quadratic exactly
        assert (iv.lo**2 - 3 * iv.lo + 1) * (iv.hi**2 - 3 * iv.hi + 1) < 0

    def test_interval_brackets_root(self):
        iv = lambda_interval(GOLDEN_SEXTIC)
        assert o_eval(GOLDEN_SEXTIC.coeffs, iv.lo) * o_eval(GOLDEN_SEXTIC.coeffs, iv.hi) < 0


class TestRealRoots:
    def test_count_window(self):
        p = IntPoly((1, -3, 1))
        assert count_real_roots(p, 0, 1) == 1
        assert count_real_roots(p, 1, 3) == 1
        assert count_real_roots(p, 3, 100) == 0
        assert count_real_roots(p, 5, 1) == 0

    def test_squarefree_gate(self):
        with pytest.raises(NotSquarefreeError):
            count_real_roots(IntPoly((1, 2, 1)), -5, 5)

    def test_isolate_real(self):
        roots = isolate_real_roots(IntPoly((1, -3, 1)))
        assert len(roots) == 2
        for iv in roots:
            assert o_eval((1, -3, 1), iv.lo) * o_eval((1, -3, 1), iv.hi) <= 0

    def test_sturm_total(self):
        assert SturmChain(IntPoly((1, -3, 1))).count_real() == 2
        assert SturmChain(IntPoly((1, 0, 1))).count_real() == 0


class TestIsolateAll:
    def test_no_real_quartic(self):
        p = IntPoly((1, 1, 0, 0, 1))
        boxes = isolate_all_roots(p)
        assert len(boxes) == 4
        assert all(not b.is_real for b in boxes)
        # conjugate wiring: pairs (0,1) and (2,3), uppers first in each pair
        assert boxes[0].conjugate_index == 1 and boxes[1].conjugate_index == 0
        assert boxes[2].conjugate_index == 3 and boxes[3].conjugate_index == 2
        assert boxes[0].im.lo > 0 and boxes[2].im.lo > 0
        for up, down in ((boxes[0], boxes[1]), (boxes[2], boxes[3])):
            assert up.re == down.re
            assert up.im.lo == -down.im.hi and up.im.hi == -down.im.lo

    def test_mixed(self):
        # (t^2 - 3t + 1)(t^2 + 1): two reals then one conjugate pair
        p = IntPoly((1, -3, 1)) * IntPoly((1, 0, 1))
        boxes = isolate_all_roots(p)
        assert len(boxes) == 4
        assert boxes[0].is_real and boxes[1].is_real
        assert boxes[0].re.hi <= boxes[1].re.lo
        assert not boxes[2].is_real

    def test_squarefree_gate(self):
        with pytest.raises(NotSquarefreeError):
            isolate_all_roots(IntPoly((1, 2, 1)))

    def test_refine_rejects_rational_midpoint_root(self):
        # the first midpoint of (0, 2] is the root of t - 1
        with pytest.raises(CertificationError):
            refine_root_box(IntPoly((-1, 1)), RootBox(Interval(0, 2), Interval.point(0)), Fraction(1, 8))

    def test_disjoint_and_refinable(self):
        boxes = isolate_all_roots(GOLDEN_QUARTIC)
        target = Fraction(1, 1 << 60)
        for b in boxes:
            rb = refine_root_box(GOLDEN_QUARTIC, b, target)
            assert rb.re.width <= target and rb.im.width <= target
            assert rb.re.intersects(b.re) and rb.im.intersects(b.im)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4))
    def test_degree_count(self, a, b):
        p = IntPoly((1, a, b, a, 1))
        from salemtori.poly import is_squarefree

        if not is_squarefree(p):
            return
        boxes = isolate_all_roots(p)
        assert len(boxes) == 4
        reals = sum(1 for x in boxes if x.is_real)
        assert reals == SturmChain(p).count_real()
