"""Interval and box layer: directed rounding must never lose the true value."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from salemtori import cli
from salemtori.intervals import (
    Box,
    Interval,
    RoundingBoundaryError,
    decimal_string,
    log_interval,
    sqrt_lb,
    sqrt_ub,
)
from salemtori.poly import IntPoly
from salemtori.salem import is_salem, lambda_interval

from _oracles import o_log_bounds, o_rounded

rational = st.fractions(min_value=-100, max_value=100, max_denominator=1000)
pos_rational = st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=1000)


def _iv(a, b):
    return Interval(min(a, b), max(a, b))


class TestInterval:
    @given(rational, rational, rational, rational)
    def test_mul_contains_products(self, a, b, c, d):
        x, y = _iv(a, b), _iv(c, d)
        prod = x * y
        for u in (x.lo, x.hi, x.mid):
            for v in (y.lo, y.hi, y.mid):
                assert prod.contains(u * v)

    @given(rational, rational, rational, rational)
    def test_add_contains(self, a, b, c, d):
        x, y = _iv(a, b), _iv(c, d)
        s = x + y
        assert s.contains(x.mid + y.mid)

    def test_point(self):
        p = Interval.point(Fraction(3, 2))
        assert p.width == 0 and p.contains(Fraction(3, 2))


class TestSqrt:
    @given(pos_rational, st.integers(min_value=8, max_value=80))
    def test_bounds_bracket(self, x, bits):
        lo = sqrt_lb(x, bits)
        hi = sqrt_ub(x, bits)
        assert lo * lo <= x <= hi * hi
        assert hi - lo <= Fraction(1, 1 << (bits // 2))

    def test_exact_square(self):
        assert sqrt_lb(Fraction(4), 32) <= 2 <= sqrt_ub(Fraction(4), 32)


class TestLog:
    @given(pos_rational, pos_rational)
    def test_contains_true_log(self, a, b):
        iv = _iv(a, b)
        out = log_interval(iv, bits=80)
        olo, ohi = o_log_bounds(iv.lo, iv.hi)
        # the package enclosure must cover the oracle enclosure's core
        assert out.lo <= olo + Fraction(1, 10**20)
        assert out.hi >= ohi - Fraction(1, 10**20)

    def test_log_one(self):
        out = log_interval(Interval.point(1), bits=64)
        assert out.contains(Fraction(0))
        assert out == Interval.point(0)


def _atlas_brackets():
    """The certified lambda bracket (2**-48 wide) of every Salem polynomial
    of the degree 2, 4 and 6 sweeps at bound 6."""
    out = []
    for degree in (2, 4, 6):
        for coeffs in cli._sweep(degree, 6):
            p = IntPoly.from_descending(coeffs)
            if p(1) < 0 < p(-1):
                cert = is_salem(p)
                if cert:
                    out.append(cert.root_interval)
    return out


def _check_log(iv, bits, dps=100):
    """log_interval(iv, bits) holds mpmath's logs of both ends at dps digits
    and is at most 2**-(bits - 1) wider than their difference."""
    out = log_interval(iv, bits=bits)
    lo, hi = o_log_bounds(iv.lo, iv.hi, slack=0, dps=dps)
    slack = Fraction(1, 10 ** (dps - 5))
    assert out.lo <= lo + abs(lo) * slack, (iv, bits)
    assert out.hi >= hi - abs(hi) * slack, (iv, bits)
    assert out.width <= hi - lo + Fraction(1, 1 << (bits - 1)), (iv, bits)
    return out


class TestLogAgainstMpmath:
    """The fixed-point log against mpmath at 100 digits, a test-only oracle."""

    def test_every_atlas_bracket(self):
        brackets = _atlas_brackets()
        assert len(brackets) == 446
        for iv in brackets:
            for bits in (48, 64, 112):
                _check_log(iv, bits)
            # and below 1, through 1/lambda
            _check_log(Interval(1 / iv.hi, 1 / iv.lo), 64)

    def test_width_near_2_to_minus_400(self):
        for coeffs in ((1, -3, 1), (1, -1, -1, -1, 1), (1, 0, -1, -1, -1, 0, 1)):
            iv = lambda_interval(IntPoly.from_descending(coeffs), 400)
            assert Fraction(1, 1 << 401) < iv.width <= Fraction(1, 1 << 400)
            # 160 digits, about 530 bits, so that the oracle resolves 2**-420
            out = _check_log(iv, 420, dps=160)
            assert out.width < Fraction(1, 1 << 399)

    @pytest.mark.parametrize("sign", (1, -1))
    def test_close_to_one(self, sign):
        x = 1 + Fraction(sign, 1 << 300)
        for bits in (64, 320):
            _check_log(Interval.point(x), bits)
        # 320 bits resolve log x, about +-2**-300, from 0
        out = log_interval(Interval.point(x), bits=320)
        assert (out.lo > 0) if sign > 0 else (out.hi < 0)
        _check_log(Interval(1 - Fraction(1, 1 << 300), 1 + Fraction(1, 1 << 300)), 64)

    @pytest.mark.parametrize("x", (Fraction(2**1000), Fraction(1, 2**1000), Fraction(3**700, 2**1000 + 1)))
    def test_extreme_magnitudes(self, x):
        for bits in (48, 200):
            _check_log(Interval.point(x), bits)
            _check_log(Interval(x, x * (1 + Fraction(1, 1 << 60))), bits)

    @pytest.mark.parametrize(
        "x",
        (Fraction(1, 3), Fraction(7, 10), Fraction(1, 2), Fraction(999, 1000), Fraction(1, 10**30), Fraction(3, 4)),
    )
    def test_below_one(self, x):
        for bits in (48, 112):
            out = _check_log(Interval.point(x), bits)
            assert out.hi < 0

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            log_interval(Interval(0, 1))


def _rounding_cell(s, places):
    """The numbers that round to the decimal string s."""
    half = Fraction(1, 2 * 10**places)
    return Interval(Fraction(s) - half, Fraction(s) + half)


class TestDecimal:
    """decimal_string gives the correctly rounded decimal of every number in
    the enclosure, or raises when the enclosure meets a rounding boundary."""

    def test_inside(self):
        # the enclosure lies inside the rounding cell of the decimal
        third = Fraction(1, 3)
        iv = Interval(third - Fraction(1, 10**14), third + Fraction(1, 10**14))
        s = decimal_string(iv, 12)
        assert s == "0.333333333333"
        cell = _rounding_cell(s, 12)
        assert cell.lo < iv.lo and iv.hi < cell.hi

    def test_narrow_enclosure_is_correctly_rounded(self):
        third = Fraction(1, 3)
        iv = Interval(third, third + Fraction(1, 10**15))
        assert decimal_string(iv, 12) == "0.333333333333"

    def test_straddling_a_boundary_raises(self):
        boundary = Fraction(333333333333 * 2 + 1, 2 * 10**12)
        with pytest.raises(RoundingBoundaryError):
            decimal_string(Interval(boundary - Fraction(1, 10**15), boundary + Fraction(1, 10**15)), 12)
        # an endpoint on the boundary meets it too
        with pytest.raises(RoundingBoundaryError):
            decimal_string(Interval(boundary, boundary + Fraction(1, 10**15)), 12)
        with pytest.raises(RoundingBoundaryError):
            decimal_string(Interval.point(boundary), 12)
        # and a 10**-6 wide enclosure meets many
        with pytest.raises(RoundingBoundaryError):
            decimal_string(Interval(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**6)), 12)

    def test_signs_and_points(self):
        assert decimal_string(Interval.point(0), 12) == "0.000000000000"
        assert decimal_string(Interval.point(Fraction(-5, 7)), 12) == "-0.714285714286"
        assert decimal_string(Interval.point(Fraction(-1)), 12) == "-1.000000000000"
        assert decimal_string(Interval.point(Fraction(123, 2)), 3) == "61.500"

    @given(st.fractions(min_value=-10, max_value=10, max_denominator=10**6), st.integers(min_value=0, max_value=4))
    def test_containment_when_present(self, x, k):
        # either no boundary lies in the enclosure and the decimal's
        # rounding cell contains it, or a boundary lies in it and it raises
        iv = Interval(x, x + Fraction(1, 10 ** (6 + k)))
        lo, hi = iv.lo * 2 * 10**8, iv.hi * 2 * 10**8
        odd_inside = any(n % 2 for n in range(math.ceil(lo), math.floor(hi) + 1))
        try:
            s = decimal_string(iv, 8)
        except RoundingBoundaryError:
            assert odd_inside
        else:
            assert not odd_inside
            cell = _rounding_cell(s, 8)
            assert cell.lo < iv.lo and iv.hi < cell.hi
            assert o_rounded(iv.mid, 8) == s


class TestBox:
    def test_complex_mul(self):
        # (1 + 2i)(3 - i) = 5 + 5i
        b1 = Box(Interval.point(1), Interval.point(2))
        b2 = Box(Interval.point(3), Interval.point(-1))
        prod = b1 * b2
        assert prod.contains(Fraction(5), Fraction(5))

    @given(rational, rational, rational, rational)
    def test_mul_contains_midpoint_product(self, x1, y1, x2, y2):
        w = Fraction(1, 7)
        b1 = Box(_iv(x1, x1 + w), _iv(y1, y1 + w))
        b2 = Box(_iv(x2, x2 + w), _iv(y2, y2 + w))
        prod = b1 * b2
        re = b1.re.mid * b2.re.mid - b1.im.mid * b2.im.mid
        im = b1.re.mid * b2.im.mid + b1.im.mid * b2.re.mid
        assert prod.contains(re, im)
