"""Exterior square, square-value obstruction, and exact inversion."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from salemtori.errors import WrongDegreeError
from salemtori.poly import IntPoly
from salemtori.wedge import exterior_square, invert_wedge, square_values

from _oracles import o_wedge_charpoly

SEXTIC = IntPoly((1, 0, -1, -1, -1, 0, 1))


class TestExteriorSquare:
    def test_family_identity(self):
        # wedge of t^4 + a t^2 + t + 1 for small a, frozen closed form
        for a in range(0, 21):
            p = IntPoly((1, 1, a, 0, 1))
            expected = IntPoly((1, -a, -1, 2 * a - 1, -1, -a, 1))
            assert exterior_square(p) == expected

    def test_frozen_point(self):
        assert exterior_square(IntPoly((1, 1, 0, 0, 1))) == SEXTIC

    def test_degree_gate(self):
        with pytest.raises(WrongDegreeError):
            exterior_square(IntPoly((1, -3, 1)))

    @given(st.tuples(*[st.integers(min_value=-10, max_value=10)] * 4))
    @settings(max_examples=80, deadline=None)
    # coefficients near +-10**30, and a zero constant term
    @example((10**30 + 7, -(10**30) + 3, 10**30 - 1, -(10**30) - 11))
    @example((-(10**30), 10**30 + 1, -(10**30) + 2, 10**30 - 3))
    @example((0, 10**30 + 5, -(10**30), 7))
    @example((0, -3, 2, -5))
    def test_matches_compound_matrix(self, tail):
        p = IntPoly(tuple(tail) + (1,))
        assert exterior_square(p).coeffs == o_wedge_charpoly(p.coeffs)

    def test_seeded_batch(self):
        rng = random.Random(90125)
        for _ in range(100):
            tail = tuple(rng.randint(-10, 10) for _ in range(4))
            p = IntPoly(tail + (1,))
            assert exterior_square(p).coeffs == o_wedge_charpoly(p.coeffs)

    @given(st.tuples(*[st.integers(min_value=-6, max_value=6)] * 2))
    def test_reciprocal_input_gives_reciprocal_output(self, ab):
        a, b = ab
        p = IntPoly((1, a, b, a, 1))
        q = exterior_square(p)
        assert q.is_reciprocal


class TestSquareValues:
    def test_golden_sextic(self):
        res = square_values(SEXTIC)
        assert res
        assert res.m * res.m == -SEXTIC(1)
        assert res.n * res.n == SEXTIC(-1)
        assert (res.m, res.n) == (1, 1)

    def test_rejects(self):
        # S * Phi_5 for S = t^2 - 3t + 1: -Q(1) = 5 is not a square
        q = IntPoly((1, -3, 1)) * IntPoly((1, 1, 1, 1, 1))
        res = square_values(q)
        assert not res
        assert res.point == 1
        assert res.value == 5

    def test_wedge_of_unit_quartic_passes(self):
        # exterior squares of constant-1 quartics always pass
        for tail in ((1, 0, 0, -2), (1, -1, 2, 0), (1, 2, 2, 2)):
            q = exterior_square(IntPoly(tail + (1,)))
            assert square_values(q)


class TestInvertWedge:
    def test_golden_sextic_preimages(self):
        inv = invert_wedge(SEXTIC)
        assert inv.obstruction is None
        assert (inv.m, inv.n) == (1, 1)
        assert len(inv.candidates) == 4
        assert set(inv.verified) == {
            IntPoly((1, 1, 0, 0, 1)),
            IntPoly((1, -1, 0, 0, 1)),
            IntPoly((1, 0, 0, 1, 1)),
            IntPoly((1, 0, 0, -1, 1)),
        }
        for p in inv.verified:
            assert exterior_square(p) == SEXTIC

    def test_obstructed(self):
        q = IntPoly((1, -3, 1)) * IntPoly((1, 1, 1, 1, 1))
        inv = invert_wedge(q)
        assert inv.obstruction == "not-square"
        assert inv.verified == ()

    def test_verified_subset_of_candidates(self):
        q = exterior_square(IntPoly((1, -2, 4, -2, 1)))
        inv = invert_wedge(q)
        assert set(inv.verified) <= set(inv.candidates)
        assert IntPoly((1, -2, 4, -2, 1)) in inv.verified

    @given(st.tuples(*[st.integers(min_value=-4, max_value=4)] * 3))
    @example((-3, 1, 2))  # t^4 + 2t^3 + t^2 - 3t + 1: p != +-r and pr != 0
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_constant_one(self, tail):
        # every monic quartic with constant 1 must be recovered
        p = IntPoly((1,) + tail + (1,))
        inv = invert_wedge(exterior_square(p))
        assert p in inv.verified

    @given(st.tuples(*[st.integers(min_value=-6, max_value=6)] * 5))
    @example((0, -1, -1, -1, 0))  # SEXTIC at a0 = 1
    @settings(max_examples=60, deadline=None)
    def test_square_values_have_equal_parity(self, middle):
        # every constant term in a window, so that some sextics pass
        for a0 in range(-60, 61):
            q = IntPoly((a0, *middle, 1))
            sv = square_values(q)
            if sv:
                assert (sv.m + sv.n) % 2 == 0, q
                assert invert_wedge(q).obstruction is None

    def test_degree_gate(self):
        with pytest.raises(WrongDegreeError):
            invert_wedge(IntPoly((1, -3, 1)))
