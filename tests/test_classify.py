"""Case table, complement enumeration, witness search, finiteness."""

import pytest

from salemtori.classify import (
    CASE_3A,
    CASE_3B,
    CASE_DEG4,
    CASE_DEG6,
    Finite,
    InfiniteFamily,
    case_of,
    enumerate_complements,
    finiteness,
    pairing_classes,
    realizable,
)
from salemtori.errors import NotRealizableError, NotSalemInputError, WrongDegreeError
from salemtori import poly
from salemtori.poly import IntPoly, cyclotomic, is_cyclotomic_product
from salemtori.salem import is_salem, isolate_all_roots
from salemtori.wedge import exterior_square

S2A = IntPoly((1, -3, 1))
S2B = IntPoly((1, -4, 1))
S4 = IntPoly((1, -2, -2, -2, 1))
S6 = IntPoly((1, 0, -1, -1, -1, 0, 1))


class TestCaseOf:
    def test_degree6(self):
        rep = case_of(S6)
        assert rep.case_tag == CASE_DEG6
        assert rep.projective_types == ("non_projective",)
        assert rep.picard_ranks == (("non_projective", 0),)
        assert rep.q_value is None
        assert rep.witnesses == ()

    def test_degree4(self):
        rep = case_of(S4)
        assert rep.case_tag == CASE_DEG4
        assert rep.projective_types == ("non_projective", "projective")
        assert rep.picard_ranks == (("non_projective", 2), ("projective", 4))

    def test_degree2_split(self):
        rep = case_of(S2A)
        assert rep.case_tag == CASE_3A
        assert rep.q_value == 3
        assert rep.square_witness == (1, "-")
        assert rep.picard_ranks == (("projective", "unconstrained"),)

        rep = case_of(S2B)
        assert rep.case_tag == CASE_3B
        assert rep.q_value == 4
        assert rep.square_witness is None
        assert rep.picard_ranks == (("projective", 4),)

    def test_plus_sign_family(self):
        # q = 23: q + 2 = 25 = 5^2
        rep = case_of(IntPoly((1, -23, 1)))
        assert rep.case_tag == CASE_3A
        assert rep.square_witness == (5, "+")

    @pytest.mark.parametrize(
        "q, witness",
        [(10**13, None), (10**14 - 2, (10**7, "+")), (10**14 + 2, (10**7, "-"))],
    )
    def test_square_test_is_bounded(self, monkeypatch, q, witness):
        # the square test must not search the divisors of q +/- 2, which
        # would take time growing with sqrt(q)
        cert = is_salem(IntPoly((1, -q, 1)))

        def refuse(n):
            raise AssertionError(f"divisors({n}) called")

        monkeypatch.setattr(poly, "divisors", refuse)
        rep = case_of(cert)
        assert rep.square_witness == witness
        assert rep.case_tag == (CASE_3B if witness is None else CASE_3A)

    @pytest.mark.parametrize("q", [10**13, 10**20, 10**30])
    def test_realizable_3b_is_bounded(self, monkeypatch, q):
        # the case-3b checks of complement and witness must not search
        # divisors either, which is_irreducible would do
        cert = is_salem(IntPoly((1, -q, 1)))
        assert cert

        def refuse(n):
            raise AssertionError(f"divisors({n}) called")

        monkeypatch.setattr(poly, "divisors", refuse)
        rep = realizable(cert)
        assert rep.case_tag == CASE_3B
        assert rep.finiteness == Finite(2)

    def test_square_witness_matches_brute_force(self):
        for q in range(3, 401):
            want = next(
                ((r, sign) for sign, n in (("+", q + 2), ("-", q - 2)) for r in range(1, 21) if r * r == n),
                None,
            )
            assert case_of(IntPoly((1, -q, 1))).square_witness == want, q

    def test_accepts_certificate(self):
        cert = is_salem(S2A)
        assert case_of(cert).case_tag == CASE_3A

    def test_rejects_non_salem(self):
        with pytest.raises(NotSalemInputError):
            case_of(IntPoly((1, 0, 1)))
        with pytest.raises(NotSalemInputError):
            case_of(IntPoly((1, -3, 2)))

    def test_rejects_degree8(self):
        # degree-8 Salem polynomials certify but have no torus case
        p = IntPoly(tuple(reversed((1, 0, 0, -1, -1, -1, 0, 0, 1))))
        cert = is_salem(p)
        assert cert
        with pytest.raises(WrongDegreeError):
            case_of(cert)


class TestComplements:
    def test_pool_sizes(self):
        assert len(enumerate_complements(S6).complements) == 1
        assert len(enumerate_complements(S4).complements) == 5
        assert len(enumerate_complements(S2A).complements) == 19

    def test_pool_contents(self):
        comps = enumerate_complements(S4).complements
        assert comps == tuple(IntPoly((1, a, 1)) for a in range(-2, 3))
        deg2 = enumerate_complements(S2B).complements
        assert all(c.degree == 4 for c in deg2)
        assert all(is_cyclotomic_product(c) for c in deg2)
        for n in (5, 8, 10, 12):
            assert cyclotomic(n) in deg2

    def test_admissible_quartic(self):
        cs = enumerate_complements(S4)
        assert cs.admissible_q == (
            S4 * IntPoly((1, -2, 1)),
            S4 * IntPoly((1, 2, 1)),
        )

    def test_admissible_sextic(self):
        cs = enumerate_complements(S6)
        assert cs.admissible_q == (S6,)

    def test_admissible_is_filtered(self):
        cs = enumerate_complements(S2A)
        assert S2A * cyclotomic(5) not in cs.admissible_q
        assert S2A * cyclotomic(10) in cs.admissible_q


class TestPairingClasses:
    def test_no_real_quartic_two_classes(self):
        cls = pairing_classes(IntPoly((1, 1, 0, 0, 1)))
        assert len(cls) == 2
        assert all(c.kind == "conjugate" for c in cls)
        assert cls[0].indices == (0, 2)
        assert cls[1].indices == (0, 3)

    def test_indices_follow_root_isolation(self):
        # the classes are read off isolate_all_roots' order: upper, lower,
        # upper, lower for a quartic without real roots
        for coeffs in ((1, 1, 0, 0, 1), (1, -2, 4, -2, 1), (1, 3, 4, 2, 1), (1, -4, 5, -2, 1)):
            p = IntPoly(coeffs)
            boxes = isolate_all_roots(p)
            assert [b.im.lo > 0 for b in boxes] == [True, False, True, False]
            assert boxes[2].conjugate_index == 3
            assert [c.indices for c in pairing_classes(p)] == [(0, 2), (0, 3)]

    def test_real_roots_rejected(self):
        assert pairing_classes(S4) == ()

    def test_quartics_only(self):
        with pytest.raises(WrongDegreeError):
            pairing_classes(IntPoly((1, 1, 1)))

    def test_hyperbolic_square(self):
        p = IntPoly((-1, -1, 1)) ** 2  # (t^2 - t - 1)^2
        assert p.is_monic
        cls = pairing_classes(p)
        assert len(cls) == 1
        assert cls[0].kind == "real"
        assert cls[0].gl_params == (1, -1)

    def test_elliptic_square_rejected(self):
        # (t^2 + t + 1)^2: roots on the circle, no hyperbolic pairing
        assert pairing_classes(cyclotomic(3) ** 2) == ()

    def test_mixed_reducible_rejected(self):
        assert pairing_classes(IntPoly((1, 1)) ** 2 * cyclotomic(4)) == ()


class TestRealizable:
    def test_sextic(self):
        rep = realizable(S6)
        assert len(rep.witnesses) == 4
        assert rep.finiteness == Finite(8)
        for w in rep.witnesses:
            assert w.q_poly == S6
            assert w.c_poly == IntPoly((1,))
            assert exterior_square(w.p_poly) == w.q_poly
            assert len(w.classes) == 2

    def test_quartic(self):
        rep = realizable(S4)
        assert rep.finiteness == Finite(8)
        assert len(rep.witnesses) == 4
        for w in rep.witnesses:
            assert w.q_poly == S4 * w.c_poly
            assert is_cyclotomic_product(w.c_poly)
            assert exterior_square(w.p_poly) == w.q_poly

    def test_3a_has_real_family_witness(self):
        rep = realizable(S2A)
        assert isinstance(rep.finiteness, InfiniteFamily)
        assert rep.finiteness == InfiniteFamily(1, "-")
        kinds = {c.kind for w in rep.witnesses for c in w.classes}
        assert kinds == {"conjugate", "real"}

    def test_3b_witnesses_irreducible(self):
        rep = realizable(S2B)
        assert isinstance(rep.finiteness, Finite)
        for w in rep.witnesses:
            assert all(c.kind == "conjugate" for c in w.classes)

    def test_deterministic(self):
        a = realizable(S4)
        b = realizable(S4)
        assert a.witnesses == b.witnesses

    def test_unrealized(self):
        p = IntPoly((1, -2, 0, -2, 1))
        rep = realizable(p)
        assert rep.witnesses == ()
        assert rep.finiteness is None


class TestFiniteness:
    def test_values(self):
        assert finiteness(S2A) == InfiniteFamily(1, "-")
        f4 = finiteness(S4)
        f6 = finiteness(S6)
        assert isinstance(f4, Finite) and 1 <= f4.count <= 320
        assert isinstance(f6, Finite) and 1 <= f6.count <= 320

    def test_unrealized_raises(self):
        with pytest.raises(NotRealizableError):
            finiteness(IntPoly((1, -2, 0, -2, 1)))
