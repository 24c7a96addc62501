"""Every printed decimal is the correctly rounded value of the number it
stands for, checked against mpmath, a test-only oracle, at 60 digits plus
the digits of the largest coefficient of the printed polynomials.

Entropies are logs of the largest real root of the printed Salem factor,
box decimals are the coordinates of the roots of the printed root
polynomial and of the product of the paired ones, and lambda decimals are
the real roots above 1 of the printed Salem polynomials.
"""

import csv
import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import mpmath
import pytest

from salemtori import cli

from _oracles import o_rounded
from test_golden import COMMANDS

DPS = 60


def _main(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    assert code == 0
    return buf.getvalue()


def _digits(*poly_texts):
    """Decimal digits of the largest coefficient of printed polynomials."""
    return max(len(c.lstrip("-")) for text in poly_texts for c in text.split(","))


def _roots(poly_text):
    """Every complex root of a polynomial printed highest degree first."""
    coeffs = [int(c) for c in poly_text.split(",")]
    # roots that span many orders of magnitude take more steps to settle
    return mpmath.polyroots(coeffs, maxsteps=200 + 4 * _digits(poly_text), extraprec=400)


def _largest_real_root(poly_text):
    return max(z.real for z in _roots(poly_text) if abs(z.imag) < mpmath.mpf(10) ** (10 - DPS))


def _near(z, box):
    """The distance from z to the centre of a printed box."""
    re = (Fraction(box["re"]["lo"]) + Fraction(box["re"]["hi"])) / 2
    im = (Fraction(box["im"]["lo"]) + Fraction(box["im"]["hi"])) / 2
    return abs(z - mpmath.mpc(mpmath.mpf(re.numerator) / re.denominator, mpmath.mpf(im.numerator) / im.denominator))


def _root_in(roots, box):
    z = min(roots, key=lambda z: _near(z, box))
    # the boxes are narrower than 1e-8, and the roots further apart
    assert _near(z, box) < 1e-8
    return z


def _check_box(box, z):
    assert box["re"]["decimal"] == o_rounded(z.real)
    assert box["im"]["decimal"] == o_rounded(z.imag)


# the ns commands among the golden ones print polynomials, no decimal
@pytest.mark.parametrize("argv", [a for a in COMMANDS if a[0] != "ns"], ids=" ".join)
def test_golden_model_decimals(argv):
    doc = json.loads(_main(argv))
    # the digits of the largest coefficient bound those of the largest root
    # and of lambda, whose decimals need DPS digits after the point
    with mpmath.workdps(DPS + _digits(doc["root_poly"], doc["salem_factor"] or "0")):
        if doc["zero_entropy"]:
            assert doc["entropy"]["decimal"] == "0.000000000000"
        else:
            lam = _largest_real_root(doc["salem_factor"])
            assert doc["entropy"]["decimal"] == o_rounded(mpmath.log(lam))
        roots = _roots(doc["root_poly"])
        g1, g2 = _root_in(roots, doc["gamma1"]), _root_in(roots, doc["gamma2"])
        _check_box(doc["gamma1"], g1)
        _check_box(doc["gamma2"], g2)
        _check_box(doc["h20_product"], g1 * g2)


def _csv_rows(argv):
    rows = list(csv.reader(io.StringIO(_main(argv))))
    assert rows[0][:3] == ["s_poly", "degree", "lambda"]
    return rows[1:]


def _check_lambda(poly_text, dec):
    # Newton's method from the printed decimal; a Salem polynomial has one
    # real root above 1, so a root found there is lambda
    coeffs = [int(c) for c in poly_text.split(",")]
    with mpmath.workdps(DPS):
        lam = mpmath.findroot(lambda t: mpmath.polyval(coeffs, t), mpmath.mpf(dec), solver="newton")
        assert lam > 1 and abs(lam - mpmath.mpf(dec)) < 1e-11
        assert dec == o_rounded(lam), poly_text


def _tabulated(dec, value):
    """The 12-place decimal rounds to a 10-place tabulated value."""
    return round(Fraction(dec) * 10**10) == Fraction(value) * 10**10


def test_atlas_lambda_decimals():
    count = 0
    for degree in (2, 4, 6):
        for row in _csv_rows(("enumerate", "--degree", str(degree), "--max-coeff", "6")):
            _check_lambda(row[0], row[2])
            count += 1
    assert count == 446


class TestBoydMinima:
    """The smallest Salem numbers of degrees 4, 6 and 8 (Boyd, "Small Salem
    numbers", Duke Math. J. 44, 1977)."""

    def test_degree4_sweep_minimum(self):
        first = _csv_rows(("enumerate", "--degree", "4", "--max-coeff", "6"))[0]
        assert first[0] == "1,-1,-1,-1,1"
        assert _tabulated(first[2], "1.7220838057")
        _check_lambda(first[0], first[2])

    def test_degree6_sweep_minimum(self):
        first = _csv_rows(("enumerate", "--degree", "6", "--max-coeff", "1"))[0]
        assert first[0] == "1,0,-1,-1,-1,0,1"
        assert _tabulated(first[2], "1.4012683679")
        _check_lambda(first[0], first[2])

    def test_degree8(self):
        doc = json.loads(_main(("is-salem", "1,0,0,-1,-1,-1,0,0,1")))
        dec = doc["lambda"]["decimal"]
        assert _tabulated(dec, "1.2806381563")
        _check_lambda(doc["poly"], dec)
