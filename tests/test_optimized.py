"""Certification guards and outputs are the same under python -O."""

import subprocess
import sys

import pytest

NOT_BRACKETING = """
from fractions import Fraction
from salemtori.errors import CertificationError
from salemtori.intervals import Interval
from salemtori.poly import IntPoly
from salemtori.salem import RootBox, refine_root_box

# t^2 - 2 is positive at both ends of (2, 3]
try:
    refine_root_box(IntPoly((-2, 0, 1)), RootBox(Interval(2, 3), Interval.point(0)), Fraction(1, 8))
except CertificationError as exc:
    print("CertificationError:", exc)
"""

# t^2 - 4 changes sign on (1, 5], and 2 is the second midpoint of bisection
MIDPOINT_ROOT = """
from salemtori.errors import CertificationError
from salemtori.poly import IntPoly
from salemtori.salem import lambda_interval

try:
    lambda_interval(IntPoly((-4, 0, 1)))
except CertificationError as exc:
    print("CertificationError:", exc)
"""

# a certificate whose trace polynomial t + 2 vanishes at -2, so the square
# test of the classification meets x^2 as T(x^2 - 2)
FORGED_CERTIFICATE = """
from salemtori.classify import case_of
from salemtori.errors import CertificationError
from salemtori.intervals import Interval
from salemtori.poly import IntPoly
from salemtori.salem import SalemCertificate

cert = SalemCertificate(IntPoly((1, 0, 1)), 2, IntPoly((2, 1)), Interval(1, 2), 0)
try:
    case_of(cert)
except CertificationError as exc:
    print("CertificationError:", exc)
"""

# E x E models whose degree-2 action is given a degree-6 Salem factor, which
# the projectivity rule for them cannot have, in both orientations
FORGED_SALEM_DEGREE = """
from salemtori.errors import CertificationError
from salemtori.poly import IntPoly
from salemtori.torus import a_form_matrix, is_projective, quad_order_model, reorient

model = quad_order_model(a_form_matrix(1, 1, 1))
for m in (model, reorient(model)):
    try:
        is_projective(m.replace(h2_charpoly=IntPoly.from_descending((1, 0, -1, -1, -1, 0, 1))))
    except CertificationError as exc:
        print("CertificationError:", exc)
"""

# a quartic model whose degree-2 action is given the cofactor t^2 - 1 of
# its degree-4 Salem factor, which the projectivity rule for quartic models
# needs to be t^2 + jt + 1; then the same model with no origin, and with an
# origin no constructor makes, which no rule covers
FORGED_QUARTIC = """
from salemtori.errors import CertificationError
from salemtori.poly import IntPoly
from salemtori.torus import ModelOrigin, from_quartic, is_projective

model = from_quartic(IntPoly.from_descending((1, -3, 1, 3, 1)))
forged = model.replace(h2_charpoly=model.salem_factor() * IntPoly((-1, 0, 1)))
for m in (forged, model.replace(origin=None), model.replace(origin=ModelOrigin("unknown"))):
    try:
        is_projective(m)
    except CertificationError as exc:
        print("CertificationError:", exc)
"""

# a lift with one entry changed, whose characteristic polynomial is then not
# the norm of q's; the check is a raise, so it holds without assertions
FORGED_LIFT = """
from salemtori.errors import CertificationError
from salemtori.torus import QuadOrderMatrix, a_form_matrix, quad_order_model

lift = QuadOrderMatrix.lift


def forged(self):
    rows = lift(self)
    return ((rows[0][0] + 1,) + rows[0][1:],) + rows[1:]


QuadOrderMatrix.lift = forged
try:
    quad_order_model(a_form_matrix(1, 1, 1))
except CertificationError as exc:
    print("CertificationError:", exc)
"""


def python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True)


def test_non_bracketing_call_raises_under_O():
    out = python("-O", "-c", NOT_BRACKETING)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("CertificationError: ")


def test_midpoint_root_raises_under_O():
    out = python("-O", "-c", MIDPOINT_ROOT)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "CertificationError: rational root 2 hit during bisection\n"


def test_forged_certificate_raises_under_O():
    out = python("-O", "-c", FORGED_CERTIFICATE)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("CertificationError: ")


def test_forged_salem_degree_raises_under_O():
    out = python("-O", "-c", FORGED_SALEM_DEGREE)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 2 and all(line.startswith("CertificationError: ") for line in lines)


def test_forged_quartic_and_unknown_origin_raise_under_O():
    out = python("-O", "-c", FORGED_QUARTIC)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 3 and all(line.startswith("CertificationError: ") for line in lines)
    assert lines[0].endswith("has the cofactor t^2 - 1, not t^2 + jt + 1")


def test_forged_lift_raises_under_O():
    out = python("-O", "-c", FORGED_LIFT)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("CertificationError: lifted matrix has characteristic polynomial ")


@pytest.mark.parametrize(
    "argv",
    [
        ("is-salem", "1,-3,1"),
        ("construct", "quad-order", "--d", "2", "--b1", "0", "--b2", "1"),
        ("construct", "quad-order", "--d", "1", "--b1", "0", "--b2", "1"),
        ("ns", "quad-order", "--d", "1", "--b1", "1", "--b2", "1"),
        ("enumerate", "--degree", "4", "--max-coeff", "3"),
        # real root isolation, and real boxes refined for the decimals
        ("construct", "gl2z", "--r", "3", "--det", "1"),
        # circle roots from the trace polynomial, quad-order roots from q
        ("construct", "dyadic-cm", "--n", "48", "--k", "1"),
    ],
)
def test_cli_output_unchanged_under_O(argv):
    plain = python("-m", "salemtori.cli", *argv)
    optimized = python("-O", "-m", "salemtori.cli", *argv)
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout and plain.stdout == optimized.stdout
