"""Golden CLI output: discrete fields and decimals of model commands are pinned.

The expected output in golden_cli.json was generated by running
`python tests/test_golden.py --write` against the library as it stood before
complex root seeding moved from mpmath.polyroots to float Aberth seeds
refined by exact Newton steps, and is not regenerated by later changes:
`--write` keeps every stored entry as it is and adds entries only for
commands that have none, so a command is added, and its entry written,
before the change it guards.  The SEPARATION_COMMANDS and REJECTED_COMMANDS
entries were written before the pairing and projectivity decisions moved to
one refinement routine.  The NEGATIVE_COMMANDS entries were written before
the parser read a bare argument that starts with "-" as a value, the
SALEM_COMMANDS entries before is_salem certified the Salem layout by
Kronecker's rule instead of by factoring, and the WEDGE_COMMANDS entries
before the exterior square was computed in closed form, the
DET_I_COMMANDS entries before projectivity of E x E models was read off the
degree of the Salem factor, and the ALGEBRA_COMMANDS entries before quartic
and gl2z models were decided by the same kind of rule and gl2z roots came
in closed form.  The ROOT_COMMANDS
entries were written while float-seeded isolation refused four of them with
exit 2; those four were rewritten, as the one recorded move, when circle
roots came from the trace polynomial and quad-order models read their roots
off q.  The FLOAT_RANGE_COMMANDS entries were written while float seeding
refused all three with exit 2; they were rewritten, as the one recorded
move, when one integer Aberth iteration replaced the float seeds.
Certified box endpoints (`lo`, `hi`) are stripped before the comparison:
they may move when the isolation changes, while every other field, every
`decimal` string and the exit code must stay byte-identical.  Decimals became
correctly rounded later; that corrected the three real-box decimals of
`construct gl2z --r 1 --det -1` (gamma1, gamma2 and h20_product `re`), which
had been the midpoints of 2**-28-wide root brackets.  test_decimals.py checks
every decimal here against mpmath.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from salemtori import cli, poly

GOLDEN = Path(__file__).with_name("golden_cli.json")

README_COMMANDS = (
    ("construct", "quad-order", "--d", "2", "--b1", "0", "--b2", "1"),
    ("construct", "gl2z", "--r", "1", "--det", "-1"),
    ("construct", "quartic", "--poly", "1,-2,4,-2,1", "--pairing", "0,3"),
    ("construct", "dyadic-cm", "--n", "1", "--k", "0"),
    ("reorient", "quad-order", "--d", "1", "--b1", "1", "--b2", "1"),
    ("ns", "quad-order", "--d", "1", "--b1", "1", "--b2", "1"),
)
# b1 = 0 gives purely imaginary eigenvalues, where the order of the root
# boxes, and so the pairing, depends on how the upper boxes are sorted
GRID_COMMANDS = tuple(
    (cmd, "quad-order", "--d", str(d), "--b1", "0", "--b2", str(b2))
    for cmd in ("construct", "reorient")
    for d in range(1, 6)
    for b2 in (-3, -2, -1, 1, 2, 3)
)
# the paths that decide which root is which: a rational trace and
# determinant (b2 = 0, with one root box at b1 = +-2), the case-3b split of
# ns on a reoriented model, quartic pairings, a doubled quadratic, a
# degree-6 Salem factor and real spectra
SEPARATION_COMMANDS = (
    tuple(
        (cmd, "quad-order", "--d", str(d), "--b1", str(b1), "--b2", "0")
        for cmd in ("construct", "ns")
        for d in range(1, 4)
        for b1 in (-3, -2, 0, 2, 3)
    )
    + tuple(
        ("ns", "quad-order", "--d", str(d), "--b1", str(b1), "--b2", str(b2), "--reoriented")
        for d, b1, b2 in ((2, 0, 1), (2, -3, 1), (3, 0, -1))
    )
    + tuple(
        ("construct", "quartic", "--poly", "1,-2,4,-2,1", "--pairing", pairing) for pairing in ("0,2", "1,3")
    )
    + (
        ("construct", "quartic", "--poly", "1,2,3,2,1"),
        ("construct", "quartic", "--poly", "1,0,0,1,1"),
        ("construct", "gl2z", "--r", "3", "--det", "1"),
        ("construct", "gl2z", "--r", "-4", "--det", "-1"),
        ("reorient", "gl2z", "--r", "5", "--det", "1"),
    )
)
# models of the paper's families whose root isolation failed when their
# entries were written: dyadic Salem factors with a circle pair near -1 at
# n = 38, 48 and 200, and a quad-order model with D = 10**21
ROOT_COMMANDS = (
    ("construct", "dyadic-cm", "--n", "38", "--k", "1"),
    ("construct", "dyadic-cm", "--n", "48", "--k", "1"),
    ("construct", "dyadic-cm", "--n", "200", "--k", "1"),
    ("ns", "dyadic-cm", "--n", "48", "--k", "1"),
    ("construct", "quad-order", "--d", str(10**21), "--b1", "1", "--b2", "1"),
)
# models over Z[i] with determinant i, whose product g1*g2 is i, not 1: a
# Salem factor of degree 4 in both orientations, and one of degree 2 that
# stays projective after reorient
DET_I_COMMANDS = (
    ("construct", "quad-order", "--d", "1", "--entries", "1,0,1,1,0,1,-1,2"),
    ("reorient", "quad-order", "--d", "1", "--entries", "1,0,1,1,0,1,-1,2"),
    ("reorient", "quad-order", "--d", "1", "--entries", "0,0,0,-1,1,0,2,1"),
)
# one command per branch of the algebraic rules for quartic and gl2z models:
# a quartic Salem factor of degree 6, 4 (projective, then not after
# reorient) and 2, the case-3b split of ns with both halves paired, and a
# gl2z trace past 2**64
ALGEBRA_COMMANDS = (
    ("construct", "quartic", "--poly", "1,-3,1,2,1"),
    ("construct", "quartic", "--poly", "1,-3,1,3,1"),
    ("reorient", "quartic", "--poly", "1,-3,1,3,1"),
    ("construct", "quartic", "--poly", "1,-3,2,3,1"),
    ("ns", "quartic", "--poly", "1,-3,2,3,1"),
    ("ns", "quartic", "--poly", "1,-3,2,3,1", "--pairing", "0,3"),
    ("construct", "gl2z", "--r", str(2**64 + 1), "--det", "-1"),
)
# every command here prints a model; test_decimals.py checks its decimals.
# The grid repeats the first README command; each command is listed once.
COMMANDS = tuple(
    dict.fromkeys(
        README_COMMANDS + GRID_COMMANDS + SEPARATION_COMMANDS + ROOT_COMMANDS + DET_I_COMMANDS + ALGEBRA_COMMANDS
    )
)
# pairings that from_quartic refuses, with exit code 2
REJECTED_COMMANDS = tuple(
    ("construct", "quartic", "--poly", "1,-2,4,-2,1", "--pairing", pairing) for pairing in ("0,1", "0,5")
)
# arguments that start with "-", stored in the forms that argparse reads as
# values whatever the parser does with a bare one: after "--", and as
# "--pairing=i,j"; test_negative_arguments runs the bare forms against them
NEGATIVE_COMMANDS = (
    ("is-salem", "--", "-1,3,-1"),
    ("construct", "quartic", "--poly", "1,-2,4,-2,1", "--pairing=-1,0"),
)
BARE_NEGATIVE_COMMANDS = (
    ("is-salem", "-1,3,-1"),
    ("construct", "quartic", "--poly", "1,-2,4,-2,1", "--pairing", "-1,0"),
)
# Salem polynomials of degree 2, 4, 6 and 8, and a quartic whose
# coefficients near 10**12 would cost trial division about 10**6 steps
SALEM_COMMANDS = tuple(
    ("is-salem", poly)
    for poly in (
        "1,-3,1",
        "1,-1,-1,-1,1",
        "1,0,-1,-1,-1,0,1",
        "1,0,0,-1,-1,-1,0,0,1",
        "1,-1000000000000,12345,-1000000000000,1",
    )
)
# the exterior-square layer: wedge of three quartics, one with 15-digit
# coefficients, invert-wedge of two sextics and classify of three Salem
# polynomials, whose witnesses go through the exterior square; they print no
# model, so COMMANDS leaves them out
WEDGE_COMMANDS = (
    ("wedge", "1,0,0,1,1"),
    ("wedge", "1,2,1,-3,1"),
    ("wedge", "1,123456789012345,-3,987654321098765,1"),
    ("invert-wedge", "1,0,-1,-1,-1,0,1"),
    ("invert-wedge", "1,-1,-7,-11,-7,-1,1"),
    ("classify", "1,-3,1"),
    ("classify", "1,-1,-1,-1,1"),
    ("classify", "1,0,-1,-1,-1,0,1"),
)
# quartic models whose roots off the unit circle lie near 10**150 and
# 10**200 and near their inverses, which float seeding could not reach;
# mpmath.polyroots does not settle on them, so test_decimals.py checks their
# decimals against roots in closed form, and test_salem.py their root boxes
FLOAT_RANGE_COMMANDS = (
    ("construct", "quartic", "--poly", f"1,0,{10**300},0,1"),
    ("reorient", "quartic", "--poly", f"1,0,{10**300},0,1"),
    ("construct", "quartic", "--poly", f"1,0,{10**400},0,1"),
)
GOLDEN_COMMANDS = (
    COMMANDS + REJECTED_COMMANDS + NEGATIVE_COMMANDS + SALEM_COMMANDS + WEDGE_COMMANDS + FLOAT_RANGE_COMMANDS
)


def _strip_endpoints(value):
    if isinstance(value, dict):
        return {k: _strip_endpoints(v) for k, v in value.items() if k not in ("lo", "hi")}
    if isinstance(value, list):
        return [_strip_endpoints(v) for v in value]
    return value


def stripped_output(argv):
    """(exit code, parsed stdout without lo/hi) of one in-process CLI run."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, _strip_endpoints(json.loads(buf.getvalue()))


def _expected():
    entries = json.loads(GOLDEN.read_text())
    return {tuple(entry["argv"]): (entry["exit"], entry["output"]) for entry in entries}


def _refuse_divisors(n):
    raise AssertionError(f"trial division of {n}")


def test_golden_file_covers_every_command():
    # one entry per command: a stored copy would pass the set comparison
    assert set(_expected()) == set(GOLDEN_COMMANDS)
    assert len(json.loads(GOLDEN.read_text())) == len(GOLDEN_COMMANDS)


@pytest.mark.parametrize("argv", GOLDEN_COMMANDS, ids=" ".join)
def test_golden_output(argv, monkeypatch):
    # no golden command reaches trial division: the model commands never
    # factor, one is-salem input is not monic, and the others are Salem,
    # which Kronecker's rule certifies without factoring
    monkeypatch.setattr(poly, "divisors", _refuse_divisors)
    code, output = stripped_output(argv)
    want_code, want_output = _expected()[argv]
    assert code == want_code
    assert json.dumps(output, sort_keys=True) == json.dumps(want_output, sort_keys=True)


@pytest.mark.parametrize("bare, stored", zip(BARE_NEGATIVE_COMMANDS, NEGATIVE_COMMANDS), ids=" ".join)
def test_negative_arguments(bare, stored):
    code, output = stripped_output(bare)
    want_code, want_output = _expected()[stored]
    assert code == want_code
    assert json.dumps(output, sort_keys=True) == json.dumps(want_output, sort_keys=True)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    # stored entries stay as they are; only commands without one are run
    entries = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []
    stored = {tuple(entry["argv"]) for entry in entries}
    for argv in GOLDEN_COMMANDS:
        if argv not in stored:
            code, output = stripped_output(argv)
            entries.append({"argv": list(argv), "exit": code, "output": output})
    GOLDEN.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
