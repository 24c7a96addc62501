"""One command corpus for comparing CLI output across revisions.

ORDINARY holds the commands whose output must not change when the code
behind them is rewritten: the golden commands, every model command on small
parameter grids, on the dyadic family up to n = 24 and on unit-determinant
matrices given by their entries, the polynomial commands on the README and
test polynomials, and small atlas sweeps.  tests/compare_corpus.py runs it on two
revisions and reports each difference.

HOSTILE holds oversized inputs that must end at once with exit 1 and one
line on stderr, under cli.MAX_BITS; test_cli.py runs them.

HEAVY holds valid inputs under cli.MAX_BITS that must also end within a
second; test_cli.py stops each at 1 s.  Those that do not end in time yet
are strict xfails with their reason.

MALFORMED holds malformed commands: empty or stray coefficients, pairings
and entry lists of the wrong length, parameters out of range, and --out
paths that cannot be written.  Each
must end at once with exit 0, 1 or 2 and one stderr line or one JSON
object; test_cli.py runs them too.
"""

import pytest

from test_golden import BARE_NEGATIVE_COMMANDS, GOLDEN_COMMANDS

# the golden quartics and the fifth cyclotomic polynomial, whose four circle
# roots come in two mirrored pairs; pairings i, j range over every pair of
# indices
QUARTICS = ("1,-2,4,-2,1", "1,2,3,2,1", "1,0,0,1,1", "1,1,1,1,1")
# the README and test polynomials, highest degree first: Salem polynomials
# of degree 2 to 8, a 10**12 quartic, non-Salem, reducible, non-monic and
# non-reciprocal ones, and sextics with and without quartic preimages
POLYS = (
    "1,-3,1",
    "1,-4,1",
    "1,-23,1",
    "1,-1,-1,-1,1",
    "1,-2,-2,-2,1",
    "1,0,-1,-1,-1,0,1",
    "1,-1,-7,-11,-7,-1,1",
    "1,0,0,-1,-1,-1,0,0,1",
    "1,-1000000000000,12345,-1000000000000,1",
    "1,0,0,1,1",
    "1,2,1,-3,1",
    "1,123456789012345,-3,987654321098765,1",
    "1,-2,4,-2,1",
    "1,2,3,2,1",
    "1,1,1,1,1",
    "1,0,3,0,1",
    "1,-2,1",
    "1,2,1",
    "1,-3,2",
    "1,0,1",
    "2,-3,1",
    "-1,3,-1",
    "1,-3,0,0,1",
    "1,-3,1,-1,-3,1",
)


def _unit_entries():
    """--entries strings of unit-determinant matrices over Z[sqrt(-d)]:
    [[1 + s t, s], [t, 1]] diag(u, 1) for a few small s and t, with
    determinant u = +-1, and also +-i when d = 1.  Elements are (a, b)
    pairs a + b sqrt(-d)."""
    for d in range(1, 4):
        units = ((1, 0), (-1, 0), (0, 1), (0, -1)) if d == 1 else ((1, 0), (-1, 0))
        for u in units:
            for s in ((1, 0), (0, 1), (1, 1), (2, -1)):
                for t in ((1, 0), (0, -1), (2, 1)):
                    st = (s[0] * t[0] - s[1] * t[1] * d, s[0] * t[1] + s[1] * t[0])
                    a = (1 + st[0], st[1])
                    rows = ((a[0] * u[0] - a[1] * u[1] * d, a[0] * u[1] + a[1] * u[0]), s)
                    rows += ((t[0] * u[0] - t[1] * u[1] * d, t[0] * u[1] + t[1] * u[0]), (1, 0))
                    yield d, ",".join(str(x) for pair in rows for x in pair)


def _model_commands():
    for cmd in ("construct", "reorient", "ns"):
        for d in range(1, 8):
            for b1 in range(-3, 4):
                for b2 in range(-3, 4):
                    yield (cmd, "quad-order", "--d", str(d), "--b1", str(b1), "--b2", str(b2))
        for r in range(-6, 7):
            for det in ("1", "-1"):
                yield (cmd, "gl2z", "--r", str(r), "--det", det)
        for p in QUARTICS:
            for i in range(4):
                for j in range(4):
                    yield (cmd, "quartic", "--poly", p, f"--pairing={i},{j}")
        for n in range(1, 4):
            for k in range(n + 1):
                yield (cmd, "dyadic-cm", "--n", str(n), "--k", str(k))
        for n in range(4, 25):
            for k in sorted({0, 1, n}):
                yield (cmd, "dyadic-cm", "--n", str(n), "--k", str(k))
        for d, entries in _unit_entries():
            yield (cmd, "quad-order", "--d", str(d), "--entries", entries)


def _poly_commands():
    for cmd in ("is-salem", "classify", "wedge", "invert-wedge"):
        for p in POLYS:
            # a leading "-" is read as a value only after "--"
            yield (cmd, "--", p) if p.startswith("-") else (cmd, p)


# bound 12 at degree 2 gives lambda up to 11.9, two digits before the point
ENUMERATE_COMMANDS = tuple(
    ("enumerate", "--degree", str(degree), "--max-coeff", str(bound), "--format", fmt)
    for degree, bound in ((2, 4), (4, 4), (6, 4), (2, 12))
    for fmt in ("csv", "json")
)

ORDINARY = tuple(
    dict.fromkeys(
        (*GOLDEN_COMMANDS, *BARE_NEGATIVE_COMMANDS, *_model_commands(), *_poly_commands(), *ENUMERATE_COMMANDS)
    )
)

# coefficients and parameters past the cap, each of which ended in a
# ValueError traceback while printing before the cap existed
HOSTILE = (
    ("is-salem", f"1,-{'9' * 3000},1"),
    ("wedge", f"1,{'9' * 3000},3,{'9' * 3000},1"),
    ("construct", "gl2z", "--r", "7" * 1500, "--det", "1"),
    ("construct", "dyadic-cm", "--n", "8000", "--k", "1"),
    ("enumerate", "--degree", "6", "--max-coeff", "9" * 4000),
)


def _heavy(argv, ident, reason=None):
    if reason is None:
        return pytest.param(argv, id=ident)
    return pytest.param(argv, marks=pytest.mark.xfail(strict=True, reason=reason), id=ident)


# with A > 0, p(1) > 0 puts p off the Salem layout, so is_salem factors p.
# factor_bounded splits a quartic with p(0) = 1 in closed form, but lists the
# divisors of the octic's p(1), p(-1) and p(2): by trial division up to their
# cube roots, then Lehman's method.  At A = 10**30 these values have prime
# factors of 61 to 108 bits.
_TRIAL_DIVISION = "factor_bounded's divisor lists take about cbrt(p(1)), 10**9 to 10**10 trial divisions"
_A = 10**30
# C, the largest coefficient under cli.MAX_BITS = 4000
_C = (1 << 4000) - 1
HEAVY = (
    _heavy(("is-salem", f"1,{10**15},12345,{10**15},1"), "is-salem 1,10^15,12345,10^15,1"),
    _heavy(("classify", f"1,{10**15},3,{10**15},1"), "classify 1,10^15,3,10^15,1"),
    _heavy(
        ("is-salem", f"1,{10**13},3,{10**13},7,{10**13},3,{10**13},1"),
        "is-salem 1,10^13,3,10^13,7,10^13,3,10^13,1",
    ),
    _heavy(("is-salem", f"1,{_A},12345,{_A},1"), "is-salem 1,A,12345,A,1"),
    _heavy(("is-salem", f"1,{_A},3,{_A},7,{_A},3,{_A},1"), "is-salem 1,A,3,A,7,A,3,A,1", _TRIAL_DIVISION),
    _heavy(("classify", f"1,{_A},3,{_A},1"), "classify 1,A,3,A,1"),
    _heavy(("is-salem", f"1,{_C},12345,{_C},1"), "is-salem 1,C,12345,C,1"),
    _heavy(("classify", f"1,{_C},3,{_C},1"), "classify 1,C,3,C,1"),
    _heavy(
        ("construct", "quartic", "--poly", f"1,{-(1 << 2000)},{(1 << 3998) + 1},0,1"),
        "construct quartic --poly 1,-2^2000,2^3998+1,0,1",
        "_aberth closes in on the pair of roots near 2**1999 +- i by about a factor 3 per sweep",
    ),
)

_NO_DIRECTORY = "no-such-directory/out.json"
_PAIRING = ("construct", "quartic", "--poly", "1,-2,4,-2,1", "--pairing")
MALFORMED = (
    ("is-salem", "1,,1"),
    ("is-salem", ","),
    ("is-salem", "1,2,"),
    ("is-salem", "-"),
    ("is-salem", "--"),
    ("classify", "1,-3,1,"),
    (*_PAIRING, "0"),
    (*_PAIRING, "0,1,2"),
    (*_PAIRING, "-1,5"),
    ("construct", "quad-order", "--d", "1", "--entries", "1,0,0,0,0,0,1"),
    ("construct", "quad-order", "--d", "1", "--entries", "1,0,0,0,0,0,1,0,0"),
    ("construct", "quad-order", "--d", "0", "--b1", "1", "--b2", "1"),
    ("construct", "quad-order", "--d", "-3", "--b1", "1", "--b2", "1"),
    ("construct", "dyadic-cm", "--n", "3", "--k", "5"),
    ("enumerate", "--degree", "3"),
    ("enumerate", "--degree", "-2"),
    # an --out path that cannot be written: a directory, or a file in a
    # directory that does not exist
    ("is-salem", "1,-3,1", "--out", _NO_DIRECTORY),
    ("is-salem", "1,1,1", "--out", "."),
    ("construct", "gl2z", "--r", "3", "--det", "1", "--out", _NO_DIRECTORY),
    ("enumerate", "--degree", "2", "--max-coeff", "3", "--out", "."),
)
