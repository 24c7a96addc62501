"""Golden CLI output: discrete fields and decimals of model commands are pinned.

The expected output in golden_cli.json was generated by running
`python tests/test_golden.py --write` against the library as it stood before
complex root seeding moved from mpmath.polyroots to float Aberth seeds
refined by exact Newton steps, and is not regenerated by later changes.
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

from salemtori import cli

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
COMMANDS = README_COMMANDS + GRID_COMMANDS


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


def test_golden_file_covers_every_command():
    assert set(_expected()) == set(COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_golden_output(argv):
    code, output = stripped_output(argv)
    want_code, want_output = _expected()[argv]
    assert code == want_code
    assert json.dumps(output, sort_keys=True) == json.dumps(want_output, sort_keys=True)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    entries = []
    for argv in COMMANDS:
        code, output = stripped_output(argv)
        entries.append({"argv": list(argv), "exit": code, "output": output})
    GOLDEN.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
