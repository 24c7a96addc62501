"""Seeded inputs for the four workloads.

Pure Python: nothing here imports salemtori, so generating inputs never runs
the library on them.  Polynomials are tuples of integer coefficients, highest
degree first, as on the salemtori command line.  The same seed always gives
the same inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from exact import mul

WORKLOADS = ("certify", "atlas", "models", "cli")

# certify: how many inputs of each kind one round holds
N_RECIPROCAL8 = 720
N_CUBIC_QUINTIC = 480
N_QUARTIC_PAIRS = 480
N_BIG_QUARTICS = 1
BIG = 10**12

# atlas: (degree, coefficient bound) of each enumerate sweep
SWEEPS = ((6, 6), (4, 6))

# models: the quadrant b1, b2 >= 0 of the acceptance grid
# quad_order_model(a_form_matrix(D, b1, b2)), 1 <= D <= 5, |b1|, |b2| <= 3;
# a quarter of the grid keeps a round near 2 s, so a run holds several
GRID = tuple((d, b1, b2) for d in range(1, 6) for b1 in range(0, 4) for b2 in range(0, 4))

# precision asked of the library, and the width its answers may have
ENTROPY_EPS = Fraction(1, 10**9)
LAMBDA_EPS = Fraction(1, 10**12)

# cli: commands that fail today on a fault of the program, not of the input.
# They are kept in every round and counted as failed.  The two malformed
# commands end in a traceback instead of a one-line parse error (exit 1).
MALFORMED = (
    ("construct", "quad-order", "--d", "1", "--entries", "1,x,0,0,0,0,0,0"),
    ("construct", "quartic", "--poly", "1,-2,4,-2,1", "--pairing", "a,b"),
)
# invert_wedge misses two of the four preimages of this sextic, the exterior
# square of t^4 + 2t^3 + t^2 - 3t + 1 (see CHANGES.md)
INCOMPLETE_INVERSION = ("invert-wedge", "1,-1,-7,-11,-7,-1,1")
KNOWN_FAULTS = MALFORMED + (INCOMPLETE_INVERSION,)

# quad-order parameters (D, b1, b2) whose models have positive entropy
QUAD_POOL = ((2, 0, 1), (1, 1, 1), (1, 2, 1), (3, 1, 1), (2, 1, 2), (1, 0, 2))
# quartic without real roots; pairings take one root of each conjugate pair
QUARTIC = "1,-2,4,-2,1"
QUARTIC_PAIRINGS = ("0,2", "0,3", "1,2", "1,3")
README_SALEM = ("1,-3,1", "1,-1,-1,-1,1", "1,0,-1,-1,-1,0,1")
README_SEXTIC = "1,0,-1,-1,-1,0,1"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _has_factor_mod(coeffs, p, deg):
    """Does the polynomial have a monic factor of degree deg modulo p?"""
    n = len(coeffs) - 1
    for code in range(p**deg):
        g = [1]
        for _ in range(deg):
            g.append(code % p)
            code //= p
        r = [c % p for c in coeffs]
        for i in range(n - deg + 1):
            f = r[i]
            if f:
                for j in range(deg + 1):
                    r[i + j] = (r[i + j] - f * g[j]) % p
        if not any(r[n - deg + 1 :]):
            return True
    return False


def _irreducible_mod_some_prime(coeffs):
    """Sufficient test for irreducibility over Z of a monic quintic."""
    return any(
        not _has_factor_mod(coeffs, p, 1) and not _has_factor_mod(coeffs, p, 2) for p in (2, 3, 5, 7)
    )


def _monic(rng, deg, bound):
    return (1,) + tuple(rng.randint(-bound, bound) for _ in range(deg))


def _cubic_times_quintic(rng):
    # an irreducible cubic and a quintic with no factor of degree 1 or 2, so
    # the least factor of the product has degree 3
    while True:
        c = _monic(rng, 3, 6)
        if c[-1] and not any(
            sum(a * r ** (3 - i) for i, a in enumerate(c)) == 0
            for d in range(1, abs(c[-1]) + 1)
            if c[-1] % d == 0
            for r in (d, -d)
        ):
            break
    while True:
        q = _monic(rng, 5, 6)
        if q[-1] and _irreducible_mod_some_prime(q):
            break
    return mul(c, q)


def certify_inputs(seed: int):
    rng = _rng("certify", seed)
    grid = [(a, b, c, d) for a in range(-3, 4) for b in range(-3, 4) for c in range(-3, 4) for d in range(-3, 4)]
    out = [(1, a, b, c, d, c, b, a, 1) for a, b, c, d in rng.sample(grid, N_RECIPROCAL8)]
    out += [_cubic_times_quintic(rng) for _ in range(N_CUBIC_QUINTIC)]
    for _ in range(N_QUARTIC_PAIRS):
        a1, b1, a2, b2 = (rng.randint(-6, 6) for _ in range(4))
        out.append(mul((1, a1, b1, a1, 1), (1, a2, b2, a2, 1)))
    for _ in range(N_BIG_QUARTICS):
        # |p(1)| and |p(-1)| stay within 2A +- A/10, so the divisor search
        # costs about the same for every seed
        a = rng.randrange(BIG, BIG + BIG // 20)
        b = rng.randrange(-a // 10, a // 10)
        out.append((1, -a, b, -a, 1))
    rng.shuffle(out)
    return out


def atlas_inputs(seed: int):
    # the same for every seed: the sweeps are the paper's, and the first
    # call of enumerate in a process carries one-time costs, so a seeded
    # order would move time between the two operations from seed to seed
    return list(SWEEPS)


def models_inputs(seed: int):
    grid = list(GRID)
    _rng("models", seed).shuffle(grid)
    return grid


def wedge_quartic(seed: int):
    """Seeded monic quartic with constant term 1, for the wedge command."""
    rng = _rng("cli-wedge", seed)
    return (1,) + tuple(rng.randint(-3, 3) for _ in range(3)) + (1,)


def cli_inputs(seed: int):
    """Command lines for the cli workload, each with the exit code it must give."""
    rng = _rng("cli", seed)
    cmds = []
    for poly in README_SALEM:
        cmds.append((("is-salem", poly), 0))
        cmds.append((("classify", poly), 0))
    cmds.append((("is-salem", "1,1,1"), 2))
    cmds.append((("is-salem", "1,x,1"), 1))
    cmds.append((("wedge", ",".join(map(str, wedge_quartic(seed)))), 0))
    cmds.append((("invert-wedge", README_SEXTIC), 0))
    r = rng.choice((-1, 1)) * rng.randint(3, 7)
    d, b1, b2 = rng.choice(QUAD_POOL)
    n = rng.randint(1, 2)
    families = (
        ("gl2z", "--r", str(r), "--det", str(rng.choice((-1, 1)))),
        ("quad-order", "--d", str(d), "--b1", str(b1), "--b2", str(b2)),
        ("quartic", "--poly", QUARTIC, "--pairing", rng.choice(QUARTIC_PAIRINGS)),
        ("dyadic-cm", "--n", str(n), "--k", str(rng.randint(0, n))),
    )
    for fam in families:
        for verb in ("construct", "reorient", "ns"):
            cmds.append(((verb,) + fam, 0))
    for workers in ("1", "2"):
        cmds.append((("enumerate", "--degree", "4", "--max-coeff", "6", "--workers", workers), 0))
    cmds.append((INCOMPLETE_INVERSION, 0))
    for argv in MALFORMED:
        cmds.append((argv, 1))
    return cmds
