"""The host's speed at a moment, read from a fixed block of pure-Python work.

The benchmark's host shares its CPUs with other machines' work, and for
spells of seconds to minutes everything on it runs up to half again as slow.
Every time the benchmark reports is therefore scaled by how long this block
took next to it: a time t measured beside blocks that took b seconds on
average is reported as t * REF_S / b, the time it would have taken on a host
where the block takes REF_S.  The block is integer and Fraction arithmetic,
like salemtori's own, and never touches salemtori, so no change to the
library can change it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# the block's time on the reference host (2 vCPUs, Python 3.11.7) in a quiet
# spell; the reported times read as seconds on that host
REF_S = 0.0011


def block() -> float:
    """Run the fixed block once; return its duration in seconds."""
    t0 = time.perf_counter()
    p = (1, -3, 5, -7, 11, -13, 1)
    acc, x = 0, Fraction(0)
    for k in range(120):
        q = [0] * 13
        for i, a in enumerate(p):
            for j, b in enumerate(p):
                q[i + j] += a * b * (k + 1)
        acc += sum(q) % 97
        x += Fraction(k + 1, 2 * k + 3)
    return time.perf_counter() - t0


def scale(seconds: float, blocks) -> float:
    """seconds, measured beside the given block times, in reference seconds."""
    blocks = list(blocks)
    return seconds * REF_S * len(blocks) / sum(blocks)
