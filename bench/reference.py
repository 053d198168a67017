"""A fixed reference computation that measures how fast the host runs now.

The host is shared: its speed drifts by a third or more over seconds to
minutes.  The benchmark times `work()` between its timed units, and every
SAMPLE_S seconds inside a ladder case, and scales each stretch of a unit by
the reference's nominal time over the timings at its two ends, so that a run
in a fast or slow phase of the host reports what it would have taken at the
nominal speed (see `HostSpeed` in run.py).

`work()` is sparse polynomial arithmetic over the rationals on dicts keyed by
exponent tuples, as `logforms` does, but it is the benchmark's own code: a
change to `logforms` does not change it, so the factor reflects the host and
not the program.  Its answer is checked, so a broken interpreter cannot make
it fast.
"""

from __future__ import annotations

import random
from fractions import Fraction

# The nominal time of `work()`: about its median on the 2-vCPU Intel Xeon
# virtual machine the benchmark was written on (Python 3.11), so that scaled
# times read close to measured ones there.  Only ratios to it matter; it is
# fixed so that runs on every commit share one scale.
NOMINAL_S = 0.014

ANSWER = 308


def _poly(rng: random.Random, terms: int, deg: int) -> dict:
    p: dict = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, deg) for _ in range(3))
        p[e] = p.get(e, 0) + Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return {e: c for e, c in p.items() if c}


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _reduce(f: dict, g: dict) -> dict:
    """Reduce f by g (at most 60 steps) while a term of f is divisible by
    the lexicographically largest term of g."""
    lt = max(g)
    lc = g[lt]
    f = dict(f)
    for _ in range(60):
        hit = next((e for e in sorted(f, reverse=True)
                    if all(x >= y for x, y in zip(e, lt))), None)
        if hit is None:
            break
        q = f[hit] / lc
        s = tuple(x - y for x, y in zip(hit, lt))
        for e, c in g.items():
            k = (e[0] + s[0], e[1] + s[1], e[2] + s[2])
            v = f.get(k, 0) - q * c
            if v:
                f[k] = v
            else:
                f.pop(k, None)
    return f


def work() -> None:
    rng = random.Random(7)
    a, b, g = _poly(rng, 9, 4), _poly(rng, 9, 4), _poly(rng, 5, 2)
    n = len(_reduce(_mul(_mul(a, b), a), g))
    if n != ANSWER:
        raise RuntimeError(f"reference computation gave {n} terms, expected {ANSWER}")
