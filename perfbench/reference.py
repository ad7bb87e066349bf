"""Fixed reference job that calibrates the benchmark's timings to host speed.

    python3 perfbench/reference.py

A shared host runs the benchmark's children several tens of percent
faster or slower from one minute to the next. ``run.py`` starts this job
in a fresh child between the timed operations and divides each
operation's wall time by the mean of the reference times on either side
of it. The job is a small stand-in for the kind of work collabmap does
(address text parsing, exact fractional tallies, pairwise float loops),
written with the standard library only and never importing collabmap, so
a change to collabmap cannot change it. It prints a digest of its result,
which ``run.py`` compares with ``EXPECTED``.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from fractions import Fraction

EXPECTED = "60 1768 157f48f9"


def job() -> str:
    rng = random.Random(7)
    names = [f"COUNTRY{i:03d}" for i in range(60)]
    lines = []
    for _ in range(12_000):
        k = 1 + (rng.random() < 0.3) * rng.randint(1, 3)
        members = rng.sample(names, k)
        lines.append("; ".join(f"Univ X, Dept {i}, City, {m.title()}" for i, m in enumerate(members)))

    shares: dict[str, Fraction] = {}
    pairs: dict[tuple[str, str], int] = {}
    for line in lines:
        countries = sorted({part.rsplit(",", 1)[-1].strip().upper() for part in line.split(";")})
        share = Fraction(1, len(countries))
        for country in countries:
            shares[country] = shares.get(country, 0) + share
        for i, a in enumerate(countries):
            for b in countries[i + 1:]:
                pairs[(a, b)] = pairs.get((a, b), 0) + 1

    xs = [rng.random() for _ in range(40)]
    ys = [rng.random() for _ in range(40)]
    for _ in range(350):
        for i in range(40):
            gx = gy = 0.0
            for j in range(40):
                if i != j:
                    dx, dy = xs[i] - xs[j], ys[i] - ys[j]
                    d = math.sqrt(dx * dx + dy * dy) + 1e-9
                    gx += (d - 0.5) * dx / d
                    gy += (d - 0.5) * dy / d
            xs[i] -= 0.001 * gx
            ys[i] -= 0.001 * gy

    summary = f"{sum(shares.values())} {sum(pairs.values())} {sum(xs) + sum(ys):.9f}"
    return f"{len(shares)} {len(pairs)} {hashlib.sha256(summary.encode()).hexdigest()[:8]}"


if __name__ == "__main__":
    sys.stdout.write(job() + "\n")
