"""Seeded input generators for the benchmark.

Everything here is plain Python on nested integer lists, so the generators
import nothing from funcobs: the library only ever sees the finished
plants, as ``SystemSextuple`` objects built from these lists.
"""

from __future__ import annotations

import random

# Every (n, m, p, q) of the acceptance batch's shape (n <= 4, m <= 3,
# n + m <= 6, p, q <= 2) that measures and targets something (p, q >= 1).
# small_batch draws one plant per shape, so a seed changes the entries but
# never the mix of sizes, which keeps the work per pass nearly independent
# of the seed.
SMALL_SHAPES = [(n, m, p, q)
                for n in range(5)
                for m in range(min(3, 6 - n) + 1)
                for p in (1, 2)
                for q in (1, 2)]

# (n, plants at that n) for the ladder; m = p = q = 2 throughout.
LADDER_SIZES = [(4, 3), (5, 3), (6, 3)]
# Larger ladder plants, drawn from a constant seed: one random plant at n = 8
# costs from 2.4 to 4.2 s depending on its entries, so a seeded one would
# let the seed move the work per pass by a third.
LADDER_FIXED = [8]


def _block(rng: random.Random, rows: int, cols: int):
    return [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]


def plant_lists(rng: random.Random, n: int, m: int, p: int, q: int) -> dict:
    """Integer blocks A..F with entries in -2..2, keyed as in a system file."""
    return {"A": _block(rng, n, n), "B": _block(rng, n, m),
            "C": _block(rng, p, n), "D": _block(rng, p, m),
            "E": _block(rng, q, n), "F": _block(rng, q, m), "m": m}


def small_batch_plants(seed: int) -> list[tuple[str, dict]]:
    rng = random.Random(f"small_batch/{seed}")
    return [(f"n{n}m{m}p{p}q{q}", plant_lists(rng, n, m, p, q))
            for n, m, p, q in SMALL_SHAPES]


def ladder_plants(seed: int) -> list[tuple[str, dict]]:
    rng = random.Random(f"ladder/{seed}")
    out = []
    for n, count in LADDER_SIZES:
        for k in range(count):
            out.append((f"n{n}.{k}", plant_lists(rng, n, 2, 2, 2)))
    for n in LADDER_FIXED:
        out.append((f"n{n}.fixed", plant_lists(random.Random(f"ladder/fixed/n{n}"), n, 2, 2, 2)))
    return out


def oscillator_plants(seed: int) -> list[tuple[str, dict]]:
    """Damped oscillators -a +- w i with the full state measured.

    The canonical witness is the static gain N = E, so the estimation error
    is identically zero.  The lightly damped modes are the case where
    ``suggested_horizon`` misreads the spectral abscissa and falls back.
    """
    rng = random.Random(f"oscillator/{seed}")
    out = []
    for k in range(2):
        a, w = rng.randint(1, 2), rng.randint(5, 12)
        out.append((f"osc{k}", {
            "A": [[-a, w], [-w, -a]], "B": [[rng.randint(1, 2)], [rng.randint(-2, 2)]],
            "C": [[1, 0], [0, 1]], "D": [[0], [0]],
            "E": [[rng.randint(1, 2), rng.randint(-2, 2)]], "F": [[0]], "m": 1}))
    return out
