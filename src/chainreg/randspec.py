"""Seed-controlled random chain presentations for the property suites."""

from __future__ import annotations

import random

from .chain import ChainSpec, normalize_spec
from .errors import InvalidArgument


def generate_random_spec(r_max: int, density: float, seed: int) -> ChainSpec:
    """Random presentation at index r_max: each pair kept with ``density``.

    Fully reproducible for a fixed seed; an empty draw is replaced by one
    uniformly chosen edge so the result always has a generator.
    """
    if r_max < 2:
        raise InvalidArgument(f"r_max must be at least 2, got {r_max}")
    if not 0 < density <= 1:
        raise InvalidArgument(f"density must be in (0, 1], got {density}")
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(1, r_max + 1) for j in range(i + 1, r_max + 1)]
    edges = [e for e in pairs if rng.random() < density]
    if not edges:
        edges = [rng.choice(pairs)]
    return normalize_spec(r_max, edges)


def spec_pool(count: int, r_values, seed: int) -> list[ChainSpec]:
    """Deterministic pool of random presentations cycling over r_values.

    Spec k has index r_values[k % len(r_values)], a density drawn uniformly
    from [0.15, 0.95] by a generator seeded with seed + 7919 k, and edges
    drawn with seed + k.
    """
    if not r_values:
        raise InvalidArgument("r_values must name at least one index")
    specs = []
    for k in range(count):
        r = r_values[k % len(r_values)]
        rng = random.Random(seed + 7919 * k)
        density = rng.uniform(0.15, 0.95)
        specs.append(generate_random_spec(r, density, seed + k))
    return specs
