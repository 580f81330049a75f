"""Pins on the seeded inputs the test modules share from oracles.py."""

import hashlib
import random

import pytest

from oracles import random_endpoints, random_grid


@pytest.mark.parametrize(
    "seed, n, density, digest",
    [
        (90009, 16, 0.2, "5ae35157383f03a5d36a7afa03e0517c57d785fe00568789c6ea4aaaaf4f03c3"),
        (10001, 40, 0.3, "7c8a9cb2fd772cea0b8d2ccf025166214b985a3a043883b852c3744084b74ccb"),
        (314, 8, 0.05, "6f3cc9c0930f385b2df1c9da1aca0b48fa619d2a8a32f0e5a4eb7fc78d19210f"),
        (5, 3, 1.0, "7d1b90e08d87031ae8948f613e66f9feb8cd0a8c298bfbe5896744c76938b8e5"),
    ],
)
def test_seeded_grid_and_endpoints_pinned(seed, n, density, digest):
    # The blocked cells, the endpoints (None on the fully blocked grid) and
    # the next draw: a helper that drew once more or less would move it.
    rng = random.Random(seed)
    grid = random_grid(rng, n, density)
    endpoints = random_endpoints(rng, grid)
    h = hashlib.sha256(grid.blocked.tobytes())
    h.update(repr((grid.blocked.shape, endpoints, rng.random())).encode())
    assert h.hexdigest() == digest
