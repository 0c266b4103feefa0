"""Test settings and fixtures shared by the weight-2 tests.

Hypothesis draws from a fixed seed (``derandomize``), so every run tries
the same examples and takes about the same time; ``max_examples`` stays
set per test."""

import pytest
from hypothesis import settings

from weyl_ising.linalg import dot
from weyl_ising.rootsys import build_root_system

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def e6_half_roots():
    """The first half-integer positive root alpha of E6, then the next
    half-integer positive roots orthogonal to alpha (a 2B pair) and at
    product 1 with it (a 3C pair).  Their M_alpha lattices have
    coordinates in (1/4)Z."""
    R = build_root_system("E", 6)
    half = [a for a in R.positive_roots if a[0].denominator == 2]
    alpha = half[0]
    two_b = next(b for b in half if dot(alpha, b) == 0)
    three_c = next(b for b in half if dot(alpha, b) == 1)
    return R, alpha, two_b, three_c
