"""
Twisted axis systems and their 3^k : S_n groups
===============================================

Beyond the root-indexed algebras, the package builds the 3-twisted axis
systems: axes labeled (i, j, l) with 0 <= i < j < n and a twist
l in {0, 1, 2}, subject to the identification (i, j, l) = (j, i, -l).
Their Miyamoto involutions generate groups of shape 3^k : S_n, where
k depends on whether 3 divides n.  An abstract model (permutation plus
twist vector) reproduces the same orders independently.
"""

import math
from fractions import Fraction

from weyl_ising import (
    abstract_twisted_group,
    find_delta,
    kernel_mod3,
    shell,
    twisted_axes,
    twisted_axis_algebra,
    twisted_group,
    virasoro,
)

# Axis counts: three choices of twist for each unordered pair.
for n in (3, 4, 5):
    axes = twisted_axes(n)
    assert len(axes) == 3 * math.comb(n, 2)
print("axis counts match 3 * C(n,2) for n = 3, 4, 5")

# The involution groups and their pair-action quotients.
for n in (3, 4, 5, 6):
    rep = twisted_group(twisted_axis_algebra(n))
    k = n - 2 if n % 3 == 0 else n - 1
    assert rep.group.order == (3 ** k) * math.factorial(n)
    assert rep.pair_action_order == math.factorial(n)
    assert rep.kernel_order == 3 ** k
    print(f"n={n}: |G| = {rep.group.order}, shape {rep.shape}")

    # Abstract model: pairs (sigma, twist vector mod 3) with the same
    # generators.  Orders agree without any permutation machinery.
    assert abstract_twisted_group(n).order == rep.group.order

# Central charge of the twisted algebra: 8n(n-1)/(n+9).
for n in (2, 3, 4, 7):
    A = twisted_axis_algebra(n)
    c = virasoro(A).central_charge
    assert c == Fraction(8 * n * (n - 1), n + 9)
    print(f"n={n}: central charge {c}")

# The twist comes from a vector delta in E8 whose mod-3 pairing kernel
# is a rescaled A8 lattice: index 3 in E8, determinant 9, 72 roots.
delta, K = find_delta()
norm = sum(x * x for x in delta)
print(f"delta = ({', '.join(str(x) for x in delta)}) (norm {norm})")
assert K.det() == 9
assert kernel_mod3(delta).det() == 9
roots = shell(K, 2)
assert len(roots) == 72
print(f"kernel of <., delta> mod 3: det {K.det()}, {len(roots)} norm-2 vectors (A8 shape)")
