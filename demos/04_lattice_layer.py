"""
The lattice layer under the Ising vectors
=========================================

The Ising vector e(alpha) is supported on the lattice
M_alpha = Z alpha (x) E8, a copy of sqrt(2) E8 sitting inside the
ambient realization of the root system.  This demo walks the exact
lattice toolkit: discriminant groups, evenness, shells, semi-selfdual
tests, and the order-3 products of the lattice involutions t_M that
mirror the Miyamoto relation upstairs.
"""

from weyl_ising import (
    ade_realization,
    build_root_system,
    discriminant_group,
    e8_lattice,
    is_RSSD,
    is_SSD,
    malpha_lattice,
    shell,
    t_involution,
    tensor,
    verify_identification,
)
from weyl_ising.lattice import matrix_order
from weyl_ising.linalg import mat_mul

# E8 itself: even, unimodular, 240 roots of norm 2.
E8 = e8_lattice()
assert E8.is_even() and E8.det() == 1
assert len(shell(E8, 2)) == 240
print(f"E8: det {E8.det()}, {len(shell(E8, 2))} norm-2 vectors")

# The tensor square E8 (x) E8 stays even and unimodular in rank 64.
square = tensor(E8, E8)
assert square.is_even() and square.det() == 1
print(f"E8 (x) E8: rank {square.rank}, det {square.det()}, even")

# M_alpha is sqrt(2) E8: discriminant group (Z/2)^8, even, no norm-2
# vectors, 240 vectors of norm 4, and semi-selfdual (SSD).
R = build_root_system("A", 3)
alpha = R.simple_roots()[0]
M = malpha_lattice(R, alpha)
assert discriminant_group(M) == (2,) * 8
assert M.is_even() and is_SSD(M)
assert len(shell(M, 2)) == 0 and len(shell(M, 4)) == 240
print("M_alpha is sqrt(2)E8: discriminant (Z/2)^8, SSD, 240 norm-4 vectors")

# Inside the full realization lattice, M_alpha is relatively
# semi-selfdual, which makes the involution t_M well defined.
script = ade_realization(R)
assert script.is_even() and len(shell(script, 2)) == 0
assert is_RSSD(M, script)
print(f"realization of A3: rank {script.rank}, even, no norm-2 vectors, M_alpha RSSD")

# For adjacent simple roots (inner product -1) the product of the two
# lattice involutions has order 3; orthogonal roots give order 2.
simple = R.simple_roots()
t0 = t_involution(malpha_lattice(R, simple[0]), script)
t1 = t_involution(malpha_lattice(R, simple[1]), script)
t2 = t_involution(malpha_lattice(R, simple[2]), script)
assert matrix_order(mat_mul(t0, t1)) == 3  # adjacent pair
assert matrix_order(mat_mul(t0, t2)) == 2  # orthogonal pair
print("t-involutions: adjacent product has order 3, orthogonal product order 2")

# Each realization is identified with R (x) E8: its Gram is the Kronecker
# product of R's and E8's, and those of E6 and E7 equal their complements
# in the E8 realization.
for kind, rank in [("A", 2), ("A", 3), ("D", 4), ("E", 6), ("E", 7), ("E", 8)]:
    assert verify_identification(kind, rank)
print("realization identifications verified for A2, A3, D4, E6, E7, E8")
