"""Exact-arithmetic Griess algebras of root-indexed Ising vectors.

The package builds, entirely over the rationals and the integers, the
axis algebras generated by E8-type Ising vectors attached to positive
roots of ADE root systems, the lattice and cocycle machinery underneath
them (the cocycle's 8th roots of unity are kept as their exponents mod
8), the Miyamoto involution groups (Weyl-group quotients), and the
3-twisted axis systems with their 3^k:S_n groups.
"""

__version__ = "0.1.0"

from .axes import (
    AxisAlgebra,
    NoConformalVector,
    VirasoroReport,
    from_root_system,
    miyamoto_permutation,
    virasoro,
)
from .cocycle import CocycleTable, NotInHalfLattice, check_sign_lemma
from .cyclotomic import Cyc8
from .lattice import (
    Lattice,
    RankTooLarge,
    ade_realization,
    discriminant_group,
    e8_lattice,
    from_basis,
    is_RSSD,
    is_SSD,
    malpha_lattice,
    root_lattice,
    shell,
    t_involution,
    tensor,
    verify_identification,
)
from .linalg import SmithDidNotConverge
from .permgrp import (
    ClosureCapExceeded,
    PermGroup,
    contains_minus_one,
    enumerate_elements,
    miyamoto_group,
    transposition_profile,
    weyl_group,
)
from .rootsys import RootSystem, build_root_system
from .triality import (
    TwistedAxis,
    abstract_twisted_group,
    find_delta,
    kernel_mod3,
    twisted_axes,
    twisted_axis_algebra,
    twisted_group,
)
from .weight2 import (
    Weight2Element,
    ising_vector,
    oracle_pairing,
    oracle_product,
    virasoro_quadratic,
)

__all__ = [
    "AxisAlgebra",
    "ClosureCapExceeded",
    "CocycleTable",
    "Cyc8",
    "Lattice",
    "NoConformalVector",
    "NotInHalfLattice",
    "PermGroup",
    "RankTooLarge",
    "RootSystem",
    "SmithDidNotConverge",
    "TwistedAxis",
    "VirasoroReport",
    "Weight2Element",
    "__version__",
    "abstract_twisted_group",
    "ade_realization",
    "build_root_system",
    "check_sign_lemma",
    "contains_minus_one",
    "discriminant_group",
    "e8_lattice",
    "enumerate_elements",
    "find_delta",
    "from_basis",
    "from_root_system",
    "is_RSSD",
    "is_SSD",
    "ising_vector",
    "kernel_mod3",
    "malpha_lattice",
    "miyamoto_group",
    "miyamoto_permutation",
    "oracle_pairing",
    "oracle_product",
    "root_lattice",
    "shell",
    "t_involution",
    "tensor",
    "transposition_profile",
    "triality",
    "twisted_axes",
    "twisted_axis_algebra",
    "twisted_group",
    "verify_identification",
    "virasoro",
    "virasoro_quadratic",
    "weyl_group",
]
