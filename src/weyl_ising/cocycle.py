"""Bilinear sign bookkeeping for half-lattice vectors.

A fixed ordered basis a_1..a_8 of the E8 coordinate model (its simple
system, in ascending coordinate order) is halved to the basis
x_i = a_i/2.  On basis pairs the residue reads

    4<x_i, x_j> mod 8   below the diagonal (i > j),
    2<x_i, x_i> = 1     on the diagonal,
    0                   above it,

and extends bilinearly, blocks summed coordinatewise on the n-block
ambient space.  The residue k stands for the 8th root of unity z^k, the
multiplier carried by the weight-2 products; only k is computed, and the
products need it to be 0 or 4 (the sign +1 or -1).  The residues depend
on the basis order; every downstream claim is order independent.

Coordinates over the x-basis are computed in integers at one scale,
``SCALE = 4``, the x-basis's own: 4 x_k = 2 a_k is integral, so a vector
v with coordinates in (1/4)Z is handled as the int vector 4v.  The int
entry point ``eps0_scaled`` takes such vectors (the weight-2 oracle
keeps its labels at this scale); ``eps0`` takes rational coordinates and
converts with ``scaled``, which rejects a coordinate outside (1/4)Z.
The int matrix B with columns 4 x_k is inverted once, as B^-1 = G^-1 B^T
from unit solves on the cached LDL^T of its Gram G
(``Lattice._inverse``), so the coordinates of 4v are ``adj (4v) / D``
with ``adj = D B^-1`` and ``D = det G``, and a coordinate that ``D``
does not divide exactly raises ``NotInHalfLattice``; its message prints
the vector as rationals (``_vec``).  The residue table's columns are
kept as int tuples, so the row form c^T T of a block is eight int dots
of its coordinates; coordinates and row form are memoized per distinct
block, which recur across the vectors of an oracle sweep.  No
``Fraction`` enters a residue: the scalars are int numerators over the
one denominator ``D``, and the result is an int mod 8.  The 240 E8 self-residues behind ``check_sign_lemma`` do not
depend on the root system checked and are computed once per process.
"""

from __future__ import annotations

import functools
from fractions import Fraction as Q
from operator import mul
from typing import Sequence

from .lattice import Lattice, _combine, e8_model
from .linalg import dot
from .rootsys import RootSystem

IntVector = tuple[int, ...]

SCALE = 4

class NotInHalfLattice(ValueError):
    """Vector has no integer coordinates over the halved basis (as when
    a coordinate lies outside (1/4)Z)."""


def scaled(v: Sequence) -> IntVector:
    """SCALE * v as ints, exactly; a coordinate outside (1/4)Z raises
    ``NotInHalfLattice``."""
    out = []
    for c in v:
        q = c if isinstance(c, (int, Q)) else Q(c)
        c4, rest = divmod(SCALE * q.numerator, q.denominator)
        if rest:
            raise NotInHalfLattice(
                f"({', '.join(map(str, v))}) has a coordinate outside (1/4)Z")
        out.append(c4)
    return tuple(out)


def _vec(w: IntVector) -> str:
    """The vector w / SCALE, printed as rationals."""
    return "(" + ", ".join(str(Q(c, SCALE)) for c in w) + ")"


class CocycleTable:
    """Residue table on n blocks of halved E8 basis vectors.

    Immutable after construction; evaluation is pure.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one block")
        self.n = n
        simple = e8_model().simple_roots()
        self.x_basis = tuple(tuple(Q(c, 2) for c in a) for a in simple)
        basis = [scaled(x) for x in self.x_basis]
        adj, self._den = Lattice._from_ints(8, basis, 1)._inverse
        # row i of D B^-1 = adj(G) B^T is sum_k adj_ik (4 x_k)
        self._adj = [_combine(a, basis, 8) for a in adj]
        # 4<x_k, x_l> = <4 x_k, 4 x_l> / 4
        table = [[0] * 8 for _ in range(8)]
        for k in range(8):
            table[k][k] = 1
            for l in range(k):
                table[k][l] = (dot(basis[k], basis[l]) // 4) % 8
        # the residue table T by columns: column l of a block's c^T T is
        # one int dot of its coordinates c
        self._columns = tuple(zip(*table))
        # scaled vector -> (x-basis coordinates, coordinates times the
        # residue table), both flattened over the blocks; the same pair
        # for each distinct 8-coordinate block, which recur across vectors
        self._memo: dict[IntVector, tuple[IntVector, IntVector]] = {}
        self._blocks: dict[IntVector, tuple[list[int], list[int]]] = {}

    def _forms(self, w: IntVector) -> tuple[IntVector, IntVector]:
        """Coordinates c of w / SCALE over the x-basis, and c^T T
        blockwise for the residue table T."""
        hit = self._memo.get(w)
        if hit is not None:
            return hit
        if len(w) != 8 * self.n:
            raise NotInHalfLattice(
                f"vector of length {len(w)} on {self.n} blocks")
        coords: list[int] = []
        row_form: list[int] = []
        for t in range(self.n):
            block = w[8 * t: 8 * t + 8]
            pair = self._blocks.get(block)
            if pair is None:
                c = []
                for row in self._adj:
                    q, r = divmod(sum(map(mul, row, block)), self._den)
                    if r:
                        raise NotInHalfLattice(
                            f"block {t} of {_vec(w)} is not an integer "
                            "combination of the x-basis")
                    c.append(q)
                pair = (c, [sum(map(mul, c, col)) for col in self._columns])
                self._blocks[block] = pair
            coords += pair[0]
            row_form += pair[1]
        forms = (tuple(coords), tuple(row_form))
        self._memo[w] = forms
        return forms

    def eps0_scaled(self, a: IntVector, b: IntVector) -> int:
        """``eps0(a / SCALE, b / SCALE)`` for int vectors a and b."""
        return sum(map(mul, self._forms(a)[1], self._forms(b)[0])) % 8

    def eps0(self, a: Sequence, b: Sequence) -> int:
        """Residue mod 8 of the pair (a, b)."""
        return self.eps0_scaled(scaled(a), scaled(b))


def check_sign_lemma(R: RootSystem) -> bool:
    """True when eps0(alpha (x) gamma, beta (x) gamma) == 4, the sign
    -1, for every ordered pair of roots of R with <alpha, beta> = +-1 and
    every root gamma of the E8 model; vacuously true when no pair
    qualifies.

    With a common gamma the bilinear residue factors exactly as
    <alpha, beta> * eps0(gamma, gamma), so the triple enumeration
    reduces to the 240 single-block residues (all must be 4 mod 8,
    and -4 = 4 mod 8 covers both signs) plus the pair qualification.
    """
    qualifying = any(
        dot(a, b) in (1, -1) for a in R.roots for b in R.roots)
    if not qualifying:
        return True
    return _e8_self_residues() == {4}


@functools.cache
def _e8_self_residues() -> frozenset[int]:
    """The residues eps0(gamma, gamma) over the 240 roots of the E8
    model; they do not depend on the root system being checked."""
    table = CocycleTable(1)
    return frozenset(table.eps0_scaled(g4, g4)
                     for g4 in map(scaled, e8_model().roots))
