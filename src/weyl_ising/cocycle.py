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
one denominator ``D``, and the result is an int mod 8.  The oracle
takes residues in batches: ``residue_forms`` reduces row forms and
coordinates mod 8, and ``eps0_residues`` gives the residues of one
vector against many from one lane combination (``linalg.lane_dots``).
The 240 E8 self-residues behind ``check_sign_lemma`` do not depend on
the root system checked and are computed once per process.
"""

from __future__ import annotations

import functools
from fractions import Fraction as Q
from operator import mul
from typing import Sequence

from .lattice import Lattice, _combine, e8_model
from .linalg import Packed, dot, lane_dots, lane_width, pack_columns
from .rootsys import RootSystem

IntVector = tuple[int, ...]

SCALE = 4

_MOD8 = (8).__rmod__  # c -> c % 8
_MOD8_BYTES = bytes(map(_MOD8, range(256)))


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


@functools.cache
def _halved_basis() -> tuple[list[list[int]], int, tuple]:
    """The rows of ``adj = D B^-1`` and ``D``, for B the int matrix with
    columns 4 x_k, and the residue table T by columns."""
    basis = [tuple(int(2 * c) for c in a) for a in e8_model().simple_roots()]
    adj, den = Lattice._from_ints(8, basis, 1)._inverse
    # 4<x_k, x_l> = <4 x_k, 4 x_l> / 4
    table = [[0] * 8 for _ in range(8)]
    for k in range(8):
        table[k][k] = 1
        for l in range(k):
            table[k][l] = (dot(basis[k], basis[l]) // 4) % 8
    # row i of D B^-1 = adj(G) B^T is sum_k adj_ik (4 x_k); column l of a
    # block's c^T T is one int dot of its coordinates c
    return [_combine(a, basis, 8) for a in adj], den, tuple(zip(*table))


@functools.cache
def _block_forms(block: IntVector) -> tuple | None:
    """The coordinates c of block / SCALE over the x-basis, c^T T, and
    both mod 8 as bytes; None when c is not integral.  Shared by every
    table, as blocks recur across the vectors of an oracle sweep."""
    adj, den, columns = _halved_basis()
    c = []
    for row in adj:
        q, r = divmod(sum(map(mul, row, block)), den)
        if r:
            return None
        c.append(q)
    row_form = [sum(map(mul, c, col)) for col in columns]
    return c, row_form, bytes(map(_MOD8, c)), bytes(map(_MOD8, row_form))


class CocycleTable:
    """Residue table on n blocks of halved E8 basis vectors.

    Immutable after construction; evaluation is pure.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one block")
        self.n = n
        self.x_basis = tuple(tuple(Q(c, 2) for c in a)
                             for a in e8_model().simple_roots())
        # row forms and coordinates mod 8 pair to at most 49 per coordinate
        self._lane_bound = 49 * 8 * n

    def _blocks_of(self, w: IntVector) -> list[tuple]:
        """``_block_forms`` of each block of w."""
        if len(w) != 8 * self.n:
            raise NotInHalfLattice(
                f"vector of length {len(w)} on {self.n} blocks")
        forms = [_block_forms(w[i:i + 8]) for i in range(0, len(w), 8)]
        if None in forms:
            raise NotInHalfLattice(
                f"block {forms.index(None)} of {_vec(w)} is not an integer "
                "combination of the x-basis")
        return forms

    def eps0_scaled(self, a: IntVector, b: IntVector) -> int:
        """``eps0(a / SCALE, b / SCALE)`` for int vectors a and b."""
        return sum(dot(p[1], q[0]) for p, q in zip(
            self._blocks_of(a), self._blocks_of(b))) % 8

    def residue_forms(self, vectors: Sequence[IntVector]
                      ) -> tuple[list[bytes], Packed]:
        """For int vectors at ``SCALE``: their row forms c^T T mod 8 and
        their coordinates c mod 8, packed, for ``eps0_residues``."""
        blocks = [self._blocks_of(w) for w in vectors]
        coords = [b"".join([p[2] for p in bs]) for bs in blocks]
        return ([b"".join([p[3] for p in bs]) for bs in blocks],
                pack_columns(coords, lane_width(self._lane_bound)))

    def eps0_residues(self, row: bytes, coords: Packed) -> bytes:
        """Byte j is ``eps0_scaled(a, b_j)``, for ``row`` the row form of a
        and ``coords`` the coordinates of the b_j from ``residue_forms``:
        one lane combination, lanes reduced mod 8 by their low byte."""
        lanes = lane_dots(row, coords, self._lane_bound)
        return lanes[::coords.width].translate(_MOD8_BYTES)

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
