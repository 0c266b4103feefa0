"""Bilinear sign bookkeeping for half-lattice vectors.

A fixed ordered basis a_1..a_8 of the E8 coordinate model (its simple
system, in ascending coordinate order) is halved to the basis
x_i = a_i/2.  On basis pairs the residue reads

    4<x_i, x_j> mod 8   below the diagonal (i > j),
    2<x_i, x_i> = 1     on the diagonal,
    0                   above it,

and extends bilinearly, blocks summed coordinatewise on the n-block
ambient space.  Exponentiating the residue into the 8th roots of unity
gives the multiplier carried by the weight-2 products.  The residues
depend on the basis order; every downstream claim is order independent.

Coordinates over the x-basis are computed in integers.  The x-basis
lies in (1/4)Z^8, so a vector v is handled as the int vector s*v at a
fixed scale s: 4 for ``eps0``, ``eps`` and ``block_coordinates``, which
take rational coordinates, and 2 for ``eps0_doubled``, which takes the
doubled labels of the weight-2 oracle.  The inverse of the x-basis is
kept as an int matrix over a common denominator, and a coordinate that
this denominator (times s) does not divide exactly raises
``NotInHalfLattice``.  ``Fraction`` remains only in ``x_basis`` and in
the one-off inverse at construction.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from operator import mul
from typing import Sequence

from .cyclotomic import Cyc8
from .lattice import e8_model
from .linalg import dot, matrix_inverse
from .rootsys import RootSystem

IntVector = tuple[int, ...]


class NotInHalfLattice(ValueError):
    """Vector has no integer coordinates over the halved basis."""


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
        cols = [[self.x_basis[k][j] for k in range(8)] for j in range(8)]
        xinv = matrix_inverse(cols)
        self._den = math.lcm(*(c.denominator for row in xinv for c in row))
        self._num = [[int(c * self._den) for c in row] for row in xinv]
        self._table = [[0] * 8 for _ in range(8)]
        for k in range(8):
            self._table[k][k] = 1
            for l in range(k):
                self._table[k][l] = int(4 * dot(self.x_basis[k],
                                                self.x_basis[l])) % 8
        # scale -> int vector -> (x-basis coordinates, coordinates times
        # the residue table), both flattened over the blocks
        self._memo: dict[int, dict[IntVector,
                                   tuple[IntVector, IntVector]]] = {}

    def _forms(self, w: IntVector, scale: int) -> tuple[IntVector, IntVector]:
        """Coordinates c of w/scale over the x-basis, and c^T T blockwise
        for the residue table T."""
        memo = self._memo.setdefault(scale, {})
        hit = memo.get(w)
        if hit is not None:
            return hit
        if len(w) != 8 * self.n:
            raise NotInHalfLattice(
                f"vector of length {len(w)} on {self.n} blocks")
        den = scale * self._den
        coords: list[int] = []
        for t in range(self.n):
            block = w[8 * t: 8 * t + 8]
            for row in self._num:
                q, r = divmod(sum(map(mul, row, block)), den)
                if r:
                    raise NotInHalfLattice(
                        f"block {t} of {w} / {scale} is not half-integral")
                coords.append(q)
        table = self._table
        row_form = [sum(coords[8 * t + k] * table[k][l] for k in range(8))
                    for t in range(self.n) for l in range(8)]
        forms = (tuple(coords), tuple(row_form))
        memo[w] = forms
        return forms

    def _quadrupled(self, v: Sequence) -> tuple[IntVector, IntVector]:
        """The forms of a rational vector, taken at scale 4."""
        w = []
        for c in v:
            q = Q(c)
            c4, rest = divmod(4 * q.numerator, q.denominator)
            if rest:
                raise NotInHalfLattice(
                    f"{tuple(v)} has a coordinate outside (1/4)Z")
            w.append(c4)
        return self._forms(tuple(w), 4)

    def block_coordinates(self, v: Sequence) -> list[list[int]]:
        """Integer coordinates of v over the x-basis, one list per block."""
        coords = self._quadrupled(v)[0]
        return [list(coords[8 * t: 8 * t + 8]) for t in range(self.n)]

    def eps0(self, a: Sequence, b: Sequence) -> int:
        """Residue mod 8 of the pair (a, b)."""
        return sum(map(mul, self._quadrupled(a)[1],
                       self._quadrupled(b)[0])) % 8

    def eps0_doubled(self, a2: IntVector, b2: IntVector) -> int:
        """``eps0(a2/2, b2/2)`` for int vectors a2, b2: the residue on
        doubled coordinates, as the weight-2 oracle keeps its labels."""
        return sum(map(mul, self._forms(a2, 2)[1], self._forms(b2, 2)[0])) % 8

    def eps(self, a: Sequence, b: Sequence) -> Cyc8:
        """The 8th root of unity attached to the pair (a, b)."""
        return Cyc8.zeta_pow(self.eps0(a, b))


def check_sign_lemma(R: RootSystem) -> bool:
    """True when eps(alpha (x) gamma, beta (x) gamma) == -1 for every
    ordered pair of roots of R with <alpha, beta> = +-1 and every root
    gamma of the E8 model; vacuously true when no pair qualifies.

    With a common gamma the bilinear residue factors exactly as
    <alpha, beta> * eps0(gamma, gamma), so the triple enumeration
    reduces to the 240 single-block residues (all must be 4 mod 8,
    and -4 = 4 mod 8 covers both signs) plus the pair qualification.
    """
    table = CocycleTable(1)
    gammas = e8_model().roots
    residues = {table.eps0(g, g) for g in gammas}
    qualifying = any(
        dot(a, b) in (1, -1) for a in R.roots for b in R.roots)
    if not qualifying:
        return True
    return residues == {4}
