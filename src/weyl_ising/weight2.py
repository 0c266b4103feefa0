"""Brute-force weight-2 algebra of a rootless even lattice model.

Elements combine Heisenberg quadratics (a symmetric matrix S standing
for sum_ij S_ij b_i(-1)b_j(-1) over the ambient coordinate basis) with
symmetric exponentials e^x + e^(-x) labelled by norm-4 lattice vectors
in canonical sign.  The degree-1 product and the invariant pairing are
evaluated from first principles:

    quad x quad   ->  2(ST + TS)
    quad x exp    ->  (x^T S x) (e^x + e^(-x))
    exp  x exp    ->  eps(x, y) (e^(x+-y) + e^(-(x+-y)))  if <x,y> = -+2,
                      x(-1)^2 with unit sign factor        if <x,y> = +-4,
                      rejected (a norm-2 vector appears)    if <x,y> = +-3,
                      0                                     otherwise
    <quad, quad>  ->  2 tr(ST)
    <exp, exp>    ->  2 on equal labels, else 0

with all scalars rational (``Fraction``).  The sign of a surviving
exponential term is z**k for the cocycle residue k of its pair;
``_real_sign`` admits only k = 0 (+1) and k = 4 (-1) and raises
``NonRealCocycle`` for any other residue, so a sign convention mistake
surfaces as an error instead of a silent flip.  The ambient dimension
must be a multiple of 8 so the block residue table applies.

Scale convention: a label coordinate lies in (1/4)Z (for a root alpha
with half-integer coordinates, M_alpha = alpha (x) E8 has coordinates in
(1/4)Z), so a label x is stored as the int tuple 4x, at the scale
``cocycle.SCALE`` that the residue table takes as well; the keys of
``Weight2Element.exps`` are these scaled labels.  A norm-4 label then
has integer norm 64, a pair is classified by the integer 16<x,y> (+-32
a shift, +-64 a square, +-48 a created root, anything else zero), and
x +- y is formed and sign-normalized in ints.  ``Fraction`` remains in
the scalars: the exponential coefficients (where the factor 1/16 of a
scaled quadratic term x_i x_j enters) and the quadratic part.  The
public constructor takes labels in true coordinates, rejects any
coordinate outside (1/4)Z with ``cocycle.NotInHalfLattice``, converts
every coefficient with ``Fraction`` (a non-rational one raises
``TypeError``) and validates every term; sums, scalings and oracle
products are built from terms that are already canonical and are not
validated again.

Packed classification: only the close pairs, |16<x,y>| >= 32, add to
the exponential x exponential term.  Every stored label has scaled norm
64 (the constructor checks it, and x -+ y at 16<x,y> = +-32 has norm
64 + 64 - 64), so |16<x,y>| <= 64 by Cauchy-Schwarz and 128 + 16<x,y>
is a byte.  The labels y_j of one coefficient group are packed column
by column into ints P_k = sum_j y_jk 256^j; for each x, the int
128 sum_j 256^j + sum_k x_k P_k written as bytes holds 128 + 16<x,y_j>
in byte j, one row of big-int arithmetic per label, and a regex scan
hands only the bytes outside 97..159 to the shift, square and
created-root branches, in the order of the plain double loop.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from fractions import Fraction as Q
from itertools import chain
from operator import add, mul, sub

from .cocycle import SCALE, CocycleTable, NotInHalfLattice, _vec, scaled
from .lattice import Lattice, _shell_ints
from .rootsys import sign_normalized

Label = tuple[int, ...]  # a scaled label SCALE * x

_S2 = SCALE * SCALE  # <x, y> is the int dot of the scaled labels over _S2


class WrongShellSize(ValueError):
    """The lattice does not carry the expected 240 norm-4 vectors."""


class NonRealCocycle(ValueError):
    """A surviving product term picked up a sign outside {+1, -1}."""


class RootCreated(ValueError):
    """A product produced a norm-2 lattice vector (the lattice is not
    rootless where it needs to be)."""


@functools.cache
def _table_for(dim: int) -> CocycleTable:
    if dim % 8 != 0 or dim == 0:
        raise ValueError(f"ambient dimension {dim} is not a multiple of 8")
    return CocycleTable(dim // 8)


def _real_sign(residue: int, x: Label, y: Label | None) -> int:
    """The sign z**residue of the pair (x, y), which must be +1 or -1;
    y None stands for -x."""
    if residue == 0:
        return 1
    if residue == 4:
        return -1
    other = "-same" if y is None else _vec(y)
    raise NonRealCocycle(
        f"pair ({_vec(x)}, {other}) produced the non-real unit "
        f"z^{residue}")


@dataclass
class Weight2Element:
    """Sparse weight-2 element over a fixed ambient basis.

    The constructor takes ``exps`` keyed by labels in true (rational)
    coordinates and stores them scaled (see the module docstring), so
    ``exps`` maps scaled labels SCALE * x to coefficients after
    construction.
    """

    dim: int
    quad: dict[tuple[int, int], Q] = field(default_factory=dict)
    exps: dict[Label, Q] = field(default_factory=dict)

    def __post_init__(self):
        quad = {k: Q(v) for k, v in self.quad.items()}
        self.quad = {k: v for k, v in quad.items() if v}
        for (i, j), v in list(self.quad.items()):
            if (j, i) not in self.quad or self.quad[(j, i)] != v:
                raise ValueError("quadratic part must be symmetric")
        clean: dict[Label, Q] = {}
        for x, c in self.exps.items():
            c = Q(c)
            if not c:
                continue
            label = sign_normalized(scaled(x))
            if sum(map(mul, label, label)) != 4 * _S2:
                raise ValueError(f"exponential label {x} does not have norm 4")
            if len(label) != self.dim:
                raise ValueError("label length does not match ambient dimension")
            clean[label] = clean.get(label, 0) + c
        self.exps = {x: c for x, c in clean.items() if c}

    @classmethod
    def _trusted(cls, dim: int, quad: dict[tuple[int, int], Q],
                 exps: dict[Label, Q]) -> "Weight2Element":
        """An element from a symmetric quadratic part and canonical scaled
        labels, without validation; zero coefficients are dropped."""
        self = object.__new__(cls)
        self.dim = dim
        self.quad = {k: v for k, v in quad.items() if v}
        self.exps = {x: c for x, c in exps.items() if c}
        return self

    @staticmethod
    def zero(dim: int) -> "Weight2Element":
        return Weight2Element(dim, {}, {})

    def __add__(self, other: "Weight2Element") -> "Weight2Element":
        if self.dim != other.dim:
            raise ValueError("ambient dimensions differ")
        quad = dict(self.quad)
        for k, v in other.quad.items():
            quad[k] = quad.get(k, 0) + v
        exps = dict(self.exps)
        for x, c in other.exps.items():
            exps[x] = exps.get(x, 0) + c
        return Weight2Element._trusted(self.dim, quad, exps)

    def __neg__(self) -> "Weight2Element":
        return self.scale(-1)

    def __sub__(self, other: "Weight2Element") -> "Weight2Element":
        return self + other.scale(-1)

    def scale(self, c) -> "Weight2Element":
        c = Q(c)
        return Weight2Element._trusted(
            self.dim,
            {k: c * v for k, v in self.quad.items()},
            {x: c * v for x, v in self.exps.items()},
        )

    def __rmul__(self, c) -> "Weight2Element":
        return self.scale(c)

    def __bool__(self) -> bool:
        return bool(self.quad) or bool(self.exps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Weight2Element):
            return NotImplemented
        return (self.dim == other.dim and self.quad == other.quad
                and self.exps == other.exps)


def virasoro_quadratic(M: Lattice) -> Weight2Element:
    """The quadratic (1/2) sum h_i(-1)^2 over an orthonormal frame of
    the rational span of M, written on the ambient basis: the matrix P/2
    with P the orthogonal projection onto the span.

    P is built once from M's int core: with the basis as int ``rows``
    over ``den``, the int Gram ``g = rows rows^T`` and ``g^-1 = adj / D``,
    ``P = rows^T adj rows / D`` (the den factors cancel)."""
    d = M.ambient_dim
    if not M.rank:
        return Weight2Element.zero(d)
    rows, _ = M._scaled
    adj, D = M._inverse
    cols = list(zip(*rows))
    w = [[sum(map(mul, arow, col)) for col in cols] for arow in adj]
    quad = {}
    for i, col in enumerate(cols):  # row i of P is col^T w
        support = [(k, c) for k, c in enumerate(col) if c]
        for j in range(d):
            n = sum(c * w[k][j] for k, c in support)
            if n:
                quad[(i, j)] = Q(n, 2 * D)
    return Weight2Element._trusted(d, quad, {})


def _labels(vectors: list[tuple[int, ...]], den: int) -> list[Label]:
    """The scaled labels SCALE * v / den of int vectors over den; a
    coordinate outside (1/4)Z raises ``NotInHalfLattice``."""
    labels = []
    for v in vectors:
        parts = [divmod(SCALE * c, den) for c in v]
        if any(rest for _, rest in parts):
            raise NotInHalfLattice(
                f"{tuple(Q(c, den) for c in v)} has a coordinate outside "
                "(1/4)Z")
        labels.append(tuple(c4 for c4, _ in parts))
    return labels


def ising_vector(M: Lattice) -> Weight2Element:
    """(1/16) of the span quadratic plus (1/32) of every norm-4
    symmetric exponential of M; requires the 240-vector shell, read in
    ints and scaled to labels directly."""
    vectors, den = _shell_ints(M, 4)
    if len(vectors) != 240:
        raise WrongShellSize(
            f"norm-4 shell has {len(vectors)} vectors, expected 240")
    w = virasoro_quadratic(M).scale(Q(1, 16))
    exps = {sign_normalized(x): Q(1, 32) for x in _labels(vectors, den)}
    return w + Weight2Element._trusted(M.ambient_dim, {}, exps)


def _quad_rows(u: Weight2Element) -> dict[int, dict[int, Q]]:
    rows: dict[int, dict[int, Q]] = {}
    for (i, j), v in u.quad.items():
        rows.setdefault(i, {})[j] = v
    return rows


def _by_value(terms: dict) -> dict[Q, list]:
    """The keys of a term dict grouped by their coefficient."""
    groups: dict[Q, list] = {}
    for key, value in terms.items():
        groups.setdefault(value, []).append(key)
    return groups


# Byte j of a packed row is 128 + s_j; |s_j| >= 32 outside 97..159.
_BIAS = 128
_FAR = re.compile(b"[^%c-%c]" % (_BIAS - 2 * _S2 + 1, _BIAS + 2 * _S2 - 1))


def _packed_columns(ys: list[Label]) -> list[int]:
    """Column k of the labels ys as one int P_k = sum_j ys[j][k] 256^j.

    A norm-64 label has |c| <= 8 in every coordinate, so c + 8 is a
    byte: P_k is column k of c + 8 read as little-endian bytes, less 8
    in every byte."""
    if not ys:
        return []
    n, d = len(ys), len(ys[0])
    flat = bytes(map((8).__add__, chain.from_iterable(ys)))
    eights = int.from_bytes(b"\x08" * n, "little")
    return [int.from_bytes(flat[k::d], "little") - eights for k in range(d)]


def _close_pairs(xs: list[Label], ys: list[Label], columns: list[int]):
    """The pairs (x, y, s) with s = 16<x, y> and |s| >= 32, in the order of
    the plain double loop over xs and ys; ``columns`` is
    ``_packed_columns(ys)``.

    Per x, the int 128 sum_j 256^j + sum_k x_k P_k has 128 + s_j in
    byte j: |s_j| <= 64 by Cauchy-Schwarz on two norm-64 labels, so no
    byte carries into the next."""
    n = len(ys)
    base = int.from_bytes(bytes([_BIAS]) * n, "little")
    for x in xs:
        row = base
        for c, column in zip(x, columns):
            if c:
                row += c * column
        row = row.to_bytes(n, "little")
        for m in _FAR.finditer(row):
            j = m.start()
            yield x, ys[j], row[j] - _BIAS


def oracle_product(u: Weight2Element, v: Weight2Element) -> Weight2Element:
    """Bilinear degree-1 product of two weight-2 elements."""
    if u.dim != v.dim:
        raise ValueError("ambient dimensions differ")
    dim = u.dim
    table = _table_for(dim)
    quad: dict[tuple[int, int], Q] = {}
    exps: dict[Label, Q] = {}

    def add_quad(i: int, j: int, val: Q) -> None:
        if val:
            quad[(i, j)] = quad.get((i, j), 0) + val

    def add_exp(x: Label, val: Q) -> None:
        if val:
            exps[x] = exps.get(x, 0) + val

    # quadratic x quadratic: 2(ST + TS)
    if u.quad and v.quad:
        su, sv = _quad_rows(u), _quad_rows(v)
        for i, row in su.items():
            for k, a in row.items():
                match = sv.get(k)
                if not match:
                    continue
                for j, b in match.items():
                    ab = 2 * (a * b)
                    add_quad(i, j, ab)
                    add_quad(j, i, ab)

    # quadratic x exponential, both orders: (4x)^T S (4x) / 16, summed in
    # ints over the entries of S that share a value
    for s_part, e_part in ((u, v), (v, u)):
        if not (s_part.quad and e_part.exps):
            continue
        by_value = _by_value(s_part.quad)
        for x, c in e_part.exps.items():
            acc = 0
            for a, entries in by_value.items():
                n = sum(x[i] * x[j] for i, j in entries)
                if n:
                    acc += a * n
            add_exp(x, acc * c / _S2)

    # exponential x exponential, all ordered pairs, by s = 16<x, y>.  The
    # labels are grouped by coefficient, so the signed shifts x -+ y and
    # the squares (4x)(4x)^T are counted in ints and meet the coefficient
    # cx cy once per group pair.  Only the close pairs (|s| >= 32) can
    # contribute; ``_close_pairs`` finds them from label columns packed
    # once per v group, one byte per dot, which the norm-64 invariant of
    # every label (module docstring) keeps within 64..192.
    shift, root, square = 2 * _S2, 3 * _S2, 4 * _S2
    v_groups = [(cy, ys, _packed_columns(ys))
                for cy, ys in _by_value(v.exps).items()]
    for cx, xs in _by_value(u.exps).items():
        for cy, ys, columns in v_groups:
            shifts: dict[Label, int] = {}
            squares: dict[tuple[int, int], int] = {}
            for x, y, s in _close_pairs(xs, ys, columns):
                if s in (shift, -shift):
                    z = sign_normalized(tuple(map(sub, x, y)) if s > 0
                                        else tuple(map(add, x, y)))
                    sign = _real_sign(table.eps0_scaled(x, y), x, y)
                    shifts[z] = shifts.get(z, 0) + sign
                elif s in (square, -square):
                    sign = _real_sign(
                        table.eps0_scaled(x, tuple(-c for c in x)),
                        x, None)
                    support = [i for i, a in enumerate(x) if a]
                    for i in support:
                        for j in support:
                            squares[(i, j)] = (squares.get((i, j), 0)
                                               + sign * x[i] * x[j])
                elif s in (root, -root):
                    raise RootCreated(
                        f"labels {_vec(x)} and {_vec(y)} with "
                        f"product {s // _S2} create a norm-2 vector")
            c = cx * cy
            for z, n in shifts.items():
                add_exp(z, c * n)
            for (i, j), n in squares.items():
                add_quad(i, j, c * n / _S2)

    return Weight2Element._trusted(dim, quad, exps)


def oracle_pairing(u: Weight2Element, v: Weight2Element) -> Q:
    """Invariant pairing: 2 tr(ST) on quadratics, 2 per shared
    exponential label, no cross terms."""
    if u.dim != v.dim:
        raise ValueError("ambient dimensions differ")
    total = Q(0)
    sv = _quad_rows(v)
    for (i, j), a in u.quad.items():
        row = sv.get(j)
        if row:
            b = row.get(i)
            if b:
                total += 2 * (a * b)
    for x, c in u.exps.items():
        d = v.exps.get(x)
        if d:
            total += 2 * (c * d)
    return total
