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
x +- y is formed and sign-normalized in ints.

Scalars: ``Weight2Element`` stores ``Fraction`` coefficients, and
``oracle_product`` computes in ints over known denominators.  It reads
each of the four parts as int numerators over that part's least common
denominator (d_u, d_v for the quadratic parts of u and v, e_u, e_v for
the exponential parts), and accumulates every output term as an int
numerator over one denominator ``den`` that each term group divides:
d_u d_v for quad x quad, d_u e_v 16 and d_v e_u 16 for quad x exp (the
factor 1/16 of a scaled quadratic term x_i x_j enters here), e_u e_v for
the shifts and e_u e_v 16 for the squares.  Each output term becomes one
``Fraction`` at the end.  In quad x exp the upper triangle of S is
grouped by int weight (an entry on the diagonal, twice an entry off it),
so each label x gives one int x^T S x from C-level sums over the groups'
index pairs.  The public constructor takes labels in true coordinates,
rejects any coordinate outside (1/4)Z with ``cocycle.NotInHalfLattice``,
converts every coefficient with ``Fraction`` (a non-rational one raises
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
import math
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


def _quad_rows(quad: dict[tuple[int, int], object]) -> dict[int, dict]:
    rows: dict[int, dict] = {}
    for (i, j), v in quad.items():
        rows.setdefault(i, {})[j] = v
    return rows


def _by_value(terms: dict) -> dict:
    """The keys of a term dict grouped by their coefficient."""
    groups: dict = {}
    for key, value in terms.items():
        groups.setdefault(value, []).append(key)
    return groups


def _numerators(terms: dict) -> tuple[dict, int]:
    """The rational values of a term dict as int numerators over their
    least common denominator, and that denominator (1 for no terms)."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return ({k: c.numerator * (den // c.denominator)
             for k, c in terms.items()}, den)


def _weight_groups(quad: dict[tuple[int, int], int]
                   ) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """The entries i <= j of a symmetric int matrix S as (w, I, J): the
    index pairs (I[k], J[k]) whose weight is w, an entry on the diagonal
    and twice an entry off it, so that x^T S x is the sum over the
    groups of w sum_k x[I[k]] x[J[k]]."""
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for (i, j), a in quad.items():
        if i <= j:
            rows, cols = groups.setdefault(a if i == j else 2 * a, ([], []))
            rows.append(i)
            cols.append(j)
    return [(w, tuple(rows), tuple(cols))
            for w, (rows, cols) in groups.items()]


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
    """Bilinear degree-1 product of two weight-2 elements.

    Each part of u and v is read as int numerators over its own least
    common denominator; every term of the product is accumulated as an
    int numerator over one denominator ``den`` that all four parts
    divide, and becomes a ``Fraction`` once, at the end."""
    if u.dim != v.dim:
        raise ValueError("ambient dimensions differ")
    dim = u.dim
    table = _table_for(dim)
    (uq, du), (vq, dv) = _numerators(u.quad), _numerators(v.quad)
    (ue, eu), (ve, ev) = _numerators(u.exps), _numerators(v.exps)
    den = math.lcm(du * dv, eu * ev * _S2, du * ev * _S2, dv * eu * _S2)
    quad: dict[tuple[int, int], int] = {}
    exps: dict[Label, int] = {}

    # quadratic x quadratic: 2(ST + TS)
    if uq and vq:
        m = 2 * (den // (du * dv))
        sv = _quad_rows(vq)
        for i, row in _quad_rows(uq).items():
            for k, a in row.items():
                match = sv.get(k)
                if not match:
                    continue
                a *= m
                for j, b in match.items():
                    ab = a * b
                    quad[(i, j)] = quad.get((i, j), 0) + ab
                    quad[(j, i)] = quad.get((j, i), 0) + ab

    # quadratic x exponential, both orders: (4x)^T S (4x) / 16, one int
    # per label from the index pairs of S grouped by int weight
    for s_quad, ds, e_exps, de in ((uq, du, ve, ev), (vq, dv, ue, eu)):
        if not (s_quad and e_exps):
            continue
        m = den // (ds * de * _S2)
        groups = _weight_groups(s_quad)
        for x, c in e_exps.items():
            get = x.__getitem__
            n = 0
            for w, rows, cols in groups:
                n += w * sum(map(mul, map(get, rows), map(get, cols)))
            if n:
                exps[x] = exps.get(x, 0) + m * c * n

    # exponential x exponential, all ordered pairs, by s = 16<x, y>.  The
    # labels are grouped by coefficient, so the signed shifts x -+ y and
    # the squares (4x)(4x)^T are counted in ints and meet the coefficient
    # cx cy once per group pair.  Only the close pairs (|s| >= 32) can
    # contribute; ``_close_pairs`` finds them from label columns packed
    # once per v group, one byte per dot, which the norm-64 invariant of
    # every label (module docstring) keeps within 64..192.
    shift, root, square = 2 * _S2, 3 * _S2, 4 * _S2
    m_shift = den // (eu * ev)
    m_square = m_shift // _S2
    v_groups = [(cy, ys, _packed_columns(ys))
                for cy, ys in _by_value(ve).items()]
    for cx, xs in _by_value(ue).items():
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
                if n:
                    exps[z] = exps.get(z, 0) + c * m_shift * n
            for ij, n in squares.items():
                if n:
                    quad[ij] = quad.get(ij, 0) + c * m_square * n

    return Weight2Element._trusted(
        dim, {k: Q(n, den) for k, n in quad.items()},
        {x: Q(n, den) for x, n in exps.items()})


def oracle_pairing(u: Weight2Element, v: Weight2Element) -> Q:
    """Invariant pairing: 2 tr(ST) on quadratics, 2 per shared
    exponential label, no cross terms."""
    if u.dim != v.dim:
        raise ValueError("ambient dimensions differ")
    total = Q(0)
    sv = _quad_rows(v.quad)
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
