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

with all scalars rational.  The sign of a surviving exponential term is
z**k for the cocycle residue k of its pair; ``_real_sign`` admits only
k = 0 (+1) and k = 4 (-1) and raises ``NonRealCocycle`` for any other
residue, so a sign convention mistake surfaces as an error instead of a
silent flip.  The ambient dimension must be a multiple of 8 so the
block residue table applies.

Scale convention: a label coordinate lies in (1/4)Z (for a root alpha
with half-integer coordinates, M_alpha = alpha (x) E8 has coordinates in
(1/4)Z), so a label x is stored as the int tuple 4x, at the scale
``cocycle.SCALE`` that the residue table takes as well; the keys of
``Weight2Element.exps`` are these scaled labels.  A norm-4 label then
has integer norm 64, a pair is classified by the integer 16<x,y> (+-32
a shift, +-64 a square, +-48 a created root, anything else zero), and
x +- y is formed and sign-normalized in ints.

Scalars: a ``Weight2Element`` keeps one int core, the numerators of its
quadratic part and of its scaled labels over one denominator ``den``,
with no zero numerator and no factor common to den and all numerators,
so equal elements have equal cores; ``quad`` and ``exps`` are
``Fraction`` views of it.  ``oracle_product`` reads the cores of u and
v and accumulates every output term as an int numerator over
16 d_u d_v: a quad x quad entry ab counts 32 times (2ST + 2TS), a quad
x exp term once (the 1/16 of a scaled quadratic term x_i x_j enters
here), a shift 16 times and a square once.  In quad x exp the upper
triangle of S is grouped by int weight (an entry on the diagonal, twice
an entry off it), so each label x gives one int x^T S x from C-level
sums over the groups' index pairs.  The public constructor takes index
pairs in range(dim) and labels in true coordinates, rejects any
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
import math
import re
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


class Weight2Element:
    """Sparse weight-2 element over a fixed ambient basis.

    The constructor takes ``quad`` keyed by index pairs in range(dim)
    and ``exps`` keyed by labels in true (rational) coordinates.  The
    element keeps one int core: ``den`` and the int numerators over it
    of the quadratic part and of the scaled labels (see the module
    docstring).  ``quad`` and ``exps`` are ``Fraction`` views of the
    core, so ``exps`` maps scaled labels SCALE * x to coefficients.
    """

    def __init__(self, dim: int, quad: dict | None = None,
                 exps: dict | None = None):
        quad = {k: Q(v) for k, v in (quad or {}).items()}
        for (i, j), v in quad.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(
                    f"quadratic index {(i, j)} outside range({dim})")
            if quad.get((j, i), 0) != v:
                raise ValueError("quadratic part must be symmetric")
        labelled: dict[Label, Q] = {}
        for x, c in (exps or {}).items():
            c = Q(c)
            label = sign_normalized(scaled(x))
            if sum(map(mul, label, label)) != 4 * _S2:
                raise ValueError(f"exponential label {x} does not have norm 4")
            if len(label) != dim:
                raise ValueError("label length does not match ambient dimension")
            labelled[label] = labelled.get(label, 0) + c
        den = math.lcm(*(c.denominator
                         for c in chain(quad.values(), labelled.values())))

        def ints(terms: dict) -> dict:
            return {k: c.numerator * (den // c.denominator)
                    for k, c in terms.items()}

        # adopt the canonical core that ``_trusted`` builds
        self.__dict__ = Weight2Element._trusted(
            dim, den, ints(quad), ints(labelled)).__dict__

    @classmethod
    def _trusted(cls, dim: int, den: int, quad: dict[tuple[int, int], int],
                 exps: dict[Label, int]) -> "Weight2Element":
        """An element from int numerators over ``den > 0`` of a symmetric
        quadratic part and of canonical scaled labels, without
        validation: zero numerators are dropped and the gcd of ``den``
        and the numerators is divided out."""
        quad = {k: n for k, n in quad.items() if n}
        exps = {x: n for x, n in exps.items() if n}
        g = math.gcd(den, *quad.values(), *exps.values())
        if g > 1:
            quad = {k: n // g for k, n in quad.items()}
            exps = {x: n // g for x, n in exps.items()}
        self = object.__new__(cls)
        self.dim, self.den, self._quad, self._exps = dim, den // g, quad, exps
        return self

    @functools.cached_property
    def quad(self) -> dict[tuple[int, int], Q]:
        return {k: Q(n, self.den) for k, n in self._quad.items()}

    @functools.cached_property
    def exps(self) -> dict[Label, Q]:
        return {x: Q(n, self.den) for x, n in self._exps.items()}

    @staticmethod
    def zero(dim: int) -> "Weight2Element":
        return Weight2Element(dim)

    def __add__(self, other: "Weight2Element") -> "Weight2Element":
        if self.dim != other.dim:
            raise ValueError("ambient dimensions differ")
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return Weight2Element._trusted(
            self.dim, den, _combine(self._quad, a, other._quad, b),
            _combine(self._exps, a, other._exps, b))

    def __neg__(self) -> "Weight2Element":
        return self.scale(-1)

    def __sub__(self, other: "Weight2Element") -> "Weight2Element":
        return self + other.scale(-1)

    def scale(self, c) -> "Weight2Element":
        c = Q(c)
        p = c.numerator
        return Weight2Element._trusted(
            self.dim, self.den * c.denominator,
            {k: p * n for k, n in self._quad.items()},
            {x: p * n for x, n in self._exps.items()})

    def __rmul__(self, c) -> "Weight2Element":
        return self.scale(c)

    def __bool__(self) -> bool:
        return bool(self._quad or self._exps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Weight2Element):
            return NotImplemented
        return (self.dim == other.dim and self.den == other.den
                and self._quad == other._quad and self._exps == other._exps)

    def __repr__(self) -> str:
        return (f"Weight2Element(dim={self.dim}, quad={self.quad!r}, "
                f"exps={self.exps!r})")


def _combine(p: dict, a: int, q: dict, b: int) -> dict:
    """The int term dict a p + b q."""
    out = {k: a * n for k, n in p.items()}
    for k, n in q.items():
        out[k] = out.get(k, 0) + b * n
    return out


def virasoro_quadratic(M: Lattice) -> Weight2Element:
    """The quadratic (1/2) sum h_i(-1)^2 over an orthonormal frame of
    the rational span of M, written on the ambient basis: the matrix P/2
    with P the orthogonal projection onto the span.

    P is symmetric, and its row j is the projection of e_j, which
    ``M._weights(e_j)`` gives as an int vector over ``D = det g``
    (solved on M's cached LDL^T).  Row j is zero when column j of M's
    int basis rows is, so only the rows in M's support are built."""
    d = M.ambient_dim
    rows, _ = M._scaled
    quad = {}
    for j in range(d):
        if any(row[j] for row in rows):
            _, p = M._weights([int(i == j) for i in range(d)])
            quad.update(((j, i), c) for i, c in enumerate(p) if c)
    return Weight2Element._trusted(d, 2 * M._D, quad, {})


def _labels(vectors: list[tuple[int, ...]], den: int) -> list[Label]:
    """The scaled labels SCALE * v / den of int vectors over den.  With
    g = gcd(SCALE, den) a label is (SCALE/g) v / (den/g), so only den/g
    has to divide the coordinates (it is 1 for every M_alpha, where den
    is 2 or 4); a coordinate outside (1/4)Z raises ``NotInHalfLattice``."""
    g = math.gcd(SCALE, den)
    up, down = SCALE // g, den // g
    if down > 1:
        for v in vectors:
            if any(c % down for c in v):
                raise NotInHalfLattice(
                    f"{tuple(Q(c, den) for c in v)} has a coordinate "
                    "outside (1/4)Z")
        vectors = [[c // down for c in v] for v in vectors]
    return [tuple(map(up.__mul__, v)) for v in vectors]


def ising_vector(M: Lattice) -> Weight2Element:
    """(1/16) of the span quadratic plus (1/32) of every norm-4
    symmetric exponential of M; requires the 240-vector shell, read in
    ints and scaled to labels directly."""
    vectors, den = _shell_ints(M, 4)
    if len(vectors) != 240:
        raise WrongShellSize(
            f"norm-4 shell has {len(vectors)} vectors, expected 240")
    w = virasoro_quadratic(M).scale(Q(1, 16))
    exps = {sign_normalized(x): 1 for x in _labels(vectors, den)}
    return w + Weight2Element._trusted(M.ambient_dim, 32, {}, exps)


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

    Reads the int cores of u and v; every term of the product is an
    int numerator over the one denominator 16 d_u d_v (module
    docstring)."""
    if u.dim != v.dim:
        raise ValueError("ambient dimensions differ")
    dim = u.dim
    table = _table_for(dim)
    uq, ue, vq, ve = u._quad, u._exps, v._quad, v._exps
    quad: dict[tuple[int, int], int] = {}
    exps: dict[Label, int] = {}

    # quadratic x quadratic: 2(ST + TS)
    if uq and vq:
        sv = _quad_rows(vq)
        for i, row in _quad_rows(uq).items():
            for k, a in row.items():
                match = sv.get(k)
                if not match:
                    continue
                a *= 32
                for j, b in match.items():
                    ab = a * b
                    quad[(i, j)] = quad.get((i, j), 0) + ab
                    quad[(j, i)] = quad.get((j, i), 0) + ab

    # quadratic x exponential, both orders: (4x)^T S (4x) / 16, one int
    # per label from the index pairs of S grouped by int weight
    for s_quad, e_exps in ((uq, ve), (vq, ue)):
        if not (s_quad and e_exps):
            continue
        groups = _weight_groups(s_quad)
        for x, c in e_exps.items():
            get = x.__getitem__
            n = 0
            for w, rows, cols in groups:
                n += w * sum(map(mul, map(get, rows), map(get, cols)))
            exps[x] = exps.get(x, 0) + c * n

    # exponential x exponential, all ordered pairs, by s = 16<x, y>.  The
    # labels are grouped by coefficient, so the signed shifts x -+ y and
    # the squares (4x)(4x)^T are counted in ints and meet the coefficient
    # cx cy once per group pair.  Only the close pairs (|s| >= 32) can
    # contribute; ``_close_pairs`` finds them from label columns packed
    # once per v group, one byte per dot, which the norm-64 invariant of
    # every label (module docstring) keeps within 64..192.
    shift, root, square = 2 * _S2, 3 * _S2, 4 * _S2
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
                exps[z] = exps.get(z, 0) + 16 * c * n
            for ij, n in squares.items():
                quad[ij] = quad.get(ij, 0) + c * n

    return Weight2Element._trusted(dim, 16 * u.den * v.den, quad, exps)


def oracle_pairing(u: Weight2Element, v: Weight2Element) -> Q:
    """Invariant pairing: 2 tr(ST) on quadratics, 2 per shared
    exponential label, no cross terms; summed in ints over d_u d_v."""
    if u.dim != v.dim:
        raise ValueError("ambient dimensions differ")
    vq, ve = v._quad, v._exps
    total = sum(a * vq.get((j, i), 0) for (i, j), a in u._quad.items())
    total += sum(c * ve.get(x, 0) for x, c in u._exps.items())
    return Q(2 * total, u.den * v.den)
