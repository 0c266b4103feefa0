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
z**k for the cocycle residue k of its pair; only k = 0 (+1) and k = 4
(-1) are admitted, and any other residue raises ``NonRealCocycle``, so a sign convention mistake surfaces as an error instead of a
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
here), a shift 16 times and a square once.  Exponential terms are
accumulated by label key (below) and reduced by the gcd before each
key becomes a label, so every output label is decoded and hashed once.
The public constructor takes index pairs in range(dim) and labels in
true coordinates, rejects any coordinate outside (1/4)Z with
``cocycle.NotInHalfLattice``, converts every coefficient with
``Fraction`` (a non-rational one raises ``TypeError``) and validates
every term; sums, scalings and oracle products are built from terms
that are already canonical and are not validated again.

Packed lanes: every stored label has scaled norm 64 (the constructor
checks it, and x -+ y at 16<x,y> = +-32 has norm 64 + 64 - 64), so
each coordinate c has |c| <= 8, and an element's label view, built on
first use and reused by every product the element enters, holds each
label as the bytes c + 8 and as their big-endian int, its key (E is the
key of the zero label), and the label columns packed in lanes
(``linalg.pack_columns``).  Then:

* quad x exp: S is kept as S = sum_u g_u r_u^T, r_u the distinct rows
  of S up to sign and g_u the signed indicator of the rows equal to
  +-r_u, so x^T S x = sum_u <g_u, x><r_u, x>; each dot comes for all
  labels at once from one lane combination (``linalg.lane_dots``) in
  lanes as wide as the Cauchy-Schwarz bound needs.
* exp x exp: only the close pairs, 16<x,y> in {+-32, +-48, +-64}, add
  to it.  |16<x,y>| <= 64 by Cauchy-Schwarz, so for each x one lane
  combination of byte lanes holds 16<x,y_j> in byte j, and a regex
  scan hands the close bytes to the shift, square and created-root
  branches in the order of the plain double loop.  The residues of x
  against every y_j come from one more lane combination
  (``CocycleTable.eps0_residues``).  A shift target x -+ y is the key
  sum kx -+ ky +- E, sign-normalized by one compare with E, and only
  distinct targets are decoded; a square adds its signed coefficient
  to the weight of x, and sum_x w_x x x^T is summed by columns.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction as Q
from itertools import chain
from operator import mul, sub

from .cocycle import SCALE, CocycleTable, NotInHalfLattice, _vec, scaled
from .lattice import Lattice, _shell_keys
from .linalg import Packed, dot, lane_dots, lane_ints, lane_width, pack_columns
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


def _non_real(residue: int, x: Label, y: Label | None) -> NonRealCocycle:
    """The error for a pair (x, y) whose sign z**residue is not +1 or
    -1; y None stands for -x."""
    other = "-same" if y is None else _vec(y)
    return NonRealCocycle(
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
        g = math.gcd(den, *quad.values(), *exps.values())
        if g > 1 or 0 in quad.values():
            quad = {k: n // g for k, n in quad.items() if n}
        if g > 1 or 0 in exps.values():
            exps = {x: n // g for x, n in exps.items() if n}
        self = object.__new__(cls)
        self.dim, self.den, self._quad, self._exps = dim, den // g, quad, exps
        return self

    @functools.cached_property
    def quad(self) -> dict[tuple[int, int], Q]:
        return {k: Q(n, self.den) for k, n in self._quad.items()}

    @functools.cached_property
    def exps(self) -> dict[Label, Q]:
        return {x: Q(n, self.den) for x, n in self._exps.items()}

    @functools.cached_property
    def _view(self) -> "_LabelView":
        return _LabelView(list(self._exps), self.dim)

    @functools.cached_property
    def _factors(self) -> tuple[list[tuple[tuple, list[int]]], int]:
        """The quadratic numerators S as S = sum_u g_u r_u^T, so that
        x^T S x = sum_u <g_u, x><r_u, x>: the distinct rows r_u of S up
        to sign, g_u the signed indicator of the rows equal to +-r_u; and
        a bound on each such dot with a norm-64 label (Cauchy-Schwarz)."""
        groups: dict[tuple[int, ...], list[int]] = {}
        for i, entries in _quad_rows(self._quad).items():
            row = [0] * self.dim
            for j, a in entries.items():
                row[j] = a
            row = tuple(row)
            r = sign_normalized(row)
            groups.setdefault(r, [0] * self.dim)[i] = 1 if r is row else -1
        bound = max((math.isqrt(4 * _S2 * dot(w, w))
                     for pair in groups.items() for w in pair), default=0)
        return list(groups.items()), bound

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
    symmetric exponential of M; requires the 240-vector shell.  Its
    sorted keys above the zero vector's are the 120 vectors in canonical
    sign; read from the top down, they come in the order in which the
    sorted shell first meets each pair +-v.  Only those are decoded and
    scaled to labels."""
    keys, decode, den = _shell_keys(M, 4)
    if len(keys) != 240:
        raise WrongShellSize(
            f"norm-4 shell has {len(keys)} vectors, expected 240")
    w = virasoro_quadratic(M).scale(Q(1, 16))
    labels = _labels(list(map(decode, keys[:119:-1])), den)
    return w + Weight2Element._trusted(M.ambient_dim, 32, {},
                                       dict.fromkeys(labels, 1))


def _quad_rows(quad: dict[tuple[int, int], object]) -> dict[int, dict]:
    rows: dict[int, dict] = {}
    for (i, j), v in quad.items():
        rows.setdefault(i, {})[j] = v
    return rows


_BIAS = 8  # every coordinate c of a norm-64 label has |c| <= 8
# the lane bytes, in two's complement, of the pairs that add to a product
_CLOSE = re.compile(b"[%s]" % bytes(s % 256 for s in (32, 48, 64, -32,
                                                     -48, -64)))


class _LabelView:
    """The labels of one element in label order, with what its products
    need of them: each label as the bytes ``c + 8`` and as their
    big-endian int (its key), label columns packed per lane width, and,
    on first need, their residue forms (``CocycleTable.residue_forms``)."""

    def __init__(self, labels: list[Label], dim: int):
        self.labels, self.dim = labels, dim
        self.digits = [bytes(map(_BIAS.__add__, x)) for x in labels]
        self.keys = [int.from_bytes(b, "big") for b in self.digits]
        self.by_key = dict(zip(self.keys, labels))
        self._columns: dict[int, Packed] = {}

    def columns(self, width: int) -> Packed:
        if width not in self._columns:
            self._columns[width] = pack_columns(self.digits, width, _BIAS)
        return self._columns[width]

    @functools.cached_property
    def residues(self) -> tuple[list[bytes], Packed]:
        return _table_for(self.dim).residue_forms(self.labels)


def _close_pairs(xs: list[Label], view: _LabelView):
    """The pairs (i, j, s), s = 16<xs[i], y_j> in {+-32, +-48, +-64}, of
    labels xs and the labels y_j of ``view``, in the order of the plain
    double loop.  One lane combination per x: |s| <= 64 by
    Cauchy-Schwarz on two norm-64 labels, so a byte holds it."""
    columns = view.columns(1)
    for i, x in enumerate(xs):
        lanes = lane_dots(x, columns, 4 * _S2)
        signed = memoryview(lanes).cast("b")
        for m in _CLOSE.finditer(lanes):
            j = m.start()
            yield i, j, signed[j]


def oracle_product(u: Weight2Element, v: Weight2Element) -> Weight2Element:
    """Bilinear degree-1 product of two weight-2 elements.

    Reads the int cores of u and v and their label views; every term of
    the product is an int numerator over the one denominator 16 d_u d_v
    (module docstring)."""
    if u.dim != v.dim:
        raise ValueError("ambient dimensions differ")
    dim = u.dim
    table = _table_for(dim)
    uq, ue, vq, ve = u._quad, u._exps, v._quad, v._exps
    quad: dict[tuple[int, int], int] = {}
    exps: dict[int, int] = {}  # by label key
    views = []
    biases = bytes([_BIAS]) * dim

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

    # quadratic x exponential, both orders: (4x)^T S (4x) / 16 as
    # sum_u <g_u, 4x><r_u, 4x>, each dot in lanes for all labels at once
    for s_el, e_el in ((u, v), (v, u)):
        if not (s_el._quad and e_el._exps):
            continue
        factors, bound = s_el._factors
        view = e_el._view
        views.append(view)
        columns = view.columns(lane_width(bound))

        def dots(w):
            return lane_ints(lane_dots(w, columns, bound), columns.width)

        terms = [map(mul, dots(r), dots(g)) for r, g in factors]
        for key, c, n in zip(view.keys, e_el._exps.values(),
                             map(sum, zip(*terms))):
            exps[key] = exps.get(key, 0) + c * n

    # exponential x exponential over the close pairs (x, y), s = 16<x, y>.
    # A shift target x -+ y is the key sum kx -+ ky +- E with E the key
    # of the zero label, sign-normalized by one compare with E; a square
    # adds its signed coefficient to the weight of x.  The residues of
    # one x against every y_j come from one lane combination.
    if ue and ve:
        uview, vview = u._view, v._view
        views += (uview, vview)
        ucoef, vcoef = list(ue.values()), list(ve.values())
        ys, ykeys = vview.labels, vview.keys
        zero = int.from_bytes(biases, "big")
        squares: dict[int, int] = {}
        last = residues = None
        for i, j, s in _close_pairs(uview.labels, vview):
            x = uview.labels[i]
            if s == 48 or s == -48:
                raise RootCreated(
                    f"labels {_vec(x)} and {_vec(ys[j])} with "
                    f"product {s // _S2} create a norm-2 vector")
            if i != last:
                last = i
                residues = table.eps0_residues(
                    uview.residues[0][i], vview.residues[1])
            c = ucoef[i] * vcoef[j]
            if s == 32 or s == -32:
                r = residues[j]
                if r & 3:
                    raise _non_real(r, x, ys[j])
                key = uview.keys[i]
                key = key - ykeys[j] + zero if s > 0 else key + ykeys[j] - zero
                if key < zero:
                    key = 2 * zero - key
                exps[key] = exps.get(key, 0) + (-16 * c if r else 16 * c)
            else:
                # eps0(x, -x), with y_j = x at s = 64 and -x at s = -64
                r = -residues[j] % 8 if s > 0 else residues[j]
                if r & 3:
                    raise _non_real(r, x, None)
                squares[i] = squares.get(i, 0) + (-c if r else c)
        # sum_x w_x (4x)(4x)^T, entry (a, b) a column sum over the squares
        columns = list(zip(*(uview.labels[i] for i in squares)))
        weights = list(squares.values())
        support = [a for a, col in enumerate(columns) if any(col)]
        for k, a in enumerate(support):
            wa = list(map(mul, weights, columns[a]))
            for b in support[k:]:
                n = sum(map(mul, wa, columns[b]))
                quad[(a, b)] = quad.get((a, b), 0) + n
                if a != b:
                    quad[(b, a)] = quad.get((b, a), 0) + n

    # reduced here, so that each label key is decoded and hashed once
    den = 16 * u.den * v.den
    g = math.gcd(den, *quad.values(), *exps.values())
    known: dict[int, Label] = {}
    for view in views:
        known.update(view.by_key)
    return Weight2Element._trusted(
        dim, den // g, {k: n // g for k, n in quad.items() if n},
        {known.get(key) or tuple(map(sub, key.to_bytes(dim, "big"), biases)):
         n // g for key, n in exps.items() if n})


def oracle_pairing(u: Weight2Element, v: Weight2Element) -> Q:
    """Invariant pairing: 2 tr(ST) on quadratics, 2 per shared
    exponential label, no cross terms; summed in ints over d_u d_v."""
    if u.dim != v.dim:
        raise ValueError("ambient dimensions differ")
    vq, ve = v._quad, v._exps
    total = sum(a * vq.get((j, i), 0) for (i, j), a in u._quad.items())
    total += sum(c * ve.get(x, 0) for x, c in u._exps.items())
    return Q(2 * total, u.den * v.den)
