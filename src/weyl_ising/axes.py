"""Closed-form Griess algebra on a finite axis set with 2B/3C incidence.

Axes are opaque hashable labels.  Each pair of distinct axes is either
2B (orthogonal: zero product, zero pairing) or 3C with a designated
third axis closing the triple.  The one constructor
``AxisAlgebra(axes, third)`` reads that incidence as axis indices:
``third(i, j)`` for i > j is the index of the third axis of a 3C pair
and None for a 2B pair.  Products, the invariant bilinear form,
conformal vectors and Miyamoto permutations all follow from the three
closed-form rules

    e . e = 2e        <e, e> = 1/4
    e . f = 0         <e, f> = 0          (2B)
    e . f = (e + f - g)/32,  <e, f> = 1/256   (3C with third g)

extended bilinearly over exact rationals.

Coefficients enter the products as int numerators over one common
denominator per operand: ``product`` accumulates 32 c_a c_b (e = f) and
c_a c_b (3C) in ints and makes one ``Fraction`` per output term over
32 d_u d_v, ``pairing`` accumulates 64 c_a c_b and c_a c_b over
256 d_u d_v, and the action check of ``virasoro`` runs the same int
product.  ``associative_on_units`` and ``automorphic_on_units``, the
associativity and Miyamoto-automorphism checks of the acceptance
battery, read the same int kernels on a table of unit products e_i . e_j
and build no ``Fraction``.  ``Fraction`` remains at the public
boundaries (every coefficient is converted with it on the way in).

``from_root_system`` builds one algebra per root system and every caller
shares it, so the relation table ``_code`` is immutable: tuple rows of
int codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cache
from itertools import product
from math import lcm
from operator import add, mul, sub
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .rootsys import NotARoot, RootSystem, sign_normalized

Label = Hashable
Element = dict  # Label -> Fraction, zero coefficients dropped

class NoConformalVector(ValueError):
    """The system w.x = 2x over the axis span has no solution."""


@dataclass(frozen=True)
class VirasoroReport:
    """The conformal vector w of ``virasoro``, which has checked that w
    acts as multiplication by 2 on every axis, with its norm <w, w> and
    central charge 2 <w, w>."""

    vector: Mapping
    norm: Q
    central_charge: Q


# Relation codes of the internal table: the diagonal is _SAME, a 2B pair
# _TWO_B, and an int k >= 0 is 3C with third axis axes[k].
_SAME = -1
_TWO_B = -2


class AxisAlgebra:
    """Finite-dimensional commutative algebra spanned by axes.

    ``third(i, j)``, called once for each pair of axis indices i > j,
    returns the index of the third axis of a 3C pair or None for a 2B
    pair.  The table is built from that lower triangle, so by
    construction it is symmetric and pairs each axis only with itself
    on the diagonal.  The constructor checks that the labels are
    distinct, that every third index is another axis, and that every
    triple closes: third(i, j) = k forces the pair {i, k} to have third
    axis j and {j, k} third axis i.

    The relation is stored as an axis-index table of int codes, so the
    products look each label up once per term rather than hashing a pair
    of labels per pair of terms.
    """

    def __init__(self, axes: Sequence[Label],
                 third: Callable[[int, int], int | None]):
        axes = tuple(axes)
        index = {a: i for i, a in enumerate(axes)}
        if len(index) != len(axes):
            raise ValueError("axis labels must be distinct")
        n = len(axes)
        code = [[_SAME] * n for _ in range(n)]
        for i, row in enumerate(code):
            for j in range(i):
                k = third(i, j)
                if k is None:
                    k = _TWO_B
                elif k not in range(n) or k == i or k == j:
                    label = axes[k] if k in range(n) else k
                    raise ValueError(f"third axis {label!r} of ({axes[i]!r}, "
                                     f"{axes[j]!r}) is not another axis")
                row[j] = code[j][i] = k
        for i, row in enumerate(code):
            for j in range(i):
                k = row[j]
                if k >= 0 and (row[k] != j or code[j][k] != i):
                    raise ValueError(f"triple through ({axes[i]!r}, "
                                     f"{axes[j]!r}) does not close")
        self.axes = axes
        self._index = index
        # tuple rows: an algebra may be shared (``from_root_system`` is
        # cached), so its table cannot be assigned into
        self._code = tuple(map(tuple, code))

    def __len__(self) -> int:
        return len(self.axes)

    def third(self, a: Label, b: Label) -> Label | None:
        """The third axis of the 3C triple through the distinct axes a
        and b, or None when they are 2B."""
        k = self._code[self._index[a]][self._index[b]]
        if k == _SAME:
            raise ValueError(f"{a!r} and {b!r} are one axis")
        return self.axes[k] if k >= 0 else None

    def element(self, coeffs: Mapping) -> Element:
        index = self._index
        out: dict[int, Q] = {}
        for a, c in coeffs.items():
            i = index.get(a)
            if i is None:
                raise KeyError(f"{a!r} is not an axis")
            c = Q(c)
            if c:
                out[i] = out.get(i, 0) + c
        axes = self.axes
        return {axes[i]: c for i, c in out.items() if c}

    def axis(self, a: Label) -> Element:
        return self.element({a: 1})

    def _terms(self, u: Mapping) -> tuple[list[tuple[int, int]], int]:
        """The terms of u with a nonzero coefficient as (axis index, int
        numerator) over one common denominator d, and d."""
        index = self._index
        terms = [(index[a], c if type(c) is Q else Q(c))
                 for a, c in u.items() if c]
        d = lcm(*(c.denominator for _, c in terms))
        return [(i, c.numerator * (d // c.denominator)) for i, c in terms], d

    def _product_ints(self, ut: list[tuple[int, int]],
                      vt: list[tuple[int, int]]) -> dict[int, int]:
        """The product of two term lists over d_u and d_v as int
        numerators over 32 d_u d_v, keyed by axis index in the order the
        terms first reach each axis; entries may be zero."""
        out: dict[int, int] = {}
        get = out.get
        code = self._code
        for i, ca in ut:
            row = code[i]
            for j, cb in vt:
                k = row[j]
                if k == _TWO_B:
                    continue
                c = ca * cb
                if k == _SAME:
                    c *= 32
                out[i] = get(i, 0) + c
                out[j] = get(j, 0) + c
                if k >= 0:
                    out[k] = get(k, 0) - c
        return out

    def product(self, u: Mapping, v: Mapping) -> Element:
        vt, dv = self._terms(v) if u else ([], 1)
        if not vt:
            return {}
        ut, du = self._terms(u)
        den = 32 * du * dv
        axes = self.axes
        return {axes[i]: Q(c, den)
                for i, c in self._product_ints(ut, vt).items() if c}

    def _pairing_ints(self, ut, vt) -> int:
        """The pairing of two term lists over d_u and d_v as an int
        numerator over 256 d_u d_v."""
        total = 0
        code = self._code
        for i, ca in ut:
            row = code[i]
            for j, cb in vt:
                k = row[j]
                if k == _SAME:
                    total += 64 * ca * cb
                elif k >= 0:
                    total += ca * cb
        return total

    def pairing(self, u: Mapping, v: Mapping) -> Q:
        vt, dv = self._terms(v) if u else ([], 1)
        if not vt:
            return Q(0)
        ut, du = self._terms(u)
        return Q(self._pairing_ints(ut, vt), 256 * du * dv)


@cache
def from_root_system(R: RootSystem) -> AxisAlgebra:
    """One axis per positive root; pairs are 3C when the roots have
    product +-1 (third axis the canonical positive of their sum or
    difference) and 2B when orthogonal.  Built once per root system
    and shared by every caller."""
    # doubled coordinates scale the inner product by 4
    doubled = R.positive2
    where = {v: k for k, v in enumerate(doubled)}

    def third(i: int, j: int) -> int | None:
        a, b = doubled[i], doubled[j]
        s = sum(map(mul, a, b))
        if s == 0:
            return None
        if s not in (4, -4):
            raise ValueError(f"unexpected root pair with product {Q(s, 4)}")
        v = tuple(map(add if s < 0 else sub, a, b))
        k = where.get(sign_normalized(v))
        if k is None:
            raise NotARoot(f"neither the doubled vector {v} nor its "
                           "negative is a positive root")
        return k

    return AxisAlgebra(R.positive_roots, third)


def gram_positive_definite(R: RootSystem, A: AxisAlgebra) -> bool:
    """True if A's axes are R's positive roots and its table's Gram,
    scaled by 256 (64 on the diagonal, 3C 1, 2B 0), is 60 I + H o H entry
    for entry, where H is the Gram of the positive roots and o is the
    entrywise product; the expected side is read off root coordinates
    only, so the check also cross-checks the 2B/3C table.  H o H = K K^T
    with rows a (x) a (Schur product theorem; Horn-Johnson, Matrix
    Analysis, Thm 7.5.3), so then G >= (60/256) I is positive definite."""
    v = R.positive2  # doubled coordinates: products are 4 <a, b>
    scaled = {_SAME: 64, _TWO_B: 0}
    return A.axes == R.positive_roots and all(
        16 * scaled.get(k, 1) == 960 * (i == j) + sum(map(mul, a, b)) ** 2
        for i, (a, row) in enumerate(zip(v, A._code))
        for j, (b, k) in enumerate(zip(v[i:], row[i:]), i))


def _unit_products(A: AxisAlgebra, pairs: Iterable[tuple[int, int]]) -> dict:
    """(i, j) -> the nonzero terms {axis index: int} of e_i . e_j over
    32, from the int product, for each pair of axis indices."""
    ints = A._product_ints
    return {(i, j): {k: c for k, c in ints(((i, 1),), ((j, 1),)).items() if c}
            for i, j in set(pairs)}


def associative_on_units(A: AxisAlgebra,
                         triples: Iterable[tuple[int, int, int]]) -> bool:
    """Whether <e_i . e_j, e_k> = <e_i, e_j . e_k> for every triple of
    axis indices: both sides are int numerators over 256 * 32."""
    triples = list(triples)
    P = _unit_products(A, [(i, j) for i, j, _ in triples]
                       + [(j, k) for _, j, k in triples])
    pairing = A._pairing_ints
    return all(pairing(P[i, j].items(), ((k, 1),))
               == pairing(((i, 1),), P[j, k].items())
               for i, j, k in triples)


def automorphic_on_units(A: AxisAlgebra,
                         perms: Iterable[Sequence[int]]) -> bool:
    """Whether every permutation of axis indices in ``perms`` maps
    e_a . e_b to e_p(a) . e_p(b) for all axes a, b, compared as int
    numerators over 32."""
    n = len(A)
    P = _unit_products(A, product(range(n), repeat=2))
    return all(P[p[a], p[b]] == {p[k]: c for k, c in terms.items()}
               for p in perms for (a, b), terms in P.items())


def _is_conformal(A: AxisAlgebra, w: Mapping) -> bool:
    """Whether w . e_b = 2 e_b for every axis b, by the int product: with
    w's terms taken once over d, 32 d (w . e_b) must be {b: 64 d}."""
    wt, d = A._terms(w)
    return all({i: c for i, c in A._product_ints(wt, [(b, 1)]).items() if c}
               == {b: 64 * d} for b in range(len(A.axes)))


def virasoro(A: AxisAlgebra) -> VirasoroReport:
    """Solve w . e_b = 2 e_b (all axes b) for w = sum_a c_a e_a.

    Scaled by 32, the equation for b is read off b's row of the table.
    For a 3C partner a of b with third axis k, its e_a component reads
    c_a - c_k = 0, so c is constant on each connected component of the
    3C graph.  Its e_b component then reads (64 + deg b) c_b = 64, where
    deg b counts b's 3C partners.  So a solution exists exactly when deg
    is constant on each component, checked on every 3C pair.  Every
    component has an equation with the nonzero coefficient 64 + deg, so
    the solution c_b = 64/(64 + deg b) is unique.  The int product then
    checks the action on every axis.
    """
    axes = A.axes
    code = A._code
    deg = [sum(k >= 0 for k in row) for row in code]
    for i, row in enumerate(code):
        for j in range(i):
            if row[j] >= 0 and deg[i] != deg[j]:
                raise NoConformalVector(
                    f"3C partners {axes[i]!r} and {axes[j]!r} have "
                    f"{deg[i]} and {deg[j]} 3C partners")
    w = A.element({a: Q(64, 64 + d) for a, d in zip(axes, deg)})
    if not _is_conformal(A, w):
        raise NoConformalVector("solved vector fails the action check")
    norm = A.pairing(w, w)
    return VirasoroReport(vector=w, norm=norm, central_charge=2 * norm)


def miyamoto_permutation(A: AxisAlgebra, e: Label) -> tuple[int, ...]:
    """Index images of the axis involution attached to e: fixes e and its
    2B partners, swaps f and g in every 3C triple through e."""
    row = A._code[A._index[e]]
    return tuple(k if k >= 0 else j for j, k in enumerate(row))

