"""ADE root systems in their standard coordinate models.

Models (all roots have squared norm 2 under the standard dot product):

* ``A`` of rank n-1: the 2(n choose 2) vectors e_i - e_j inside the
  sum-zero hyperplane of R^n.
* ``D`` of rank n: the vectors +-e_i +- e_j (i < j) in R^n.
* ``E`` of rank 8: the D_8 roots together with the 128 half-integer
  vectors (+-1/2, ..., +-1/2) having an even number of minus signs.
* ``E`` of rank 7 resp. 6: the E_8 roots orthogonal to the root
  s = (1/2, ..., 1/2), resp. orthogonal to both s and e_1 + e_8
  (s and e_1 + e_8 span an A_2 subsystem, so this is the A_1- resp.
  A_2-orthogonal-complement realization inside the E_8 coordinates).

Positivity convention, fixed once for the whole package: a root is
positive iff its first nonzero coordinate is positive.  For the E-types
this is the positivity induced by the generic linear functional
v -> sum_k 3^(d-1-k) v_k, whose value is never zero on a root.
``sign_normalized`` is the one implementation of this rule and
``simple_system`` the one scan for indecomposable roots; both take int
and ``Fraction`` tuples alike, so other modules apply them to their own
root shells and labels.

Coordinates are exact: externally tuples of Fraction, internally doubled
to plain integers so the hot loops (inner products, membership and the
reflections that generate the Weyl group) stay in int arithmetic.  In
doubled coordinates <alpha2, v2> = 4<alpha, v>, and <alpha, v> is an
integer for two roots, so ``reflection_images`` computes
r_alpha(v)2 = v2 - (<alpha2, v2> / 4) alpha2 with exact int division.

The Fraction tuples of ``roots``, ``positive_roots`` and
``simple_roots`` cache their hash: each is a private tuple subclass that
computes ``hash(tuple(r))`` once at construction and otherwise behaves
as the plain tuple (equal to it, hashing like it, pickled as it), since
the axis algebras key their dicts by these roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cache, cached_property
from itertools import combinations
from operator import mul, sub
from typing import Iterable

Vector = tuple[Q, ...]


class UnsupportedRank(ValueError):
    """Raised for (kind, rank) pairs outside the supported table."""


class NotARoot(ValueError):
    """Raised when a vector expected to be a root is not one."""


class _Root(tuple):
    """A tuple of ``Fraction`` coordinates that hashes once.

    ``Fraction.__hash__`` is Python code, and a root label is hashed on
    every dict operation that takes it as a key, so the tuple hash is
    computed at construction and kept.  Equality, hash, ordering, repr
    and JSON form are those of the plain tuple, so plain ``Fraction``
    tuples and roots find each other as dict keys.
    """

    def __new__(cls, coords):
        self = super().__new__(cls, coords)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return _Root, (tuple(self),)


# a root's doubled coordinates lie in -2..2; the roots share their halves
_HALVES = {c: Q(c, 2) for c in range(-2, 3)}


def _halve(v2: tuple[int, ...]) -> Vector:
    return _Root(_HALVES[c] for c in v2)


def _double(v: Iterable) -> tuple[int, ...]:
    out = []
    for c in v:
        q = 2 * Q(c)
        if q.denominator != 1:
            raise NotARoot(f"coordinate {c} is not a half-integer")
        out.append(int(q))
    return tuple(out)


def sign_normalized(v: tuple) -> tuple:
    """The member of {v, -v} whose first nonzero coordinate is positive."""
    for c in v:
        if c:
            return v if c > 0 else tuple(-d for d in v)
    raise ValueError("the zero vector has no sign")


def simple_system(positive_roots: Iterable[tuple]) -> list[tuple]:
    """The indecomposable members of a positive system, sorted: those
    that are not a sum of two positive roots."""
    pos = set(positive_roots)
    return sorted(a for a in pos
                  if not any(tuple(map(sub, a, b)) in pos for b in pos))


def _roots2_A(rank: int) -> list[tuple[int, ...]]:
    n = rank + 1
    roots = []
    for i in range(n):
        for j in range(n):
            if i != j:
                v = [0] * n
                v[i], v[j] = 2, -2
                roots.append(tuple(v))
    return roots


def _roots2_D(rank: int) -> list[tuple[int, ...]]:
    roots = []
    for i, j in combinations(range(rank), 2):
        for si in (2, -2):
            for sj in (2, -2):
                v = [0] * rank
                v[i], v[j] = si, sj
                roots.append(tuple(v))
    return roots


def _roots2_E8() -> list[tuple[int, ...]]:
    roots = _roots2_D(8)
    for signs in range(256):
        v = tuple(1 if signs & (1 << k) else -1 for k in range(8))
        if sum(1 for c in v if c < 0) % 2 == 0:
            roots.append(v)
    return roots


@dataclass(frozen=True)
class RootSystem:
    """An ADE root system with explicit coordinates and Coxeter data."""

    kind: str
    rank: int
    ambient_dim: int
    roots: tuple[Vector, ...]
    positive_roots: tuple[Vector, ...]
    # the roots and the positive roots doubled to ints, in the order of
    # roots and positive_roots
    roots2: tuple = field(repr=False, hash=False, compare=False)
    positive2: tuple = field(repr=False, hash=False, compare=False)
    _index2: dict = field(repr=False, hash=False, compare=False)

    # -- queries ----------------------------------------------------------

    def inner(self, u, v) -> Q:
        return sum((Q(a) * Q(b) for a, b in zip(u, v)), Q(0))

    def coxeter_number(self) -> int:
        h, r = divmod(len(self.roots), self.rank)
        if r:
            raise ValueError("root count is not a multiple of the rank")
        return h

    def reflection_images(self, alpha2: tuple[int, ...]) -> tuple[int, ...]:
        """The reflection in the root alpha2 / 2 (given doubled) as a
        permutation of root indices: entry i is the index in ``roots`` of
        r_alpha(roots[i]).  Int arithmetic only (see the module doc)."""
        index = self._index2
        if alpha2 not in index:
            raise NotARoot(f"{alpha2} / 2 is not a root of {self.kind}{self.rank}")
        images = []
        for i, v2 in enumerate(self.roots2):
            c = sum(map(mul, alpha2, v2)) // 4
            images.append(index[tuple(x - c * a for x, a in zip(v2, alpha2))]
                          if c else i)
        return tuple(images)

    def m_alpha(self, alpha) -> int:
        """Number of positive roots beta with <alpha, beta> = +-1."""
        a2 = _double(alpha)
        if a2 not in self._index2:
            raise NotARoot(f"{alpha} is not a root of {self.kind}{self.rank}")
        count = 0
        for b2 in self.positive2:
            # doubled coordinates scale the inner product by 4
            if abs(sum(x * y for x, y in zip(a2, b2))) == 4:
                count += 1
        return count

    def simple_roots(self) -> tuple[Vector, ...]:
        """Indecomposable positive roots (a lattice basis, rank of them)."""
        return self._simple

    @cached_property
    def _simple(self) -> tuple[Vector, ...]:
        simple = simple_system(self.positive2)
        if len(simple) != self.rank:
            raise ValueError("simple root extraction did not match the rank")
        return tuple(self.roots[self._index2[a]] for a in simple)


@cache
def build_root_system(kind: str, rank: int) -> RootSystem:
    """Construct the root system of the given kind and rank, once per
    (kind, rank): every caller shares the one frozen object.

    Supported: (A, rank >= 1), (D, rank >= 4), (E, rank in {6, 7, 8}).
    """
    if kind == "A" and rank >= 1:
        roots2 = _roots2_A(rank)
        ambient = rank + 1
    elif kind == "D" and rank >= 4:
        roots2 = _roots2_D(rank)
        ambient = rank
    elif kind == "E" and rank in (6, 7, 8):
        roots2 = _roots2_E8()
        ambient = 8
        if rank <= 7:
            # orthogonal to the root (1/2, ..., 1/2): doubled sum vanishes
            roots2 = [v for v in roots2 if sum(v) == 0]
        if rank == 6:
            # also orthogonal to e_1 + e_8
            roots2 = [v for v in roots2 if v[0] + v[7] == 0]
    else:
        raise UnsupportedRank(f"unsupported root system {kind}{rank}")
    roots2.sort()
    pos2 = tuple(v for v in roots2 if sign_normalized(v) == v)
    index2 = {v: i for i, v in enumerate(roots2)}
    roots = tuple(_halve(v) for v in roots2)
    return RootSystem(
        kind=kind,
        rank=rank,
        ambient_dim=ambient,
        roots=roots,
        positive_roots=tuple(roots[index2[v]] for v in pos2),
        roots2=tuple(roots2),
        positive2=pos2,
        _index2=index2,
    )
