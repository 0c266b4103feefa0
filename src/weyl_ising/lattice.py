"""Exact integral-lattice arithmetic in a shared coordinate ambient.

A lattice is a free Z-module given by an independent basis of rational
coordinate vectors in R^d with the standard dot product.  Tensor products
are realized coordinatewise (the Kronecker pattern a_i*b_j), so every
lattice in this package, including R (x) E8 and its script realizations
inside blocks of E8^n, lives in some R^d without irrational entries.

Contents: duals and discriminant groups (Smith form), sublattice sums /
intersections / annihilators / indices (Hermite form), the SSD and RSSD
predicates with their t involutions, shell enumeration by integer
Fincke-Pohst on the fraction-free LDL^T of the int Gram, block
embeddings of E8 into X = E8^n, and the explicit identifications of the
script lattices with R (x) E8.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property
from math import gcd, isqrt, lcm
from typing import Callable, Sequence

from .linalg import (
    Vector,
    _bareiss_ldl,
    dot,
    hnf,
    int_inverse,
    int_kernel,
    smith_invariants,
)
from .rootsys import RootSystem, build_root_system

SHELL_RANK_CAP = 24


class NotIntegral(ValueError):
    """The operation requires an integral Gram matrix."""


class NotASublattice(ValueError):
    """The claimed sublattice relation does not hold."""


class NotRSSD(ValueError):
    """The sublattice is not relatively semiselfdual in its ambient."""


class RankTooLarge(ValueError):
    """Shell enumeration refused beyond the supported rank cap."""


class OrderCapExceeded(ValueError):
    """A matrix order search passed its cap."""


class IncompatibleAmbient(ValueError):
    """Operands live in different ambient coordinate spaces."""


class UnsupportedName(ValueError):
    """Unknown lattice-identification name."""


def _scaled_rows(vectors: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Clear denominators: returns (integer rows, common denominator)."""
    vecs = [[c if isinstance(c, (int, Q)) else Q(c) for c in v]
            for v in vectors]
    den = 1
    for v in vecs:
        for c in v:
            den = lcm(den, c.denominator)
    rows = [[c.numerator * (den // c.denominator) for c in v] for v in vecs]
    return rows, den


def _combine(w: Sequence[int], rows: Sequence[Sequence[int]],
             width: int) -> list[int]:
    """The integer row combination sum_k w[k] * rows[k]."""
    out = [0] * width
    for wk, row in zip(w, rows):
        if wk:
            for j, c in enumerate(row):
                if c:
                    out[j] += wk * c
    return out


def _span(rows: Sequence[Sequence[int]], den: int, ambient_dim: int) -> Lattice:
    """Lattice spanned by integer rows over den (dependent or zero rows
    allowed), based by their Hermite form."""
    basis = tuple(tuple(Q(c, den) for c in row) for row in hnf(rows))
    return Lattice(ambient_dim, basis)


@dataclass(frozen=True)
class Lattice:
    """A positive definite lattice with exact rational coordinates.

    Its arithmetic runs on an integer-scaled core, computed lazily once
    per instance: the basis as int ``rows`` over a common denominator
    ``den`` (``_scaled``), the int Gram ``g = rows rows^T``, so that
    ``gram == g / den^2`` (``_int_gram``), ``g^-1 == adj / D`` with an
    int matrix ``adj`` (``_inverse``), and the fraction-free LDL^T of g
    (``_ldl``), which backs both ``det`` and ``shell``.  Values become
    ``Fraction`` only where a public method returns them.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    @cached_property
    def _scaled(self) -> tuple[list[list[int]], int]:
        return _scaled_rows(self.basis)

    @cached_property
    def _int_gram(self) -> list[list[int]]:
        rows, _ = self._scaled
        n = len(rows)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = dot(rows[i], rows[j])
        return g

    @cached_property
    def _inverse(self) -> tuple[list[list[int]], int]:
        return int_inverse(self._int_gram)

    @cached_property
    def _ldl(self) -> tuple[list[int], list[list[int]]] | None:
        """``_bareiss_ldl`` of the int Gram's upper triangle: the pivots
        (leading principal minors) and multiplier numerators, or None at
        a pivot that is not positive.  Read only, never handed back to
        ``_bareiss_ldl``, which consumes its input."""
        return _bareiss_ldl([row[i:] for i, row in enumerate(self._int_gram)])

    @cached_property
    def gram(self) -> list[list[Q]]:
        d2 = self._scaled[1] ** 2
        return [[Q(c, d2) for c in row] for row in self._int_gram]

    @cached_property
    def _canonical(self) -> tuple:
        """Scaled HNF basis, a canonical form for lattice equality."""
        if not self.basis:
            return (self.ambient_dim, 1, ())
        rows, den = self._scaled
        h = hnf(rows)
        g = den
        for row in h:
            for c in row:
                g = gcd(g, c)
        return (self.ambient_dim, den // g,
                tuple(tuple(c // g for c in row) for row in h))

    def det(self) -> Q:
        """The Gram determinant: the last pivot of ``_ldl`` (1 at rank 0)
        over den^(2 rank).  A Gram of real vectors is positive
        semidefinite, so a pivot that is not positive means it is
        singular, and the determinant is 0."""
        factors = self._ldl
        if factors is None:
            return Q(0)
        pivots = factors[0]
        return Q(pivots[-1] if pivots else 1,
                 self._scaled[1] ** (2 * self.rank))

    def is_integral(self) -> bool:
        d2 = self._scaled[1] ** 2
        return all(c % d2 == 0 for row in self._int_gram for c in row)

    def is_even(self) -> bool:
        d2 = self._scaled[1] ** 2
        return self.is_integral() and all(
            self._int_gram[i][i] % (2 * d2) == 0 for i in range(self.rank))

    def dual_basis(self) -> tuple[Vector, ...]:
        """Vectors spanning L* inside the rational span of L."""
        rows, den = self._scaled
        adj, D = self._inverse
        return tuple(
            tuple(Q(den * c, D) for c in _combine(a, rows, self.ambient_dim))
            for a in adj)

    def _weights(self, v: Sequence) -> tuple[list[int], list[int], list[int], int]:
        """``(w, p, v_int, v_den)`` for ``v == v_int / v_den``, with
        ``w = adj (rows v_int)`` and ``p = sum_k w[k] rows[k]``: v's
        coordinates over the basis of its projection onto the span are
        ``den w / (D v_den)``, and the projection is ``p / (D v_den)``."""
        (v_int,), v_den = _scaled_rows([v])
        rows, _ = self._scaled
        adj, _ = self._inverse
        rhs = [dot(row, v_int) for row in rows]
        w = [dot(a, rhs) for a in adj]
        return w, _combine(w, rows, self.ambient_dim), v_int, v_den

    def coordinates(self, v: Sequence) -> list[Q] | None:
        """Rational coordinates of v over the basis, or None if v is
        outside the rational span."""
        if len(v) != self.ambient_dim:
            raise IncompatibleAmbient(
                f"vector of length {len(v)} in ambient {self.ambient_dim}")
        if not self.basis:
            return None if any(Q(c) != 0 for c in v) else []
        w, p, v_int, v_den = self._weights(v)
        D = self._inverse[1]
        # v lies in the span iff it equals its projection
        if any(pj != D * c for pj, c in zip(p, v_int)):
            return None
        den = self._scaled[1]
        return [Q(den * wk, D * v_den) for wk in w]

    def contains(self, v: Sequence) -> bool:
        coords = self.coordinates(v)
        return coords is not None and all(c.denominator == 1 for c in coords)

    def project(self, v: Sequence) -> Vector:
        """Orthogonal projection of v onto the rational span of L."""
        if not self.basis:
            return tuple(Q(0) for _ in range(self.ambient_dim))
        _, p, _, v_den = self._weights(v)
        scale = self._inverse[1] * v_den
        return tuple(Q(c, scale) for c in p)


def from_basis(vectors: Sequence[Sequence], ambient_dim: int | None = None) -> Lattice:
    vecs = tuple(tuple(Q(c) for c in v) for v in vectors)
    if ambient_dim is None:
        ambient_dim = len(vecs[0])
    lat = Lattice(ambient_dim, vecs)
    if vecs and lat.det() == 0:
        raise ValueError("basis vectors are linearly dependent")
    return lat


def from_generators(vectors: Sequence[Sequence], ambient_dim: int) -> Lattice:
    """Lattice spanned by possibly dependent/redundant generators."""
    rows, den = _scaled_rows(vectors)
    return _span(rows, den, ambient_dim)


def root_lattice(R: RootSystem) -> Lattice:
    """The lattice spanned by the roots of R, based by its simple roots."""
    return from_basis(R.simple_roots(), R.ambient_dim)


def same_lattice(M: Lattice, N: Lattice) -> bool:
    return M._canonical == N._canonical


# ---------------------------------------------------------------------------
# Tensor products and discriminant groups.
# ---------------------------------------------------------------------------

def tensor(A: Lattice, B: Lattice) -> Lattice:
    """Tensor product realized by coordinatewise Kronecker products.

    Basis order pairs A-basis (slow index) with B-basis (fast index), so
    the Gram matrix is exactly kron(gram A, gram B).
    """
    if not (A.is_integral() and B.is_integral()):
        raise NotIntegral("tensor operands must be integral lattices")
    basis = []
    for a in A.basis:
        for b in B.basis:
            basis.append(tuple(x * y for x in a for y in b))
    return Lattice(A.ambient_dim * B.ambient_dim, tuple(basis))


def discriminant_group(L: Lattice) -> tuple[int, ...]:
    """Elementary divisors > 1 of L*/L (Smith form of the Gram matrix)."""
    if not L.is_integral():
        raise NotIntegral("discriminant group needs an integral lattice")
    d2 = L._scaled[1] ** 2
    return tuple(smith_invariants([[c // d2 for c in row]
                                   for row in L._int_gram]))


# ---------------------------------------------------------------------------
# Sublattice operations.
# ---------------------------------------------------------------------------

def _check_ambient(M: Lattice, N: Lattice) -> None:
    if M.ambient_dim != N.ambient_dim:
        raise IncompatibleAmbient(
            f"ambient dims {M.ambient_dim} != {N.ambient_dim}")


def sum_lattice(M: Lattice, N: Lattice) -> Lattice:
    _check_ambient(M, N)
    return from_generators(M.basis + N.basis, M.ambient_dim)


def intersect(M: Lattice, N: Lattice) -> Lattice:
    """M cap N via the left kernel of the stacked basis matrix."""
    _check_ambient(M, N)
    if not M.basis or not N.basis:
        return Lattice(M.ambient_dim, ())
    rows, den = _scaled_rows(list(M.basis) + [tuple(-c for c in v)
                                              for v in N.basis])
    k = M.rank
    gens = [_combine(w[:k], rows[:k], M.ambient_dim) for w in int_kernel(rows)]
    return _span(gens, den, M.ambient_dim)


def annihilator(M: Lattice, L: Lattice) -> Lattice:
    """ann_L(M) = the sublattice of L orthogonal to all of M."""
    _check_ambient(M, L)
    if not M.basis or not L.basis:
        return L
    # the pairings scaled by den_L * den_M > 0, which keeps the kernel
    rows, den = L._scaled
    m_rows, _ = M._scaled
    pair = [[dot(lv, mv) for mv in m_rows] for lv in rows]
    gens = [_combine(w, rows, L.ambient_dim) for w in int_kernel(pair)]
    return _span(gens, den, L.ambient_dim)


def is_sublattice(M: Lattice, L: Lattice) -> bool:
    _check_ambient(M, L)
    return all(L.contains(v) for v in M.basis)


def index_in(M: Lattice, L: Lattice) -> int | None:
    """[L : M] when finite (equal ranks), else None."""
    if not is_sublattice(M, L):
        raise NotASublattice("index requires M <= L")
    if M.rank != L.rank:
        return None
    dm, dl = M.det(), L.det()
    ratio = dm / dl
    root = Q(isqrt(ratio.numerator), isqrt(ratio.denominator))
    if root * root != ratio:
        raise ValueError("determinant ratio is not a perfect square")
    return int(root)


# ---------------------------------------------------------------------------
# SSD / RSSD and the t involution.
# ---------------------------------------------------------------------------

def is_SSD(M: Lattice) -> bool:
    """Semiselfdual: 2M* <= M."""
    if not M.is_integral():
        raise NotIntegral("SSD is defined for integral lattices")
    return all(M.contains(tuple(2 * c for c in d)) for d in M.dual_basis())


def is_RSSD(M: Lattice, L: Lattice) -> bool:
    """Relatively semiselfdual in L: 2L <= M + ann_L(M)."""
    if not is_sublattice(M, L):
        raise NotASublattice("RSSD requires M <= L")
    big = sum_lattice(M, annihilator(M, L))
    return all(big.contains(tuple(2 * c for c in v)) for v in L.basis)


def t_involution(M: Lattice, L: Lattice) -> list[list[int]]:
    """Matrix of t_M on the basis of L: -1 on M's span, +1 on its
    orthogonal complement.  Columns are images, entries integers.
    """
    if not is_RSSD(M, L):
        raise NotRSSD("t involution preserves L only for RSSD sublattices")
    cols = []
    for v in L.basis:
        p = M.project(v)
        image = tuple(Q(c) - 2 * pc for c, pc in zip(v, p))
        coords = L.coordinates(image)
        if coords is None or any(c.denominator != 1 for c in coords):
            raise NotRSSD("t image left the lattice")
        cols.append([int(c) for c in coords])
    return [[cols[j][i] for j in range(L.rank)] for i in range(L.rank)]


def matrix_order(T: list[list[int]], cap: int = 12) -> int:
    """Multiplicative order of an integer matrix, up to a small cap."""
    n = len(T)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    power = T
    for k in range(1, cap + 1):
        if power == ident:
            return k
        power = [[sum(power[i][m] * T[m][j] for m in range(n))
                  for j in range(n)] for i in range(n)]
    raise OrderCapExceeded(f"order exceeds cap {cap}")


# ---------------------------------------------------------------------------
# Shell enumeration (integer Fincke-Pohst).
# ---------------------------------------------------------------------------

def _shell_ints(L: Lattice, norm,
                cap: int = SHELL_RANK_CAP) -> tuple[list[tuple[int, ...]], int]:
    """``shell(L, norm, cap)`` as ``(vectors, den)``: the sorted int
    tuples v with v / den the lattice vectors, ``den`` the common
    denominator of L's basis.

    Integer Fincke-Pohst (Fincke & Pohst, Math. Comp. 44, 1985) on the
    int Gram g, where the coefficient vector x of a vector of norm ``norm``
    has ``x^T g x == norm den^2``.  ``L._ldl`` holds the pivots p_k and
    multiplier numerators a_kj of g, so with
    ``t_k = p_k x_k + sum_(j>k) a_kj x_j`` the norm splits into the terms
    ``t_k^2 / (p_k p_(k-1))``.  Scaled by ``M = lcm(p_k p_(k-1))`` every
    term is the int ``w_k t_k^2`` with ``w_k = M / (p_k p_(k-1))``, so the
    budget of each level is an int, the interval of x_k comes from
    ``isqrt`` and floor division, and the last level solves
    ``w_0 t_0^2 == budget`` exactly.
    """
    if L.rank > cap:
        raise RankTooLarge(f"rank {L.rank} exceeds enumeration cap {cap}")
    rows, den = L._scaled
    target = Q(norm)
    if target < 0:
        return [], den
    if L.rank == 0:
        return ([(0,) * L.ambient_dim] if target == 0 else []), den
    factors = L._ldl
    if factors is None:
        raise ValueError("Gram matrix is not positive definite")
    target *= den * den
    if target.denominator != 1:  # x^T g x is an int
        return [], den
    pivots, mult = factors
    below = [1] + pivots[:-1]
    scale = lcm(*(p * q for p, q in zip(pivots, below)))
    weights = [scale // (p * q) for p, q in zip(pivots, below)]
    r = L.rank
    sols: list[tuple[int, ...]] = []
    x = [0] * r

    def descend(k: int, budget: int) -> None:
        c = sum(a * xj for a, xj in zip(mult[k], x[k + 1:]) if xj)
        p, w = pivots[k], weights[k]
        s = isqrt(budget // w)
        if k == 0:
            if w * s * s == budget:
                for t in ((s, -s) if s else (0,)):
                    x0, rest = divmod(t - c, p)
                    if not rest:
                        x[0] = x0
                        sols.append(tuple(x))
                x[0] = 0
            return
        for xk in range(-((s + c) // p), (s - c) // p + 1):
            t = p * xk + c
            x[k] = xk
            descend(k - 1, budget - w * t * t)
        x[k] = 0

    descend(r - 1, scale * target.numerator)
    # one positive denominator: int order is the rational order
    vectors = sorted(tuple(_combine(xs, rows, L.ambient_dim)) for xs in sols)
    return vectors, den


def shell(L: Lattice, norm, cap: int = SHELL_RANK_CAP) -> list[Vector]:
    """All lattice vectors of the given squared norm, sorted.

    Enumerated in ints by ``_shell_ints`` (fraction-free LDL^T and
    integer Fincke-Pohst bounds); each int vector is divided by the common
    denominator once per coordinate.  Refuses ranks beyond the cap
    (desk-scale enumeration only) with ``RankTooLarge``, and raises
    ``ValueError`` on a Gram matrix that is not positive definite.
    """
    vectors, den = _shell_ints(L, norm, cap)
    for i, v in enumerate(vectors):  # in place, to keep the peak low
        vectors[i] = tuple(Q(c, den) for c in v)
    return vectors


# ---------------------------------------------------------------------------
# Block embeddings of E8 into X = E8^n and the script realizations.
# ---------------------------------------------------------------------------

def block_sum(n: int, coeffs: Sequence, v: Sequence) -> Vector:
    """sum_i coeffs[i] * iota_i(v) in the 8n-dim ambient."""
    out = [Q(0)] * (8 * n)
    for i, a in enumerate(coeffs):
        qa = Q(a)
        if qa:
            for k, c in enumerate(v):
                out[8 * i + k] = qa * Q(c)
    return tuple(out)


def tensor_embedding(R: RootSystem) -> Callable[[Sequence, Sequence], Vector]:
    """The coordinatewise map alpha (x) gamma -> sum_i alpha_i iota_i(gamma).

    R's coordinate model supplies the block coefficients; gamma ranges
    over E8 model vectors.  Restricted to the root lattice of R this is
    the isometric identification of R (x) E8 with its script realization.
    """
    n = R.ambient_dim

    def embed(alpha: Sequence, gamma: Sequence) -> Vector:
        return block_sum(n, [Q(c) for c in alpha], gamma)

    return embed


_E8_MODEL: RootSystem | None = None


def e8_model() -> RootSystem:
    global _E8_MODEL
    if _E8_MODEL is None:
        _E8_MODEL = build_root_system("E", 8)
    return _E8_MODEL


def e8_lattice() -> Lattice:
    return root_lattice(e8_model())


def malpha_lattice(R: RootSystem, alpha) -> Lattice:
    """M_alpha = Z alpha (x) E8 realized inside R^(8n); a copy of
    sqrt2 E8 (Gram doubled)."""
    embed = tensor_embedding(R)
    basis = [embed(alpha, g) for g in e8_model().simple_roots()]
    return from_basis(basis, 8 * R.ambient_dim)


def ade_realization(R: RootSystem) -> Lattice:
    """The script lattice attached to R inside (1/2) X, X = E8^n.

    For A and D types this is the span of nu_{i,i+1}-type images of the
    simple roots; for the E types it is generated by the image of the
    whole root lattice under the same coordinatewise map (which brings
    in half-integer block coefficients through the E8 model's roots).
    """
    embed = tensor_embedding(R)
    gens = []
    for b in R.simple_roots():
        for g in e8_model().simple_roots():
            gens.append(embed(b, g))
    return from_generators(gens, 8 * R.ambient_dim)


def verify_identification(kind: str, rank: int) -> bool:
    """Check the explicit identification of the script lattice with
    R (x) E8 (A, D, E8 cases: equal Gram matrices on mapped bases plus
    equal spans), or with the orthogonal complement construction (E7,
    E6: compared through rank, determinant, Smith invariants and
    evenness; shell sizes only below the enumeration cap)."""
    if kind not in ("A", "D", "E"):
        raise UnsupportedName(f"unknown identification {kind}{rank}")
    R = build_root_system(kind, rank)
    E8 = e8_lattice()
    if kind in ("A", "D") or (kind, rank) == ("E", 8):
        target = tensor(root_lattice(R), E8)
        embed = tensor_embedding(R)
        mapped = [embed(b, g) for b in R.simple_roots()
                  for g in e8_model().simple_roots()]
        image = from_basis(mapped, 8 * R.ambient_dim)
        if image.gram != target.gram:
            return False
        return same_lattice(image, ade_realization(R))
    if (kind, rank) in (("E", 7), ("E", 6)):
        big = ade_realization(e8_model())
        n = 8
        half_d = from_basis(
            [block_sum(n, [Q(1, 2)] * n, g) for g in e8_model().simple_roots()],
            8 * n)
        if rank == 7:
            ortho_to = half_d
        else:
            mu_18 = from_basis(
                [block_sum(n, [1, 0, 0, 0, 0, 0, 0, 1], g)
                 for g in e8_model().simple_roots()], 8 * n)
            ortho_to = sum_lattice(half_d, mu_18)
        comp = annihilator(ortho_to, big)
        target = tensor(root_lattice(R), E8)
        if comp.rank != target.rank:
            return False
        if comp.det() != target.det():
            return False
        if discriminant_group(comp) != discriminant_group(target):
            return False
        if comp.is_even() != target.is_even():
            return False
        # norm-4 shell comparison is out of reach at rank 48/56; the
        # computable invariants above are the recorded check.
        return True
    raise UnsupportedName(f"unknown identification {kind}{rank}")
