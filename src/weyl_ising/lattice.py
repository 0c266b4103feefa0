"""Exact integral-lattice arithmetic in a shared coordinate ambient.

A lattice is a free Z-module given by an independent basis of rational
coordinate vectors in R^d with the standard dot product.  Its working
state is an integer core: the basis as int rows over one positive
denominator that shares no factor with all the entries.  Every
operation here builds its lattices from such rows and reads their int
Gram data; a ``Fraction`` basis is a view made on first access, and
``Fraction`` values appear only where a public function returns them.

``tensor`` realizes A (x) B coordinatewise (the Kronecker pattern
a_i*b_j), so every lattice here lives in some R^d without irrational
entries.  It is the one map behind the block lattices M_alpha, the
script realizations of R (x) E8 inside E8^n and their identifications:
the realized Gram is the Kronecker product of the small Grams, and
E7 (x) E8 and E6 (x) E8 are the complements of A1 (x) E8 and A2 (x) E8.

Contents: discriminant groups (Smith form), annihilators and indices
(Hermite form), the SSD and RSSD predicates with their t involutions,
shell enumeration by integer Fincke-Pohst, and the realizations.  One
fraction-free LDL^T of the int Gram per lattice backs determinants,
shells, memberships and inverses; RSSD and t_M read the projections of
L's basis onto M off M's LDL^T, building no lattice.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import cache, cached_property, partial
from itertools import chain
from math import gcd, isqrt, lcm
from operator import mul
from typing import Callable, Sequence

from .linalg import (
    Vector,
    _bareiss_ldl,
    dot,
    hnf,
    int_kernel,
    mat_mul,
    smith_invariants,
    solve,
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
    """Clear denominators: returns (integer rows, common denominator).
    The denominator is the lcm of the entries' denominators, so it shares
    no prime with all the entries."""
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
    return Lattice._from_ints(ambient_dim, hnf(rows), den)


class Lattice:
    """A positive definite lattice with exact rational coordinates.

    Every instance holds its int core ``_scaled`` from construction on:
    the basis as int ``rows`` over a common denominator ``den > 0`` with
    ``gcd(den, every entry) == 1``.  ``Lattice(ambient_dim, basis)``
    takes the basis as rational (or int) vectors and clears their
    denominators (``_scaled_rows``); the lattice operations of this
    module hand over int rows and a denominator (``_from_ints``), which
    divides out their common factor.  ``basis`` is a ``Fraction`` view of
    the core, made on first access.  The core is unique for a given
    basis, so equality and hashing read it.

    From the core, lazily and once per instance: the int Gram
    ``g = rows rows^T``, so that ``gram == g / den^2`` (``_int_gram``),
    and its fraction-free LDL^T (``_ldl``), the one factorization behind
    ``det``, ``shell`` and membership, which solve each vector on it as
    ``adj(g) b`` over its last pivot ``D = det g`` (``linalg.solve``,
    ``_D``).  ``is_SSD`` reads the whole ``adj`` (``_inverse``), built
    from unit solves.  Values become ``Fraction`` only where a public
    method returns them.  Instances are immutable.
    """

    def __init__(self, ambient_dim: int, basis: Sequence[Vector]):
        self.__dict__.update(ambient_dim=ambient_dim,
                             _scaled=_scaled_rows(basis))

    @classmethod
    def _from_ints(cls, ambient_dim: int, rows: Sequence[Sequence[int]],
                   den: int) -> Lattice:
        """The lattice based by ``rows / den`` (independent int rows,
        ``den > 0``); the core divides out gcd(den, every entry)."""
        g = gcd(den, *chain.from_iterable(rows))
        lat = cls.__new__(cls)
        lat.__dict__.update(
            ambient_dim=ambient_dim,
            _scaled=([[c // g for c in row] for row in rows], den // g))
        return lat

    def __setattr__(self, name, value):
        raise AttributeError(f"Lattice is immutable: cannot set {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self._scaled == other._scaled)

    def __hash__(self) -> int:
        rows, den = self._scaled
        return hash((self.ambient_dim, den, tuple(map(tuple, rows))))

    def __repr__(self) -> str:
        return f"Lattice(ambient_dim={self.ambient_dim!r}, basis={self.basis!r})"

    @cached_property
    def basis(self) -> tuple[Vector, ...]:
        rows, den = self._scaled
        return tuple(tuple(Q(c, den) for c in row) for row in rows)

    @property
    def rank(self) -> int:
        return len(self._scaled[0])

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
    def _ldl(self) -> tuple[list[int], list[list[int]]] | None:
        """``_bareiss_ldl`` of the int Gram's upper triangle: the pivots
        (leading principal minors) and multiplier numerators, or None at
        a pivot that is not positive.  Read only, never handed back to
        ``_bareiss_ldl``, which consumes its input."""
        return _bareiss_ldl([row[i:] for i, row in enumerate(self._int_gram)])

    def _factors(self) -> tuple[list[int], list[list[int]]]:
        """``_ldl``.  A Gram of real vectors is positive semidefinite, so
        a pivot that is not positive is 0: the basis is dependent."""
        if self._ldl is None:
            raise ValueError("basis vectors are linearly dependent")
        return self._ldl

    @property
    def _D(self) -> int:
        """det g, the last pivot of ``_ldl`` (1 at rank 0)."""
        return (self._factors()[0] or [1])[-1]

    @cached_property
    def _inverse(self) -> tuple[list[list[int]], int]:
        """``(adj, D)`` with ``g^-1 == adj / D``: g is symmetric, so the
        rows of adj are the unit solves."""
        n = self.rank
        return ([solve(self._factors(), [int(i == j) for i in range(n)])
                 for j in range(n)], self._D)

    @cached_property
    def gram(self) -> list[list[Q]]:
        d2 = self._scaled[1] ** 2
        return [[Q(c, d2) for c in row] for row in self._int_gram]

    @cached_property
    def _canonical(self) -> tuple:
        """Scaled HNF basis, a canonical form for lattice equality."""
        rows, den = self._scaled
        if not rows:
            return (self.ambient_dim, 1, ())
        h = hnf(rows)
        g = gcd(den, *chain.from_iterable(h))
        return (self.ambient_dim, den // g,
                tuple(tuple(c // g for c in row) for row in h))

    def det(self) -> Q:
        """The Gram determinant: ``_D`` over den^(2 rank), or 0 when
        ``_ldl`` stops at a pivot that is not positive (``_factors``)."""
        if self._ldl is None:
            return Q(0)
        return Q(self._D, self._scaled[1] ** (2 * self.rank))

    def is_integral(self) -> bool:
        d2 = self._scaled[1] ** 2
        return all(c % d2 == 0 for row in self._int_gram for c in row)

    def is_even(self) -> bool:
        d2 = self._scaled[1] ** 2
        return self.is_integral() and all(
            self._int_gram[i][i] % (2 * d2) == 0 for i in range(self.rank))

    def _weights(self, v_int: Sequence[int]) -> tuple[list[int], list[int]]:
        """``(w, p)`` for an int vector: ``w = adj (rows v_int)`` (a solve
        on ``_ldl``) and ``p = sum_k w[k] rows[k]``.  For ``v = v_int /
        v_den`` the coordinates of v's projection onto the span are
        ``den w / (D v_den)``, and the projection is ``p / (D v_den)``."""
        rows, _ = self._scaled
        w = solve(self._factors(), [dot(row, v_int) for row in rows])
        return w, _combine(w, rows, self.ambient_dim)

    def _int_coordinates(self, v_int: Sequence[int],
                         v_den: int) -> list[int] | None:
        """The int coordinates over the basis of ``v = v_int / v_den``,
        or None when v is not in the lattice: its projection must have
        integral coordinates and equal v."""
        w, p = self._weights(v_int)
        D = self._D
        scale, den = D * v_den, self._scaled[1]
        coords = []
        for wk in w:
            q, rest = divmod(den * wk, scale)
            if rest:
                return None
            coords.append(q)
        if any(pj != D * c for pj, c in zip(p, v_int)):
            return None
        return coords

    def _scaled_vector(self, v: Sequence) -> tuple[list[int], int]:
        """``(v_int, v_den)`` with ``v == v_int / v_den``, for a v of the
        ambient's length."""
        if len(v) != self.ambient_dim:
            raise IncompatibleAmbient(
                f"vector of length {len(v)} in ambient {self.ambient_dim}")
        (v_int,), v_den = _scaled_rows([v])
        return v_int, v_den

    def contains(self, v: Sequence) -> bool:
        return self._int_coordinates(*self._scaled_vector(v)) is not None


def from_basis(vectors: Sequence[Sequence], ambient_dim: int | None = None) -> Lattice:
    if ambient_dim is None:
        ambient_dim = len(vectors[0])
    lat = Lattice(ambient_dim, vectors)
    lat._factors()  # refuses a dependent basis
    return lat


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
    (a_rows, a_den), (b_rows, b_den) = A._scaled, B._scaled
    rows = [[x * y for x in a for y in b] for a in a_rows for b in b_rows]
    return Lattice._from_ints(A.ambient_dim * B.ambient_dim, rows,
                              a_den * b_den)


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


def annihilator(M: Lattice, L: Lattice) -> Lattice:
    """ann_L(M) = the sublattice of L orthogonal to all of M."""
    _check_ambient(M, L)
    if not M.rank or not L.rank:
        return L
    # the pairings scaled by den_L * den_M > 0, which keeps the kernel
    rows, den = L._scaled
    m_rows, _ = M._scaled
    pair = [[dot(lv, mv) for mv in m_rows] for lv in rows]
    gens = [_combine(w, rows, L.ambient_dim) for w in int_kernel(pair)]
    return _span(gens, den, L.ambient_dim)


def is_sublattice(M: Lattice, L: Lattice) -> bool:
    _check_ambient(M, L)
    rows, den = M._scaled
    return all(L._int_coordinates(v, den) is not None for v in rows)


def index_in(M: Lattice, L: Lattice) -> int | None:
    """[L : M] when finite (equal ranks), else None."""
    if not is_sublattice(M, L):
        raise NotASublattice("index requires M <= L")
    if M.rank != L.rank:
        return None
    ratio = M.det() / L.det()
    root = Q(isqrt(ratio.numerator), isqrt(ratio.denominator))
    if root * root != ratio:
        raise ValueError("determinant ratio is not a perfect square")
    return int(root)


# ---------------------------------------------------------------------------
# SSD / RSSD and the t involution.
# ---------------------------------------------------------------------------

def is_SSD(M: Lattice) -> bool:
    """Semiselfdual: 2M* <= M.

    The dual basis has coordinates gram^-1 = den^2 adj / D over the
    basis, so 2M* <= M iff D divides every entry of 2 den^2 adj."""
    if not M.is_integral():
        raise NotIntegral("SSD is defined for integral lattices")
    adj, D = M._inverse
    f = 2 * M._scaled[1] ** 2
    return all(f * a % D == 0 for row in adj for a in row)


def _doubled_projections(M: Lattice, L: Lattice) -> tuple[list | None, list]:
    """``(X, C)``: C[j] the L-coordinates of M's basis vector m_j
    (``NotASublattice`` unless M <= L); X[k] the M-coordinates ``2 den_M
    w / (D den_L)`` of 2p(v_k), for v_k L's basis vector k, p the
    projection onto M's span and ``w = adj(g_M) rows_M v_k``, or X is
    None if one is not an integer."""
    _check_ambient(M, L)
    m_rows, m_den = M._scaled
    C = [L._int_coordinates(m, m_den) for m in m_rows]
    if None in C:
        raise NotASublattice("RSSD requires M <= L")
    factors, scale = M._factors(), M._D * L._scaled[1]
    X = [[divmod(2 * m_den * wk, scale)
          for wk in solve(factors, [dot(m, v) for m in m_rows])]
         for v in L._scaled[0]]
    if any(rest for x in X for _, rest in x):
        return None, C
    return [[q for q, _ in x] for x in X], C


def is_RSSD(M: Lattice, L: Lattice) -> bool:
    """Relatively semiselfdual in L: 2L <= M + ann_L(M), that is, 2p(v)
    in M for all v in L, p the projection onto M's span (2v - 2p(v) is
    then in ann_L(M), and 2v = m + a projects to 2p(v) = m)."""
    return _doubled_projections(M, L)[0] is not None


def t_involution(M: Lattice, L: Lattice) -> list[list[int]]:
    """Matrix of t_M on the basis of L, -1 on M's span and +1 on its
    complement: column k is the int image v_k - 2p(v_k) = v_k - X[k] C."""
    X, C = _doubled_projections(M, L)
    if X is None:
        raise NotRSSD("t involution preserves L only for RSSD sublattices")
    cols = [_combine(x, C, L.rank) for x in X]
    return [[int(i == k) - c[i] for k, c in enumerate(cols)]
            for i in range(L.rank)]


def matrix_order(T: list[list[int]], cap: int = 12) -> int:
    """Multiplicative order of an integer matrix, up to a small cap."""
    ident = [[int(i == j) for j in range(len(T))] for i in range(len(T))]
    power = T
    for k in range(1, cap + 1):
        if power == ident:
            return k
        power = mat_mul(power, T)
    raise OrderCapExceeded(f"order exceeds cap {cap}")


# ---------------------------------------------------------------------------
# Shell enumeration (integer Fincke-Pohst).
# ---------------------------------------------------------------------------

def _shell_keys(L: Lattice, norm, cap: int = SHELL_RANK_CAP
                ) -> tuple[list[int], Callable[[int], tuple[int, ...]], int]:
    """``shell(L, norm, cap)`` as ``(keys, decode, den)``: one sorted int
    key per lattice vector, with ``decode(key)`` the int tuple v such that
    v / den is the vector, ``den`` the common denominator of L's basis.

    Integer Fincke-Pohst (Fincke & Pohst, Math. Comp. 44, 1985) on the
    int Gram g, where the coefficient vector x of a vector of norm ``norm``
    has ``x^T g x == T`` for the int ``T = norm den^2``.  ``L._ldl`` holds
    the pivots p_k and multiplier numerators a_kj of g, so with
    ``t_k = p_k x_k + sum_(j>k) a_kj x_j`` the norm splits into the terms
    ``t_k^2 / (p_k p_(k-1))``.  Scaled by ``M = lcm(p_k p_(k-1))`` every
    term is the int ``w_k t_k^2`` with ``w_k = M / (p_k p_(k-1))``, so the
    budget of each level is an int, the interval of x_k comes from
    ``isqrt`` and floor division, and the last level, inlined in the loop
    of level 1, solves ``w_0 t_0^2 == budget`` exactly.

    Keys are packed vectors.  Every coordinate of a shell vector has
    ``|v_j| <= isqrt(T) < bias``, so ``v_j + bias`` is a digit in
    ``[1, 2 bias)`` and fits ``width`` bytes; coordinate 0 is the most
    significant digit.  The key ``sum_j (v_j + bias) 256^(width (d-1-j))``
    is then linear in x, ``offset + sum_k x_k P_k`` with ``P_k`` the row
    ``rows[k]`` packed the same way, so the descent adds one ``x_k P_k``
    per level, and int order is the lexicographic order of the vectors.

    The shell is symmetric under v -> -v, and the key of -v is ``2 offset
    - key(v)``.  So the descent walks only the half of the tree whose
    topmost nonzero coefficient is positive: a ``top`` flag, true while
    every x above the level is zero, restricts that level to x_k >= 0 (at
    level 0 to x_0 > 0), and the mirrored keys of the other half join the
    list before the one sort.  Norm 0 is the zero vector alone.
    """
    if L.rank > cap:
        raise RankTooLarge(f"rank {L.rank} exceeds enumeration cap {cap}")
    rows, den = L._scaled
    d, r = L.ambient_dim, L.rank
    target = Q(norm) * den * den
    T = target.numerator
    bias = isqrt(max(T, 0)) + 1
    width = ((2 * bias - 1).bit_length() + 7) // 8
    shift, size = 8 * width, width * d

    def pack(vector: Sequence[int]) -> int:
        key = 0
        for c in vector:
            key = (key << shift) + c
        return key

    offset = pack([bias] * d)
    if width == 1:
        digits = range(-bias, 256 - bias)

        def decode(key: int) -> tuple[int, ...]:
            return tuple(map(digits.__getitem__, key.to_bytes(d, "big")))
    else:
        def decode(key: int) -> tuple[int, ...]:
            raw = key.to_bytes(size, "big")
            return tuple(int.from_bytes(raw[i:i + width], "big") - bias
                         for i in range(0, size, width))

    if T < 0:
        return [], decode, den
    if r == 0:
        return ([offset] if target == 0 else []), decode, den
    factors = L._ldl
    if factors is None:
        raise ValueError("Gram matrix is not positive definite")
    if target.denominator != 1:  # x^T g x is an int
        return [], decode, den
    if T == 0:
        return [offset], decode, den
    pivots, mult = factors
    below = [1] + pivots[:-1]
    scale = lcm(*(p * q for p, q in zip(pivots, below)))
    weights = [scale // (p * q) for p, q in zip(pivots, below)]
    packed = [pack(row) for row in rows]
    p0, w0, a0, key0 = pivots[0], weights[0], mult[0], packed[0]
    keys: list[int] = []
    x = [0] * r  # x[j] for j > k is fixed by the levels above k

    def emit(s: int, c: int, key: int, top: bool) -> None:
        """Level 0 with ``w_0 s^2 == budget``: t_0 = p_0 x_0 + c = +-s.
        When every x above is 0, c is 0 and the budget is the whole
        positive one, so s > 0 and x_0 > 0 takes t_0 = s alone."""
        for t in ((s,) if top else (s, -s) if s else (0,)):
            x0, rest = divmod(t - c, p0)
            if not rest:
                keys.append(key + x0 * key0)

    def descend(k: int, budget: int, key: int, top: bool) -> None:
        c = sum(map(mul, mult[k], x[k + 1:]))
        p, w, pk = pivots[k], weights[k], packed[k]
        s = isqrt(budget // w)
        xs = range(0 if top else -((s + c) // p), (s - c) // p + 1)
        if k > 1:
            for xk in xs:
                t = p * xk + c
                x[k] = xk
                descend(k - 1, budget - w * t * t, key + xk * pk,
                        top and not xk)
            return
        a01 = a0[0]
        c0 = sum(map(mul, a0[1:], x[2:]))
        for x1 in xs:
            t = p * x1 + c
            rest = budget - w * t * t
            s0 = isqrt(rest // w0)
            if w0 * s0 * s0 == rest:
                emit(s0, c0 + a01 * x1, key + x1 * pk, top and not x1)

    budget = scale * T
    if r == 1:
        s0 = isqrt(budget // w0)
        if w0 * s0 * s0 == budget:
            emit(s0, 0, offset, True)
    else:
        descend(r - 1, budget, offset, True)
    keys += [2 * offset - key for key in keys]
    keys.sort()
    return keys, decode, den


def _shell_ints(L: Lattice, norm,
                cap: int = SHELL_RANK_CAP) -> tuple[list[tuple[int, ...]], int]:
    """``shell(L, norm, cap)`` as ``(vectors, den)``: the sorted int
    tuples v with v / den the lattice vectors, decoded from
    ``_shell_keys``."""
    keys, decode, den = _shell_keys(L, norm, cap)
    return list(map(decode, keys)), den


def shell(L: Lattice, norm, cap: int = SHELL_RANK_CAP) -> list[Vector]:
    """All lattice vectors of the given squared norm, sorted.

    Enumerated in ints by ``_shell_keys`` (fraction-free LDL^T, integer
    Fincke-Pohst bounds and packed keys in one sort); each key is decoded
    once, and each distinct coordinate becomes one shared ``Fraction``.
    Refuses ranks beyond the cap (desk-scale enumeration only) with
    ``RankTooLarge``, and raises ``ValueError`` on a Gram matrix that is
    not positive definite.
    """
    keys, decode, den = _shell_keys(L, norm, cap)
    frac = cache(partial(Q, denominator=den))
    for i, key in enumerate(keys):  # in place, to keep the peak low
        keys[i] = tuple(map(frac, decode(key)))
    return keys


# ---------------------------------------------------------------------------
# The script realizations and their identifications with R (x) E8.
# ---------------------------------------------------------------------------

_E8_MODEL: RootSystem | None = None


def e8_model() -> RootSystem:
    global _E8_MODEL
    if _E8_MODEL is None:
        _E8_MODEL = build_root_system("E", 8)
    return _E8_MODEL


@cache
def e8_lattice() -> Lattice:
    return root_lattice(e8_model())


def malpha_lattice(R: RootSystem, alpha) -> Lattice:
    """M_alpha = ``tensor`` of Z alpha and E8 inside R^(8n), block i
    alpha_i times an E8 vector: a copy of sqrt2 E8 (Gram doubled)."""
    return tensor(from_basis([alpha], R.ambient_dim), e8_lattice())


def ade_realization(R: RootSystem) -> Lattice:
    """The script lattice of R inside (1/2) X, X = E8^n:
    ``tensor(root_lattice(R), E8)`` in its Kronecker basis, simple root
    (x) E8 simple root, whose block i of alpha (x) gamma is alpha_i
    gamma.  Its checks read basis-free invariants, ``same_lattice``
    compares canonical forms, and shells come out sorted."""
    return tensor(root_lattice(R), e8_lattice())


@cache
def _e8_realization() -> Lattice:
    """The script lattice of E8 (rank 64), ambient of the E7/E6 checks."""
    return ade_realization(e8_model())


def verify_identification(kind: str, rank: int) -> bool:
    """The script lattice of R is R (x) E8, one path for every kind: the
    realized basis ``tensor(root_lattice(R), E8)`` has as int Gram the
    Kronecker product of R's and E8's (denominators cross-multiplied),
    and the E7/E6 realizations equal the complements in the E8
    realization of cut (x) E8, cut the vectors that cut E7 and E6 out of
    E8 in ``rootsys``: s = (1/2, ..., 1/2), and e_1 + e_8 for E6.  An A,
    D or E8 realization is the span of its realized basis itself."""
    if kind not in ("A", "D", "E"):
        raise UnsupportedName(f"unknown identification {kind}{rank}")
    R = build_root_system(kind, rank)
    E8, root = e8_lattice(), root_lattice(R)
    image = tensor(root, E8)
    d2, scale = image._scaled[1] ** 2, (root._scaled[1] * E8._scaled[1]) ** 2
    kron = [[x * y * d2 for x in a for y in b]
            for a in root._int_gram for b in E8._int_gram]
    if [[c * scale for c in row] for row in image._int_gram] != kron:
        return False
    if kind != "E" or rank == 8:
        return True
    cut = [(Q(1, 2),) * 8, (1, 0, 0, 0, 0, 0, 0, 1)][:8 - rank]
    comp = annihilator(tensor(from_basis(cut), E8), _e8_realization())
    return same_lattice(ade_realization(R), comp)
