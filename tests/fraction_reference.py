"""Plain-``Fraction`` reference algorithms and helpers for the tests.

The library factors each Gram once, fraction-free
(``linalg._bareiss_ldl``, cached per lattice as ``Lattice._ldl``), and
reads from that one factorization its determinants, shells, positivity
test (``linalg.ldl_is_positive_definite``), coordinates, memberships,
projections and inverses (``linalg.solve``); it enumerates shells in ints
(``lattice.shell``) and multiplies and pairs axis-algebra elements on
int numerators (``AxisAlgebra.product`` and ``pairing``); the
Gauss-Jordan ``solve`` and ``matrix_inverse``, the fraction-free
Gauss-Jordan ``int_inverse`` (a second elimination loop) and the
lattice coordinates ``int_coordinates`` read from its whole inverse, the
``ldl`` loop, the determinants ``det_bareiss`` (full-matrix Bareiss with
row swaps) and ``det_rational``, the Fincke-Pohst ``shell`` descent and the
``Fraction`` loops ``axis_product`` and ``axis_pairing`` below are the
direct computations they replaced, kept here so the property tests
compare the two.  ``axis_gram`` writes out the ``Fraction`` Gram of an
axis algebra, which the library certifies from root coordinates
(``axes.gram_positive_definite``) without building it; the tests feed it
to the Bareiss test as a cross-check.  ``conformal_vector`` is the
general solver of w . e = 2e that ``axes.virasoro`` replaced by reading
the answer off the 3C graph: it writes out every equation, contracts the
two-term differences by union-find and eliminates the rest over
``Fraction``.  ``is_RSSD`` and ``t_involution`` are the constructions
that ``lattice.is_RSSD`` and ``lattice.t_involution`` replaced by
reading the doubled projections of L's basis off M's own LDL^T: the
first builds ann_L(M) and M + ann_L(M) and solves 2L on the sum, the
second solves every image of t on L.  ``project`` is the orthogonal
projection through the ``Fraction`` inverse of the Gram, and ``reflect``
the ``Fraction`` reflection that ``RootSystem.reflection_images`` reads
as root indices in ints.  ``from_generators`` (the lattice spanned by
dependent generators, based by their Hermite form) and ``intersect``
(M cap N from an integer kernel) build test lattices.  The vector and
matrix helpers ``vec_add``, ``vec_sub``, ``vec_scale``, ``gram_matrix``,
``mat_vec`` and ``transpose`` build test data; the library has no use
for them.
"""

from fractions import Fraction as Q
from math import ceil, floor, gcd, isqrt
from typing import Sequence

from weyl_ising.axes import SAME, TWO_B, NoConformalVector
from weyl_ising.lattice import (
    NotASublattice,
    NotRSSD,
    _check_ambient,
    _combine,
    _scaled_rows,
    _span,
    annihilator,
    is_sublattice,
)
from weyl_ising.linalg import Vector, dot, int_kernel


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u: Vector) -> Vector:
    return tuple(c * a for a in u)


def gram_matrix(vectors: Sequence[Vector]) -> list[list[Q]]:
    return [[dot(u, v) for v in vectors] for u in vectors]


def mat_vec(a: Sequence[Sequence], v: Sequence) -> list:
    return [dot(row, v) for row in a]


def transpose(a: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*a)]


def reflect(alpha: Sequence, v: Sequence) -> Vector:
    """r_alpha(v) = v - <alpha, v> alpha for a root alpha (norm 2)."""
    c = dot(alpha, v)
    return tuple(Q(x) - c * Q(a) for x, a in zip(v, alpha))


def project(L, v: Sequence) -> Vector:
    """The orthogonal projection of v onto the span of L's basis:
    ``sum_k c_k b_k`` with ``c = gram^-1 (<b_k, v>)_k``."""
    basis = L.basis
    rhs = [dot(b, v) for b in basis]
    coef = [dot(row, rhs) for row in matrix_inverse(L.gram)]
    return tuple(sum((c * b[j] for c, b in zip(coef, basis)), Q(0))
                 for j in range(L.ambient_dim))


def from_generators(vectors: Sequence[Sequence], ambient_dim: int):
    """The lattice spanned by possibly dependent or redundant
    generators."""
    rows, den = _scaled_rows(vectors)
    return _span(rows, den, ambient_dim)


def intersect(M, N):
    """M cap N via the left kernel of the stacked basis matrix."""
    _check_ambient(M, N)
    if not M.rank or not N.rank:
        return from_generators([], M.ambient_dim)
    (m_rows, m_den), (n_rows, n_den) = M._scaled, N._scaled
    den = m_den * n_den
    m_rows = [[n_den * c for c in row] for row in m_rows]
    rows = m_rows + [[-m_den * c for c in row] for row in n_rows]
    gens = [_combine(w[:M.rank], m_rows, M.ambient_dim)
            for w in int_kernel(rows)]
    return _span(gens, den, M.ambient_dim)


def det_bareiss(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    a = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_rational(matrix: Sequence[Sequence[Q]]) -> Q:
    """Determinant of a rational matrix (clears denominators, then Bareiss)."""
    n = len(matrix)
    if n == 0:
        return Q(1)
    denom = 1
    for row in matrix:
        for x in row:
            q = Q(x)
            denom = denom * q.denominator // gcd(denom, q.denominator)
    scaled = [[int(Q(x) * denom) for x in row] for row in matrix]
    return Q(det_bareiss(scaled), denom ** n)


def int_inverse(matrix: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Inverse of a nonsingular integer matrix over one common denominator.

    Returns ``(A, D)`` with ``matrix^-1 == A / D``, ``D > 0`` and
    ``gcd(D, entries of A) == 1``.  Fraction-free Gauss-Jordan (Bareiss):
    after step k the first k + 1 columns are the current pivot times the
    identity (settled, so never updated again) and every other entry is a
    minor of ``[matrix | I]``, so each division by the previous pivot is
    exact.  The last pivot is the determinant up to sign, and the right
    block over it is the inverse.
    """
    n = len(matrix)
    a = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(matrix)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        a[k], a[piv] = a[piv], a[k]
        row_k = a[k]
        p = row_k[k]
        tail = row_k[k + 1:]
        for i in range(n):
            if i != k:
                row_i = a[i]
                f = row_i[k]
                row_i[k + 1:] = [(p * x - f * y) // prev
                                 for x, y in zip(row_i[k + 1:], tail)]
                row_i[k] = 0
        prev = p
    if prev < 0:
        prev = -prev
        a = [[-x for x in row] for row in a]
    g = prev
    for row in a:
        for x in row[n:]:
            g = gcd(g, x)
    return [[x // g for x in row[n:]] for row in a], prev // g


def int_coordinates(L, v_int: Sequence[int], v_den: int) -> list[int] | None:
    """The int coordinates over L's basis of ``v_int / v_den``, or None
    when that vector is not in L, from the whole inverse: with the basis
    as int ``rows`` over ``den`` and ``g^-1 == adj / D`` (``int_inverse``
    of the int Gram), the projection has coordinates
    ``den adj (rows v_int) / (D v_den)`` and is
    ``sum_k (adj rows v_int)_k rows[k] / (D v_den)``."""
    rows, den = L._scaled
    adj, D = int_inverse(L._int_gram)
    w = mat_vec(adj, mat_vec(rows, v_int))
    coords = []
    for wk in w:
        q, rest = divmod(den * wk, D * v_den)
        if rest:
            return None
        coords.append(q)
    p = [sum(wk * row[j] for wk, row in zip(w, rows))
         for j in range(L.ambient_dim)]
    return coords if p == [D * c for c in v_int] else None


def solve(matrix: Sequence[Sequence[Q]], rhs: Sequence[Q]) -> list[Q] | None:
    """Solve ``matrix @ x = rhs`` exactly.

    Returns one solution, or None when the system is inconsistent.  The
    matrix may be rectangular; free variables are set to zero.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    a = [list(map(Q, row)) + [Q(rhs[i])] for i, row in enumerate(matrix)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, m) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for r in range(m):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append((row, col))
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if a[r][n] != 0:
            return None
    x = [Q(0)] * n
    for r, c in pivots:
        x[c] = a[r][n]
    return x


def matrix_inverse(matrix: Sequence[Sequence[Q]]) -> list[list[Q]]:
    """The inverse of a nonsingular square matrix, by Gauss-Jordan."""
    n = len(matrix)
    a = [list(map(Q, row)) + [Q(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def ldl(matrix: Sequence[Sequence[Q]]) -> tuple[list[Q], list[list[Q]]] | None:
    """LDL^T of a symmetric matrix by ``Fraction`` elimination on the
    upper triangle: ``(d, u)`` with ``matrix == U^T diag(d) U`` for U unit
    upper triangular with entries ``u[k][i]`` (i > k), or None at the
    first nonpositive pivot."""
    n = len(matrix)
    a = [[Q(x) for x in row] for row in matrix]
    d: list[Q] = []
    u = [[Q(0)] * n for _ in range(n)]
    for k in range(n):
        row_k = a[k]
        piv = row_k[k]
        if piv <= 0:
            return None
        d.append(piv)
        for i in range(k + 1, n):
            if row_k[i] != 0:
                f = u[k][i] = row_k[i] / piv
                row_i = a[i]
                for j in range(i, n):
                    row_i[j] -= f * row_k[j]
    return d, u


def shell(L, norm) -> list[tuple[Q, ...]]:
    """The vectors of squared norm ``norm`` of the lattice L, sorted:
    Fincke-Pohst over the ``Fraction`` LDL^T of L's Gram matrix, with
    ``Fraction`` budgets and interval bounds at every node."""
    target = Q(norm)
    if target < 0:
        return []
    r = L.rank
    if r == 0:
        return [tuple(Q(0) for _ in range(L.ambient_dim))] if target == 0 else []
    d, u = ldl(L.gram)
    sols: list[tuple[int, ...]] = []
    x = [0] * r

    def descend(k: int, budget: Q) -> None:
        c = sum(u[k][j] * x[j] for j in range(k + 1, r))
        s = isqrt(floor(budget / d[k])) + 1
        for xk in range(ceil(-c - s), floor(-c + s) + 1):
            val = d[k] * (xk + c) ** 2
            if val > budget:
                continue
            x[k] = xk
            if k == 0:
                if val == budget:
                    sols.append(tuple(x))
            else:
                descend(k - 1, budget - val)
        x[k] = 0

    descend(r - 1, target)
    return sorted(
        tuple(sum((xk * b[i] for xk, b in zip(xs, L.basis)), Q(0))
              for i in range(L.ambient_dim))
        for xs in sols)


def _axis_terms(u) -> list[tuple]:
    """The terms of u with a nonzero coefficient as (label, Fraction)."""
    return [(a, Q(c)) for a, c in u.items() if c]


def axis_product(A, u, v) -> dict:
    """u . v in the axis algebra A by the closed-form rules, one
    ``Fraction`` product per pair of terms, with the relation read
    through ``A.relation``."""
    out: dict = {}

    def add(a, c: Q) -> None:
        out[a] = out.get(a, 0) + c

    vt = _axis_terms(v) if u else []
    if vt:
        for a, ca in _axis_terms(u):
            for b, cb in vt:
                c = ca * cb
                r = A.relation(a, b)
                if r == SAME:
                    add(a, c)
                    add(b, c)
                elif r != TWO_B:
                    c = c / 32
                    add(a, c)
                    add(b, c)
                    add(r.third, -c)
    return {a: c for a, c in out.items() if c}


def axis_pairing(A, u, v) -> Q:
    """<u, v> in the axis algebra A by the closed-form rules."""
    total = Q(0)
    vt = _axis_terms(v) if u else []
    if vt:
        for a, ca in _axis_terms(u):
            for b, cb in vt:
                r = A.relation(a, b)
                if r == SAME:
                    total += ca * cb / 4
                elif r != TWO_B:
                    total += ca * cb / 256
    return total


def axis_gram(A) -> list[list[Q]]:
    """The Gram matrix of A's axes by the closed-form rules (SAME 1/4,
    TWO_B 0, THREE_C 1/256), with the relation read through
    ``A.relation``."""
    value = {SAME: Q(1, 4), TWO_B: Q(0)}
    return [[value.get(A.relation(a, b), Q(1, 256)) for b in A.axes]
            for a in A.axes]


def conformal_vector(A) -> dict:
    """The w in the axis span of A with w . e = 2e for every axis e, as
    {label: Fraction} in axis order, with the relation read through
    ``A.relation``.  Raises ``NoConformalVector`` when the system is
    inconsistent and a plain ``ValueError`` when its solution is not
    unique."""
    axes = A.axes
    n = len(axes)
    index = {a: i for i, a in enumerate(axes)}

    # rows: (dict var-index -> int, rhs), every equation scaled by 32 so
    # that its coefficients are the ints 32 (SAME) and +-1 (THREE_C)
    rows: list[tuple[dict[int, int], int]] = []
    for b in range(n):
        # coefficient of axis g in sum_a c_a (e_a . e_b), for each g
        cols: dict[int, dict[int, int]] = {}

        def put(g: int, a: int, val: int) -> None:
            col = cols.setdefault(g, {})
            col[a] = col.get(a, 0) + val

        for a in range(n):
            r = A.relation(axes[a], axes[b])
            if r == SAME:
                put(a, a, 32)
                put(b, a, 32)
            elif r != TWO_B:
                put(a, a, 1)
                put(b, a, 1)
                put(index[r.third], a, -1)
        for g, row in cols.items():
            row = {j: v for j, v in row.items() if v}
            rhs = 64 if g == b else 0
            if row or rhs:
                rows.append((row, rhs))

    # union-find over rows of the form q(c_x - c_y) = 0
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rest: list[tuple[dict[int, int], int]] = []
    for row, rhs in rows:
        if rhs == 0 and len(row) == 2:
            (x, qx), (y, qy) = row.items()
            if qx == -qy:
                parent[find(x)] = find(y)
                continue
        rest.append((row, rhs))

    classes = sorted({find(j) for j in range(n)})
    pos = {c: k for k, c in enumerate(classes)}
    m = len(classes)

    reduced = set()
    for row, rhs in rest:
        acc = [0] * m
        for j, v in row.items():
            acc[pos[find(j)]] += v
        reduced.add((tuple(acc), rhs))

    # exact Gauss-Jordan elimination on the reduced system
    mat = [[Q(x) for x in r] + [Q(rhs)] for r, rhs in sorted(reduced)]
    rank = 0
    for col in range(m):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [x / pv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    if any(mat[r][m] for r in range(rank, len(mat))):
        raise NoConformalVector("the defining linear system is inconsistent")
    if rank < m:
        raise ValueError(f"solution space has dimension {m - rank}")

    values = [Q(0)] * m
    for r in range(rank):
        col = next(c for c in range(m) if mat[r][c])
        values[col] = mat[r][m]
    w = {a: values[pos[find(j)]] for j, a in enumerate(axes)}
    return {a: c for a, c in w.items() if c}


def is_RSSD(M, L) -> bool:
    """2L <= M + ann_L(M) by building the sum: ann_L(M) from an integer
    kernel, the sum from a Hermite form, and each 2v of L's basis solved
    on the sum's own LDL^T."""
    if not is_sublattice(M, L):
        raise NotASublattice("RSSD requires M <= L")
    big = from_generators(M.basis + annihilator(M, L).basis, L.ambient_dim)
    rows, den = L._scaled
    return all(big._int_coordinates([2 * c for c in v], den) is not None
               for v in rows)


def t_involution(M, L) -> list[list[int]]:
    """t_M on the basis of L image by image: v - 2 p(v) for each basis
    vector v, with p(v) from a solve on M and its L-coordinates from a
    membership solve on L."""
    if not is_RSSD(M, L):
        raise NotRSSD("t involution preserves L only for RSSD sublattices")
    rows, den = L._scaled
    D = M._D
    cols = []
    for v in rows:
        # v / den projects onto p / (D den), so v - 2 p is the image over D den
        _, p = M._weights(v)
        coords = L._int_coordinates(
            [D * c - 2 * pc for c, pc in zip(v, p)], D * den)
        if coords is None:
            raise NotRSSD("t image left the lattice")
        cols.append(coords)
    return [list(row) for row in zip(*cols)]
