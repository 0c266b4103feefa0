"""Exact linear algebra over the rationals and the integers.

Everything in this package that looks like numerics is exact: vectors are
tuples of ``fractions.Fraction``, integer matrices are lists of lists of
``int``, and the routines below never touch floating point.  The integer
routines (Hermite and Smith forms, kernels, the fraction-free inverse and
determinant) use arbitrary-precision ints, so intermediate growth is a
speed question, not a correctness one.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd
from typing import Sequence

Vector = tuple[Q, ...]


def dot(u: Sequence, v: Sequence):
    """Standard dot product of two equal-length coordinate vectors."""
    return sum(a * b for a, b in zip(u, v))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u: Vector) -> Vector:
    return tuple(c * a for a in u)


def vec_neg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def qvec(v: Sequence) -> Vector:
    return tuple(Q(a) for a in v)


def gram_matrix(vectors: Sequence[Vector]) -> list[list[Q]]:
    return [[dot(u, v) for v in vectors] for u in vectors]


def identity_matrix(n: int) -> list[list[Q]]:
    return [[Q(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


def mat_vec(a: Sequence[Sequence], v: Sequence) -> list:
    return [dot(row, v) for row in a]


def transpose(a: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*a)]


def matrix_inverse(matrix: Sequence[Sequence[Q]]) -> list[list[Q]]:
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


# ---------------------------------------------------------------------------
# Integer row reduction: Hermite form, kernels, Smith invariants.
# ---------------------------------------------------------------------------

def hnf(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row Hermite normal form of an integer matrix.

    Returns the nonzero rows: pivots positive, entries above each pivot
    reduced to lie in [0, pivot).  The row span is unchanged, so this is a
    canonical form for the subgroup of Z^n generated by the input rows.
    """
    ncols = len(rows[0]) if rows else 0
    return [r for r in hnf_full(rows, ncols) if any(r)]


def hnf_with_transform(
    rows: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]]]:
    """Hermite form plus a unimodular U with U @ rows == [H; 0].

    The returned H contains the nonzero rows; U is square of size len(rows)
    and its trailing rows span the left kernel of the input.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    aug = [list(rows[i]) + [int(i == j) for j in range(m)] for i in range(m)]
    ext = hnf_full(aug, ncols)
    h = [r[:ncols] for r in ext if any(r[:ncols])]
    u = [r[ncols:] for r in ext]
    return h, u


def hnf_full(work: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Hermite reduction applied to the first ``ncols`` columns only.

    Used with augmented rows to carry a transformation; rows that become
    zero in the leading block sink to the bottom.  Returns all rows.
    Every row still unplaced is zero before column ``col``, so each row
    operation starts at ``col`` (Cohen, GTM 138, section 2.4).
    """
    rows = [list(r) for r in work]
    done: list[list[int]] = []
    pivots: list[int] = []
    col = 0
    while rows and col < ncols:
        cand = [r for r in rows if r[col] != 0]
        if not cand:
            col += 1
            continue
        # Euclidean passes: shrink the column until one nonzero entry remains.
        while len(cand) > 1:
            cand.sort(key=lambda r: abs(r[col]))
            base = cand[0]
            for r in cand[1:]:
                q = r[col] // base[col]
                if q:
                    for j in range(col, len(r)):
                        r[j] -= q * base[j]
            cand = [r for r in cand if r[col] != 0]
        pivot_row = cand[0]
        if pivot_row[col] < 0:
            for j in range(col, len(pivot_row)):
                pivot_row[j] = -pivot_row[j]
        rows.remove(pivot_row)
        done.append(pivot_row)
        pivots.append(col)
        col += 1
    # reduce entries above each pivot, earlier pivots first so the
    # subtraction never perturbs a column that is already normalized
    for k, p in enumerate(pivots):
        row = done[k]
        for above in done[:k]:
            q = above[p] // row[p]
            if q:
                for j in range(p, len(above)):
                    above[j] -= q * row[j]
    return done + rows


def int_kernel(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of {x in Z^m : x @ matrix = 0} for an m-row integer matrix."""
    m = len(matrix)
    if m == 0:
        return []
    _, u = hnf_with_transform(matrix)
    ncols = len(matrix[0])
    kernel = []
    for i, urow in enumerate(u):
        image = [sum(urow[k] * matrix[k][j] for k in range(m)) for j in range(ncols)]
        if not any(image):
            kernel.append(urow)
    return hnf(kernel)


def smith_invariants(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Nontrivial elementary divisors (> 1) of an integer matrix.

    Diagonalizes by alternating row and column Hermite reductions,
    which are unimodular on both sides and avoid the coefficient
    blowup of naive Euclidean pivoting, then repairs the divisibility
    chain pairwise via diag(a, b) ~ diag(gcd(a, b), lcm(a, b)).
    """
    a = [list(r) for r in matrix if any(r)]
    diag: list[int] = []
    for _ in range(1000):
        if not a:
            break
        a = hnf(a)
        t = [list(col) for col in zip(*a)]
        t = [r for r in t if any(r)]
        if not t:
            a = []
            break
        t = hnf(t)
        a = [list(col) for col in zip(*t)]
        a = [r for r in a if any(r)]
        if all(sum(1 for x in row if x) == 1 for row in a) and all(
            sum(1 for row in a if row[j]) <= 1 for j in range(len(a[0]))
        ):
            diag = [abs(x) for row in a for x in row if x]
            a = []
            break
    else:
        raise ArithmeticError("Smith reduction did not converge")
    diag.sort()
    # repair divisibility d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            x, y = diag[i], diag[i + 1]
            if y % x != 0:
                g = gcd(x, y)
                diag[i], diag[i + 1] = g, x * y // g
                changed = True
    diag.sort()
    return [d for d in diag if d > 1]


def ldl(matrix: Sequence[Sequence[Q]]) -> tuple[list[Q], list[list[Q]]] | None:
    """Exact LDL^T factorization of a symmetric rational matrix.

    Returns ``(d, u)`` with ``matrix == U^T diag(d) U``, where U is unit
    upper triangular with off-diagonal entries ``u[k][i]`` (i > k), or
    None at the first nonpositive pivot: the matrix is then not positive
    definite (a repeated row gives a zero pivot).  Only the upper
    triangle is read and updated.
    """
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


def ldl_is_positive_definite(matrix: Sequence[Sequence[Q]]) -> bool:
    """True iff the symmetric matrix is positive definite (see ``ldl``)."""
    return ldl(matrix) is not None
