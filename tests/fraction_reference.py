"""Plain-``Fraction`` reference algorithms for the cross-checks.

The library computes lattice coordinates on an integer-scaled core
(``Lattice._inverse``), inverts matrices fraction-free
(``linalg.int_inverse``), factors them fraction-free (``linalg.ldl``)
and enumerates shells in ints (``lattice.shell``); the Gauss-Jordan
solve and inverse, the LDL^T loop and the Fincke-Pohst descent below are
the direct ``Fraction`` computations they replaced, kept here so the
property tests compare the two.
"""

from fractions import Fraction as Q
from math import ceil, floor, isqrt
from typing import Sequence


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
    upper triangle: ``(d, u)`` as ``linalg.ldl`` returns them, or None at
    the first nonpositive pivot."""
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
