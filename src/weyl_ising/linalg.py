"""Exact linear algebra over the rationals and the integers.

Everything in this package that looks like numerics is exact, and the
routines below never touch floating point.  The kernels work on int rows
over one common denominator (matrices are lists of lists of ``int``);
``fractions.Fraction`` values appear where a public function hands out a
rational vector or matrix, and ``Vector`` names that form.  ``dot``
takes either.  The integer routines (Hermite and Smith forms, kernels,
the fraction-free LDL^T) use arbitrary-precision ints, so intermediate
growth is a speed question, not a correctness one.  One elimination
loop serves every symmetric solve: ``_bareiss_ldl`` factors a Gram once,
and ``solve`` reads adj(g) b off those factors, so inverses,
coordinates and projections need no second elimination.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, lcm
from operator import add, mul
from typing import NamedTuple, Sequence

Vector = tuple[Q, ...]


class SmithDidNotConverge(ArithmeticError):
    """The alternating Hermite reduction of ``smith_invariants`` did not
    reach a diagonal form within its round cap."""


def dot(u: Sequence, v: Sequence):
    """Standard dot product of two equal-length coordinate vectors."""
    return sum(map(mul, u, v))


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


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
    """Basis of {x in Z^m : x @ matrix = 0} for an m-row integer matrix:
    the rows of ``hnf_with_transform``'s U below its Hermite rows, which
    send ``matrix`` to zero, put in Hermite form."""
    if not matrix:
        return []
    h, u = hnf_with_transform(matrix)
    return hnf(u[len(h):])


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
        raise SmithDidNotConverge("Smith reduction did not converge")
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


def _bareiss_ldl(a: list[list[int]]) -> tuple[list[int], list[list[int]]] | None:
    """Fraction-free symmetric elimination of an int upper triangle.

    ``a[i]`` holds the entries (i, j), j >= i, of a symmetric int matrix
    and is consumed.  Returns ``(p, m)``: the pivots ``p[k]``, the leading
    principal minors of orders 1..n, and the multiplier numerators
    ``m[k][j - k - 1] = a_kj`` (j > k) as row k stands at step k, so
    ``matrix == U^T diag(d) U`` with ``d_k = p_k / p_(k-1)`` and
    ``u_kj = a_kj / p_k``.  None at the first nonpositive pivot.

    Step k updates the rows below by ``(p_k a_ij - a_ki a_kj) // p_(k-1)``
    (Bareiss, Math. Comp. 22, 1968), an exact division that leaves every
    entry a minor of the input.
    """
    n = len(a)
    pivots: list[int] = []
    mult: list[list[int]] = []
    prev = 1
    for k in range(n):
        row_k = a[k]
        p = row_k[0]
        if p <= 0:
            return None
        pivots.append(p)
        mult.append(row_k[1:])
        for i in range(k + 1, n):
            f = row_k[i - k]
            if f:
                a[i] = [(p * x - f * y) // prev
                        for x, y in zip(a[i], row_k[i - k:])]
            else:
                a[i] = [p * x // prev for x in a[i]]
        prev = p
    return pivots, mult


def solve(factors: tuple[list[int], list[list[int]]],
          b: Sequence[int]) -> list[int]:
    """``x = adj(g) b`` for an int vector b, the int x with ``g x == D b``:
    ``factors = _bareiss_ldl(g)``, D its last pivot, det g (1 at rank 0).

    The forward pass applies the Bareiss steps to b, ``b_i = (p_k b_i -
    a_ki b_k) // p_(k-1)``, exact since b_i is then a minor of [g | b].
    Back substitution solves ``p_k x_k == D b_k - sum_(j>k) a_kj x_j``,
    exact since adj(g) b is integral.
    """
    pivots, mult = factors
    beta = list(b)
    prev = 1
    for k, (p, row) in enumerate(zip(pivots, mult)):
        bk = beta[k]
        beta[k + 1:] = [(p * y - f * bk) // prev
                        for y, f in zip(beta[k + 1:], row)]
        prev = p
    x = [0] * len(pivots)
    for k in range(len(pivots) - 1, -1, -1):
        x[k] = ((prev * beta[k] - sum(map(mul, mult[k], x[k + 1:])))
                // pivots[k])
    return x


def ldl_is_positive_definite(matrix: Sequence[Sequence[Q]]) -> bool:
    """True iff the symmetric rational matrix is positive definite.

    Only the upper triangle is read; it is scaled to ints by the lcm of
    its denominators, and ``_bareiss_ldl`` decides: it stops at the first
    nonpositive pivot (a repeated row gives a zero pivot).
    """
    n = len(matrix)
    upper = [[Q(x) for x in matrix[i][i:]] for i in range(n)]
    den = lcm(*(q.denominator for row in upper for q in row))
    a = [[q.numerator * (den // q.denominator) for q in row] for row in upper]
    return _bareiss_ldl(a) is not None


# ---------------------------------------------------------------------------
# Byte lanes: the dots of one row with many int vectors in one big int.
# ---------------------------------------------------------------------------

class LaneOverflow(OverflowError):
    """A lane dot may not fit its lane, so it could carry into the next."""


class Packed(NamedTuple):
    """``(k, sum_j v_j[k] 256^(width j))`` for each nonzero column k of
    ``count`` int vectors v_j, and ``2^(8 width - 1)`` in every lane."""
    columns: list[tuple[int, int]]
    count: int
    width: int
    half: int


def lane_width(bound: int) -> int:
    """The bytes of a two's complement lane that holds [-bound, bound]."""
    return bound.bit_length() // 8 + 1


def pack_columns(vectors: Sequence[bytes], width: int = 1,
                 offset: int = 0) -> Packed:
    """The int vectors ``vectors[j] - offset``, given as equal-length byte
    strings, packed column by column into lanes of ``width`` bytes."""
    n, flat = len(vectors), b"".join(vectors)
    d = len(flat) // n if n else 0
    lane = bytearray(n * width)
    lane[::width] = b"\1" * n
    ones = int.from_bytes(lane, "little")
    shift = offset * ones
    columns = []
    for k in range(d):
        lane[::width] = flat[k::d]
        column = int.from_bytes(lane, "little") - shift
        if column:
            columns.append((k, column))
    return Packed(columns, n, width, ones << (8 * width - 1))


def lane_dots(row: Sequence[int], packed: Packed, bound: int) -> bytes:
    """The dots ``<row, v_j>`` with the vectors of ``packed``, lane j in
    two's complement, little-endian, given that ``bound`` bounds every
    ``|<row, v_j>|``.  ``half + sum_k row_k P_k`` holds ``half + <row,
    v_j>`` in lane j, inside the lane when the bound is below ``half``,
    so that no lane carries into the next (``LaneOverflow`` otherwise);
    flipping the top bit of every lane leaves the dot."""
    columns, count, width, half = packed
    if bound.bit_length() >= 8 * width:
        raise LaneOverflow(f"a dot bounded by {bound} may overflow its "
                           f"{width}-byte lane")
    lane = half
    for k, column in columns:
        c = row[k]
        if c:
            lane += c * column
    return (lane ^ half).to_bytes(count * width, "little")


def lane_ints(lanes: bytes, width: int) -> list[int]:
    """The lanes of ``lane_dots`` as ints: the top byte of each lane read
    signed, then the lower bytes added in base 256."""
    values = memoryview(lanes[width - 1::width]).cast("b").tolist()
    for b in range(width - 2, -1, -1):
        values = list(map(add, map((256).__mul__, values), lanes[b::width]))
    return values
