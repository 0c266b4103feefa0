"""Exact linear algebra helpers: the LDL^T solve against the reference
inverse, determinants, Hermite and Smith forms, the LDL^T positivity
test, and the reference ``Fraction`` solve and inverses.  Random cases
use fixed seeds so failures reproduce; the Hypothesis properties report
their failing example."""

import random
from fractions import Fraction as Q
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fraction_reference import (
    axis_gram,
    det_bareiss,
    det_rational,
    gram_matrix,
    int_inverse,
    mat_vec,
    matrix_inverse,
    solve,
    transpose,
    vec_add,
    vec_scale,
    vec_sub,
)
from fraction_reference import ldl as reference_ldl
from weyl_ising import cli, linalg
from weyl_ising.axes import from_root_system, gram_positive_definite
from weyl_ising.linalg import (
    SmithDidNotConverge,
    dot,
    hnf,
    hnf_with_transform,
    int_kernel,
    ldl_is_positive_definite,
    mat_mul,
    smith_invariants,
)
from weyl_ising.rootsys import build_root_system

PROPERTY = settings(max_examples=60, deadline=None)


def unimodular_shuffle(rows, rng, steps=25):
    """Apply random invertible integer row operations."""
    rows = [list(r) for r in rows]
    n = len(rows)
    for _ in range(steps):
        op = rng.randrange(3)
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        if op == 0:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 1:
            rows[i] = [-x for x in rows[i]]
        else:
            c = rng.randrange(-3, 4)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


def test_vector_helpers():
    assert dot([1, 2, 3], [4, 5, 6]) == 32
    assert vec_add((1, 2), (3, 4)) == (4, 6)
    assert vec_sub((1, 2), (3, 4)) == (-2, -2)
    assert vec_scale(Q(1, 2), (4, 6)) == (2, 3)
    assert gram_matrix([(1, 0), (1, 1)]) == [[1, 1], [1, 2]]


def test_matrix_helpers():
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 0]]
    assert mat_mul(a, b) == [[2, 1], [4, 3]]
    assert mat_vec(a, [1, 1]) == [3, 7]
    assert transpose(a) == [[1, 3], [2, 4]]


def test_solve_square():
    x = solve([[Q(2), Q(1)], [Q(1), Q(3)]], [Q(5), Q(10)])
    assert x == [Q(1), Q(3)]


def test_solve_inconsistent_returns_none():
    assert solve([[1, 1], [2, 2]], [1, 3]) is None


def test_solve_underdetermined():
    a = [[1, 2, 3]]
    x = solve(a, [6])
    assert x is not None
    assert dot(a[0], x) == 6


def test_solve_overdetermined_consistent():
    a = [[1, 0], [0, 1], [1, 1]]
    assert solve(a, [2, 3, 5]) == [Q(2), Q(3)]
    assert solve(a, [2, 3, 6]) is None


def test_matrix_inverse_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(1, 5)
        m = [[Q(rng.randrange(-4, 5)) for _ in range(n)] for _ in range(n)]
        if det_rational(m) == 0:
            with pytest.raises(ZeroDivisionError):
                matrix_inverse(m)
            continue
        inv = matrix_inverse(m)
        eye = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
        assert mat_mul(m, inv) == eye
        assert mat_mul(inv, m) == eye


def test_int_inverse_matches_matrix_inverse():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(0, 6)
        m = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        if n and rng.random() < 0.3:
            m[0][0] = 0  # forces a row swap when the rest is regular
        if det_bareiss(m) == 0:
            with pytest.raises(ZeroDivisionError):
                int_inverse(m)
            continue
        adj, den = int_inverse(m)
        assert den > 0
        assert gcd(den, *(x for row in adj for x in row)) == 1
        inv = matrix_inverse(m)
        assert [[Q(x, den) for x in row] for row in adj] == inv
    assert int_inverse([[2, 1], [1, 2]]) == ([[2, -1], [-1, 2]], 3)
    assert int_inverse([]) == ([], 1)


# positive definite int Grams of rank 0..6: rows rows^T of n independent
# int rows of length n + 1 (a dependent draw is rejected), with an int
# right-hand side
@st.composite
def _gram_and_rhs(draw):
    n = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n + 1,
                                  max_size=n + 1), min_size=n, max_size=n))
    g = [[dot(u, v) for v in rows] for u in rows]
    assume(det_bareiss(g) != 0)
    return g, draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))


@PROPERTY
@given(_gram_and_rhs())
@example(([], []))
@example(([[2, 1], [1, 2]], [1, 0]))
def test_solve_matches_int_inverse(case):
    """``solve`` on the Bareiss factors returns adj(g) b: g x == D b with
    D the last pivot, det g, and x / D is the reference inverse applied
    to b."""
    g, b = case
    factors = linalg._bareiss_ldl([row[i:] for i, row in enumerate(g)])
    D = factors[0][-1] if g else 1
    assert D == det_bareiss(g)
    x = linalg.solve(factors, b)
    assert mat_vec(g, x) == [D * c for c in b]
    adj, den = int_inverse(g)
    assert [Q(c, D) for c in x] == [Q(c, den) for c in mat_vec(adj, b)]


def test_det_known_values():
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    assert det_bareiss([[2, -1], [-1, 2]]) == 3
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[1, 2], [2, 4]]) == 0
    assert det_bareiss([]) == 1
    assert det_rational([[Q(1, 2), 0], [0, Q(1, 3)]]) == Q(1, 6)


def test_det_matches_cofactor_expansion():
    def cofactor(m):
        n = len(m)
        if n == 0:
            return 1
        return sum(
            (-1) ** j * m[0][j] * cofactor(
                [row[:j] + row[j + 1:] for row in m[1:]])
            for j in range(n))

    rng = random.Random(11)
    for _ in range(30):
        n = rng.randrange(1, 5)
        m = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        assert det_bareiss(m) == cofactor(m)
        assert det_rational(m) == cofactor(m)


def test_hnf_known_values():
    assert hnf([[2, 0], [0, 2]]) == [[2, 0], [0, 2]]
    assert hnf([[2, 4], [4, 2]]) == [[2, 4], [0, 6]]
    assert hnf([[0, 0], [0, 0]]) == []
    assert hnf([[-3]]) == [[3]]
    # regression: the entry above the last pivot must stay reduced even
    # though an earlier pivot column is cleared afterwards
    assert hnf([[4, -4, 3], [-1, -4, -2], [-3, 1, 3]]) == [
        [1, 0, 70],
        [0, 1, 98],
        [0, 0, 115],
    ]


def test_hnf_entries_above_pivots_reduced():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randrange(1, 5)
        m = rng.randrange(n, n + 3)
        rows = [[rng.randrange(-6, 7) for _ in range(m)] for _ in range(n)]
        h = hnf(rows)
        for k, row in enumerate(h):
            p = next(j for j in range(m) if row[j] != 0)
            assert row[p] > 0
            for above in h[:k]:
                assert 0 <= above[p] < row[p]


def test_hnf_is_invariant_under_row_operations():
    """Equal row spans must produce identical Hermite forms."""
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(1, 5)
        m = rng.randrange(n, n + 3)
        rows = [[rng.randrange(-5, 6) for _ in range(m)] for _ in range(n)]
        assert hnf(rows) == hnf(unimodular_shuffle(rows, rng))


def assert_hermite_transform(rows):
    """U @ rows == [H; 0] with |det U| = 1, and H is hnf(rows)."""
    n, m = len(rows), len(rows[0])
    h, u = hnf_with_transform(rows)
    assert abs(det_bareiss(u)) == 1
    prod = [
        [sum(u[i][k] * rows[k][j] for k in range(n)) for j in range(m)]
        for i in range(n)
    ]
    assert prod == h + [[0] * m for _ in range(n - len(h))]
    assert h == hnf(rows)


def test_hnf_with_transform_recovers_form():
    rng = random.Random(41)
    for _ in range(120):
        n = rng.randrange(1, 5)
        m = rng.randrange(n, n + 3)
        assert_hermite_transform(
            [[rng.randrange(-5, 6) for _ in range(m)] for _ in range(n)])


@PROPERTY
@given(st.integers(1, 5).flatmap(lambda m: st.lists(
    st.lists(st.integers(-9, 9), min_size=m, max_size=m),
    min_size=1, max_size=5)))
def test_hnf_with_transform_property(rows):
    """Any shape, including more rows than columns and zero rows."""
    assert_hermite_transform(rows)


def test_int_kernel_annihilates():
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 4)
        mat = [[rng.randrange(-4, 5) for _ in range(m)] for _ in range(n)]
        ker = int_kernel(mat)
        for x in ker:
            assert all(
                sum(x[k] * mat[k][j] for k in range(n)) == 0 for j in range(m))
        rank = len(hnf(mat))
        assert len(ker) == n - rank


def test_int_kernel_known():
    assert int_kernel([[1, 2], [2, 4], [3, 6]]) == [[1, 1, -1], [0, 3, -2]]
    assert int_kernel([[1, 0], [0, 1]]) == []


def test_smith_invariants_known():
    assert smith_invariants([[1, 0], [0, 1]]) == []
    assert smith_invariants([[2, 0], [0, 2]]) == [2, 2]
    assert smith_invariants([[2, -1], [-1, 2]]) == [3]
    assert smith_invariants([[4, 0], [0, 6]]) == [2, 12]
    assert smith_invariants([[0, 0], [0, 0]]) == []
    assert smith_invariants([[2, 4, 4]]) == [2]


def test_smith_invariants_match_minor_gcds():
    """Independent check: the product d1*...*dk equals the gcd of all
    k by k minors."""

    def minor_gcd(m, k):
        n = len(m)
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                sub = [[m[i][j] for j in cols] for i in rows]
                g = gcd(g, det_bareiss(sub))
        return g

    rng = random.Random(29)
    for _ in range(40):
        n = rng.randrange(1, 4)
        m = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        inv = smith_invariants(m)
        rank = len(hnf([row for row in m if any(row)]))
        full = [1] * (rank - len(inv)) + inv
        prod = 1
        for k in range(1, rank + 1):
            prod *= full[k - 1]
            assert prod == minor_gcd(m, k)
        for a, b in zip(full, full[1:]):
            assert b % a == 0


@PROPERTY
@given(st.integers(1, 4).flatmap(lambda m: st.lists(
    st.lists(st.integers(-6, 6), min_size=m, max_size=m),
    min_size=1, max_size=4)), st.randoms(use_true_random=False))
def test_smith_invariants_under_unimodular_equivalence(m, rng):
    """smith_invariants(U M V) == smith_invariants(M): U from random row
    operations on M, V from random row operations on the transpose."""
    um = unimodular_shuffle(m, rng)
    umv = [list(c) for c in zip(*unimodular_shuffle(list(zip(*um)), rng))]
    assert smith_invariants(umv) == smith_invariants(m)


def test_smith_round_cap_raises_typed_error(monkeypatch):
    monkeypatch.setattr(linalg, "hnf", lambda rows: [list(r) for r in rows])
    with pytest.raises(SmithDidNotConverge):
        smith_invariants([[2, 1], [1, 2]])
    assert issubclass(SmithDidNotConverge, ArithmeticError)


def test_ldl_positive_definite():
    assert ldl_is_positive_definite([[2, -1], [-1, 2]])
    assert ldl_is_positive_definite([[Q(1, 4)]])
    assert not ldl_is_positive_definite([[1, 2], [2, 1]])
    assert not ldl_is_positive_definite([[1, 1], [1, 1]])
    assert not ldl_is_positive_definite([[0]])
    assert not ldl_is_positive_definite([[-2, 0], [0, 3]])


def test_ldl_matches_gram_of_independent_vectors():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(1, 5)
        vecs = [tuple(rng.randrange(-3, 4) for _ in range(n + 1))
                for _ in range(n)]
        g = gram_matrix(vecs)
        independent = det_rational(g) != 0
        assert ldl_is_positive_definite(g) == independent
        if independent:
            # the reference's U^T diag(d) U reproduces the Gram matrix
            d, u = reference_ldl(g)
            unit = [[u[i][j] + (i == j) for j in range(n)] for i in range(n)]
            assert mat_mul(transpose(unit),
                           [[d[i] * x for x in unit[i]] for i in range(n)]) == g


@PROPERTY
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.fractions(-4, 4, max_denominator=3), min_size=n, max_size=n),
    min_size=n, max_size=n)), st.integers(0, 8))
def test_ldl_matches_sylvester(m, shift):
    """Positive definite iff every leading principal minor is positive;
    the diagonal shift makes both outcomes common."""
    n = len(m)
    a = [[m[min(i, j)][max(i, j)] + shift * (i == j) for j in range(n)]
         for i in range(n)]
    sylvester = all(det_rational([row[:k] for row in a[:k]]) > 0
                    for k in range(1, n + 1))
    assert ldl_is_positive_definite(a) == sylvester


SMALL_FRACTIONS = st.fractions(-4, 4, max_denominator=4)


def _shifted_symmetric(m, shift):
    n = len(m)
    return [[m[min(i, j)][max(i, j)] + shift * (i == j) for j in range(n)]
            for i in range(n)]


def _dominant(m, delta):
    """The symmetric matrix with m's upper off-diagonal entries and each
    diagonal entry the absolute sum of the others in its row plus delta."""
    n = len(m)
    off = [[m[min(i, j)][max(i, j)] if i != j else Q(0) for j in range(n)]
           for i in range(n)]
    return [[off[i][j] if i != j else sum(map(abs, off[i])) + delta
             for j in range(n)] for i in range(n)]


# symmetric matrices of size <= 6 with denominators <= 4: a random upper
# triangle plus a diagonal shift (definite or indefinite); a diagonally
# dominant one, strictly (delta > 0), weakly (delta = 0: Laplacian-like,
# often singular) or just not (delta < 0); or the Gram matrix of n
# vectors in dimension m (semidefinite, singular when m < n)
SYMMETRIC = st.one_of(
    st.integers(1, 6).flatmap(lambda n: st.builds(
        _dominant,
        st.lists(st.lists(SMALL_FRACTIONS, min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.sampled_from([Q(-1, 4), Q(0), Q(1, 4), Q(1)]))),
    st.integers(1, 6).flatmap(lambda n: st.builds(
        _shifted_symmetric,
        st.lists(st.lists(SMALL_FRACTIONS, min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.integers(0, 8))),
    st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda nm: st.lists(
            st.lists(SMALL_FRACTIONS, min_size=nm[1], max_size=nm[1]),
            min_size=nm[0], max_size=nm[0])).map(gram_matrix))


@PROPERTY
@given(SYMMETRIC)
@example([[Q(1, 2), Q(1, 3)], [Q(1, 3), Q(3, 4)]])             # definite
@example([[Q(1, 2), Q(1, 4)], [Q(1, 4), Q(1, 8)]])             # singular
@example([[Q(1, 3), Q(1), Q(0)], [Q(1), Q(1, 4), Q(0)],
          [Q(0), Q(0), Q(2)]])                                  # indefinite
@example([[1, -1], [-1, 1]])                                    # weakly dominant
@example([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])               # 3-cycle Laplacian
@example([[Q(9, 4), -1, -1], [-1, 2, -1], [-1, -1, 2]])         # definite, not dominant
def test_ldl_matches_fraction_reference(a):
    """The fraction-free positivity test agrees with the ``Fraction``
    loop, and neither reads below the diagonal."""
    positive = reference_ldl(a) is not None
    assert ldl_is_positive_definite(a) == positive
    n = len(a)
    junk = [[a[i][j] if j >= i else Q(7 * i + j + 1, 3) for j in range(n)]
            for i in range(n)]
    assert ldl_is_positive_definite(junk) == positive
    assert (reference_ldl(junk) is not None) == positive


@pytest.mark.parametrize("kind,rank", [("A", 2), ("A", 4), ("D", 4),
                                       ("E", 6), ("E", 8), ("D", 18)])
def test_ldl_certificate_settles_axis_grams(kind, rank, monkeypatch):
    """The axis Gram checks of ``griess`` and criterion 10 are settled by
    the structural certificate 256 G = 60 I + H o H, so no axis Gram
    reaches elimination, not even D18's (h = 34), the first that is not
    strictly diagonally dominant."""
    def fail(a):
        raise AssertionError("elimination ran")
    monkeypatch.setattr(linalg, "_bareiss_ldl", fail)
    R = build_root_system(kind, rank)
    checks = {c["name"]: c for c in cli.griess_checks(R, oracle=False)}
    assert checks["gram_positive_definite"]["status"] == "pass"
    assert gram_positive_definite(R, from_root_system(R))


def test_ldl_e6_axis_gram_matches_fraction_reference():
    g = axis_gram(from_root_system(build_root_system("E", 6)))
    assert ldl_is_positive_definite(g)
    assert reference_ldl(g) is not None
