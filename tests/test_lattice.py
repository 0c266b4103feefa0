"""Lattice layer: exact Gram data, Hermite-canonical equality, tensor
products, shells, SSD/RSSD sublattices and their involutions, and the
identification of the block realizations with tensor lattices."""

import copy
import pickle
from fractions import Fraction as Q
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fraction_reference import (
    det_bareiss,
    det_rational,
    from_generators,
    gram_matrix,
    int_coordinates,
    intersect,
    solve,
)
import fraction_reference as reference
from fraction_reference import shell as reference_shell
from weyl_ising import lattice
from weyl_ising.lattice import (
    IncompatibleAmbient,
    Lattice,
    NotASublattice,
    NotIntegral,
    NotRSSD,
    OrderCapExceeded,
    RankTooLarge,
    UnsupportedName,
    _shell_keys,
    ade_realization,
    annihilator,
    discriminant_group,
    e8_lattice,
    e8_model,
    from_basis,
    index_in,
    is_RSSD,
    is_SSD,
    is_sublattice,
    malpha_lattice,
    matrix_order,
    root_lattice,
    same_lattice,
    shell,
    t_involution,
    tensor,
    verify_identification,
)
from weyl_ising import cli
from weyl_ising.linalg import dot, mat_mul
from weyl_ising.rootsys import build_root_system


def test_root_lattice_determinants():
    expected = {
        ("A", 2): 3,
        ("A", 3): 4,
        ("A", 4): 5,
        ("D", 4): 4,
        ("D", 5): 4,
        ("E", 6): 3,
        ("E", 7): 2,
        ("E", 8): 1,
    }
    for (kind, rank), det in expected.items():
        lat = root_lattice(build_root_system(kind, rank))
        assert lat.det() == det
        assert lat.is_even()
        assert lat.is_integral()


def test_discriminant_groups():
    cases = {
        ("A", 2): (3,),
        ("A", 3): (4,),
        ("D", 4): (2, 2),
        ("E", 6): (3,),
        ("E", 7): (2,),
        ("E", 8): (),
    }
    for (kind, rank), invs in cases.items():
        lat = root_lattice(build_root_system(kind, rank))
        assert discriminant_group(lat) == invs


def test_from_basis_rejects_dependent_vectors():
    with pytest.raises(ValueError):
        from_basis([(1, 0), (2, 0)])


def test_same_lattice_canonical():
    a = from_basis([(1, 0), (0, 1)])
    b = from_basis([(1, 1), (0, 1)])
    assert same_lattice(a, b)
    c = from_basis([(2, 0), (0, 1)])
    assert not same_lattice(a, c)
    # generators with redundancy give the same canonical form
    d = from_generators([(1, 1), (0, 1), (3, 5), (1, 0)], 2)
    assert same_lattice(a, d)
    # rational scaling is part of the canonical data
    e = from_basis([(Q(1, 2), 0), (0, Q(1, 2))])
    assert not same_lattice(a, e)


def test_coordinates_and_contains():
    lat = root_lattice(build_root_system("A", 2))
    v = tuple(x + y for x, y in zip(lat.basis[0], lat.basis[1]))
    assert lat._int_coordinates(*lat._scaled_vector(v)) == [1, 1]
    assert lat.contains(v)
    assert not lat.contains(tuple(Q(c, 2) for c in v))
    # outside the span entirely
    assert not lat.contains((1, 0, 0))
    with pytest.raises(IncompatibleAmbient):
        lat.contains((1, 0))


def _reference_coordinates(basis, v):
    """Fraction Gauss-Jordan on the Gram system, then the span check."""
    coords = solve(gram_matrix(basis), [dot(b, v) for b in basis])
    recon = [sum(c * b[j] for c, b in zip(coords, basis))
             for j in range(len(v))]
    return coords if recon == [Q(c) for c in v] else None


_HALF = st.integers(-4, 4).map(lambda n: Q(n, 2))
_COEFF = st.one_of(st.integers(-3, 3).map(Q),
                   st.fractions(-3, 3, max_denominator=6))


@st.composite
def _basis_and_vectors(draw):
    """An independent basis with entries in (1/2)Z (rank <= 4, ambient
    <= 5), and vectors: combinations of it (in the span) and random
    half-integral vectors (mostly outside it when the rank is short)."""
    d = draw(st.integers(1, 5))
    r = draw(st.integers(1, min(4, d)))
    basis = [tuple(draw(st.lists(_HALF, min_size=d, max_size=d)))
             for _ in range(r)]
    assume(det_rational(gram_matrix(basis)) != 0)
    vectors = []
    for _ in range(draw(st.integers(1, 3))):
        coeffs = draw(st.lists(_COEFF, min_size=r, max_size=r))
        vectors.append(tuple(sum(c * b[j] for c, b in zip(coeffs, basis))
                             for j in range(d)))
    vectors += draw(st.lists(st.lists(_HALF, min_size=d, max_size=d).map(tuple),
                             min_size=1, max_size=3))
    return basis, vectors


@settings(max_examples=150, deadline=None)
@given(_basis_and_vectors())
def test_integer_core_matches_fraction_reference(case):
    """The int-scaled Gram, determinant and memberships agree with the
    plain Fraction computations on the same basis.  The determinant is
    read off the cached LDL^T: 0 for a dependent basis, where elimination
    stops at a zero pivot, and 1 for the empty one."""
    basis, vectors = case
    d = len(basis[0])
    lat = from_basis(basis, d)
    g = gram_matrix(basis)
    assert lat.gram == g
    assert lat.det() == det_rational(g)
    dependent = basis[:1] + [vectors[0]] + basis[1:]
    assert (Lattice(d, tuple(dependent)).det()
            == det_rational(gram_matrix(dependent)) == 0)
    assert Lattice(d, ()).det() == det_bareiss([]) == 1
    for v in vectors:
        ref = _reference_coordinates(basis, v)
        assert lat.contains(v) == (
            ref is not None and all(c.denominator == 1 for c in ref))


@settings(max_examples=100, deadline=None)
@given(_basis_and_vectors(), st.integers(1, 6))
def test_int_core_equals_fraction_basis(case, k):
    """A lattice built from int rows over a denominator that shares the
    factor k with every entry reduces to the core of ``from_basis`` on
    the same ``Fraction`` basis, and agrees with it on everything read
    from the core, on equality and on hashing."""
    basis, _ = case
    d = len(basis[0])
    den = lcm(*(Q(c).denominator for v in basis for c in v))
    rows = [[k * int(c * den) for c in v] for v in basis]
    lat = Lattice._from_ints(d, rows, k * den)
    ref = from_basis(basis, d)
    assert lat._scaled == ref._scaled
    assert lat.basis == ref.basis == tuple(tuple(Q(c) for c in v) for v in basis)
    assert lat.rank == ref.rank == len(basis)
    assert lat.gram == ref.gram
    assert lat.det() == ref.det()
    assert lat._canonical == ref._canonical
    assert lat == ref and hash(lat) == hash(ref)
    assert lat == Lattice(d, basis) and hash(lat) == hash(Lattice(d, basis))
    assert lat != Lattice(d, [tuple(2 * c for c in v) for v in basis])


@settings(max_examples=150, deadline=None)
@given(_basis_and_vectors(), st.lists(st.integers(-3, 3), min_size=4,
                                      max_size=4), st.integers(1, 3))
def test_int_coordinates_match_inverse_reference(case, coeffs, k):
    """Membership solved on the cached LDL^T agrees with the whole-inverse
    reference for members (int combinations of the basis), vectors with
    fractional coordinates and vectors off the span, also over a
    denominator with a spare factor k."""
    basis, vectors = case
    d, r = len(basis[0]), len(basis)
    lat = from_basis(basis, d)
    member = tuple(sum(c * b[j] for c, b in zip(coeffs, basis))
                   for j in range(d))
    for v in [member, *vectors]:
        v_int, v_den = lat._scaled_vector(v)
        ref = int_coordinates(lat, v_int, v_den)
        assert lat._int_coordinates(v_int, v_den) == ref
        assert lat._int_coordinates([k * c for c in v_int], k * v_den) == ref
    assert lat._int_coordinates(*lat._scaled_vector(member)) == coeffs[:r]


def test_dependent_basis_raises_value_error():
    """Every solve on a dependent basis stops at the zero pivot of the
    cached LDL^T with one typed error."""
    lat = Lattice(2, [(1, 0), (2, 0)])
    assert lat.det() == 0
    for call in (lambda: lat.contains((1, 0)), lambda: is_SSD(lat)):
        with pytest.raises(ValueError,
                           match="basis vectors are linearly dependent"):
            call()


def test_lattice_checks_e8_inverts_only_rank_8(monkeypatch):
    """``lattice E 8`` reads membership, projections and t images off
    solves on the cached LDL^T: the only whole inverse it builds is the
    rank-8 one of M_alpha for ``is_SSD``, none of the rank-64
    realization or of M + ann(M)."""
    ranks = []
    build = Lattice.__dict__["_inverse"].func

    def counted(self):
        ranks.append(self.rank)
        return build(self)

    monkeypatch.setattr(Lattice, "_inverse", property(counted))
    checks = cli.lattice_checks(build_root_system("E", 8))
    assert all(c["status"] != "fail" for c in checks)
    assert ranks == [8]

def test_lattices_are_immutable_and_pickle():
    lat = from_basis([(1, 0), (0, 1)])
    with pytest.raises(AttributeError):
        lat.basis = ()
    with pytest.raises(AttributeError):
        lat.ambient_dim = 3
    built = e8_lattice()
    script = ade_realization(build_root_system("A", 2))
    for x in (lat, built, script):
        assert pickle.loads(pickle.dumps(x)) == x == copy.deepcopy(x)


def test_tensor_gram_is_kronecker():
    a2 = root_lattice(build_root_system("A", 2))
    e8 = e8_lattice()
    t = tensor(a2, e8)
    ga, ge = a2.gram, e8.gram
    for i in range(2):
        for j in range(2):
            for k in range(8):
                for l in range(8):
                    assert t.gram[8 * i + k][8 * j + l] == ga[i][j] * ge[k][l]
    assert t.det() == 3 ** 8
    assert discriminant_group(t) == (3,) * 8


def test_tensor_requires_integral():
    half = from_basis([(Q(1, 2),)], 1)
    with pytest.raises(NotIntegral):
        tensor(half, e8_lattice())


def test_shell_counts():
    e8 = e8_lattice()
    assert len(shell(e8, 2)) == 240
    assert len(shell(e8, 4)) == 2160
    assert shell(e8, 3) == []
    assert len(shell(root_lattice(build_root_system("A", 2)), 2)) == 6
    roots = set(shell(e8, 2))
    assert all(dot(v, v) == 2 for v in roots)
    assert all(tuple(-c for c in v) in roots for v in roots)


def _theta_lattice(kind, rank):
    if kind == "sqrt2E":
        # M_alpha for alpha_1 of A2: a copy of sqrt2 E8
        a2 = build_root_system("A", 2)
        return malpha_lattice(a2, a2.simple_roots()[0])
    if kind == "E":
        return e8_lattice()
    return root_lattice(build_root_system(kind, rank))


@pytest.mark.parametrize("kind, rank, norm, count", [
    ("E", 8, 6, 6720),  # 240 * sigma_3(3) in E4 = 1 + 240 sum sigma_3(n) q^n
    ("D", 4, 2, 24),
    ("A", 2, 2, 6),
    # theta of sqrt2 E8 is E4(q^2): nothing at norm 2, the 240 at norm 4
    ("sqrt2E", 8, 2, 0),
    ("sqrt2E", 8, 4, 240),
])
def test_shell_theta_coefficients(kind, rank, norm, count):
    """Shell sizes are theta-series coefficients (Conway-Sloane, ch. 4)."""
    assert len(shell(_theta_lattice(kind, rank), norm)) == count


def test_shell_is_sorted():
    script = ade_realization(build_root_system("A", 2))
    for lat, norm in ((e8_lattice(), 4), (script, 4),
                      (root_lattice(build_root_system("D", 4)), 2)):
        vectors = shell(lat, norm)
        assert vectors and vectors == sorted(vectors)


_QUARTER = st.tuples(st.integers(-4, 4), st.sampled_from((2, 4))).map(
    lambda t: Q(*t))


@st.composite
def _lattice_and_norm(draw):
    """A basis of rank <= 5 with entries in (1/2)Z and (1/4)Z (ambient
    rank or rank + 1), and a norm: that of a short lattice vector, or of
    one moved by a multiple of 1/16 (usually off the shell).  The
    expected shell size, norm^(rank/2) / sqrt(det), is kept small."""
    r = draw(st.integers(1, 5))
    d = draw(st.integers(r, r + 1))
    basis = [tuple(draw(st.lists(_QUARTER, min_size=d, max_size=d)))
             for _ in range(r)]
    det = det_rational(gram_matrix(basis))
    assume(det != 0)
    coeffs = draw(st.lists(st.integers(-1, 1), min_size=r, max_size=r))
    v = [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(d)]
    norm = dot(v, v) + Q(draw(st.sampled_from((0, 0, 0, 1, -1, 4))), 16)
    assume(norm ** r <= 2 ** 16 * det)
    return from_basis(basis, d), norm


@settings(max_examples=80, deadline=None)
@given(_lattice_and_norm())
def test_shell_matches_fraction_reference(case):
    """The integer Fincke-Pohst shell equals the ``Fraction`` descent,
    as ordered lists, however often the lattice's cached LDL^T is read:
    by ``shell`` first, again, after ``det``, or cached by ``det`` (in
    ``from_basis``) before the first ``shell``."""
    lat, norm = case
    want = reference_shell(lat, norm)
    fresh = Lattice(lat.ambient_dim, lat.basis)
    assert shell(fresh, norm) == want
    assert shell(fresh, norm) == want
    assert fresh.det() == det_rational(lat.gram)
    assert shell(fresh, norm) == want
    assert shell(lat, norm) == want


@settings(max_examples=60, deadline=None)
@given(_lattice_and_norm())
def test_shell_keys_are_closed_under_negation(case):
    """The half-tree descent and its mirrored keys: the keys are
    symmetric about the zero vector's key ``offset`` (which decodes to
    0), ``2 offset - key`` decodes to minus the vector of ``key``, and
    the shell equals the ``Fraction`` reference.  The norm-0 shell is
    the zero vector alone."""
    lat, norm = case
    zero = (0,) * lat.ambient_dim
    keys, decode, den = _shell_keys(lat, 0)
    assert list(map(decode, keys)) == [zero]
    assert shell(lat, 0) == reference_shell(lat, 0) == [zero]
    keys, decode, den = _shell_keys(lat, norm)
    assert [tuple(Q(c, den) for c in decode(k)) for k in keys] == (
        reference_shell(lat, norm))
    if keys:
        offset = (keys[0] + keys[-1]) // 2
        assert decode(offset) == zero
        assert [2 * offset - k for k in keys] == keys[::-1]
        assert all(decode(2 * offset - k) == tuple(-c for c in decode(k))
                   for k in keys)


def _assert_reference_shell(lat, norm):
    got = shell(lat, norm)
    assert got == reference_shell(lat, norm)
    assert all(a < b for a, b in zip(got, got[1:]))  # strictly increasing
    return got


@st.composite
def _multibyte_case(draw):
    """A basis of rank <= 2 in (1/4)Z with denominator 4, and the norm of
    a long lattice vector (at least 1024, so every shell coordinate
    bound isqrt(16 norm) + 1 is past 128 and digits take two bytes), or
    that norm moved by 1/32 or 1/16."""
    r = draw(st.integers(1, 2))
    d = draw(st.integers(r, r + 1))
    entries = st.integers(-6, 6).map(lambda n: Q(n, 4))
    basis = [tuple(draw(st.lists(entries, min_size=d, max_size=d)))
             for _ in range(r)]
    assume(any(c.denominator == 4 for v in basis for c in v))
    assume(det_rational(gram_matrix(basis)) != 0)
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
    v = [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(d)]
    assume(any(v))
    k = 1  # the least multiple k v of norm 1024 or more
    while k * k * dot(v, v) < 1024:
        k += 1
    norm = k * k * dot(v, v)
    return from_basis(basis, d), norm + Q(draw(st.sampled_from((0, 0, 1, 2))), 32)


@settings(max_examples=25, deadline=None)
@given(_multibyte_case())
def test_shell_with_multibyte_digits_matches_reference(case):
    """Packed keys with two-byte digits: one per vector, decoded back
    to the reference shell in lexicographic order."""
    lat, norm = case
    vectors = _assert_reference_shell(lat, norm)
    keys, decode, den = _shell_keys(lat, norm)
    assert [tuple(Q(c, den) for c in decode(k)) for k in keys] == vectors
    if vectors:  # two-byte digits: some key is longer than d bytes
        assert max(k.bit_length() for k in keys) > 8 * lat.ambient_dim


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(
           lambda d: st.lists(_QUARTER, min_size=d, max_size=d)),
       st.integers(0, 12), st.sampled_from((0, 0, 1, -1, 3)))
@example([Q(1, 4)], 0, 0)
@example([Q(3, 2), Q(-1, 4)], 5, 0)
def test_rank_one_shell_matches_reference(b, k, off):
    """Rank 1: the shell of norm k^2 |b|^2 is +-k b (just 0 at k = 0);
    norms moved by a multiple of 1/7 are empty."""
    assume(any(b))
    lat = from_basis([b], len(b))
    norm = k * k * dot(b, b) + Q(off, 7)
    got = _assert_reference_shell(lat, norm)
    if not off:
        assert len(got) == (2 if k else 1)


@settings(max_examples=60, deadline=None)
@given(_lattice_and_norm(), st.sampled_from(("zero", "negative", "minus",
                                             "third", "off")))
def test_shell_at_edge_norms_matches_reference(case, kind):
    """Norm 0 gives the zero vector, negative norms nothing, and so do
    norms whose norm * den^2 is not an int (a third, or a norm moved by
    1/128 with den dividing 4)."""
    lat, norm = case
    norm = {"zero": Q(0), "negative": -abs(norm) - 1, "minus": -Q(1, 16),
            "third": Q(1, 3), "off": norm + Q(1, 128)}[kind]
    got = _assert_reference_shell(lat, norm)
    assert got == ([(0,) * lat.ambient_dim] if kind == "zero" else [])


def test_rank_zero_shell():
    empty = Lattice(3, ())
    assert shell(empty, 0) == [(0, 0, 0)] == reference_shell(empty, 0)
    assert shell(empty, 2) == [] == reference_shell(empty, 2)


def test_shell_rank_cap():
    big = from_basis([[int(i == j) for j in range(25)] for i in range(25)])
    with pytest.raises(RankTooLarge):
        shell(big, 2)
    small = from_basis([(1, 0), (0, 1)])
    with pytest.raises(RankTooLarge):
        shell(small, 2, cap=1)
    assert len(shell(small, 1)) == 4


def test_sum_intersect_annihilator_plane():
    z2 = from_basis([(1, 0), (0, 1)])
    m = from_basis([(2, 0)])
    n = from_basis([(3, 0)])
    assert same_lattice(from_generators(m.basis + n.basis, 2),
                        from_basis([(1, 0)]))
    assert same_lattice(intersect(m, n), from_basis([(6, 0)]))
    ann = annihilator(m, z2)
    assert same_lattice(ann, from_basis([(0, 1)]))


def test_annihilator_in_root_lattice():
    a2 = root_lattice(build_root_system("A", 2))
    alpha = a2.basis[0]
    ann = annihilator(from_basis([alpha], 3), a2)
    assert ann.rank == 1
    assert dot(ann.basis[0], alpha) == 0
    assert dot(ann.basis[0], ann.basis[0]) == 6


def test_index_in():
    z2 = from_basis([(1, 0), (0, 1)])
    assert index_in(from_basis([(2, 0), (0, 3)]), z2) == 6
    assert index_in(from_basis([(1, 0)]), z2) is None
    with pytest.raises(NotASublattice):
        index_in(from_basis([(Q(1, 2), 0)]), z2)


def test_is_SSD():
    assert is_SSD(e8_lattice())
    assert is_SSD(from_basis([(1,)]))
    assert not is_SSD(root_lattice(build_root_system("A", 2)))
    with pytest.raises(NotIntegral):
        is_SSD(from_basis([(Q(1, 2),)]))


def test_is_RSSD_plane_examples():
    z2 = from_basis([(1, 0), (0, 1)])
    assert is_RSSD(from_basis([(1, 1)]), z2)
    assert not is_RSSD(from_basis([(1, 2)]), z2)
    with pytest.raises(NotRSSD):
        t_involution(from_basis([(1, 2)]), z2)
    with pytest.raises(NotASublattice):
        is_RSSD(from_basis([(Q(1, 3), 0)]), z2)


def test_t_involution_plane():
    z2 = from_basis([(1, 0), (0, 1)])
    t = t_involution(from_basis([(1, 1)]), z2)
    assert t == [[0, -1], [-1, 0]]
    assert matrix_order(t) == 2


def test_matrix_order():
    assert matrix_order([[1, 0], [0, 1]]) == 1
    assert matrix_order([[-1, 0], [0, -1]]) == 2
    assert matrix_order([[0, -1], [1, -1]]) == 3
    with pytest.raises(OrderCapExceeded):
        matrix_order([[2]])
    with pytest.raises(OrderCapExceeded):
        matrix_order([[0, -1], [1, -1]], cap=2)


def test_malpha_is_scaled_e8():
    R = build_root_system("A", 2)
    alpha = R.simple_roots()[0]
    m = malpha_lattice(R, alpha)
    e8 = e8_lattice()
    for i in range(8):
        for j in range(8):
            assert m.gram[i][j] == 2 * e8.gram[i][j]
    assert m.det() == 256
    assert m.is_even()
    assert is_SSD(m)
    assert discriminant_group(m) == (2,) * 8
    assert len(shell(m, 4)) == 240
    assert shell(m, 2) == []


def test_malpha_pair_geometry():
    """Two block sublattices meet trivially and together span the whole
    realization when the roots are adjacent."""
    R = build_root_system("A", 2)
    a1, a2 = R.simple_roots()
    m1 = malpha_lattice(R, a1)
    m2 = malpha_lattice(R, a2)
    script = ade_realization(R)
    assert intersect(m1, m2).rank == 0
    assert same_lattice(from_generators(m1.basis + m2.basis, 24), script)
    assert is_sublattice(m1, script)
    assert is_RSSD(m1, script)
    big = from_generators(m1.basis + annihilator(m1, script).basis, 24)
    assert index_in(big, script) == 256


def test_t_involutions_generate_triality():
    """Adjacent roots give a product of order 3, orthogonal roots of
    order 2, and each involution squares to the identity."""
    R = build_root_system("A", 2)
    a1, a2 = R.simple_roots()
    script = ade_realization(R)
    t1 = t_involution(malpha_lattice(R, a1), script)
    t2 = t_involution(malpha_lattice(R, a2), script)
    assert matrix_order(t1) == 2
    assert matrix_order(t2) == 2
    assert matrix_order(mat_mul(t1, t2)) == 3

    S = build_root_system("A", 3)
    b = S.simple_roots()
    first, last = b[0], b[2]
    assert S.inner(first, last) == 0
    script3 = ade_realization(S)
    u1 = t_involution(malpha_lattice(S, first), script3)
    u3 = t_involution(malpha_lattice(S, last), script3)
    assert matrix_order(mat_mul(u1, u3)) == 2


def test_rssd_of_non_primitive_sublattices():
    """In L = Z, 2Z is RSSD (2 p(1) = 2 lies in it) and t is -1; 4Z is
    not RSSD, although -1 preserves L."""
    z = from_basis([(1,)])
    two, four = from_basis([(2,)]), from_basis([(4,)])
    assert is_RSSD(two, z) and reference.is_RSSD(two, z)
    assert t_involution(two, z) == [[-1]]
    assert not is_RSSD(four, z) and not reference.is_RSSD(four, z)
    with pytest.raises(NotRSSD):
        t_involution(four, z)


def _outcome(f, *args):
    """``f(*args)``, or the type of the ``ValueError`` it raises."""
    try:
        return f(*args)
    except ValueError as err:
        return type(err)


@st.composite
def _sublattice_pairs(draw):
    """``(kind, M, L)``: an orthogonal summand M of L, in coordinates
    apart from the other summand's (RSSD); the span of int combinations
    of L's basis (a sublattice, mostly not RSSD); or the span of
    half-integral vectors of L's ambient (often not inside L)."""
    kind = draw(st.sampled_from(("summand", "combination", "free")))
    basis, _ = draw(_basis_and_vectors())
    d, r = len(basis[0]), len(basis)
    if kind == "summand":
        other, _ = draw(_basis_and_vectors())
        e = len(other[0])
        own = [b + (0,) * e for b in basis]
        L = from_basis(own + [(0,) * d + b for b in other], d + e)
        return kind, from_basis(own, d + e), L
    L = from_basis(basis, d)
    k = draw(st.integers(1, r))
    if kind == "combination":
        coeffs = draw(st.lists(st.lists(st.integers(-3, 3), min_size=r,
                                        max_size=r), min_size=k, max_size=k))
        gens = [[sum(c * b[j] for c, b in zip(row, basis)) for j in range(d)]
                for row in coeffs]
    else:
        gens = draw(st.lists(st.lists(_HALF, min_size=d, max_size=d),
                             min_size=k, max_size=k))
    return kind, from_generators(gens, d), L


@settings(max_examples=200, deadline=None)
@given(_sublattice_pairs())
def test_rssd_and_t_match_reference(case):
    """The verdict, the t matrix and the type of a refusal
    (``NotASublattice``, ``NotRSSD``) agree with building M + ann_L(M)
    and solving every t image on L."""
    kind, M, L = case
    for ours, ref in ((is_RSSD, reference.is_RSSD),
                      (t_involution, reference.t_involution)):
        assert _outcome(ours, M, L) == _outcome(ref, M, L)
    if kind == "summand":
        assert is_RSSD(M, L)


@pytest.mark.parametrize("kind, rank", [("A", 2), ("A", 3), ("D", 4)])
def test_t_involution_matches_reference_on_every_block(kind, rank):
    """Every M_alpha of the realization is RSSD, with the reference's t."""
    R = build_root_system(kind, rank)
    script = ade_realization(R)
    for alpha in R.positive_roots:
        M = malpha_lattice(R, alpha)
        assert is_RSSD(M, script)
        assert t_involution(M, script) == reference.t_involution(M, script)


def test_rssd_and_t_build_no_lattice(monkeypatch):
    """On the rank-64 realization of E8, RSSD and t are read off solves
    on M and L: no annihilator, no spanned lattice and no Hermite form."""
    R = e8_model()
    script = lattice._e8_realization()
    M = malpha_lattice(R, R.simple_roots()[0])

    def refuse(*args):
        raise AssertionError("the RSSD path built a lattice")

    for name in ("annihilator", "_span", "hnf"):
        monkeypatch.setattr(lattice, name, refuse)
    assert is_RSSD(M, script)
    assert matrix_order(t_involution(M, script)) == 2


def test_lattice_checks_e8_builds_each_t_once(monkeypatch):
    """E8's first adjacent and first orthogonal simple pairs share a
    root, so ``lattice E 8`` builds 3 t involutions for its 2 orders."""
    calls = []

    def counted(M, L):
        calls.append(M)
        return t_involution(M, L)

    monkeypatch.setattr(cli, "t_involution", counted)
    checks = cli.lattice_checks(build_root_system("E", 8))
    assert all(c["status"] != "fail" for c in checks)
    assert len(calls) == 3


def test_script_realization_shell():
    R = build_root_system("A", 2)
    script = ade_realization(R)
    assert script == tensor(root_lattice(R), e8_lattice())
    assert script.rank == 16
    assert shell(script, 2) == []


@pytest.mark.parametrize("kind, rank, cap", [
    ("A", 2, 24), ("A", 3, 24), ("A", 4, 32), ("D", 4, 32)])
def test_realization_minimal_vectors_are_split(kind, rank, cap):
    """The norm-4 vectors of R (x) E8 are the split alpha (x) gamma, over
    roots alpha of R and gamma of E8, with alpha (x) gamma =
    (-alpha) (x) (-gamma) (Kitaoka, Arithmetic of Quadratic Forms, ch. 7):
    there are 240 |Phi_R| / 2 of them."""
    R = build_root_system(kind, rank)
    assert len(shell(ade_realization(R), 4, cap=cap)) == 120 * len(R.roots)


def test_e8_lattice_is_built_once(monkeypatch):
    """``malpha_lattice`` takes E8 from the cache of ``e8_lattice``: 120
    calls over E8's positive roots build its root lattice once."""
    lattice.e8_lattice.cache_clear()
    builds = []
    build = lattice.root_lattice

    def counted(R):
        builds.append(R)
        return build(R)

    monkeypatch.setattr(lattice, "root_lattice", counted)
    R = e8_model()
    for alpha in R.positive_roots:
        malpha_lattice(R, alpha)
    assert len(R.positive_roots) == 120
    assert len(builds) == 1
    assert e8_lattice() is e8_lattice()


def test_verify_identification_all_types():
    for kind, rank in [("A", 2), ("A", 3), ("D", 4),
                       ("E", 8), ("E", 7), ("E", 6)]:
        assert verify_identification(kind, rank)
    with pytest.raises(UnsupportedName):
        verify_identification("B", 2)


@pytest.mark.parametrize("rank", [7, 6])
def test_e7_e6_realizations_are_the_complements(rank):
    """The script realizations of E7 and E6 are the complements in the E8
    realization of s (x) E8, and for E6 also of (e_1 + e_8) (x) E8; the
    E6 complement is not the E7 realization."""
    s, e18 = (Q(1, 2),) * 8, (1, 0, 0, 0, 0, 0, 0, 1)
    cut = [s] if rank == 7 else [s, e18]
    comp = annihilator(tensor(from_basis(cut), e8_lattice()),
                       lattice._e8_realization())
    assert same_lattice(comp, ade_realization(build_root_system("E", rank)))
    other = ade_realization(build_root_system("E", 13 - rank))
    assert not same_lattice(comp, other)


def test_verify_identification_refuses_an_index_2_e8_realization(monkeypatch):
    """With the E8 realization replaced by the index-2 sublattice that
    doubles its first basis row, the E7 complement is no longer the E7
    realization."""
    big = lattice._e8_realization()
    rows, den = big._scaled
    sub = Lattice._from_ints(64, [[2 * c for c in rows[0]]] + rows[1:], den)
    assert index_in(sub, big) == 2
    monkeypatch.setattr(lattice, "_e8_realization", lambda: sub)
    assert not verify_identification("E", 7)


@pytest.mark.parametrize("kind, rank", [("A", 2), ("D", 4), ("E", 6)])
def test_verify_identification_refuses_a_non_kronecker_gram(
        monkeypatch, kind, rank):
    """A realized basis whose first row is doubled breaks the Kronecker
    identity of the Grams."""
    kron = lattice.tensor

    def doubled(A, B):
        rows, den = kron(A, B)._scaled
        return Lattice._from_ints(A.ambient_dim * B.ambient_dim,
                                  [[2 * c for c in rows[0]]] + rows[1:], den)

    monkeypatch.setattr(lattice, "tensor", doubled)
    assert not verify_identification(kind, rank)


def test_lattice_checks_project_once_per_root(monkeypatch):
    """The RSSD checks read their verdict off the involutions of the
    order checks: ``lattice E 8`` projects onto 3 roots' M_alpha, and
    criterion 7 onto 4 (3 in A3, 1 in A2)."""
    calls = []
    project = lattice._doubled_projections

    def counted(M, L):
        calls.append(M)
        return project(M, L)

    monkeypatch.setattr(lattice, "_doubled_projections", counted)
    checks = cli.lattice_checks(build_root_system("E", 8))
    assert all(c["status"] != "fail" for c in checks)
    assert len(calls) == len(set(calls)) == 3
    calls.clear()
    assert all(c["status"] == "pass" for c in cli._criterion_7())
    assert len(calls) == len(set(calls)) == 4
