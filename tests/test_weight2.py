"""Weight-2 oracle: product and pairing identities on tensor-block lattices."""

from fractions import Fraction as Q

import pytest

from weyl_ising.cocycle import SCALE, NotInHalfLattice
from weyl_ising.cyclotomic import Cyc8
from weyl_ising.lattice import e8_lattice, from_basis, malpha_lattice, shell
from weyl_ising.linalg import dot, vec_add, vec_sub
from weyl_ising.rootsys import build_root_system, sign_normalized
from weyl_ising.weight2 import (
    NonRealCocycle,
    RootCreated,
    Weight2Element,
    WrongShellSize,
    ising_vector,
    oracle_pairing,
    oracle_product,
    virasoro_quadratic,
)


@pytest.fixture(scope="module")
def a2():
    R = build_root_system("A", 2)
    alpha, beta = R.simple_roots()
    gamma = vec_add(alpha, beta)
    lattices = [malpha_lattice(R, a) for a in (alpha, beta, gamma)]
    return [ising_vector(M) for M in lattices], [virasoro_quadratic(M) for M in lattices]


@pytest.fixture(scope="module")
def a3_orthogonal():
    R = build_root_system("A", 3)
    s = R.simple_roots()
    assert dot(s[0], s[2]) == 0
    return [ising_vector(malpha_lattice(R, a)) for a in (s[0], s[2])]


def test_ising_vector_shape(a2):
    (ea, _, _), _ = a2
    assert len(ea.exps) == 120
    assert all(c == Q(1, 32) for c in ea.exps.values())
    assert all(type(c) is Q for c in ea.exps.values())
    assert all(type(c) is Q for c in ea.quad.values())


def test_ising_norm_is_one_quarter(a2):
    (ea, eb, _), _ = a2
    assert oracle_pairing(ea, ea) == Q(1, 4)
    assert oracle_pairing(eb, eb) == Q(1, 4)


def test_virasoro_norms_and_cross_pairing(a2):
    _, (wa, wb, _) = a2
    assert oracle_pairing(wa, wa) == 4
    assert oracle_pairing(wa, wb) == 1
    assert oracle_pairing(wb, wa) == 1


def test_ising_cross_pairing(a2):
    (ea, eb, ec), _ = a2
    assert oracle_pairing(ea, eb) == Q(1, 256)
    assert oracle_pairing(ea, ec) == Q(1, 256)
    assert oracle_pairing(eb, ec) == Q(1, 256)


def test_ising_is_idempotent_axis(a2):
    (ea, _, _), _ = a2
    assert oracle_product(ea, ea) == ea.scale(2)


def test_block_virasoro_gives_weight_two(a2):
    (ea, _, _), (wa, _, _) = a2
    assert oracle_product(wa, ea) == ea.scale(2)
    assert oracle_product(ea, wa) == ea.scale(2)


def test_adjacent_product_three_term(a2):
    (ea, eb, ec), _ = a2
    expected = (ea + eb - ec).scale(Q(1, 32))
    assert oracle_product(ea, eb) == expected
    assert oracle_product(eb, ea) == expected


def test_products_are_real_rational(a2):
    """Products and pairings carry ``Fraction`` scalars only."""
    (ea, eb, _), (wa, _, _) = a2
    for u, v in [(ea, ea), (ea, eb), (wa, eb)]:
        w = oracle_product(u, v)
        assert w
        assert all(type(c) is Q
                   for c in [*w.quad.values(), *w.exps.values()])
        assert type(oracle_pairing(u, v)) is Q
    assert type(oracle_pairing(ea, Weight2Element.zero(ea.dim))) is Q


def test_non_rational_coefficient_is_rejected():
    """A coefficient outside Q raises ``TypeError`` in the constructor's
    exponential and quadratic parts and in ``scale``."""
    x = tuple(Q(c) for c in (2, 0, 0, 0, 0, 0, 0, 0))
    z = Cyc8.zeta_pow(1)
    with pytest.raises(TypeError):
        Weight2Element(8, {}, {x: z})
    with pytest.raises(TypeError):
        Weight2Element(8, {(0, 0): z}, {})
    with pytest.raises(TypeError):
        Weight2Element(8, {}, {x: 1}).scale(z)


def test_form_invariance(a2):
    (ea, eb, ec), _ = a2
    for u, v, w in [(ea, eb, ec), (eb, ec, ea), (ea, ea, eb)]:
        left = oracle_pairing(oracle_product(u, v), w)
        right = oracle_pairing(v, oracle_product(u, w))
        assert left == right


def test_orthogonal_labels_give_zero(a3_orthogonal):
    e1, e3 = a3_orthogonal
    assert not oracle_product(e1, e3)
    assert oracle_pairing(e1, e3) == 0


def test_wrong_shell_size():
    with pytest.raises(WrongShellSize):
        ising_vector(e8_lattice())


def test_root_created():
    x = tuple(Q(c) for c in (2, 0, 0, 0, 0, 0, 0, 0))
    y = tuple(Q(c, 2) for c in (3, 1, 1, 1, 1, 1, 1, -1))
    assert dot(x, x) == 4 and dot(y, y) == 4 and dot(x, y) == 3
    u = Weight2Element(8, {}, {x: 1})
    v = Weight2Element(8, {}, {y: 1})
    with pytest.raises(RootCreated):
        oracle_product(u, v)


def test_non_real_sign_is_rejected():
    x = tuple(Q(c, 2) for c in (3, 2, 1, 1, 1, 0, 0, 0))
    y = tuple(Q(c) for c in (0, 1, 0, 1, 1, 0, -1, 0))
    assert dot(x, x) == 4 and dot(y, y) == 4 and dot(x, y) == 2
    u = Weight2Element(8, {}, {x: 1})
    v = Weight2Element(8, {}, {y: 1})
    with pytest.raises(NonRealCocycle):
        oracle_product(u, v)


def test_label_outside_half_integers_is_rejected():
    """Labels may lie in (1/4)Z; a coordinate outside it is rejected."""
    x = (Q(6, 5), Q(8, 5)) + (Q(0),) * 6
    assert dot(x, x) == 4
    with pytest.raises(NotInHalfLattice):
        Weight2Element(8, {}, {x: 1})
    quarter = (Q(7, 4),) + (Q(1, 4),) * 15
    assert dot(quarter, quarter) == 4
    assert Weight2Element(16, {}, {quarter: 1}).exps


def test_ising_vector_rejects_labels_outside_quarter_integers():
    """A copy of sqrt2 E8 turned by the rotation (3/5, 4/5) in one
    coordinate plane keeps its 240 norm-4 vectors, but their coordinates
    leave (1/4)Z, and the int shell's labels are checked."""
    R = build_root_system("A", 2)
    M = malpha_lattice(R, R.simple_roots()[0])  # supported on blocks 1, 2
    turned = from_basis(
        [b[:8] + (Q(3, 5) * b[8] - Q(4, 5) * b[9],
                  Q(4, 5) * b[8] + Q(3, 5) * b[9]) + b[10:]
         for b in M.basis], M.ambient_dim)
    assert len(shell(turned, 4)) == 240
    with pytest.raises(NotInHalfLattice):
        ising_vector(turned)


@pytest.mark.parametrize("kind, rank", [("A", 3), ("D", 4), ("E", 6)])
def test_virasoro_quadratic_is_half_the_projection(kind, rank):
    """The quadratic built from the int core equals half the projection
    of each unit vector through ``Lattice.project``; for E6 on a root
    with half-integer coordinates."""
    R = build_root_system(kind, rank)
    alpha = next((a for a in R.positive_roots
                  if any(Q(c).denominator == 2 for c in a)),
                 R.positive_roots[0])
    M = malpha_lattice(R, alpha)
    d = M.ambient_dim
    expected = {}
    for i in range(d):
        for j, c in enumerate(M.project([int(i == k) for k in range(d)])):
            if c:
                expected[(i, j)] = c / 2
    assert expected
    assert virasoro_quadratic(M).quad == expected


def test_labels_are_stored_scaled():
    minus_x = tuple(Q(c, 2) for c in (-3, -1, -1, -1, -1, -1, -1, 1))
    u = Weight2Element(8, {}, {minus_x: Q(1, 2)})
    assert u.exps == {tuple(int(-SCALE * c) for c in minus_x): Q(1, 2)}


def test_canonical_label_normalizes_sign():
    """Labels are canonical under ``sign_normalized``: the +-x with its
    first nonzero coordinate positive, for Fraction and int tuples."""
    assert sign_normalized((Q(-1), Q(2), Q(0))) == (1, -2, 0)
    assert sign_normalized((Q(0), Q(3), Q(-1))) == (0, 3, -1)
    assert sign_normalized((0, -4, 2, -1)) == (0, 4, -2, 1)
    with pytest.raises(ValueError):
        sign_normalized((Q(0), Q(0), Q(0)))


def test_element_algebra():
    x = tuple(Q(c) for c in (2, 0, 0, 0, 0, 0, 0, 0))
    u = Weight2Element(8, {(0, 1): 1, (1, 0): 1}, {x: Q(1, 2)})
    v = u + u - u.scale(2)
    assert not v
    assert v == Weight2Element.zero(8)
    with pytest.raises(ValueError):
        Weight2Element(8, {(0, 1): 1}, {})
    with pytest.raises(ValueError):
        Weight2Element(8, {}, {(1, 0, 0, 0, 0, 0, 0, 0): 1})


@pytest.mark.parametrize("rank", [6, 7, 8])
def test_ising_vector_on_half_integer_e_root(rank):
    """M_alpha of a half-integer root has labels in (1/4)Z, not (1/2)Z."""
    R = build_root_system("E", rank)
    alpha = next(a for a in R.positive_roots if a[0].denominator == 2)
    e = ising_vector(malpha_lattice(R, alpha))
    assert len(e.exps) == 120
    assert any(c % 2 for x in e.exps for c in x)
    assert oracle_product(e, e) == e.scale(2)
    assert oracle_pairing(e, e) == Q(1, 4)


@pytest.fixture(scope="module")
def e6_half(e6_half_roots):
    R, alpha, two_b, three_c = e6_half_roots
    third = R.canonical_positive(vec_sub(alpha, three_c))
    return [ising_vector(malpha_lattice(R, a))
            for a in (alpha, two_b, three_c, third)]


def test_e6_half_integer_2b_pair(e6_half):
    ea, eb, _, _ = e6_half
    assert not oracle_product(ea, eb)
    assert oracle_pairing(ea, eb) == 0


def test_e6_half_integer_3c_pair(e6_half):
    ea, _, ec, eg = e6_half
    assert oracle_product(ea, ec) == (ea + ec - eg).scale(Q(1, 32))
    assert oracle_pairing(ea, ec) == Q(1, 256)
