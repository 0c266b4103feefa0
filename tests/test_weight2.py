"""Weight-2 oracle: product and pairing identities on tensor-block lattices."""

import functools
import re
import time
from fractions import Fraction as Q
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyl_ising.cyclotomic import Cyc8
from fraction_reference import project, vec_add, vec_sub
from weyl_ising.axes import TWO_B, from_root_system
from weyl_ising.cli import _oracle_verdicts
from weyl_ising.cocycle import SCALE, NotInHalfLattice
from weyl_ising.lattice import e8_lattice, from_basis, malpha_lattice, shell
from weyl_ising.linalg import dot
from weyl_ising.rootsys import build_root_system, sign_normalized
from weyl_ising.weight2 import (
    NonRealCocycle,
    RootCreated,
    Weight2Element,
    WrongShellSize,
    _close_pairs,
    _labels,
    _packed_columns,
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


def test_error_messages_print_rationals():
    """Labels in the error messages read as rationals in true
    coordinates, not as Fraction reprs."""
    x = tuple(Q(c) for c in (2, 0, 0, 0, 0, 0, 0, 0))
    y = tuple(Q(c, 2) for c in (3, 1, 1, 1, 1, 1, 1, -1))
    with pytest.raises(RootCreated) as err:
        oracle_product(Weight2Element(8, {}, {x: 1}),
                       Weight2Element(8, {}, {y: 1}))
    assert str(err.value) == (
        "labels (2, 0, 0, 0, 0, 0, 0, 0) and "
        "(3/2, 1/2, 1/2, 1/2, 1/2, 1/2, 1/2, -1/2) with product 3 create "
        "a norm-2 vector")
    x = tuple(Q(c, 2) for c in (3, 2, 1, 1, 1, 0, 0, 0))
    y = tuple(Q(c) for c in (0, 1, 0, 1, 1, 0, -1, 0))
    with pytest.raises(NonRealCocycle) as err:
        oracle_product(Weight2Element(8, {}, {x: 1}),
                       Weight2Element(8, {}, {y: 1}))
    assert re.fullmatch(
        r"pair \(\(3/2, 1, 1/2, 1/2, 1/2, 0, 0, 0\), "
        r"\(0, 1, 0, 1, 1, 0, -1, 0\)\) produced the non-real unit "
        r"z\^[1-35-7]", str(err.value))
    assert "Fraction" not in str(err.value)


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
    of each unit vector, a ``Fraction`` projection; for E6 on a root
    with half-integer coordinates."""
    R = build_root_system(kind, rank)
    alpha = next((a for a in R.positive_roots
                  if any(Q(c).denominator == 2 for c in a)),
                 R.positive_roots[0])
    M = malpha_lattice(R, alpha)
    d = M.ambient_dim
    expected = {}
    for i in range(d):
        for j, c in enumerate(project(M, [int(i == k) for k in range(d)])):
            if c:
                expected[(i, j)] = c / 2
    assert expected
    assert virasoro_quadratic(M).quad == expected


def test_labels_are_stored_scaled():
    minus_x = tuple(Q(c, 2) for c in (-3, -1, -1, -1, -1, -1, -1, 1))
    u = Weight2Element(8, {}, {minus_x: Q(1, 2)})
    assert u.exps == {tuple(int(-SCALE * c) for c in minus_x): Q(1, 2)}
    # int vectors over den: den 2 scales up, den 8 divides down
    assert _labels([(1, -3)], 2) == [(2, -6)]
    assert _labels([(2, -6, 0)], 8) == [(1, -3, 0)]


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
    # an index outside range(dim) would later be read as a missing (9)
    # or a wrapped-around (-1) label coordinate
    for quad in ({(9, 9): 1}, {(-1, -1): 2}):
        with pytest.raises(ValueError, match="outside range"):
            Weight2Element(8, quad, {})


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
    third = sign_normalized(vec_sub(alpha, three_c))
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


# -- the packed close-pair kernel --------------------------------------------

@functools.cache
def _shell_label_pool(rank: int) -> tuple:
    """The 240 scaled norm-4 labels (both signs) of M_alpha for the first
    integer and the first half-integer positive root of E_rank."""
    R = build_root_system("E", rank)
    pool = []
    for half in (False, True):
        alpha = next(a for a in R.positive_roots
                     if (a[0].denominator == 2) == half)
        for x in ising_vector(malpha_lattice(R, alpha)).exps:
            pool += [x, tuple(-c for c in x)]
    return tuple(pool)


# Two norm-64 labels at 16<x, y> = 48 (a created root); the shell labels
# of a rootless M_alpha never meet at +-48.
_ROOT_X = (8,) + (0,) * 63
_ROOT_Y = (6, 2, 2, 2, 2, 2, 2, -2) + (0,) * 56


def _brute_close_pairs(xs, ys):
    return [(x, y, s) for x in xs for y in ys
            if abs(s := sum(map(mul, x, y))) >= 32]


def _signed(label, negate):
    return tuple(-c for c in label) if negate else label


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_close_pairs_match_brute_force(data):
    """On random signed subsets of E6/E7/E8 shell labels, plus +-x of
    drawn labels and a +-48 pair, the packed kernel yields exactly the
    brute-force pairs with |16<x, y>| >= 32, in the same order."""
    pool = _shell_label_pool(data.draw(st.sampled_from([6, 7, 8])))
    pool += (_ROOT_X, _ROOT_Y)
    label = st.builds(_signed, st.sampled_from(pool), st.booleans())
    xs = data.draw(st.lists(label, max_size=12))
    ys = data.draw(st.lists(label, max_size=12))
    if xs:
        ys += data.draw(st.lists(
            st.builds(_signed, st.sampled_from(xs), st.booleans()),
            max_size=3))
    ys = data.draw(st.permutations(ys))
    got = list(_close_pairs(xs, ys, _packed_columns(ys)))
    assert got == _brute_close_pairs(xs, ys)


def test_close_pairs_cover_every_close_value():
    """Squares (+-64), created roots (+-48) and shifts (+-32) all come
    through with their exact value; far pairs do not."""
    pool = _shell_label_pool(8)
    x = pool[0]
    shift = next(y for y in pool if sum(map(mul, x, y)) == 32)
    far = next(y for y in pool if sum(map(mul, x, y)) == 16)
    xs = [x, _ROOT_X]
    ys = [x, _signed(x, True), shift, _signed(shift, True), far, _ROOT_Y,
          _signed(_ROOT_Y, True)]
    got = list(_close_pairs(xs, ys, _packed_columns(ys)))
    assert got == _brute_close_pairs(xs, ys)
    assert {s for _, _, s in got} == {64, -64, 48, -48, 32, -32}
    assert list(_close_pairs(xs, [], _packed_columns([]))) == []


def _e8_sample_pairs(R, A, per_stratum=4):
    """A fixed sample of E8 positive-root pairs: ``per_stratum`` evenly
    spaced pairs of each relation (2B, 3C) on each mix of integer and
    half-integer roots."""
    strata: dict = {}
    for i, a in enumerate(R.positive_roots):
        for b in R.positive_roots[:i]:
            halves = (a[0].denominator == 2) + (b[0].denominator == 2)
            key = (A.relation(a, b) == TWO_B, halves)
            strata.setdefault(key, []).append((a, b))
    assert len(strata) == 6
    return [pairs[k * len(pairs) // per_stratum]
            for _, pairs in sorted(strata.items())
            for k in range(per_stratum)]


def test_e8_oracle_sample_within_budget():
    """24 E8 pairs (2B and 3C, on integer and half-integer roots) agree
    with the closed forms, checked as the full oracle sweep checks them."""
    start = time.monotonic()
    R = build_root_system("E", 8)
    pairs = _e8_sample_pairs(R, from_root_system(R))
    verdicts = list(_oracle_verdicts(R, pairs))
    assert [(a, b) for a, b, _, _ in verdicts] == pairs
    assert all(ok for _, _, _, ok in verdicts)
    assert {kind[:2] for _, _, kind, _ in verdicts} == {"2B", "3C"}
    assert time.monotonic() - start < 15
