"""Residue table on halved basis vectors: frozen basis values, the
bilinear and commutator identities, triviality on the block
sublattices, and the sign of tensored root pairs."""

import random
from fractions import Fraction as Q

import pytest

from fraction_reference import vec_add, vec_scale
from weyl_ising.cocycle import CocycleTable, NotInHalfLattice, check_sign_lemma
from weyl_ising.lattice import e8_model, malpha_lattice
from weyl_ising.linalg import dot
from weyl_ising.rootsys import build_root_system


def rand_half_vector(table, rng, spread=2):
    """Random integer combination of the block x-basis vectors."""
    out = [Q(0)] * (8 * table.n)
    for t in range(table.n):
        for k, x in enumerate(table.x_basis):
            c = rng.randrange(-spread, spread + 1)
            for j in range(8):
                out[8 * t + j] += c * x[j]
    return tuple(out)


def rand_e8_vector(rng):
    simple = e8_model().simple_roots()
    cs = [rng.randrange(-2, 3) for _ in range(8)]
    return tuple(sum(c * s[j] for c, s in zip(cs, simple)) for j in range(8))


def test_basis_pair_values():
    t = CocycleTable(1)
    x = t.x_basis
    for i in range(8):
        assert t.eps0(x[i], x[i]) == 1
        for j in range(i + 1, 8):
            assert t.eps0(x[i], x[j]) == 0
            assert t.eps0(x[j], x[i]) == int(4 * dot(x[j], x[i])) % 8
    assert t.eps0(vec_scale(2, x[0]), x[0]) == 2
    zero = tuple(Q(0) for _ in range(8))
    assert t.eps0(zero, x[3]) == 0


def test_root_with_its_negative_half():
    """eps0(x, -x/2) = -<x, x> = -2 mod 8 for every root x."""
    t = CocycleTable(1)
    values = {t.eps0(r, vec_scale(Q(-1, 2), r)) for r in e8_model().roots}
    assert values == {6}


def test_bilinearity():
    t = CocycleTable(2)
    rng = random.Random(19)
    for _ in range(40):
        a = rand_half_vector(t, rng)
        a2 = rand_half_vector(t, rng)
        b = rand_half_vector(t, rng)
        assert t.eps0(vec_add(a, a2), b) == (t.eps0(a, b) + t.eps0(a2, b)) % 8
        assert t.eps0(b, vec_add(a, a2)) == (t.eps0(b, a) + t.eps0(b, a2)) % 8


def test_commutator_identity_on_integral_vectors():
    t = CocycleTable(1)
    rng = random.Random(3)
    for _ in range(120):
        a, b = rand_e8_vector(rng), rand_e8_vector(rng)
        assert (t.eps0(a, b) - t.eps0(b, a)) % 8 == (4 * dot(a, b)) % 8


def test_trivial_on_block_sublattices():
    for kind, rank in [("A", 2), ("D", 4)]:
        R = build_root_system(kind, rank)
        t = CocycleTable(R.ambient_dim)
        for alpha in R.simple_roots()[:2]:
            m = malpha_lattice(R, alpha)
            assert {t.eps0(u, v) for u in m.basis for v in m.basis} == {0}


def test_sign_lemma():
    for kind, rank in [("A", 1), ("A", 2), ("A", 3), ("D", 4),
                       ("E", 6), ("E", 7), ("E", 8)]:
        assert check_sign_lemma(build_root_system(kind, rank))


def test_tensor_pair_value_matches_generic_evaluation():
    """The factored residue used by the sign check agrees with the
    direct bilinear evaluation on full tensor vectors, the Kronecker
    products a (x) g with block i equal to a_i g."""
    one = CocycleTable(1)
    rng = random.Random(8)
    gammas = e8_model().roots
    for kind, rank in [("A", 3), ("E", 6)]:
        R = build_root_system(kind, rank)
        t = CocycleTable(R.ambient_dim)
        for _ in range(25):
            a = rng.choice(R.roots)
            b = rng.choice(R.roots)
            g = rng.choice(gammas)
            direct = t.eps0(tuple(x * y for x in a for y in g),
                            tuple(x * y for x in b for y in g))
            assert direct == int(dot(a, b) * one.eps0(g, g)) % 8


def test_not_in_half_lattice():
    t = CocycleTable(1)
    bad = (Q(1, 4),) + (Q(0),) * 7
    with pytest.raises(NotInHalfLattice):
        t.eps0(bad, t.x_basis[0])
    with pytest.raises(NotInHalfLattice):
        t.eps0((Q(0),) * 16, (Q(0),) * 16)
    with pytest.raises(NotInHalfLattice):
        t.eps0((Q(1, 8),) + (Q(0),) * 7, t.x_basis[0])
    # the all-quarters vector is half of a genuine root, hence fine
    ok = (Q(1, 4),) * 8
    assert t.eps0(ok, ok) in range(8)


def test_not_in_half_lattice_message_prints_rationals():
    """The offending vector is shown in true coordinates, as rationals."""
    t = CocycleTable(1)
    with pytest.raises(NotInHalfLattice) as err:
        t.eps0_scaled((1, 0, 0, 0, 0, 0, 0, 0), (0,) * 8)
    assert "block 0 of (1/4, 0, 0, 0, 0, 0, 0, 0)" in str(err.value)
    assert "Fraction(" not in str(err.value)
    with pytest.raises(NotInHalfLattice) as err:
        t.eps0((Q(1, 8),) + (Q(0),) * 7, t.x_basis[0])
    assert "(1/8, 0, 0, 0, 0, 0, 0, 0)" in str(err.value)
    assert "Fraction(" not in str(err.value)
