"""Ring arithmetic of the exact 8th-root-of-unity scalars."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyl_ising.cyclotomic import MINUS_ONE, ONE, Cyc8


def test_powers_of_zeta_cycle():
    z = Cyc8.zeta_pow(1)
    acc = ONE
    seen = []
    for _ in range(8):
        seen.append(acc)
        acc = acc * z
    assert acc == ONE
    assert len(set(seen)) == 8
    assert Cyc8.zeta_pow(4) == MINUS_ONE
    assert Cyc8.zeta_pow(9) == z
    assert Cyc8.zeta_pow(-1) == Cyc8.zeta_pow(7)


def test_ring_identities():
    z = Cyc8.zeta_pow(1)
    assert (1 + z) * (1 - z) == 1 - z * z
    assert z * z * z * z == -1
    assert (z + z) / 2 == z
    assert 3 - z - (2 - z) == ONE
    assert -(z - 1) == 1 - z


def test_mixed_arithmetic_with_rationals():
    z2 = Cyc8.zeta_pow(2)
    v = Q(1, 2) * z2 + Q(1, 4)
    assert v.coeffs == (Q(1, 4), 0, Q(1, 2), 0)
    assert v - Q(1, 4) == Q(1, 2) * z2
    assert bool(v) and not bool(v - v)


def test_conjugate_and_is_real():
    z = Cyc8.zeta_pow(1)
    assert z.conjugate() == Cyc8.zeta_pow(7)
    assert not z.is_real()
    sqrt2 = z - Cyc8.zeta_pow(3)
    assert sqrt2.is_real()
    assert not sqrt2.is_rational()
    assert sqrt2 * sqrt2 == 2
    assert Cyc8.of(Q(3, 7)).is_real()


def test_as_fraction():
    assert Cyc8.of(Q(5, 3)).as_fraction() == Q(5, 3)
    with pytest.raises(ValueError):
        Cyc8.zeta_pow(2).as_fraction()


def test_unit_exponent():
    for k in range(8):
        assert Cyc8.zeta_pow(k).unit_exponent() == k
    z = Cyc8.zeta_pow(1)
    for value in (Cyc8.of(0), 2 * ONE, z + 1, z / 2):
        assert value.unit_exponent() is None


def test_division_restricted_to_rationals():
    z = Cyc8.zeta_pow(1)
    assert (4 * z) / 4 == z
    assert z / Cyc8.of(2) == Q(1, 2) * z
    with pytest.raises(TypeError):
        z / z


small_fractions = st.fractions(-3, 3, max_denominator=4)
elements = st.tuples(*[small_fractions] * 4).map(Cyc8)
PROPERTY = settings(max_examples=60, deadline=None)


@PROPERTY
@given(elements, elements, elements)
def test_ring_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + b == b + a
    assert a - a == 0


@PROPERTY
@given(elements, elements)
def test_conjugate_is_an_involutive_ring_map(a, b):
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
