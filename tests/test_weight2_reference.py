"""Independent cross-check of the weight-2 oracle and of the residue table.

The reference below works on labels in true ``Fraction`` coordinates and
takes its residues from a ``Fraction`` inverse of the halved basis
(``mat_vec``), transcribing the rules of the ``weight2`` and ``cocycle``
module docstrings.  Hypothesis compares it with the integer-scaled
implementation on random sub-elements of the A2/A3 Ising vectors and of
three E6 Ising vectors with labels in (1/4)Z, plus random symmetric
quadratics, and on random E8 half-lattice vectors.
"""

import functools
import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyl_ising.cyclotomic import Cyc8
from fraction_reference import mat_vec, matrix_inverse
from weyl_ising.cocycle import SCALE, CocycleTable, scaled
from weyl_ising.lattice import e8_model, malpha_lattice, shell
from weyl_ising.linalg import dot
from weyl_ising.rootsys import build_root_system, sign_normalized
from weyl_ising.weight2 import (
    Weight2Element,
    oracle_pairing,
    oracle_product,
    virasoro_quadratic,
)

PROPERTY = settings(max_examples=40, deadline=None)


# -- reference residue: the Fraction definition over the halved basis ----

@functools.cache
def ref_basis():
    x_basis = [tuple(Q(c, 2) for c in a) for a in e8_model().simple_roots()]
    xinv = matrix_inverse([[x_basis[k][j] for k in range(8)]
                           for j in range(8)])
    table = [[1 if k == l else int(4 * dot(x_basis[k], x_basis[l])) % 8
              if k > l else 0 for l in range(8)] for k in range(8)]
    return x_basis, xinv, table


def ref_eps0(a, b):
    _, xinv, table = ref_basis()
    total = 0
    for t in range(len(a) // 8):
        ca = mat_vec(xinv, [Q(c) for c in a[8 * t: 8 * t + 8]])
        cb = mat_vec(xinv, [Q(c) for c in b[8 * t: 8 * t + 8]])
        assert all(c.denominator == 1 for c in ca + cb)
        total += sum(ca[k] * table[k][l] * cb[l]
                     for k in range(8) for l in range(8))
    return int(total) % 8


def ref_sign(a, b):
    unit = Cyc8.zeta_pow(ref_eps0(a, b))
    assert unit in (Cyc8.of(1), Cyc8.of(-1)), "non-real cocycle"
    return unit


# -- reference oracle: elements are (quad, exps) with Fraction labels ----

def accumulate(target, key, value):
    total = target.get(key, Cyc8.of(0)) + value
    if total:
        target[key] = total
    else:
        target.pop(key, None)


def ref_product(dim, u, v):
    (uq, ue), (vq, ve) = u, v
    quad, exps = {}, {}
    # quad x quad -> 2(ST + TS)
    for (i, k), a in uq.items():
        for (k2, j), b in vq.items():
            if k == k2:
                accumulate(quad, (i, j), 2 * (a * b))
                accumulate(quad, (j, i), 2 * (a * b))
    # quad x exp -> (x^T S x) e^x, both orders
    for sq, ex in ((uq, ve), (vq, ue)):
        for x, c in ex.items():
            xsx = sum((x[i] * x[j] * a for (i, j), a in sq.items()),
                      Cyc8.of(0))
            accumulate(exps, x, xsx * c)
    # exp x exp
    for x, cx in ue.items():
        for y, cy in ve.items():
            s = dot(x, y)
            if s in (2, -2):
                z = tuple(a - b if s == 2 else a + b for a, b in zip(x, y))
                accumulate(exps, sign_normalized(z), ref_sign(x, y) * cx * cy)
            elif s in (4, -4):
                c = ref_sign(x, tuple(-a for a in x)) * cx * cy
                for i in range(dim):
                    for j in range(dim):
                        if x[i] and x[j]:
                            accumulate(quad, (i, j), x[i] * x[j] * c)
            assert s not in (3, -3), "norm-2 vector created"
    return quad, exps


def ref_pairing(u, v):
    (uq, ue), (vq, ve) = u, v
    total = Cyc8.of(0)
    for (i, j), a in uq.items():
        if (j, i) in vq:
            total = total + 2 * (a * vq[(j, i)])
    for x, c in ue.items():
        if x in ve:
            total = total + 2 * (c * ve[x])
    return total


def as_reference(w: Weight2Element):
    """The element with its scaled labels in true coordinates."""
    return (dict(w.quad),
            {tuple(Q(c, SCALE) for c in x): a for x, a in w.exps.items()})


# -- random sub-elements of the A2 / A3 / E6 Ising vectors --------------

@functools.cache
def ising_parts(kind, rank, roots=None):
    """Per positive root (or per root of ``roots``): its sorted canonical
    norm-4 labels and the quadratic part of its Ising vector."""
    R = build_root_system(kind, rank)
    parts = []
    for alpha in roots or R.positive_roots:
        M = malpha_lattice(R, alpha)
        labels = sorted({sign_normalized(x) for x in shell(M, 4)})
        quad = virasoro_quadratic(M).scale(Q(1, 16)).quad
        parts.append((labels, quad))
    return 8 * R.ambient_dim, parts


# Q(1, 3) and Q(-2, 7) make the parts' common denominators more than
# powers of two, so the oracle's lcm of them is exercised too
coefficients = st.sampled_from([Q(1, 32), Q(-1, 32), Q(1), Q(-3, 4), Q(5, 2),
                                Q(1, 3), Q(-2, 7)])


@st.composite
def sub_elements(draw, dim, parts):
    labels, quad = draw(st.sampled_from(parts))
    picked = draw(st.lists(st.sampled_from(labels), max_size=14, unique=True))
    exps = {x: draw(coefficients) for x in picked}
    sym = {}
    if draw(st.booleans()):
        sym = dict(quad)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        c = draw(coefficients)
        sym[(i, j)] = sym.get((i, j), 0) + c
        if i != j:
            sym[(j, i)] = sym.get((j, i), 0) + c
    return Weight2Element(dim, sym, exps)


@pytest.fixture(scope="module")
def families(e6_half_roots):
    """Built once, outside example generation, which Hypothesis times."""
    _, *e6_roots = e6_half_roots
    return [ising_parts("A", 2), ising_parts("A", 3),
            ising_parts("E", 6, tuple(e6_roots))]


@st.composite
def pairs(draw, families):
    dim, parts = draw(st.sampled_from(families))
    return draw(sub_elements(dim, parts)), draw(sub_elements(dim, parts))


def assert_canonical(w: Weight2Element):
    """The int core is canonical: den > 0, no zero numerator, and no
    common factor of den and the numerators."""
    numerators = [*w._quad.values(), *w._exps.values()]
    assert w.den > 0
    assert all(numerators)
    assert math.gcd(w.den, *numerators) == 1


@PROPERTY
@given(data=st.data())
def test_product_matches_fraction_reference(families, data):
    """Also: every output term is one ``Fraction``, no zero term is
    kept, every core is canonical, and sums and scalings invert."""
    u, v = data.draw(pairs(families))
    want_quad, want_exps = ref_product(u.dim, as_reference(u), as_reference(v))
    w = oracle_product(u, v)
    got_quad, got_exps = as_reference(w)
    assert got_quad == want_quad
    assert got_exps == want_exps
    for c in [*w.quad.values(), *w.exps.values()]:
        assert type(c) is Q and c != 0
    c = data.draw(coefficients)
    assert (u + v) - v == u
    assert u.scale(c).scale(1 / c) == u
    for x in (u, v, w, u + v, u - u, u.scale(c)):
        assert_canonical(x)


@PROPERTY
@given(data=st.data())
def test_pairing_matches_fraction_reference(families, data):
    u, v = data.draw(pairs(families))
    assert oracle_pairing(u, v) == ref_pairing(as_reference(u),
                                               as_reference(v))


def test_full_ising_product_matches_reference():
    """One full 3C product of A2, all 120 x 120 label pairs."""
    dim, parts = ising_parts("A", 2)
    u, v = [Weight2Element(dim, quad, {x: Q(1, 32) for x in labels})
            for labels, quad in parts[:2]]
    want = ref_product(dim, as_reference(u), as_reference(v))
    assert as_reference(oracle_product(u, v)) == want


# -- the integer residue against the Fraction definition ----------------

small = st.integers(-3, 3)


@PROPERTY
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(*[st.lists(small, min_size=8 * n, max_size=8 * n)
                          for _ in range(2)])))
def test_eps0_matches_mat_vec_definition(coeffs):
    """Random integer combinations of the halved basis, one to four
    blocks, the four of criterion 1's A3 products (dimension 32)."""
    x_basis, _, ref_table = ref_basis()

    def vector(cs):
        return tuple(sum(cs[8 * t + k] * x_basis[k][j] for k in range(8))
                     for t in range(len(cs) // 8) for j in range(8))

    a, b = vector(coeffs[0]), vector(coeffs[1])
    table = CocycleTable(len(a) // 8)
    assert table.eps0(a, b) == ref_eps0(a, b)
    coords, row_form = table._forms(scaled(a))
    assert coords == tuple(coeffs[0])
    c = coeffs[0]
    assert row_form == tuple(
        sum(c[8 * t + k] * ref_table[k][l] for k in range(8))
        for t in range(len(c) // 8) for l in range(8))


@PROPERTY
@given(st.lists(small, min_size=16, max_size=16))
def test_scaled_eps0_matches_mat_vec_definition(cs):
    """Half-lattice vectors, in (1/4)Z, through the int entry point."""
    x_basis = ref_basis()[0]
    a, b = [tuple(sum(c * r[j] for c, r in zip(part, x_basis))
                  for j in range(8)) for part in (cs[:8], cs[8:])]
    a4, b4 = [tuple((SCALE * c).numerator for c in w) for w in (a, b)]
    assert all((SCALE * c).denominator == 1 for c in a + b)
    table = CocycleTable(1)
    assert table.eps0_scaled(a4, b4) == ref_eps0(a, b)
