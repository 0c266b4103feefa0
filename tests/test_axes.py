"""Closed-form axis algebra: products, conformal vectors, automorphisms."""

import random
from fractions import Fraction as Q
from functools import cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_reference import (
    axis_gram,
    axis_pairing,
    axis_product,
    conformal_vector,
)

from weyl_ising.axes import (
    SAME,
    TWO_B,
    AxisAlgebra,
    NoConformalVector,
    ThreeC,
    associative_on_units,
    automorphic_on_units,
    from_root_system,
    gram_positive_definite,
    miyamoto_permutation,
    virasoro,
)
from weyl_ising.linalg import dot, ldl_is_positive_definite
from weyl_ising.rootsys import build_root_system, sign_normalized
from weyl_ising.triality import twisted_axis_algebra


def three_c_partners(A, a) -> int:
    return sum(isinstance(A.relation(a, b), ThreeC) for b in A.axes)


@pytest.fixture(scope="module")
def A2():
    return from_root_system(build_root_system("A", 2))


@pytest.fixture(scope="module")
def A3():
    return from_root_system(build_root_system("A", 3))


@pytest.fixture(scope="module")
def E8():
    return from_root_system(build_root_system("E", 8))


def test_a2_shape(A2):
    assert len(A2) == 3
    for i, a in enumerate(A2.axes):
        for b in A2.axes[:i]:
            assert isinstance(A2.relation(a, b), ThreeC)


def test_e8_three_c_counts(E8):
    assert len(E8) == 120
    for a in E8.axes:
        partners = sum(1 for b in E8.axes if isinstance(E8.relation(a, b), ThreeC))
        assert partners == 56


def test_orthogonal_pair_is_two_b(A3):
    a = next(x for x in A3.axes if x[:2] == (1, -1))
    b = next(x for x in A3.axes if x[2:] == (1, -1))
    assert dot(a, b) == 0
    assert A3.relation(a, b) == TWO_B


def test_product_rules(A3):
    e, f = A3.axes[0], A3.axes[1]
    assert A3.product(A3.axis(e), A3.axis(e)) == {e: 2}
    r = A3.relation(e, f)
    if r == TWO_B:
        assert A3.product(A3.axis(e), A3.axis(f)) == {}
    else:
        g = r.third
        expected = {e: Q(1, 32), f: Q(1, 32), g: Q(-1, 32)}
        assert A3.product(A3.axis(e), A3.axis(f)) == expected
    # commutativity over random elements
    rng = random.Random(11)
    for _ in range(5):
        u = {a: Q(rng.randrange(-4, 5)) for a in A3.axes}
        v = {a: Q(rng.randrange(-4, 5)) for a in A3.axes}
        assert A3.product(u, v) == A3.product(v, u)


def test_pairing_rules(A3):
    for a in A3.axes:
        for b in A3.axes:
            value = A3.pairing(A3.axis(a), A3.axis(b))
            r = A3.relation(a, b)
            if r == SAME:
                assert value == Q(1, 4)
            elif r == TWO_B:
                assert value == 0
            else:
                assert value == Q(1, 256)


@pytest.mark.parametrize("kind,rank,charge", [
    ("A", 2, Q(16, 11)),
    ("A", 4, Q(32, 7)),
    ("D", 4, Q(16, 3)),
    ("E", 6, Q(96, 7)),
    ("E", 7, Q(21)),
    ("E", 8, Q(32)),
    ("A", 3, Q(48, 17)),
    ("A", 5, Q(20, 3)),
    ("A", 6, Q(336, 37)),
    ("A", 7, Q(224, 19)),
    ("A", 8, Q(192, 13)),
    ("D", 5, Q(160, 19)),
    ("D", 6, Q(12)),
    ("D", 7, Q(16)),
    ("D", 8, Q(224, 11)),
])
def test_virasoro_central_charges(kind, rank, charge):
    """omega = 32/(h+30) sum_{alpha>0} e_alpha: each axis has 2(h-2) 3C
    partners, and each triple through e_b adds 2/32 e_b to omega . e_b.
    The action omega . e = 2e is checked again with the ``Fraction``
    reference product."""
    R = build_root_system(kind, rank)
    A = from_root_system(R)
    report = virasoro(A)
    h = R.coxeter_number()
    assert report.central_charge == charge == Q(8 * h * rank, h + 30)
    assert report.norm == Q(4 * h * rank, h + 30)
    coeff = Q(32, h + 30)
    assert report.vector == {a: coeff for a in A.axes}
    for a in A.axes:
        assert three_c_partners(A, a) == 2 * (h - 2)
        assert axis_product(A, report.vector, A.axis(a)) == {a: 2}


def test_sub_virasoro_triple(A2):
    """For each axis e of A2's triple, a = (32/33)(e + f + g) - e has
    a . a = 2a and <a, a> = 21/44 (central charge 21/22), and it
    commutes with e: e . a = 0 and <e, a> = 0."""
    for e in A2.axes:
        a = A2.element({x: Q(32, 33) - (x == e) for x in A2.axes})
        assert a[e] == Q(-1, 33)
        assert A2.product(a, a) == {x: 2 * c for x, c in a.items()}
        assert A2.pairing(a, a) == Q(21, 44)
        assert A2.product(A2.axis(e), a) == {}
        assert A2.pairing(A2.axis(e), a) == 0


def test_miyamoto_swaps_triple(A2):
    e, f, g = A2.axes
    images = miyamoto_permutation(A2, e)
    assert images[A2.axes.index(e)] == A2.axes.index(e)
    assert images[A2.axes.index(f)] == A2.axes.index(g)
    assert images[A2.axes.index(g)] == A2.axes.index(f)


def test_miyamoto_fixes_orthogonal(A3):
    a = next(x for x in A3.axes if x[:2] == (1, -1))
    b = next(x for x in A3.axes if x[2:] == (1, -1))
    images = miyamoto_permutation(A3, a)
    assert images[A3.axes.index(b)] == A3.axes.index(b)


def test_miyamoto_is_involutive_automorphism(A3):
    n = len(A3)
    for e in A3.axes:
        images = miyamoto_permutation(A3, e)
        assert sorted(images) == list(range(n))
        assert all(images[images[i]] == i for i in range(n))

        def apply(u):
            return {A3.axes[images[A3.axes.index(a)]]: c for a, c in u.items()}

        for a in A3.axes:
            for b in A3.axes:
                ua, ub = A3.axis(a), A3.axis(b)
                assert apply(A3.product(ua, ub)) == A3.product(apply(ua), apply(ub))
                assert A3.pairing(ua, ub) == A3.pairing(apply(ua), apply(ub))


def test_form_associates_exhaustively(A2, A3):
    for A in (A2, A3):
        basis = [A.axis(a) for a in A.axes]
        for u in basis:
            for v in basis:
                for w in basis:
                    assert A.pairing(A.product(u, v), w) == \
                        A.pairing(u, A.product(v, w))


def test_form_associates_sampled_e8(E8):
    rng = random.Random(23)
    basis = E8.axes
    for _ in range(60):
        u = E8.axis(rng.choice(basis))
        v = E8.axis(rng.choice(basis))
        w = E8.axis(rng.choice(basis))
        assert E8.pairing(E8.product(u, v), w) == E8.pairing(u, E8.product(v, w))


def test_gram_positive_definite():
    """The root-coordinate certificate agrees with Bareiss LDL^T."""
    for kind, ranks in [("A", range(1, 9)), ("D", range(4, 9)),
                        ("E", range(6, 9))]:
        for rank in ranks:
            R = build_root_system(kind, rank)
            A = from_root_system(R)
            assert gram_positive_definite(R, A)
            assert ldl_is_positive_definite(axis_gram(A))


def recoded(base: AxisAlgebra, i: int, j: int, k: int) -> AxisAlgebra:
    """A copy of ``base`` whose pair of axis indices (i, j) is 3C with
    third axis index k, left unvalidated (its triples do not close);
    ``base`` and its shared table are untouched."""
    code = [list(row) for row in base._code]
    code[i][j] = code[j][i] = k
    A = AxisAlgebra.__new__(AxisAlgebra)
    A.axes, A._index, A._code = base.axes, base._index, code
    return A


def first_two_b_pair(A: AxisAlgebra) -> tuple[int, int]:
    return next((i, j) for i, a in enumerate(A.axes)
                for j, b in enumerate(A.axes) if A.relation(a, b) == TWO_B)


def test_gram_certificate_rejects_a_recoded_pair():
    """One 2B pair of E6 marked 3C changes one Gram entry from 0 to
    1/256: the Gram stays positive definite, but the table no longer
    matches the root coordinates."""
    R = build_root_system("E", 6)
    base = from_root_system(R)
    A = recoded(base, *first_two_b_pair(base), 0)  # third axis A.axes[0]
    assert ldl_is_positive_definite(axis_gram(A))
    assert not gram_positive_definite(R, A)
    assert gram_positive_definite(R, base)  # the shared table is untouched


@pytest.mark.parametrize("kind,rank", [("A", 2), ("D", 4), ("E", 6)])
def test_axis_algebra_is_shared_and_its_table_immutable(kind, rank):
    R = build_root_system(kind, rank)
    assert build_root_system(kind, rank) is R
    A = from_root_system(R)
    assert from_root_system(build_root_system(kind, rank)) is A
    with pytest.raises(TypeError):
        A._code[0][1] = 0
    with pytest.raises(TypeError):
        A._code[0] = A._code[1]


def test_gram_certificate_needs_the_positive_roots():
    R = build_root_system("A", 3)
    A = from_root_system(R)
    smaller = from_root_system(build_root_system("A", 2))
    assert not gram_positive_definite(R, smaller)
    reordered = AxisAlgebra(R.positive_roots[::-1], A.relation)
    assert ldl_is_positive_definite(axis_gram(reordered))
    assert not gram_positive_definite(R, reordered)


def test_duplicate_axis_degenerates():
    def rel(a, b):
        return SAME  # two labels for one axis

    A = AxisAlgebra(("p", "q"), rel)
    assert not ldl_is_positive_definite(axis_gram(A))
    with pytest.raises(NoConformalVector, match="are one axis"):
        virasoro(A)


def test_relation_validation():
    def asymmetric(a, b):
        if a == b:
            return SAME
        return TWO_B if a < b else ThreeC("p")

    with pytest.raises(ValueError):
        AxisAlgebra(("p", "q"), asymmetric)

    def bad_diagonal(a, b):
        return TWO_B

    with pytest.raises(ValueError):
        AxisAlgebra(("p", "q"), bad_diagonal)

    def dangling_third(a, b):
        return SAME if a == b else ThreeC("missing")

    with pytest.raises(ValueError):
        AxisAlgebra(("p", "q"), dangling_third)

    with pytest.raises(ValueError):
        AxisAlgebra(("p", "p"), lambda a, b: SAME)


def test_unclosed_triple_rejected():
    def open_triple(a, b):
        if a == b:
            return SAME
        if {a, b} == {"p", "q"}:
            return ThreeC("r")
        return TWO_B  # (p, r) and (q, r) should be 3C

    with pytest.raises(ValueError):
        AxisAlgebra(("p", "q", "r"), open_triple)


@pytest.mark.parametrize("kind,rank", [("A", 3), ("D", 4), ("E", 6)])
def test_root_system_table_matches_relation_callable(kind, rank):
    """The doubled-int table of from_root_system agrees with the algebra
    built through the public constructor from the Fraction rule."""
    R = build_root_system(kind, rank)

    def relation(a, b):
        if a == b:
            return SAME
        s = dot(a, b)
        if s == 0:
            return TWO_B
        return ThreeC(sign_normalized(
            tuple(x - s * y for x, y in zip(a, b))))

    reference = AxisAlgebra(R.positive_roots, relation)
    A = from_root_system(R)
    assert A.axes == reference.axes
    for a in A.axes:
        assert miyamoto_permutation(A, a) == miyamoto_permutation(reference, a)
        for b in A.axes:
            assert A.relation(a, b) == reference.relation(a, b)
    assert axis_gram(A) == axis_gram(reference)


def test_element_helpers(A2):
    e = A2.axes[0]
    assert A2.element({e: Q(1, 2), A2.axes[1]: 0}) == {e: Q(1, 2)}
    with pytest.raises(KeyError):
        A2.element({"nope": 1})


def _triples_relation(*triples):
    """SAME on the diagonal, THREE_C inside each given triple, TWO_B
    elsewhere."""
    def relation(a, b):
        if a == b:
            return SAME
        for t in triples:
            if a in t and b in t:
                return ThreeC(next(x for x in t if x not in (a, b)))
        return TWO_B

    return relation


SMALL_ALGEBRAS = {
    "point": lambda: AxisAlgebra(("p",), _triples_relation()),
    "orthogonal pair": lambda: AxisAlgebra("pq", _triples_relation()),
    # two 3C triples through p: a closed table whose 3C graph is
    # connected with degrees 4, 2, 2, 2, 2
    "bowtie": lambda: AxisAlgebra("pqrst", _triples_relation("pqr", "pst")),
    "duplicate": lambda: AxisAlgebra("pq", lambda a, b: SAME),
}


@cache
def algebra(name: str):
    """A named test algebra: an entry of SMALL_ALGEBRAS, "T<n>" for the
    twisted algebra on n blocks, or a root system such as "D4"."""
    if name in SMALL_ALGEBRAS:
        return SMALL_ALGEBRAS[name]()
    if name[0] == "T":
        return twisted_axis_algebra(int(name[1:]))
    return from_root_system(build_root_system(name[0], int(name[1:])))


# mixed and pairwise coprime denominators; 32 and 256 are the rule's own
DENOMINATORS = st.sampled_from([1, 2, 3, 4, 5, 7, 9, 32, 33, 256, 1001])
FRACTIONS = st.builds(Q, st.integers(-40, 40), DENOMINATORS)
COEFFICIENTS = st.one_of(
    FRACTIONS,
    st.integers(-6, 6),
    FRACTIONS.map(str),           # "-3/7", and "0", kept as a zero term
    st.integers(-6, 6).map(str),
)


def elements(A):
    """Random rational elements of A as plain dicts, empty ones included;
    root labels are sometimes given as plain ``Fraction`` tuples."""
    label = st.sampled_from(A.axes)
    if isinstance(A.axes[0], tuple):
        label = st.one_of(label, label.map(tuple))
    return st.lists(st.tuples(label, COEFFICIENTS), max_size=8,
                    unique_by=lambda t: t[0]).map(dict)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["A3", "D4", "E6", "T4"]), st.data())
def test_product_and_pairing_match_fraction_reference(name, data):
    A = algebra(name)
    u = data.draw(elements(A), label="u")
    v = data.draw(elements(A), label="v")
    got = A.product(u, v)
    assert list(got.items()) == list(axis_product(A, u, v).items())
    assert all(type(c) is Q for c in got.values())
    pairing = A.pairing(u, v)
    assert type(pairing) is Q
    assert pairing == axis_pairing(A, u, v)


def test_zero_terms_keep_the_reference_key_order():
    """A coefficient that is truthy but zero ("0") still places its axis
    in the output order, as the reference loop does."""
    A = algebra("A3")
    e, f = A.axes[:2]
    u = {e: "0", f: Q(1, 3)}
    v = {f: 2, e: "1/5"}
    assert list(A.product(u, v).items()) == \
        list(axis_product(A, u, v).items())
    assert A.product({}, {"not an axis": 1}) == {}
    assert A.pairing({e: 1}, {}) == 0


def test_kernel_validation_is_unchanged():
    A = algebra("A3")
    e = A.axes[0]
    with pytest.raises(KeyError):
        A.product({"not an axis": 1}, {e: 1})
    with pytest.raises(KeyError):
        A.pairing({e: 1}, {"not an axis": 1})
    with pytest.raises(ValueError):
        A.product({e: "one"}, {e: 1})
    with pytest.raises(TypeError):
        A.pairing({e: 1}, {e: [1]})


def disjoint_union(names, order=None) -> AxisAlgebra:
    """The algebras ``algebra(name)`` side by side, axes relabelled
    (part, label) and listed in ``order`` (a permutation of the axis
    positions); axes of different parts are TWO_B."""
    parts = [algebra(name) for name in names]
    axes = [(k, a) for k, P in enumerate(parts) for a in P.axes]
    if order is not None:
        axes = [axes[i] for i in order]

    def relation(x, y):
        if x[0] != y[0]:
            return TWO_B
        r = parts[x[0]].relation(x[1], y[1])
        return ThreeC((x[0], r.third)) if isinstance(r, ThreeC) else r

    return AxisAlgebra(axes, relation)


def assert_virasoro_matches_reference(A):
    """``virasoro`` and the general ``Fraction`` solver agree: the same
    exception type, or the same vector with its keys in axis order."""
    try:
        expected = conformal_vector(A)
    except ValueError as err:
        with pytest.raises(ValueError) as info:
            virasoro(A)
        assert type(info.value) is type(err) is NoConformalVector
        return
    report = virasoro(A)
    assert list(report.vector.items()) == list(expected.items())
    assert report.norm == axis_pairing(A, expected, expected)
    assert report.central_charge == 2 * report.norm


@pytest.mark.parametrize("name", [
    *(f"A{n}" for n in range(1, 13)),
    *(f"D{n}" for n in range(4, 15)),
    "E6", "E7", "E8",
    *(f"T{n}" for n in range(2, 10)),
    "A2+A3", *SMALL_ALGEBRAS,
])
def test_virasoro_matches_reference_solver(name):
    parts = name.split("+")
    A = algebra(name) if len(parts) == 1 else disjoint_union(parts)
    assert_virasoro_matches_reference(A)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["A1", "A2", "A3", "A4", "D4", "T2", "T3",
                                 "T4", *SMALL_ALGEBRAS]),
                min_size=1, max_size=3),
       st.data())
def test_virasoro_matches_reference_on_disjoint_unions(names, data):
    """Shuffled disjoint unions, with and without an inconsistent part."""
    size = sum(len(algebra(name)) for name in names)
    order = data.draw(st.permutations(range(size)), label="order")
    assert_virasoro_matches_reference(disjoint_union(names, order))


def test_bowtie_has_no_conformal_vector():
    """deg p = 4 but deg q = 2 although p and q are 3C partners, so
    c_p = c_q cannot hold with (64 + deg) c = 64 on both."""
    A = algebra("bowtie")
    with pytest.raises(NoConformalVector, match="have 2 and 4 3C partners"):
        virasoro(A)
    with pytest.raises(NoConformalVector):
        conformal_vector(A)


# -- the int checks of criterion 10 -----------------------------------------

def recoded_d4() -> AxisAlgebra:
    """D4 with its first 2B pair recoded as 3C, with the first axis
    outside the pair as third axis."""
    base = algebra("D4")
    i, j = first_two_b_pair(base)
    return recoded(base, i, j, min({0, 1, 2} - {i, j}))


def tau_with_fixed_pair_swapped(A, e) -> list[list[int]]:
    """tau_e with the images of two axes it fixes swapped, for every
    such pair."""
    tau = miyamoto_permutation(A, e)
    fixed = [x for x, image in enumerate(tau) if image == x]
    out = []
    for x, y in combinations(fixed, 2):
        p = list(tau)
        p[x], p[y] = y, x
        out.append(p)
    return out


def dict_associative(A, i, j, k) -> bool:
    u, v, w = (A.axis(A.axes[x]) for x in (i, j, k))
    return A.pairing(A.product(u, v), w) == A.pairing(u, A.product(v, w))


def dict_automorphic(A, p) -> bool:
    index = {a: i for i, a in enumerate(A.axes)}

    def apply(u):
        return {A.axes[p[index[a]]]: c for a, c in u.items()}

    units = [A.axis(a) for a in A.axes]
    return all(apply(A.product(u, v)) == A.product(apply(u), apply(v))
               for u in units for v in units)


@pytest.mark.parametrize("name", ["A2", "A3", "D4", "T3", "T4",
                                  "recoded D4"])
def test_int_checks_match_public_product_and_pairing(name):
    """Per triple and per permutation, the int verdicts of criterion 10
    are the verdicts of the public ``Fraction`` product and pairing, on
    valid algebras and on a broken table alike."""
    A = recoded_d4() if name == "recoded D4" else algebra(name)
    n = len(A)
    verdicts = set()
    for t in product(range(n), repeat=3):
        verdict = dict_associative(A, *t)
        assert associative_on_units(A, [t]) == verdict
        verdicts.add(verdict)
    assert verdicts == ({True, False} if name == "recoded D4" else {True})
    perms = [p for e in A.axes for p in ([miyamoto_permutation(A, e)]
                                         + tau_with_fixed_pair_swapped(A, e))]
    for k in range(n):  # the identity and the transpositions (0 k)
        p = list(range(n))
        p[0], p[k] = k, 0
        perms.append(p)
    verdicts = set()
    for p in perms:
        verdict = dict_automorphic(A, p)
        assert automorphic_on_units(A, [p]) == verdict
        verdicts.add(verdict)
    # every permutation of A2's one triple is an automorphism
    assert verdicts == ({True} if name == "A2" else {True, False})


def test_int_checks_reject_a_recoded_pair():
    """A 2B pair of D4 recoded as 3C, with a third axis outside the pair,
    breaks both associativity and the Miyamoto automorphisms."""
    A = algebra("D4")
    M = recoded_d4()
    for B, ok in ((A, True), (M, False)):
        n = len(B)
        assert associative_on_units(B, product(range(n), repeat=3)) is ok
        assert automorphic_on_units(
            B, [miyamoto_permutation(B, e) for e in B.axes]) is ok


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_swapping_two_fixed_axes_breaks_the_automorphism(name):
    A = algebra(name)
    for e in A.axes:
        assert automorphic_on_units(A, [miyamoto_permutation(A, e)])
        assert not any(automorphic_on_units(A, [p])
                       for p in tau_with_fixed_pair_swapped(A, e))
