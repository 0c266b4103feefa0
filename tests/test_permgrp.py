"""Permutation engine: BSGS orders, membership, reflection and axis groups."""

import time
from itertools import permutations
from math import lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from closure_reference import level_closure, with_redundant
from fraction_reference import reflect
from weyl_ising.axes import from_root_system
from weyl_ising.cli import _degrees
from weyl_ising.permgrp import (
    ClosureCapExceeded,
    PermGroup,
    closure,
    contains_minus_one,
    enumerate_elements,
    miyamoto_group,
    transposition_profile,
    _compose,
    _cycle_lengths,
    _inverse,
    _order,
    _pack,
    weyl_group,
)
from weyl_ising.rootsys import build_root_system


def test_packed_kernel_basics():
    """``_compose`` (right factor first), ``_inverse``, ``_order`` and
    ``_cycle_lengths`` on one small pair, packed as bytes and padded past
    256 points as tuples."""
    for p, q in zip(_packed_both((1, 2, 0, 3)), _packed_both((0, 1, 3, 2))):
        n = len(p)
        ident = _pack(range(n), n)
        assert tuple(_compose(p, q)[:4]) == (1, 2, 3, 0)  # q acts first
        assert _compose(p, _inverse(p)) == ident == _compose(_inverse(p), p)
        assert _order(p) == 3 and _order(q) == 2
        assert sorted(_cycle_lengths(p)) == [1] * (n - 3) + [3]


def test_schreier_sims_tiny():
    swap = (1, 0)
    G = PermGroup([swap])
    assert G.order == 2
    assert swap in G and (0, 1) in G

    s4 = PermGroup([(1, 0, 2, 3), (1, 2, 3, 0)])
    assert s4.order == 24
    assert all(g in s4 for g in [(3, 2, 1, 0), (0, 2, 1, 3)])


def test_schreier_sims_deterministic():
    gens = [(1, 0, 2, 3, 4), (0, 2, 1, 3, 4), (0, 1, 2, 4, 3)]
    a = PermGroup(gens)
    b = PermGroup(gens)
    assert a.base == b.base
    assert a.strong_generators == b.strong_generators
    assert a.order == b.order == 12  # S3 x S2


def test_empty_and_invalid_generators():
    G = PermGroup([], degree=5)
    assert G.order == 1
    assert tuple(range(5)) in G
    with pytest.raises(ValueError):
        PermGroup([])
    with pytest.raises(ValueError):
        enumerate_elements([])
    with pytest.raises(ValueError):
        PermGroup([(1, 0), (0, 1, 2)])
    with pytest.raises(ValueError):
        enumerate_elements([(1, 0), (0, 1, 2)])


def test_bsgs_matches_bruteforce_oracle():
    cases = []
    for kind, rank in [("A", 2), ("A", 3), ("D", 4)]:
        R = build_root_system(kind, rank)
        index = {r: i for i, r in enumerate(R.roots)}
        gens = [tuple(index[reflect(a, r)] for r in R.roots)
                for a in R.positive_roots]
        cases.append(gens)
    from weyl_ising.axes import from_root_system
    from weyl_ising.permgrp import miyamoto_group
    A = from_root_system(build_root_system("A", 3))
    from weyl_ising.axes import miyamoto_permutation
    cases.append([miyamoto_permutation(A, e) for e in A.axes])
    for gens in cases:
        assert PermGroup(gens).order == len(enumerate_elements(gens))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.permutations(range(n)), min_size=1, max_size=3)))
def test_schreier_sims_order_matches_closure(gens):
    gens = [tuple(g) for g in gens]
    G = PermGroup(gens)
    elements = enumerate_elements(gens)
    assert G.order == len(elements)
    assert all(g in G for g in elements)


@pytest.mark.parametrize("kind,rank", [("A", 3), ("D", 4), ("E", 6)])
def test_weyl_generators_match_fraction_reflections(kind, rank):
    """W is generated by the reflections in the simple roots, in the
    order of ``simple_roots``."""
    R = build_root_system(kind, rank)
    index = {r: i for i, r in enumerate(R.roots)}
    expected = [tuple(index[reflect(a, r)] for r in R.roots)
                for a in R.simple_roots()]
    assert list(weyl_group(R).generators) == expected


@pytest.mark.parametrize("kind,rank", [
    *(("A", n) for n in range(1, 9)), *(("D", n) for n in range(4, 9)),
    ("E", 6), ("E", 7),
])
def test_simple_reflections_generate_all_reflections(kind, rank):
    """The group of the rank simple reflections has the order of the group
    of all positive-root reflections, and that order is the product of
    the degrees."""
    R = build_root_system(kind, rank)
    everything = PermGroup([R.reflection_images(a2) for a2 in R.positive2],
                           len(R.roots))
    assert weyl_group(R).order == everything.order == prod(_degrees(kind, rank))


@pytest.mark.parametrize("kind,rank,order", [
    (kind, rank, prod(_degrees(kind, rank))) for kind, rank in [
        *(("A", n) for n in range(1, 11)), *(("D", n) for n in range(4, 13)),
        ("E", 6), ("E", 7), ("E", 8)]
])
def test_weyl_group_orders(kind, rank, order):
    """|W| is the product of the degrees, on every type up to A10 and
    D12 (the last on 264 roots, the tuple path)."""
    assert weyl_group(build_root_system(kind, rank)).order == order


@pytest.mark.parametrize("kind,rank,expected", [
    ("A", 2, False),
    ("A", 3, False),
    ("D", 4, True),
    ("D", 5, False),
    ("E", 6, False),
    ("E", 7, True),
])
def test_minus_one_membership(kind, rank, expected):
    assert contains_minus_one(build_root_system(kind, rank)) is expected


def test_reflections_are_members():
    R = build_root_system("A", 3)
    W = weyl_group(R)
    index = {r: i for i, r in enumerate(R.roots)}
    for a in R.positive_roots:
        assert tuple(index[reflect(a, r)] for r in R.roots) in W
    # an arbitrary transposition of two roots is not an isometry image
    bogus = list(range(len(R.roots)))
    bogus[0], bogus[1] = bogus[1], bogus[0]
    assert tuple(bogus) not in W


@pytest.mark.parametrize("kind,rank,order", [
    ("A", 2, 6),
    ("A", 3, 24),
    ("A", 4, 120),
    ("D", 4, 96),
    ("D", 5, 1920),
    ("E", 6, 51840),
    ("E", 7, 1451520),
    ("E", 8, 348364800),
])
def test_miyamoto_group_orders(kind, rank, order):
    A = from_root_system(build_root_system(kind, rank))
    assert miyamoto_group(A).order == order


@pytest.mark.parametrize("kind,rank", [
    ("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5), ("E", 6), ("E", 7),
])
def test_weyl_quotient_order_identity(kind, rank):
    R = build_root_system(kind, rank)
    G = miyamoto_group(from_root_system(R))
    W = weyl_group(R)
    halving = 2 if contains_minus_one(R) else 1
    assert G.order * halving == W.order


def test_e8_groups_within_budget():
    start = time.monotonic()
    R = build_root_system("E", 8)
    W = weyl_group(R)
    assert W.order == 696729600
    assert contains_minus_one(R)
    G = miyamoto_group(from_root_system(R))
    assert G.order == 348364800
    assert G.order * 2 == W.order
    assert time.monotonic() - start < 30


def test_transposition_profile_small():
    A2 = from_root_system(build_root_system("A", 2))
    assert dict(transposition_profile(A2)) == {3: 3}
    A3 = from_root_system(build_root_system("A", 3))
    profile = transposition_profile(A3)
    assert set(profile) <= {1, 2, 3}
    # h = 4, rank 3: (h * rank / 2) * (h - 2) pairs of order 3
    assert profile[3] == 12


def test_transposition_profile_e8():
    A = from_root_system(build_root_system("E", 8))
    profile = transposition_profile(A)
    assert set(profile) <= {1, 2, 3}
    assert profile[3] == 3360  # (30 * 8 / 2) * 28


def test_symmetric_group_model_for_a3():
    """The axis group of the 4-point chain acts on index pairs: each axis
    is {i, j}; the induced index action must be a bijection onto S4."""
    R = build_root_system("A", 3)
    A = from_root_system(R)
    pair_of = []
    for axis in A.axes:
        support = tuple(i for i, c in enumerate(axis) if c)
        pair_of.append(frozenset(support))
    from weyl_ising.axes import miyamoto_permutation
    index_perms = set()
    for e in A.axes:
        images = miyamoto_permutation(A, e)
        # intersect constraints pairwise to pin the unique index map
        resolved = {}
        for a in range(4):
            candidates = set(range(4))
            for i, j in enumerate(images):
                if a in pair_of[i]:
                    candidates &= pair_of[j] - {resolved.get(o)
                                                for o in pair_of[i] if o != a}
            assert len(candidates) >= 1
            resolved[a] = min(candidates)
        perm = tuple(resolved[a] for a in range(4))
        assert sorted(perm) == [0, 1, 2, 3]
        # the index permutation must reproduce the axis permutation
        for i, j in enumerate(images):
            assert frozenset(perm[x] for x in pair_of[i]) == pair_of[j]
        index_perms.add(perm)
    G = PermGroup(list(index_perms))
    assert G.order == 24
    assert miyamoto_group(A).order == 24


def test_enumerate_elements_cap():
    """The cap is exact: a closure of ``cap`` elements is returned whole,
    one more element raises."""
    gens = [(1, 2, 3, 4, 0)]
    assert len(enumerate_elements(gens)) == 5
    assert len(enumerate_elements(gens, cap=5)) == 5
    with pytest.raises(ClosureCapExceeded):
        enumerate_elements(gens, cap=4)


def _cycle(n: int) -> tuple:
    return tuple(range(1, n)) + (0,)


@pytest.mark.parametrize("degree", [3, 300])
def test_membership_rejects_non_bijections(degree):
    G = PermGroup([_cycle(degree)])
    ident = tuple(range(degree))
    assert ident in G and _cycle(degree) in G
    assert ident[:-1] not in G                      # too short
    assert ident + (degree,) not in G               # too long
    assert (-1,) + ident[1:] not in G               # image below range
    assert (degree,) + ident[1:] not in G           # image above range
    assert (300,) + ident[1:] not in G              # past a byte
    assert (0, 0) + ident[2:] not in G              # repeated image
    assert list(ident) in G                         # any int sequence


@pytest.mark.parametrize("degree", [3, 300])
def test_non_permutations_are_refused_at_every_entry(degree):
    """A repeated image, or an image out of range (below 0, at the
    degree, past a byte), is a ``ValueError`` from ``PermGroup`` and
    from ``enumerate_elements``, alone or beside a permutation, and is
    no member of a group."""
    ident = tuple(range(degree))
    G = PermGroup([_cycle(degree)])
    for bad in [(0, 0) + ident[1:-1], (-1,) + ident[1:], (degree,) + ident[1:],
                (degree + 2,) + ident[:-1], (300,) + ident[1:]]:
        for gens in ([bad], [_cycle(degree), bad]):
            with pytest.raises(ValueError, match="bijection"):
                PermGroup(gens)
            with pytest.raises(ValueError, match="bijection"):
                enumerate_elements(gens)
        assert bad not in G


@pytest.mark.parametrize("n", [256, 257])
def test_long_cycle_orders(n):
    G = PermGroup([_cycle(n)])
    assert G.order == n
    assert G.base == (0,)
    assert _cycle(n) in G
    swap = (1, 0) + tuple(range(2, n))
    assert swap not in G


def _pad(g: tuple, extra: int) -> tuple:
    return tuple(g) + tuple(range(len(g), len(g) + extra))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.permutations(range(n)), min_size=1, max_size=3)))
@example([(1, 0, 2), (1, 2, 0)])                                 # S_3
def test_bytes_and_tuple_paths_agree(gens):
    """Generators on n <= 6 points run packed as bytes; padded with 260
    fixed points they run as tuples.  The BSGS must be the same."""
    gens = [tuple(g) for g in gens]
    n = len(gens[0])
    small = PermGroup(gens)
    big = PermGroup([_pad(g, 260) for g in gens])
    assert big.degree > 256
    assert small.order == big.order
    assert small.base == big.base
    assert small.strong_generators == tuple(
        g[:n] for g in big.strong_generators)
    assert all(g[n:] == tuple(range(n, n + 260))
               for g in big.strong_generators)
    assert all(type(g) is tuple and all(type(v) is int for v in g)
               for g in small.strong_generators + big.strong_generators)
    elements = enumerate_elements(gens)
    assert all(type(x) is tuple and all(type(v) is int for v in x)
               for x in elements)
    padded = enumerate_elements([_pad(g, 260) for g in gens])
    assert len(padded) == len(elements)
    assert elements == {x[:n] for x in padded}



def test_degree_0_and_1_products_stay_tuples():
    """At degrees 0 and 1 an image-tuple product through ``_compose`` is
    still a tuple, and the trivial groups there hold their identity."""
    assert _compose((), ()) == () and _compose((0,), (0,)) == (0,)
    for ident in ((), (0,)):
        G = PermGroup([ident])
        assert G.order == 1 and G.generators == (ident,)
        assert ident in G and G.strong_generators == ()


@settings(max_examples=30, deadline=None)
@given(st.integers(257, 400).flatmap(lambda n: st.tuples(
    st.permutations(range(n)), st.permutations(range(n)))))
def test_tuple_path_compose_matches_map_form(pair):
    """Past 256 points ``_compose`` equals the plain map of p over q."""
    p, q = (_pack(images, len(images)) for images in pair)
    assert type(p) is tuple and type(q) is tuple
    r = _compose(p, q)
    assert type(r) is tuple and r == tuple(map(p.__getitem__, q))


def _packed_both(images: tuple) -> list:
    """The permutation packed as bytes, and padded past 256 points as a
    tuple."""
    n = len(images)
    return [_pack(images, n), _pack(_pad(images, 260), n + 260)]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.permutations(range(n)), st.permutations(range(n)))))
def test_order_matches_cycle_lengths(pair):
    """The packed-power order equals the lcm of the cycle lengths, on
    random permutations and their products, in both packed forms."""
    for images in pair:
        for p in _packed_both(tuple(images)):
            assert _order(p) == lcm(*_cycle_lengths(p))
    for p, q in zip(*(_packed_both(tuple(g)) for g in pair)):
        r = _compose(p, q)
        assert _order(r) == lcm(*_cycle_lengths(r))


@pytest.mark.parametrize("p, q, order", [
    ((1, 0, 2, 3), (1, 0, 2, 3), 1),
    ((1, 0, 2, 3), (0, 1, 3, 2), 2),
    ((1, 0, 2), (0, 2, 1), 3),
    ((1, 0, 3, 2), (0, 2, 1, 3), 4),                   # D4 on a square
    ((0, 5, 4, 3, 2, 1), (1, 0, 5, 4, 3, 2), 6),       # D6 on a hexagon
])
def test_order_of_involution_products(p, q, order):
    """Products of two involutions of every order up to 6, the ones past
    3 from the cycle-length fallback."""
    for pp, qq in zip(_packed_both(p), _packed_both(q)):
        r = _compose(pp, qq)
        assert _order(r) == order == lcm(*_cycle_lengths(r))


_small_generator_lists = st.integers(1, 5).flatmap(lambda n: st.lists(
    st.permutations(range(n)), min_size=1, max_size=3))


@pytest.mark.parametrize("tuples", [False, True])
@settings(max_examples=60, deadline=None)
@given(gens=_small_generator_lists, data=st.data())
def test_closure_matches_level_reference(tuples, gens, data):
    """The closure that skips reached generators returns the set of the
    level-by-level reference, on generator lists with duplicates, the
    identity and products of earlier generators, packed as bytes and,
    padded to 257..300 points, as tuples; its cap is exact."""
    extra = data.draw(st.integers(257, 300)) - len(gens[0]) if tuples else 0
    gens = [_pad(tuple(g), extra) for g in gens]
    n = len(gens[0])
    identity = _pack(range(n), n)
    packed = with_redundant(data.draw, [_pack(g, n) for g in gens],
                            identity, _compose)
    assert all(type(g) is (bytes if n <= 256 else tuple) for g in packed)
    expected = level_closure(identity, packed, _compose)
    assert closure(identity, packed, _compose) == expected
    assert closure(identity, packed, _compose, cap=len(expected)) == expected
    with pytest.raises(ClosureCapExceeded):
        closure(identity, packed, _compose, cap=len(expected) - 1)


@pytest.mark.parametrize("extra", [0, 260])
@settings(max_examples=60, deadline=None)
@given(gens=_small_generator_lists, data=st.data())
def test_redundant_generators_keep_order_and_membership(extra, gens, data):
    """Adding the identity, duplicates and products of the generators
    changes neither the order nor any membership answer, and both agree
    with the reference closure, on the bytes path and, padded with 260
    fixed points, on the tuple path."""
    n = len(gens[0])
    gens = [tuple(g) for g in gens]
    identity = tuple(range(n))
    more = with_redundant(data.draw, gens, identity, _compose)
    G = PermGroup([_pad(g, extra) for g in gens])
    H = PermGroup([_pad(g, extra) for g in more])
    elements = level_closure(identity, gens, _compose)
    assert G.order == H.order == len(elements)
    for p in permutations(range(n)):
        padded = _pad(p, extra)
        assert (padded in G) == (padded in H) == (p in elements)
