"""Root system construction, Coxeter data, reflections."""

import copy
import pickle
from dataclasses import replace
from fractions import Fraction as Q
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_reference import reflect
from weyl_ising.rootsys import (
    NotARoot,
    UnsupportedRank,
    build_root_system,
    sign_normalized,
)

ALL_SCOPE = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5),
             ("E", 6), ("E", 7), ("E", 8)]


def _brute_roots_D4():
    # independent enumeration of {+-e_i +- e_j} in R^4
    out = set()
    for i in range(4):
        for j in range(i + 1, 4):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [0] * 4
                    v[i], v[j] = si, sj
                    out.add(tuple(v))
    return out


def test_root_counts():
    assert len(build_root_system("A", 2).roots) == 6
    assert len(build_root_system("A", 2).positive_roots) == 3
    assert len(build_root_system("E", 8).roots) == 240
    D4 = build_root_system("D", 4)
    assert len(D4.roots) == 24
    assert {tuple(int(c) for c in r) for r in D4.roots} == _brute_roots_D4()


def test_subsystem_root_counts():
    assert len(build_root_system("E", 7).roots) == 126
    assert len(build_root_system("E", 6).roots) == 72


def test_coxeter_numbers():
    assert build_root_system("A", 4).coxeter_number() == 5
    assert build_root_system("E", 6).coxeter_number() == 12
    assert build_root_system("D", 5).coxeter_number() == 8


def test_unsupported_rank():
    with pytest.raises(UnsupportedRank):
        build_root_system("B", 2)
    with pytest.raises(UnsupportedRank):
        build_root_system("D", 3)
    with pytest.raises(UnsupportedRank):
        build_root_system("E", 9)
    with pytest.raises(UnsupportedRank):
        build_root_system("A", 0)


def test_reflect():
    """Hand-computed reflections as root index permutations."""
    A2 = build_root_system("A", 2)
    index = {r: k for k, r in enumerate(A2.roots)}
    a = (Q(1), Q(-1), Q(0))   # e1 - e2
    b = (Q(0), Q(1), Q(-1))   # e2 - e3
    images = A2.reflection_images((2, -2, 0))
    assert images[index[a]] == index[(Q(-1), Q(1), Q(0))]
    assert images[index[b]] == index[(Q(1), Q(0), Q(-1))]   # e1 - e3
    # orthogonal roots are fixed
    D4 = build_root_system("D", 4)
    w = D4.roots.index((Q(0), Q(0), Q(1), Q(-1)))
    assert D4.reflection_images((2, 2, 0, 0))[w] == w


def test_reflections_permute_roots():
    for kind, rank in [("A", 3), ("D", 4), ("E", 6)]:
        R = build_root_system(kind, rank)
        root_set = set(R.roots)
        for a in R.positive_roots:
            images = {reflect(a, b) for b in R.roots}
            assert images == root_set


# every type the int reflections are checked on
REFLECTION_SCOPE = ([("A", n) for n in range(1, 8)]
                    + [("D", n) for n in range(4, 8)]
                    + [("E", n) for n in (6, 7, 8)])


@cache
def _system(kind, rank):
    return build_root_system(kind, rank)


def test_roots2_are_the_doubled_roots():
    for kind, rank in REFLECTION_SCOPE:
        R = _system(kind, rank)
        assert R.roots2 == tuple(tuple(int(2 * c) for c in r) for r in R.roots)
        assert set(R.positive2) <= set(R.roots2)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(REFLECTION_SCOPE), st.data())
def test_int_reflection_matches_fraction_reflect(kind_rank, data):
    """The int permutation is the Fraction reflection read as root
    indices, and it is an involution."""
    R = _system(*kind_rank)
    i = data.draw(st.integers(0, len(R.roots) - 1), label="root index")
    images = R.reflection_images(R.roots2[i])
    index = {r: k for k, r in enumerate(R.roots)}
    assert images == tuple(index[reflect(R.roots[i], r)] for r in R.roots)
    assert tuple(images[j] for j in images) == tuple(range(len(R.roots)))


def test_reflection_images_rejects_non_roots():
    A2 = build_root_system("A", 2)
    with pytest.raises(NotARoot):
        A2.reflection_images((2, 2, 0))
    with pytest.raises(NotARoot):
        A2.reflection_images((1, -1, 0))   # (1/2)(e1 - e2) is not a root


def test_m_alpha_values_and_uniformity():
    expected = {("E", 8): 56, ("A", 2): 2, ("E", 6): 20}
    for (kind, rank), m in expected.items():
        R = build_root_system(kind, rank)
        assert R.m_alpha(R.positive_roots[0]) == m
    for kind, rank in ALL_SCOPE:
        R = build_root_system(kind, rank)
        h = R.coxeter_number()
        values = {R.m_alpha(a) for a in R.positive_roots}
        assert values == {2 * (h - 2)}


def test_canonical_positive():
    """``sign_normalized`` picks the positive root of {v, -v}."""
    A2 = build_root_system("A", 2)
    pos = (Q(1), Q(-1), Q(0))
    assert sign_normalized((Q(-1), Q(1), Q(0))) == pos
    assert sign_normalized(pos) == pos
    assert pos in A2.positive_roots
    D4 = build_root_system("D", 4)
    assert sign_normalized((Q(-1), Q(-1), Q(0), Q(0))) == \
        (Q(1), Q(1), Q(0), Q(0))
    assert sign_normalized((Q(-1), Q(-1), Q(0), Q(0))) in D4.positive_roots


def test_type_invariants():
    for kind, rank in ALL_SCOPE:
        R = build_root_system(kind, rank)
        h = R.coxeter_number()
        assert len(R.roots) == h * rank
        assert len(R.positive_roots) == h * rank // 2
        neg = {tuple(-c for c in v) for v in R.positive_roots}
        assert neg | set(R.positive_roots) == set(R.roots)
        for v in R.roots:
            assert R.inner(v, v) == 2
        for a in R.positive_roots:
            for b in R.positive_roots:
                if a != b:
                    assert R.inner(a, b) in (Q(0), Q(1), Q(-1))


def test_canonical_positive_closure_under_reflection():
    for kind, rank in [("A", 2), ("D", 4)]:
        R = build_root_system(kind, rank)
        for a in R.positive_roots:
            images = {sign_normalized(reflect(a, b))
                      for b in R.positive_roots}
            assert images == set(R.positive_roots)


def test_simple_roots_span_is_basis_sized():
    for kind, rank in ALL_SCOPE:
        R = build_root_system(kind, rank)
        simple = R.simple_roots()
        assert len(simple) == rank
        # every simple root is positive and has norm 2
        for s in simple:
            assert s in R.positive_roots


def test_simple_roots_cached_and_rank_checked():
    R = build_root_system("E", 8)
    assert R.simple_roots() is R.simple_roots()
    # a rank that disagrees with the roots fails on every call
    wrong = replace(R, rank=7)
    for _ in range(2):
        with pytest.raises(ValueError, match="rank"):
            wrong.simple_roots()


@pytest.mark.parametrize("kind,rank", [("A", 3), ("D", 4), ("E", 8)])
def test_root_labels_hash_and_compare_as_plain_tuples(kind, rank):
    """Roots cache their hash; they stay interchangeable with plain
    ``Fraction`` tuples as dict keys, through pickle and deepcopy."""
    R = build_root_system(kind, rank)
    plain = [tuple(r) for r in R.roots]
    assert all(type(p) is tuple for p in plain)
    for r, p in zip(R.roots, plain):
        assert r == p and p == r
        assert hash(r) == hash(p) == hash(tuple(Q(c) for c in p))
    by_root = {r: k for k, r in enumerate(R.roots)}
    by_plain = {p: k for k, p in enumerate(plain)}
    assert all(by_root[p] == k for k, p in enumerate(plain))
    assert all(by_plain[r] == k for k, r in enumerate(R.roots))
    assert set(R.positive_roots) <= set(plain)
    for r in R.roots[:12] + R.positive_roots[-12:]:
        for copied in (pickle.loads(pickle.dumps(r, protocol))
                       for protocol in range(pickle.HIGHEST_PROTOCOL + 1)):
            assert copied == r and hash(copied) == hash(r) == hash(tuple(r))
        copied = copy.deepcopy(r)
        assert copied == r and hash(copied) == hash(tuple(r))
        assert repr(r) == repr(tuple(r))


def test_root_system_equality_is_that_of_plain_tuples():
    R = build_root_system("D", 4)
    plain = replace(R, roots=tuple(map(tuple, R.roots)),
                    positive_roots=tuple(map(tuple, R.positive_roots)))
    assert R == plain and hash(R) == hash(plain)
    assert R == build_root_system("D", 4)
    assert R != build_root_system("A", 4)
    assert pickle.loads(pickle.dumps(R)) == R
    assert copy.deepcopy(R) == R
