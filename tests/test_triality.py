"""Twisted axes: involution action, 3C algebras, and 3^k:S_n groups."""

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as Q
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closure_reference import level_closure, with_redundant
from fraction_reference import axis_product
from weyl_ising import triality
from weyl_ising.axes import (
    AxisAlgebra,
    from_root_system,
    miyamoto_permutation,
    virasoro,
)
from weyl_ising.lattice import (
    IncompatibleAmbient,
    _shell_keys,
    e8_lattice,
    from_basis,
    index_in,
    same_lattice,
    shell,
)
from weyl_ising.linalg import dot
from weyl_ising.permgrp import (
    ClosureCapExceeded,
    PermGroup,
    _compose,
    _order,
    closure,
)
from weyl_ising.rootsys import build_root_system
from weyl_ising.triality import (
    AbstractTwistedGroup,
    NotFound,
    TwistedAxis,
    _class_root_counts,
    _lane_classes,
    abstract_twisted_group,
    find_delta,
    kernel_mod3,
    twisted_axes,
    twisted_axis_algebra,
    twisted_group,
)


def canonical(i: int, j: int, ell: int) -> TwistedAxis:
    """The axis rho_i^ell(e^{i,j}) in canonical form, by the identification
    rho_i^l(e^{i,j}) = rho_j^{-l}(e^{i,j})."""
    if i > j:
        i, j, ell = j, i, -ell
    return TwistedAxis(i, j, ell % 3)


def image(A, t: TwistedAxis, u: TwistedAxis) -> TwistedAxis:
    """The image of axis u under the involution of axis t, read off the
    table of A by ``miyamoto_permutation``."""
    return A.axes[miyamoto_permutation(A, t)[A.axes.index(u)]]


def test_canonical_axis_identification():
    assert canonical(1, 0, 1) == TwistedAxis(0, 1, 2)
    assert canonical(3, 1, 0) == TwistedAxis(1, 3, 0)
    assert canonical(0, 2, -4) == TwistedAxis(0, 2, 2)
    assert canonical(0, 2, 7) == TwistedAxis(0, 2, 1)
    # both spellings (x, y, e) = (y, x, -e) of every axis have the image
    # the table gives it under every involution
    A = twisted_axis_algebra(4)
    for t in A.axes:
        for u in A.axes:
            assert (image(A, t, u)
                    == twisted_tau_image_by_rewriting(t, (u.i, u.j, u.ell))
                    == twisted_tau_image_by_rewriting(t, (u.j, u.i, -u.ell)))


def test_axis_validation():
    with pytest.raises(ValueError):
        TwistedAxis(1, 1, 0)
    with pytest.raises(ValueError):
        TwistedAxis(1, 0, 0)
    with pytest.raises(ValueError):
        TwistedAxis(0, 1, 3)


def test_axis_count():
    for n in range(2, 8):
        assert len(twisted_axes(n)) == 3 * n * (n - 1) // 2
    with pytest.raises(ValueError):
        twisted_axes(1)


def test_action_same_pair():
    # the involution of (i,j,l) sends (i,j,s) to (i,j,2l-s)
    A = twisted_axis_algebra(4)
    for ell in range(3):
        t = TwistedAxis(0, 1, ell)
        for s in range(3):
            u = TwistedAxis(0, 1, s)
            third = TwistedAxis(0, 1, (2 * ell - s) % 3)
            assert image(A, t, u) == third
            if s == ell:
                assert third == u
            else:
                assert A.third(t, u) == third


def test_action_disjoint_pairs_fixed():
    A = twisted_axis_algebra(5)
    t = TwistedAxis(0, 1, 1)
    for u in (TwistedAxis(2, 3, 0), TwistedAxis(2, 3, 2), TwistedAxis(2, 4, 1)):
        assert image(A, t, u) == u
        assert A.third(t, u) is None


def test_action_shared_index_cases():
    # one shared block: indices transpose, exponents follow the
    # conjugation bookkeeping
    A = twisted_axis_algebra(3)
    for t, u, third in [
        (TwistedAxis(0, 1, 1), TwistedAxis(0, 2, 1), TwistedAxis(1, 2, 0)),
        (TwistedAxis(0, 1, 1), TwistedAxis(1, 2, 1), TwistedAxis(0, 2, 2)),
        (TwistedAxis(1, 2, 2), TwistedAxis(0, 1, 1), TwistedAxis(0, 2, 0)),
        (TwistedAxis(1, 2, 2), TwistedAxis(0, 2, 1), TwistedAxis(0, 1, 2)),
    ]:
        assert image(A, t, u) == third
        assert A.third(t, u) == third


def twisted_tau_image_by_rewriting(t: TwistedAxis,
                                   u: tuple[int, int, int]) -> TwistedAxis:
    """The image of the axis u = (p, q, e), spelled rho_p^e(e^{p,q}) with
    p and q in either order, under the involution of axis t, by literal
    rewriting of the symbol word to the normal form rho-prefix .
    base-axis; independent of the block arithmetic that encodes
    ``twisted_axis_algebra``."""
    p, q, e = u
    word: list[tuple] = [
        ("rho", t.i, t.ell),
        ("tau", t.i, t.j),
        ("rho", t.i, (-t.ell) % 3),
        ("rho", p, e),
    ]
    base = (p, q)

    changed = True
    while changed:
        changed = False
        for k, sym in enumerate(word):
            if sym[0] != "tau":
                continue
            _, i, j = sym

            def swap(x: int) -> int:
                return j if x == i else i if x == j else x

            if k + 1 < len(word):
                nxt = word[k + 1]
                if nxt[0] == "rho":
                    word[k], word[k + 1] = ("rho", swap(nxt[1]), nxt[2]), sym
                    changed = True
                    break
                if nxt[0] == "tau":
                    continue
            else:
                base = (swap(base[0]), swap(base[1]))
                word.pop(k)
                changed = True
                break

    if any(sym[0] == "tau" for sym in word):
        raise AssertionError("rewriting left an unabsorbed involution")

    exponent = 0
    for _, block, exp in word:
        if block == base[0]:
            exponent += exp
        elif block == base[1]:
            exponent -= exp
    return canonical(base[0], base[1], exponent)


def test_engine_matches_word_rewriting():
    """On every ordered pair of distinct axes for n = 2..7 the table is
    3C with the rewritten image as third axis when the block pairs meet,
    and 2B (the image is the axis itself) when they are disjoint; the
    rewriting fixes every axis under its own involution."""
    for n in range(2, 8):
        A = twisted_axis_algebra(n)
        for t in A.axes:
            for u in A.axes:
                w = twisted_tau_image_by_rewriting(t, (u.i, u.j, u.ell))
                if t == u:
                    assert w == u
                elif {t.i, t.j} & {u.i, u.j}:
                    assert A.third(t, u) == w
                else:
                    assert A.third(t, u) is None and w == u


def test_involutions_and_pair_orders():
    A = twisted_axis_algebra(4)
    axes = A.axes
    ident = tuple(range(len(axes)))
    perms = [miyamoto_permutation(A, t) for t in axes]
    for p in perms:
        assert p != ident
        assert _compose(p, p) == ident
    for a in range(len(axes)):
        for b in range(a):
            assert _order(_compose(perms[a], perms[b])) in (2, 3)


@pytest.mark.parametrize("n", range(2, 8))
def test_miyamoto_permutations_are_the_closed_form_action(n):
    """The involutions read off the twisted algebra's table act on the
    axes as the rewriting of the symbol word does."""
    A = twisted_axis_algebra(n)
    assert A.axes == twisted_axes(n)
    for t in A.axes:
        images = miyamoto_permutation(A, t)
        assert [A.axes[k] for k in images] == [
            twisted_tau_image_by_rewriting(t, (u.i, u.j, u.ell))
            for u in A.axes]


def test_algebra_relation_classification():
    for n in (4, 5, 6):
        A = twisted_axis_algebra(n)
        for a in A.axes:
            for b in A.axes:
                if a == b:
                    with pytest.raises(ValueError, match="are one axis"):
                        A.third(a, b)
                elif {a.i, a.j} & {b.i, b.j}:
                    assert A.third(a, b) is not None
                else:
                    assert A.third(a, b) is None


def test_two_block_algebra_is_one_triple():
    A = twisted_axis_algebra(2)
    assert len(A) == 3
    a, b, c = A.axes
    assert A.third(a, b) == c
    assert A.third(b, c) == a
    assert A.third(a, c) == b


@pytest.mark.parametrize("n", range(2, 8))
def test_central_charges(n):
    """Each twisted axis has m = 6n - 10 3C partners, so
    omega = 64/(64 + m) = 32/(3(n+9)) times the sum of the axes, with norm
    4n(n-1)/(n+9); the action omega . e = 2e is checked again with the
    ``Fraction`` reference product."""
    A = twisted_axis_algebra(n)
    rep = virasoro(A)
    assert rep.central_charge == Q(8 * n * (n - 1), n + 9)
    assert rep.norm == Q(4 * n * (n - 1), n + 9)
    coeff = Q(32, 3 * (n + 9))
    assert rep.vector == {a: coeff for a in A.axes}
    for a in A.axes:
        partners = sum(b != a and A.third(a, b) is not None for b in A.axes)
        assert partners == 6 * n - 10 and Q(64, 64 + partners) == coeff
        assert axis_product(A, rep.vector, A.axis(a)) == {a: 2}


@pytest.mark.parametrize("n,order,kernel", [
    (3, 18, 3),
    (4, 648, 27),
    (5, 9720, 81),
    (6, 58320, 81),
    (7, 3674160, 729),
])
def test_twisted_group_orders(n, order, kernel):
    report = twisted_group(twisted_axis_algebra(n))
    assert report.group.order == order
    assert report.kernel_order == kernel
    assert report.pair_action_order == order // kernel
    power = 0
    m = kernel
    while m % 3 == 0:
        m //= 3
        power += 1
    assert report.shape == f"3^{power}:S_{n}"
    # k = n-2 when 3 divides n, else n-1
    assert power == (n - 2 if n % 3 == 0 else n - 1)


@pytest.mark.parametrize("n", range(3, 8))
def test_abstract_group_order_agrees(n):
    assert (abstract_twisted_group(n).order
            == twisted_group(twisted_axis_algebra(n)).group.order)


@pytest.mark.parametrize("n", range(3, 10))
def test_abstract_order_matches_brute_force_twist_count(n):
    twists = sum(1 for a in itertools.product(range(3), repeat=n)
                 if sum(a) % 3 == 0)
    kernel = 3 if n % 3 == 0 else 1
    assert abstract_twisted_group(n).order == (
        math.factorial(n) * twists // kernel)


def test_abstract_group_builds_fast_at_large_n():
    start = time.perf_counter()
    g = AbstractTwistedGroup(30)
    assert time.perf_counter() - start < 1.0
    assert g.order == math.factorial(30) * 3 ** 29 // 3


@pytest.mark.parametrize("n", [3, 4, 5])
def test_abstract_closure_matches_counted_order(n):
    g = abstract_twisted_group(n)
    assert len(g.closure()) == g.order


@dataclass(frozen=True)
class TwistedGroupElement:
    """Pair (sigma, a): a block permutation with a mod-3 twist vector,
    stored modulo the constant vectors c*(1,..,1) with n*c = 0 mod 3 as
    the least of those twists.  Every element is validated, and the
    search with ``compose`` is the reference for the closure on codes."""

    sigma: tuple[int, ...]
    twist: tuple[int, ...]

    def __post_init__(self):
        n = len(self.sigma)
        if sorted(self.sigma) != list(range(n)) or len(self.twist) != n:
            raise ValueError("need a block permutation and a twist per block")
        twist = tuple(x % 3 for x in self.twist)
        if n % 3 == 0:
            twist = min(tuple((x + c) % 3 for x in twist) for c in range(3))
        object.__setattr__(self, "twist", twist)

    @staticmethod
    def identity(n: int) -> "TwistedGroupElement":
        return TwistedGroupElement(tuple(range(n)), (0,) * n)

    def compose(self, other: "TwistedGroupElement") -> "TwistedGroupElement":
        """(sigma, a)(sigma', a') = (sigma sigma', a o sigma' + a')."""
        s, a = self.sigma, self.twist
        sp, ap = other.sigma, other.twist
        return TwistedGroupElement(tuple(s[k] for k in sp),
                                   tuple(a[k] + b for k, b in zip(sp, ap)))

    def inverse(self) -> "TwistedGroupElement":
        inv = [0] * len(self.sigma)
        for k, v in enumerate(self.sigma):
            inv[v] = k
        return TwistedGroupElement(
            tuple(inv), tuple(-self.twist[inv[k]] for k in range(len(inv))))

    def is_identity(self) -> bool:
        return self == TwistedGroupElement.identity(len(self.sigma))


@pytest.mark.parametrize("n", [3, 4])
def test_abstract_closure_matches_compose_search(n):
    """The search on codes finds the elements that the search with
    ``TwistedGroupElement.compose`` finds."""
    g = abstract_twisted_group(n)
    gens = [TwistedGroupElement(*pair) for pair in g.generators]
    by_compose = closure(TwistedGroupElement.identity(n), gens,
                         TwistedGroupElement.compose, g.order)
    assert g.closure(cap=g.order) == {(e.sigma, e.twist) for e in by_compose}
    with pytest.raises(ClosureCapExceeded):
        closure(TwistedGroupElement.identity(n), gens,
                TwistedGroupElement.compose, g.order - 1)


_twisted_pairs = st.sampled_from([3, 4]).flatmap(lambda n: st.lists(
    st.tuples(st.permutations(range(n)),
              st.lists(st.integers(0, 2), min_size=n, max_size=n)),
    min_size=1, max_size=3))


@settings(max_examples=30, deadline=None)
@given(pairs=_twisted_pairs, data=st.data())
def test_closure_matches_level_reference_on_twisted_elements(pairs, data):
    """With ``TwistedGroupElement.compose`` the closure that skips
    reached generators returns the level-by-level reference's set, on
    generator lists with duplicates, the identity and products of
    earlier generators; its cap is exact."""
    compose = TwistedGroupElement.compose
    n = len(pairs[0][0])
    identity = TwistedGroupElement.identity(n)
    gens = with_redundant(
        data.draw, [TwistedGroupElement(tuple(s), tuple(a)) for s, a in pairs],
        identity, compose)
    expected = level_closure(identity, gens, compose)
    assert closure(identity, gens, compose) == expected
    assert closure(identity, gens, compose, len(expected)) == expected
    with pytest.raises(ClosureCapExceeded):
        closure(identity, gens, compose, len(expected) - 1)


@pytest.mark.parametrize("n", [86, 87])
def test_abstract_closure_on_tuple_codes(n):
    """Past 85 blocks the codes do not fit a byte and are int tuples,
    with and without the shift for 3 | n; the search meets the cap with
    the first level (3 n (n - 1) / 2 generators)."""
    with pytest.raises(ClosureCapExceeded):
        abstract_twisted_group(n).closure(cap=100)


def test_constructor_still_validates():
    with pytest.raises(ValueError):
        TwistedGroupElement((0, 0, 1), (0, 0, 0))
    with pytest.raises(ValueError):
        TwistedGroupElement((1, 0), (0, 0, 0))
    assert TwistedGroupElement((1, 0), (4, -1)).twist == (1, 2)


def test_abstract_closure_cap():
    with pytest.raises(ClosureCapExceeded):
        abstract_twisted_group(6).closure(cap=100)
    g = abstract_twisted_group(3)
    assert len(g.closure(cap=g.order)) == g.order == 18
    with pytest.raises(ClosureCapExceeded):
        g.closure(cap=g.order - 1)


def test_element_composition_law():
    e = TwistedGroupElement.identity(4)
    g = TwistedGroupElement((1, 0, 2, 3), (1, 2, 0, 0))
    h = TwistedGroupElement((0, 2, 1, 3), (0, 1, 2, 0))
    k = TwistedGroupElement((3, 1, 2, 0), (2, 2, 2, 0))
    assert g.compose(e) == g
    assert e.compose(g) == g
    assert g.compose(g.inverse()) == e
    assert g.inverse().compose(g) == e
    assert g.compose(h).compose(k) == g.compose(h.compose(k))


def test_element_canonical_modulo_constants():
    # with 3 | n the constant twist vectors are quotiented away
    a = TwistedGroupElement(tuple(range(3)), (0, 1, 2))
    b = TwistedGroupElement(tuple(range(3)), (1, 2, 0))
    assert a == b
    assert TwistedGroupElement(tuple(range(3)), (1, 1, 1)).is_identity()
    # with n = 4 only the zero constant is allowed
    c = TwistedGroupElement(tuple(range(4)), (1, 1, 1, 1))
    assert not c.is_identity()


def test_abstract_generators_are_involutions():
    for n in (3, 4):
        g = abstract_twisted_group(n)
        assert len(g.generators) == len(twisted_axes(n))
        for pair in g.generators:
            gen = TwistedGroupElement(*pair)
            assert not gen.is_identity()
            assert gen.compose(gen).is_identity()


def test_untwisted_involutions_generate_symmetric_group():
    for n in (3, 4, 5):
        A = twisted_axis_algebra(n)
        gens = [miyamoto_permutation(A, TwistedAxis(i, j, 0))
                for i in range(n) for j in range(i + 1, n)]
        assert PermGroup(gens).order == math.factorial(n)


def test_abstract_group_rejects_small_n():
    with pytest.raises(ValueError):
        AbstractTwistedGroup(2)
    with pytest.raises(ValueError):
        twisted_group(twisted_axis_algebra(2))


def test_twisted_group_refuses_non_twisted_algebras():
    """``twisted_group`` takes an algebra on ``twisted_axes(n)``, n >= 3,
    in that order; anything else is refused before a group is built."""
    A = twisted_axis_algebra(3)
    reversed_ = A.axes[::-1]
    position = {a: i for i, a in enumerate(reversed_)}

    def reversed_third(i, j):
        c = A.third(reversed_[i], reversed_[j])
        return None if c is None else position[c]

    for B in (
        twisted_axis_algebra(2),
        from_root_system(build_root_system("A", 3)),  # 6 axes
        AxisAlgebra(range(9), lambda i, j: None),
        AxisAlgebra(reversed_, reversed_third),
        AxisAlgebra((), reversed_third),
    ):
        with pytest.raises(ValueError):
            twisted_group(B)


def test_twisted_group_refuses_a_relabelled_table():
    """The table of ``twisted_axis_algebra(3)`` with axes 0 and 3
    relabelled, on ``twisted_axes(3)`` in order: its involutions do not
    act on the block pairs, a ``ValueError``."""
    A = twisted_axis_algebra(3)
    axes = A.axes
    index = {a: i for i, a in enumerate(axes)}
    swap = {0: 3, 3: 0}

    def third(i, j):
        c = A.third(axes[swap.get(i, i)], axes[swap.get(j, j)])
        return None if c is None else swap.get(index[c], index[c])

    B = AxisAlgebra(axes, third)
    assert B.axes == twisted_axes(3)
    with pytest.raises(ValueError, match="block pairs"):
        twisted_group(B)


def test_find_delta():
    delta, K = find_delta()
    assert delta == tuple(Q(c, 2) for c in (-5, -1, -1, -1, -1, -1, -1, -1))
    assert dot(delta, delta) == 8
    assert K.det() == 9
    assert index_in(K, e8_lattice()) == 3
    roots = shell(K, 2)
    assert len(roots) == 72
    assert same_lattice(kernel_mod3(delta), K)


def test_cold_find_delta(monkeypatch):
    """With the cache empty, ``find_delta`` walks the packed shells
    again and returns the lexicographically first delta of norm 8."""
    monkeypatch.setattr(triality, "_DELTA_CACHE", None)
    delta, K = find_delta()
    assert delta == (Q(-5, 2),) + (Q(-1, 2),) * 7
    assert len(shell(K, 2)) == 72
    assert triality._DELTA_CACHE == (delta, K)


def test_kernel_mod3_on_the_int_core():
    """kernel_mod3 agrees with the Fraction definition on delta, -delta
    and every root of E8 (none of which lies in 3E8): each basis vector
    of the kernel pairs with the vector to 0 mod 3, and the kernel has
    index 3."""
    delta, K = find_delta()
    assert same_lattice(kernel_mod3(tuple(-c for c in delta)), K)
    e8 = e8_lattice()
    for d in [delta] + shell(e8, 2):
        kernel = kernel_mod3(d)
        assert all(dot(b, d) % 3 == 0 for b in kernel.basis)
        assert index_in(kernel, e8) == 3


def test_class_root_counts_match_brute_force():
    """The bit-sliced table against a plain count over the 240 roots for
    every class kappa of E8/3E8, and its histogram: 72 kernel roots (the
    A8 classes) in 1920 classes."""
    e8 = e8_lattice()
    counts = _class_root_counts(e8)
    coeffs = [e8._int_coordinates(*e8._scaled_vector(r)) for r in shell(e8, 2)]
    assert len(counts) == 3 ** 8
    for index, kappa in enumerate(itertools.product(range(3), repeat=8)):
        kappa = kappa[::-1]  # index = sum kappa_i 3^i
        assert counts[index] == sum(
            1 for c in coeffs if sum(map(mul, c, kappa)) % 3 == 0)
    assert Counter(counts) == {240: 1, 126: 240, 84: 2160, 78: 2240,
                               72: 1920}


def _reference_classes(keys, decode, rows, den) -> list[int]:
    """The class index sum kappa_i 3^i of every key, kappa_i the pairing
    of the decoded vector with basis row i over den^2, mod 3: one decode
    and eight dot products per key."""
    out = []
    for key in keys:
        v = decode(key)
        kappa = 0
        for a in rows[::-1]:
            kappa = 3 * kappa + (sum(map(mul, a, v)) // (den * den)) % 3
        out.append(kappa)
    return out


@pytest.mark.parametrize("norm", [2, 4, 6, 8])
@pytest.mark.parametrize("chunk", [triality._CHUNK, 7])
def test_lane_classes_match_per_key_dots(norm, chunk):
    """The byte lanes of ``find_delta`` give every vector of E8's shells
    of norm 2 to 8 the class of the per-key decode-and-dot loop, in blocks
    of its own size and in blocks of 7 keys."""
    e8 = e8_lattice()
    keys, decode, _ = _shell_keys(e8, norm)
    got = []
    for start in range(0, len(keys), chunk):
        low, high = _lane_classes(e8, keys[start:start + chunk], decode)
        got += [lo + 81 * hi for lo, hi in zip(low, high)]
    assert got == _reference_classes(keys, decode, *e8._scaled)


def test_lane_classes_refuse_pairings_past_a_byte():
    """On 16 E8 the roots (norm 512) pair with the basis rows up to 512
    in absolute value, past the 127 that a byte lane holds: refused."""
    e8 = e8_lattice()
    big = from_basis([[16 * c for c in b] for b in e8.basis])
    keys, decode, _ = _shell_keys(big, 512)
    assert len(keys) == 240
    with pytest.raises(OverflowError, match="overflow"):
        _lane_classes(big, keys, decode)


def test_cold_find_delta_tries_one_candidate(monkeypatch):
    """A cold ``find_delta`` sends one key to the lattice checks: the
    first key of the norm-8 shell whose class has 72 kernel roots."""
    monkeypatch.setattr(triality, "_DELTA_CACHE", None)
    tried = []
    kernel = triality.kernel_mod3

    def counted(delta):
        tried.append(delta)
        return kernel(delta)

    monkeypatch.setattr(triality, "kernel_mod3", counted)
    delta, _ = find_delta()
    assert tried == [delta]


def test_kernel_simple_roots_form_a_chain():
    _, K = find_delta()
    roots = shell(K, 2)
    positive = [r for r in roots
                if next(c for c in r if c != 0) > 0]
    assert len(positive) == 36
    pos_set = set(positive)
    simple = [r for r in positive
              if not any(tuple(x - y for x, y in zip(r, s)) in pos_set
                         for s in positive if s != r)]
    assert len(simple) == 8
    inners = sorted(
        dot(simple[a], simple[b]) for a in range(8) for b in range(a))
    assert inners.count(-1) == 7
    assert all(v in (0, -1) for v in inners)
    degrees = [sum(1 for b in range(8)
                   if b != a and dot(simple[a], simple[b]) == -1)
               for a in range(8)]
    assert sorted(degrees) == [1, 1, 2, 2, 2, 2, 2, 2]


def test_trivial_kernel_rejected():
    base = shell(e8_lattice(), 2)[0]
    tripled = tuple(3 * c for c in base)
    assert same_lattice(kernel_mod3(tripled), e8_lattice())


def test_kernel_mod3_refuses_a_bad_delta():
    """A delta of the wrong length, or one whose pairing with E8 is not
    an integer, is refused rather than truncated into a lattice."""
    with pytest.raises(IncompatibleAmbient):
        kernel_mod3((1, 2, 3))
    with pytest.raises(IncompatibleAmbient):
        kernel_mod3((1,) * 9)
    with pytest.raises(ValueError, match="not an integer"):
        kernel_mod3((Q(1, 2),) + (0,) * 7)
    with pytest.raises(ValueError, match="not an integer"):
        kernel_mod3((Q(1, 3),) * 8)


def test_not_found_is_value_error():
    assert issubclass(NotFound, ValueError)
