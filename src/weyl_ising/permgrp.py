"""Permutation groups with exact order via base and strong generating set.

Permutations are int image tuples on {0..N-1}: what ``PermGroup`` and
``in`` take (checked once there, and in ``enumerate_elements``), and what
``generators``, ``strong_generators`` and ``enumerate_elements`` give back.
Inside the group engine a permutation of degree N <= 256 is packed as
``bytes`` of length N, so composition is the C-level ``bytes.translate``
and inversion ``bytes.maketrans``; above 256 points it stays an image
tuple, composed by ``operator.itemgetter``.  The engine runs a deterministic
incremental Schreier-Sims: base points are the smallest moved points,
Schreier generators are processed in BFS orbit order, and every non-trivial
sift residue becomes a strong generator; membership runs the same sift.  At
the first base point the orbit and the Schreier generators come from the
residues of the input generators alone, which generate the group; deeper
levels use every strong generator that fixes the base prefix.  Orders in
the 10^8..10^9 range on a few hundred points are routine.  ``closure`` is
the brute-force oracle beside it: it uses no BSGS, and skips each generator
that the earlier ones already reach.
"""

from __future__ import annotations

from collections import Counter
from math import lcm, prod
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .axes import AxisAlgebra, miyamoto_permutation
from .rootsys import RootSystem, _double

_ID256 = bytes(range(256))


def _pack(images: Iterable[int], degree: int) -> bytes | tuple:
    """The engine's form of a permutation of ``degree`` points: ``bytes``
    up to 256 points, an int tuple above."""
    return bytes(images) if degree <= 256 else tuple(images)


def _compose(p, q):
    """Apply q first, then p; both packed alike by ``_pack``, or tuples of
    any degree (below 2, where ``itemgetter`` gives no tuple, by ``map``)."""
    if type(q) is bytes:
        return q.translate(p + _ID256[len(p):])
    if len(q) > 1:
        return itemgetter(*q)(p)
    return tuple(map(p.__getitem__, q))


def _inverse(p):
    n = len(p)
    if type(p) is bytes:
        return bytes.maketrans(p, _ID256[:n])[:n]
    inv = [0] * n
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def _is_bijection(images: Sequence[int]) -> bool:
    return sorted(images) == list(range(len(images)))


def _cycle_lengths(images: Sequence[int]) -> list[int]:
    """Cycle lengths of a permutation in either packed form, each cycle
    listed at its smallest point."""
    n = len(images)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = images[x]
            length += 1
        out.append(length)
    return out


def _order(r) -> int:
    """The order of a permutation in either packed form: 1, 2 and 3 are
    read off r, r*r and r*r*r, any other order comes from the cycle
    lengths."""
    n = len(r)
    identity = _ID256[:n] if type(r) is bytes else tuple(range(n))
    if r == identity:
        return 1
    r2 = _compose(r, r)
    if r2 == identity:
        return 2
    if _compose(r, r2) == identity:
        return 3
    return lcm(*_cycle_lengths(r))


def _images(generators: Iterable, degree: int | None = None) -> tuple:
    """The generators as a tuple of int image tuples, each a bijection
    of {0..degree-1}, and that degree, which defaults to the first one's
    length.  The one input check of the public entry points: raises
    ``ValueError`` on a missing degree, unequal degrees or a
    non-bijection."""
    gens = tuple(map(tuple, generators))
    if degree is None:
        if not gens:
            raise ValueError("degree is required for an empty generating set")
        degree = len(gens[0])
    if any(len(g) != degree for g in gens):
        raise ValueError("generators act on different sets")
    if not all(map(_is_bijection, gens)):
        raise ValueError("images are not a bijection of 0..n-1")
    return gens, degree


class PermGroup:
    """Group generated by permutations, given as int image sequences,
    with a verified BSGS; ``generators`` and ``strong_generators`` are
    int image tuples."""

    def __init__(self, generators: Iterable, degree: int | None = None):
        self.generators, self.degree = _images(generators, degree)
        self._build([_pack(g, self.degree) for g in self.generators
                     if any(v != i for i, v in enumerate(g))])

    # -- construction ------------------------------------------------------

    def _build(self, gens: list) -> None:
        """Schreier-Sims on generators already packed by ``_pack``.

        Level i's orbit, transversal and Schreier pairs run over the
        strong generators that fix the first i base points, except at
        level 0, where they run over ``top``: the residues h_m of the
        input generators, with g_m in G_{m-1} h_m, so that ``top``
        generates the group G_m built so far.  By Schreier's lemma a
        transversal of G_{b_0} in G and any generating set of G give
        generators of G_{b_0} (Seress, Permutation Group Algorithms,
        CUP 2003, Lemma 4.2.1), so the BSGS is complete without sifting
        the Schreier generators of the deeper strong generators at
        level 0."""
        n = self.degree
        ident = _pack(range(n), n)
        base: list[int] = []
        strong: list = []
        strong_set: set = set()
        top: list[int] = []
        # persistent per-level state; coset representatives are only ever
        # extended, never replaced, so a Schreier pair once verified stays
        # verified as the deeper stabilizer groups grow
        trans: list[dict] = []
        inv: list[dict] = []
        orbit: list[list[int]] = []
        checked: list[set[tuple[int, int]]] = []

        def add_base_point(b: int) -> None:
            base.append(b)
            trans.append({b: ident})
            inv.append({b: ident})
            orbit.append([b])
            checked.append(set())

        def level_gen_indices(i: int) -> list[int]:
            if i == 0:
                return top
            prefix = base[:i]
            return [k for k, g in enumerate(strong)
                    if all(g[p] == p for p in prefix)]

        def extend_level(i: int, gen_idx: list[int]) -> None:
            # BFS over the orbit list itself: points appended while
            # walking are visited in turn, in the order they were found
            points, reps, invs = orbit[i], trans[i], inv[i]
            pos = 0
            while pos < len(points):
                p = points[pos]
                pos += 1
                rep = reps[p]
                for k in gen_idx:
                    s = strong[k]
                    img = s[p]
                    if img not in reps:
                        new = _compose(s, rep)
                        reps[img] = new
                        invs[img] = _inverse(new)
                        points.append(img)

        def sift(g, start: int) -> tuple:
            for i in range(start, len(base)):
                img = g[base[i]]
                if img not in trans[i]:
                    return g, i
                g = _compose(inv[i][img], g)
            return g, len(base)

        def add_strong(h, j: int) -> None:
            if j == len(base):
                add_base_point(next(x for x in range(n) if h[x] != x))
            if h not in strong_set:
                strong_set.add(h)
                strong.append(h)

        def close(start: int) -> None:
            i = start
            while i >= 0:
                gen_idx = level_gen_indices(i)
                extend_level(i, gen_idx)
                descend = None
                for p in orbit[i]:
                    rep_p = trans[i][p]
                    for k in gen_idx:
                        if (p, k) in checked[i]:
                            continue
                        checked[i].add((p, k))
                        s = strong[k]
                        sg = _compose(inv[i][s[p]], _compose(s, rep_p))
                        if sg == ident:
                            continue
                        h, j = sift(sg, i + 1)
                        if h != ident:
                            add_strong(h, j)
                            descend = j
                            break
                    if descend is not None:
                        break
                if descend is not None:
                    i = descend
                else:
                    i -= 1

        for g in gens:
            h, j = sift(g, 0)
            if h == ident:
                continue
            # h is no member of the group built so far, so it is new
            top.append(len(strong))
            add_strong(h, j)
            close(j)

        self.base = tuple(base)
        self._sift = sift
        self.strong_generators = tuple(map(tuple, strong))
        self.order = prod(len(t) for t in trans) if base else 1

    # -- queries -----------------------------------------------------------

    def __contains__(self, perm) -> bool:
        """Membership by the build's sift; anything that is not a
        bijection of {0..degree-1} (wrong length, an image out of range,
        a repeated image) is not a member."""
        n = self.degree
        try:
            (t,), _ = _images([perm], n)
        except ValueError:
            return False
        return self._sift(_pack(t, n), 0)[0] == _pack(range(n), n)

    def __repr__(self) -> str:
        return (f"PermGroup(degree={self.degree}, order={self.order}, "
                f"base={list(self.base)})")


class ClosureCapExceeded(ValueError):
    """A brute-force closure grew past its element cap."""


def closure(identity, generators: Sequence, compose: Callable,
            cap: int = 10_000) -> set:
    """All products ``compose(g, x)`` reachable from ``identity`` by left
    multiplication with the generators.  Brute force, one generator at a
    time: ``seen`` is the group H of the generators used so far, and a
    generator g whose product with ``identity`` is already in H is
    skipped.  Otherwise the products g x over H, less H, start a
    breadth-first search that multiplies each new element by every used
    generator; it ends on the group generated by H and g (Butler,
    Fundamental Algorithms for Permutation Groups, LNCS 559, 1991,
    ch. 6).  The cap is checked before each batch of new elements joins
    the result, which therefore never holds more than ``cap`` elements:
    ``ClosureCapExceeded`` is raised exactly when the closure has more.
    No BSGS enters, so the result is an independent oracle for
    ``PermGroup.order``.  On packed permutations (``bytes``) with
    ``compose`` equal to ``_compose``, each product is the
    ``x.translate`` that ``_compose`` computes, on generator tables
    padded once per call."""
    if compose is _compose and type(identity) is bytes:
        generators = [g + _ID256[len(g):] for g in generators]

        def products(gens: list, xs) -> set:
            return {x.translate(t) for x in xs for t in gens}
    else:
        def products(gens: list, xs) -> set:
            return {compose(g, x) for x in xs for g in gens}
    if cap < 1:
        raise ClosureCapExceeded(f"closure exceeds cap {cap}")
    seen = {identity}
    used: list = []
    for g in generators:
        if products([g], [identity]) <= seen:
            continue
        used.append(g)
        frontier = products([g], seen) - seen
        while frontier:
            if len(seen) + len(frontier) > cap:
                raise ClosureCapExceeded(f"closure exceeds cap {cap}")
            seen |= frontier
            frontier = products(used, frontier) - seen
    return seen


def enumerate_elements(generators: Iterable, cap: int = 10_000) -> set:
    """Brute-force closure of the generating set, as int image tuples;
    raises ``ClosureCapExceeded`` past the cap.

    Independent oracle for PermGroup.order on small groups: ``closure``
    on the packed generators, with no BSGS.
    """
    gens, n = _images(generators)
    packed = [_pack(g, n) for g in gens]
    return {tuple(x) for x in closure(_pack(range(n), n), packed, _compose, cap)}


_WEYL_CACHE: dict[tuple[str, int], PermGroup] = {}


def weyl_group(R: RootSystem) -> PermGroup:
    """The reflection group of R acting on its full root set, generated
    by the reflections in its simple roots, in the order of
    ``R.simple_roots()`` (W is generated by its simple reflections:
    Humphreys, Reflection Groups and Coxeter Groups, CUP 1990, 1.5)."""
    key = (R.kind, R.rank)
    if key not in _WEYL_CACHE:
        gens = [R.reflection_images(_double(a)) for a in R.simple_roots()]
        _WEYL_CACHE[key] = PermGroup(gens, len(R.roots))
    return _WEYL_CACHE[key]


def contains_minus_one(R: RootSystem) -> bool:
    """Whether negation of all roots lies in the reflection group."""
    negation = tuple(R._index2[tuple(-c for c in r)] for r in R.roots2)
    return negation in weyl_group(R)


def miyamoto_group(A: AxisAlgebra) -> PermGroup:
    """Group generated by the axis involutions of every axis."""
    return PermGroup([miyamoto_permutation(A, e) for e in A.axes], len(A))


def transposition_profile(A: AxisAlgebra) -> Counter:
    """Orders of products of two distinct axis involutions."""
    n = len(A)
    perms = [_pack(miyamoto_permutation(A, e), n) for e in A.axes]
    profile: Counter = Counter()
    for i, p in enumerate(perms):
        for q in perms[:i]:
            profile[_order(_compose(p, q))] += 1
    return profile
