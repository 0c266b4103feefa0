"""Order-3 twists of block axes and the 3^k:S_n groups they generate.

Blocks 0..n-1 each carry an order-3 symmetry rho_i.  The twisted axis
set consists of rho_i^l(e^{i,j}) for i < j and l mod 3, subject to the
identification rho_i^l(e^{i,j}) = rho_j^{-l}(e^{i,j}).  Two relations
drive everything:

    tau_{e^{i,j}} rho_t tau_{e^{i,j}}^{-1} = rho_{(i j)(t)}
    rho_t(e^{p,q}) = e^{p,q}              when t is not p or q

The involution of the axis a = (i, j, l) is the conjugate
t_a = rho_i^l tau_{e^{i,j}} rho_i^{-l}.  Pushing its rho factors through
tau gives its action in block arithmetic, an axis b written (x, y, e)
for rho_x^e(e^{x,y}) = (y, x, -e):

    (i, j, m) -> (i, j, 2l - m)
    (i, x, e) -> (j, x, e - l),  (j, x, e) -> (i, x, e + l)  (x not i, j)
    b -> b                       when b's blocks miss i and j

``twisted_axis_algebra`` encodes its table by these rules: a pair that
shares a block is a 3C triple with third axis t_a(b), a disjoint pair is
2B, and the algebra's Miyamoto group is the twisted group.  The tests
check the rules against a literal rewriting of the symbol word.

A separate abstract model works with pairs (permutation, twist vector)
directly: it counts them by a recurrence on twist sums, and closes its
generators as permutations of the 3n points (block, exponent).
Comparing its order with the permutation group built from the axis
action validates the exponent bookkeeping end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import factorial, isqrt, log

from .axes import AxisAlgebra, _from_thirds
from .lattice import (
    Lattice,
    _shell_ints,
    _shell_keys,
    _span,
    e8_lattice,
    index_in,
)
from .linalg import dot
from .permgrp import PermGroup, _compose, _pack, closure, miyamoto_group
from .rootsys import sign_normalized, simple_system


class NotFound(ValueError):
    """The order-3 twist vector search exhausted its shells."""


@dataclass(frozen=True)
class TwistedAxis:
    """rho_i^ell(e^{i,j}) in canonical form (i < j, ell mod 3)."""

    i: int
    j: int
    ell: int

    def __post_init__(self):
        if not 0 <= self.i < self.j:
            raise ValueError("need 0 <= i < j")
        if not 0 <= self.ell < 3:
            raise ValueError("exponent must already be reduced mod 3")


def twisted_axes(n: int) -> tuple[TwistedAxis, ...]:
    """All 3*n(n-1)/2 axes for n blocks, in deterministic order."""
    if n < 2:
        raise ValueError("need at least two blocks")
    return tuple(TwistedAxis(i, j, ell)
                 for i in range(n) for j in range(i + 1, n)
                 for ell in range(3))


def twisted_axis_algebra(n: int) -> AxisAlgebra:
    """The 2B/3C algebra on the twisted axes: orthogonal exactly when
    the block pairs are disjoint, otherwise a 3C triple whose third axis
    is the image under t_a of the other, by the block arithmetic of the
    module docstring."""
    axes = twisted_axes(n)
    labels = [(a.i, a.j, a.ell) for a in axes]
    index = {label: k for k, label in enumerate(labels)}

    def at(x: int, y: int, e: int) -> int:
        return index[(x, y, e % 3) if x < y else (y, x, -e % 3)]

    def third(u: int, v: int) -> int | None:
        i, j, ell = labels[u]
        p, q, m = labels[v]
        if (p, q) == (i, j):
            return at(i, j, 2 * ell - m)
        if p == i or p == j:
            s, x, e = p, q, m
        elif q == i or q == j:
            s, x, e = q, p, -m
        else:
            return None
        return at(j, x, e - ell) if s == i else at(i, x, e + ell)

    return _from_thirds(axes, third)


@dataclass(frozen=True)
class TwistedGroupReport:
    """Permutation group of the twisted involutions with its shape data."""

    group: PermGroup
    pair_action_order: int
    kernel_order: int
    shape: str


def twisted_group(A: AxisAlgebra) -> TwistedGroupReport:
    """The Miyamoto group of the twisted algebra ``A``, with the order of
    its image acting on block pairs and the kernel order 3^k.  Raises
    ``ValueError`` unless A's axes are ``twisted_axes(n)`` with n >= 3."""
    # 3 n (n - 1) / 2 axes: n (n - 1) = 2 |axes| / 3, so isqrt gives n - 1
    n = isqrt(2 * len(A.axes) // 3) + 1
    if n < 3 or A.axes != twisted_axes(n):
        raise ValueError("need the twisted axes of at least three blocks")
    G = miyamoto_group(A)
    # axis x of twisted_axes(n) lies on block pair x // 3
    pair_gens = []
    for g in G.generators:
        pair = tuple(y // 3 for y in g.images[::3])
        if any(y // 3 != pair[x // 3] for x, y in enumerate(g.images)):
            raise AssertionError("involution does not act on block pairs")
        pair_gens.append(pair)
    P = PermGroup(pair_gens)

    kernel_order, rest = divmod(G.order, P.order)
    power = round(log(kernel_order, 3))  # checked exactly below
    if rest or 3 ** power != kernel_order:
        raise AssertionError(f"|G| / |P| = {G.order}/{P.order} is not a "
                             "power of 3")
    return TwistedGroupReport(group=G, pair_action_order=P.order,
                              kernel_order=kernel_order,
                              shape=f"3^{power}:S_{n}")


class AbstractTwistedGroup:
    """The group of pairs (sigma, a) with sum(a) = 0 mod 3, modulo the
    constant-vector kernel; order counted over the twist space by a
    recurrence on coordinate sums mod 3; ``generators`` holds the pair
    (sigma, twist) of int tuples of each axis involution."""

    def __init__(self, n: int):
        if n < 3:
            raise ValueError("need at least three blocks")
        self.n = n
        # counts[r]: twist vectors of the length so far with sum = r mod 3
        counts = [1, 0, 0]
        for _ in range(n):
            counts = [sum(counts[(r - a) % 3] for a in range(3))
                      for r in range(3)]
        twist_count = counts[0]
        kernel = sum(1 for c in range(3) if (n * c) % 3 == 0)
        self.order = factorial(n) * twist_count // kernel
        gens = []
        for t in twisted_axes(n):
            sigma = list(range(n))
            sigma[t.i], sigma[t.j] = t.j, t.i
            twist = [0] * n
            twist[t.i] = t.ell
            twist[t.j] = -t.ell % 3
            gens.append((tuple(sigma), tuple(twist)))
        self.generators = tuple(gens)

    def closure(self, cap: int = 10_000) -> set[tuple[tuple[int, ...],
                                                      tuple[int, ...]]]:
        """Brute-force closure of the generators, as (sigma, twist)
        pairs; raises ``ClosureCapExceeded`` past the cap.

        A pair (sigma, a) permutes the 3n points (block k, exponent t),
        numbered 3k + t, by (k, t) -> (sigma(k), t + a(k)); products
        compose these permutations, so an element is kept as the images
        ``3 sigma(k) + a(k)`` of the points (k, 0), packed by ``_pack``
        (bytes up to 85 blocks, int tuples beyond), and left
        multiplication by a generator is ``_compose`` with its table.
        With 3 | n each code is shifted to a(0) = 0, the representative
        modulo the constant twists, so each code found is one element."""
        n = self.n
        points = 3 * n
        tables = [_pack([3 * s + (a + t) % 3 for s, a in zip(sigma, twist)
                         for t in (0, 1, 2)], points)
                  for sigma, twist in self.generators]
        identity = _pack(range(0, points, 3), points)
        if n % 3:
            compose = _compose
        else:
            shifts = [_pack([b - b % 3 + (b + c) % 3 for b in range(points)],
                            points) for c in range(3)]

            def compose(table, code):
                code = _compose(table, code)
                return _compose(shifts[-code[0] % 3], code)
        return {(tuple([b // 3 for b in code]), tuple([b % 3 for b in code]))
                for code in closure(identity, tables, compose, cap)}


def abstract_twisted_group(n: int) -> AbstractTwistedGroup:
    return AbstractTwistedGroup(n)


def kernel_mod3(delta) -> Lattice:
    """{beta : <beta, delta> = 0 mod 3} as a sublattice of the norm-2
    shell's lattice (index 1 or 3), built on E8's int core: with the
    basis as ``rows / den`` and ``delta = d_int / d_den``, the pairing
    of basis vector k with delta is ``<rows_k, d_int> / (den d_den)``.
    Raises ``IncompatibleAmbient`` for a delta that is not of length 8
    and ``ValueError`` for one that pairs with E8 to a non-integer."""
    L = e8_lattice()
    rows, den = L._scaled
    d_int, d_den = L._scaled_vector(delta)
    residues = []
    for row in rows:
        pairing, rest = divmod(dot(row, d_int), den * d_den)
        if rest:
            raise ValueError("delta pairs with an E8 basis vector to "
                             f"{Q(dot(row, d_int), den * d_den)}, not an "
                             "integer")
        residues.append(pairing % 3)
    pivot = next((k for k, m in enumerate(residues) if m), None)
    if pivot is None:
        return L
    inv = 1 if residues[pivot] == 1 else 2
    base = rows[pivot]
    gens = [[3 * c for c in base]]
    for k, row in enumerate(rows):
        if k != pivot:
            f = (residues[k] * inv) % 3
            gens.append([c - f * p for c, p in zip(row, base)])
    return _span(gens, den, L.ambient_dim)


def _classifies_as_A8(K: Lattice) -> bool:
    """Whether the roots (norm-2 vectors) of K form an A8 system: 72 of
    them, whose positive ones (first nonzero coordinate positive) have 8
    simple roots in one chain, pairing to -1 along its 7 edges and to 0
    elsewhere.  Read in ints: the roots are int vectors over K's ``den``
    (``_shell_ints``), so a pairing of -1 is an int dot of ``-den^2``."""
    roots, den = _shell_ints(K, 2)
    if len(roots) != 72:
        return False
    simple = simple_system(r for r in roots if sign_normalized(r) == r)
    if len(simple) != 8:
        return False
    edge = -den * den
    edges = 0
    degree = [0] * 8
    adj = [[] for _ in range(8)]
    for a in range(8):
        for b in range(a):
            s = dot(simple[a], simple[b])
            if s not in (0, edge):
                return False
            if s == edge:
                edges += 1
                degree[a] += 1
                degree[b] += 1
                adj[a].append(b)
                adj[b].append(a)
    if edges != 7 or max(degree) > 2:
        return False
    reached = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in reached:
                reached.add(y)
                stack.append(y)
    return len(reached) == 8


def _class_root_counts(L: Lattice) -> list[int]:
    """For every class kappa in (Z/3)^rank, at index sum kappa_i 3^i, the
    number of roots r of L (its norm-2 vectors) with
    ``sum c_i kappa_i = 0 mod 3``, c the coefficients of r over the basis.

    A vector delta with ``<alpha_i, delta> = kappa_i mod 3`` on the basis
    pairs with r to ``sum c_i <alpha_i, delta>``, so this counts the roots
    of its mod-3 kernel.  For E8, which is unimodular, kappa is delta's
    class in E8/3E8, and the 3^8 = 6561 counts are the table that
    ``find_delta`` reads.

    Bit-sliced over the roots: bit b of ``ones[i]`` (``twos[i]``) says
    that root b has c_i = 1 (2) mod 3.  Each class's residues are two
    masks, the roots at residue 1 and at residue 2, built from the class
    with kappa_i = 0 by adding kappa_i c_i one basis vector at a time.
    """
    roots, den = _shell_ints(L, 2)
    coeffs = [L._int_coordinates(v, den) for v in roots]
    ones, twos = [], []
    for i in range(L.rank):
        one = two = 0
        for b, x in enumerate(coeffs):
            c = x[i] % 3
            if c == 1:
                one |= 1 << b
            elif c == 2:
                two |= 1 << b
        ones.append(one)
        twos.append(two)
    full = (1 << len(roots)) - 1
    states = [(0, 0)]  # (residue-1 mask, residue-2 mask) per class
    for one, two in zip(ones, twos):
        grown = list(states)
        for a1, a2 in ((one, two), (two, one)):  # kappa_i = 1, then 2
            a0 = full & ~(a1 | a2)
            for r1, r2 in states:
                r0 = full & ~(r1 | r2)
                grown.append(((r0 & a1) | (r1 & a0) | (r2 & a2),
                              (r0 & a2) | (r1 & a1) | (r2 & a0)))
        states = grown
    return [len(roots) - (r1 | r2).bit_count() for r1, r2 in states]


_DELTA_CACHE: tuple | None = None
_CHUNK = 1024  # keys per block of byte lanes in ``find_delta``


def _lane_classes(L: Lattice, keys: list[int], decode) -> tuple[bytes, bytes]:
    """The classes in L/3L of a block of keys of one shell of L, an
    8-dimensional lattice whose shell keys have one-byte digits ``v_j +
    bias`` (coordinate 0 first), as two base-3 halves: byte m of the
    first (second) is ``sum kappa_i 3^i`` over i < 4 (``3^(i-4)`` over
    i >= 4) for key m, kappa_i the pairing of basis vector i with v mod 3.

    With the basis as ``rows / den``, that pairing is ``<rows_i, v> /
    den^2``.  The bytes of the keys, read in steps of 8, are the
    coordinate columns; one big-int combination of them per basis row
    puts ``<rows_i, v> + 128`` in byte m, which needs |<rows_i, v>| <=
    127 (no byte carries into the next): checked by Cauchy-Schwarz on
    the shell's norm.  A 256-byte ``bytes.translate`` table reads the
    pairing mod 3 off each byte (L integral: den^2 divides it), and each
    half is at most 80, so again no byte carries."""
    rows, den = L._scaled
    first = decode(keys[0])
    if max(map(dot, rows, rows)) * dot(first, first) > 127 ** 2:
        raise AssertionError("a pairing may overflow its byte lane")
    bias = keys[0].to_bytes(8, "big")[0] - first[0]
    mod3 = bytes((b - 128) // den ** 2 % 3 for b in range(256))
    n = len(keys)
    blob = b"".join([key.to_bytes(8, "big") for key in keys])
    columns = [int.from_bytes(blob[j::8], "little") for j in range(8)]
    ones = int.from_bytes(b"\1" * n, "little")
    residues = []
    for row in rows:
        lane = (128 - bias * sum(row)) * ones
        for c, column in zip(row, columns):
            if c:
                lane += c * column
        residues.append(int.from_bytes(
            lane.to_bytes(n, "little").translate(mod3), "little"))
    return tuple(sum(3 ** i * r for i, r in enumerate(half)).to_bytes(
        n, "little") for half in (residues[:4], residues[4:]))


def find_delta() -> tuple[tuple, Lattice]:
    """Smallest-norm vector delta (lexicographic tie-break) whose mod-3
    pairing kernel inside the norm-2 shell's lattice is an index-3
    sublattice with determinant 9 and a single 8-node chain of simple
    roots (72 roots in all).

    The shells of norm 2, 4, 6 and 8 are read as sorted packed keys in
    blocks of ``_CHUNK`` keys, so the lane ints stay small, and each
    block's classes in E8/3E8 come from byte lanes (``_lane_classes``).
    E8's int basis rows are twice the simple roots (int norm 8, den 2)
    and a shell vector of norm at most 8 has int norm at most 32, so by
    Cauchy-Schwarz every int pairing lies in [-16, 16], well inside a
    byte lane.  Only a key whose class has 72 kernel roots in the
    ``_class_root_counts`` table is decoded and reaches the lattice
    checks, and the scan stops at the first delta that passes them."""
    global _DELTA_CACHE
    if _DELTA_CACHE is not None:
        return _DELTA_CACHE
    L = e8_lattice()
    counts = _class_root_counts(L)
    den = L._scaled[1]
    for norm in (2, 4, 6, 8):
        keys, decode, _ = _shell_keys(L, norm)
        for start in range(0, len(keys), _CHUNK):
            block = keys[start:start + _CHUNK]
            low, high = _lane_classes(L, block, decode)
            for key, lo, hi in zip(block, low, high):
                if counts[lo + 81 * hi] != 72:
                    continue
                delta = tuple(Q(c, den) for c in decode(key))
                K = kernel_mod3(delta)
                if K.det() != 9 or index_in(K, L) != 3:
                    continue
                if not _classifies_as_A8(K):
                    continue
                _DELTA_CACHE = (delta, K)
                return _DELTA_CACHE
    raise NotFound("no suitable twist vector with norm at most 8")
