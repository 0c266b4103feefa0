"""Order-3 twists of block axes and the 3^k:S_n groups they generate.

Blocks 0..n-1 each carry an order-3 symmetry rho_i.  The twisted axis
set consists of rho_i^l(e^{i,j}) for i < j and l mod 3, subject to the
identification rho_i^l(e^{i,j}) = rho_j^{-l}(e^{i,j}).  Two relations
drive everything:

    tau_{e^{i,j}} rho_t tau_{e^{i,j}}^{-1} = rho_{(i j)(t)}
    rho_t(e^{p,q}) = e^{p,q}              when t is not p or q

The involution attached to a twisted axis is the conjugate
rho_i^l tau_{e^{i,j}} rho_i^{-l}; its action on any axis follows by
pushing rho factors through tau and re-canonicalizing.  A literal
word-rewriting implementation of the same rules serves as an
independent check on the closed-form action.

A separate abstract model composes pairs (permutation, twist vector)
directly; comparing its order with the permutation group built from
the axis action validates the exponent bookkeeping end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import factorial, lcm
from operator import mul

from .axes import SAME, TWO_B, AxisAlgebra, ThreeC
from .lattice import (
    Lattice,
    _shell_ints,
    e8_lattice,
    from_generators,
    index_in,
    shell,
)
from .linalg import dot
from .permgrp import PermGroup, Permutation, closure
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


def canonical_axis(i: int, j: int, ell: int) -> TwistedAxis:
    """Canonical form, using rho_i^l(e^{i,j}) = rho_j^{-l}(e^{i,j})."""
    if i == j:
        raise ValueError("block indices must differ")
    if i > j:
        i, j, ell = j, i, -ell
    return TwistedAxis(i, j, ell % 3)


def twisted_axes(n: int) -> tuple[TwistedAxis, ...]:
    """All 3*n(n-1)/2 axes for n blocks, in deterministic order."""
    if n < 2:
        raise ValueError("need at least two blocks")
    return tuple(TwistedAxis(i, j, ell)
                 for i in range(n) for j in range(i + 1, n)
                 for ell in range(3))


def _act_rho(block: int, exp: int, axis: TwistedAxis) -> TwistedAxis:
    """rho_block^exp applied to an axis vector."""
    if block == axis.i:
        return canonical_axis(axis.i, axis.j, axis.ell + exp)
    if block == axis.j:
        return canonical_axis(axis.i, axis.j, axis.ell - exp)
    return axis


def _act_tau(i: int, j: int, axis: TwistedAxis) -> TwistedAxis:
    """tau_{e^{i,j}} applied to an axis vector: conjugating the rho
    prefix swaps blocks i and j, and the base axis transposes its
    indices."""
    def swap(t: int) -> int:
        return j if t == i else i if t == j else t

    return canonical_axis(swap(axis.i), swap(axis.j), axis.ell)


def twisted_tau_image(t: TwistedAxis, u: TwistedAxis) -> TwistedAxis:
    """Image of axis u under the involution of axis t, computed from
    the conjugated word rho_i^l tau rho_i^{-l}."""
    w = _act_rho(t.i, -t.ell, u)
    w = _act_tau(t.i, t.j, w)
    return _act_rho(t.i, t.ell, w)


def twisted_tau_image_by_rewriting(t: TwistedAxis, u: TwistedAxis) -> TwistedAxis:
    """Same image, by literal rewriting of the symbol word to the
    normal form rho-prefix . base-axis; independent of the closed-form
    push-through above."""
    word: list[tuple] = [
        ("rho", t.i, t.ell),
        ("tau", t.i, t.j),
        ("rho", t.i, (-t.ell) % 3),
        ("rho", u.i, u.ell),
    ]
    base = (u.i, u.j)

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
    return canonical_axis(base[0], base[1], exponent)


def twisted_tau(t: TwistedAxis, n: int) -> Permutation:
    """The involution of axis t as a permutation of twisted_axes(n)."""
    axes = twisted_axes(n)
    index = {a: k for k, a in enumerate(axes)}
    return Permutation(tuple(index[twisted_tau_image(t, u)] for u in axes))


def twisted_axis_algebra(n: int) -> AxisAlgebra:
    """The 2B/3C algebra on the twisted axes: orthogonal exactly when
    the block pairs are disjoint, otherwise a 3C triple closed by the
    involution action."""
    def relation(a: TwistedAxis, b: TwistedAxis):
        if a == b:
            return SAME
        if {a.i, a.j} & {b.i, b.j}:
            return ThreeC(twisted_tau_image(a, b))
        return TWO_B

    return AxisAlgebra(twisted_axes(n), relation)


@dataclass(frozen=True)
class TwistedGroupReport:
    """Permutation group of the twisted involutions with its shape data."""

    group: PermGroup
    pair_action_order: int
    kernel_order: int
    shape: str


def twisted_group(n: int) -> TwistedGroupReport:
    """Group generated by all twisted involutions, with the order of its
    image acting on block pairs and the kernel order 3^k."""
    if n < 3:
        raise ValueError("need at least three blocks")
    axes = twisted_axes(n)
    gens = [twisted_tau(t, n) for t in axes]
    G = PermGroup(gens)

    pairs = sorted({(a.i, a.j) for a in axes})
    pair_index = {p: k for k, p in enumerate(pairs)}
    pair_of = [pair_index[(a.i, a.j)] for a in axes]
    pair_gens = []
    for g in gens:
        images: list[int | None] = [None] * len(pairs)
        for x, gx in enumerate(g.images):
            src, dst = pair_of[x], pair_of[gx]
            if images[src] is None:
                images[src] = dst
            elif images[src] != dst:
                raise AssertionError("involution does not act on block pairs")
        pair_gens.append(tuple(images))
    P = PermGroup(pair_gens)

    kernel_order, k = divmod(G.order, P.order)
    if k:
        raise AssertionError("pair action order does not divide the group order")
    power = 0
    m = kernel_order
    while m % 3 == 0:
        m //= 3
        power += 1
    if m != 1:
        raise AssertionError(f"kernel order {kernel_order} is not a power of 3")
    return TwistedGroupReport(group=G, pair_action_order=P.order,
                              kernel_order=kernel_order,
                              shape=f"3^{power}:S_{n}")


@dataclass(frozen=True)
class TwistedGroupElement:
    """Pair (sigma, a): a block permutation with a mod-3 twist vector,
    stored modulo the constant vectors c*(1,..,1) with n*c = 0 mod 3."""

    sigma: tuple[int, ...]
    twist: tuple[int, ...]

    def __post_init__(self):
        n = len(self.sigma)
        if sorted(self.sigma) != list(range(n)) or len(self.twist) != n:
            raise ValueError("need a block permutation and a twist per block")
        shifts = [c for c in range(3) if (n * c) % 3 == 0]
        best = min(tuple((x + c) % 3 for x in self.twist) for c in shifts)
        object.__setattr__(self, "twist", best)

    @staticmethod
    def identity(n: int) -> "TwistedGroupElement":
        return TwistedGroupElement(tuple(range(n)), (0,) * n)

    def compose(self, other: "TwistedGroupElement") -> "TwistedGroupElement":
        """(sigma, a)(sigma', a') = (sigma sigma', a o sigma' + a')."""
        s, a = self.sigma, self.twist
        sp, ap = other.sigma, other.twist
        return TwistedGroupElement(
            tuple(s[sp[k]] for k in range(len(s))),
            tuple((a[sp[k]] + ap[k]) % 3 for k in range(len(s))),
        )

    def inverse(self) -> "TwistedGroupElement":
        inv = [0] * len(self.sigma)
        for k, v in enumerate(self.sigma):
            inv[v] = k
        return TwistedGroupElement(
            tuple(inv),
            tuple((-self.twist[inv[k]]) % 3 for k in range(len(inv))),
        )

    def is_identity(self) -> bool:
        return self == TwistedGroupElement.identity(len(self.sigma))


class AbstractTwistedGroup:
    """The group of pairs (sigma, a) with sum(a) = 0 mod 3, modulo the
    constant-vector kernel; order counted over the twist space by a
    recurrence on coordinate sums mod 3, generators taken from the
    involution relations."""

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
            twist[t.i] = t.ell % 3
            twist[t.j] = (-t.ell) % 3
            gens.append(TwistedGroupElement(tuple(sigma), tuple(twist)))
        self.generators = tuple(gens)

    def closure(self, cap: int = 10_000) -> set[TwistedGroupElement]:
        """Brute-force closure of the generators; raises
        ``ClosureCapExceeded`` past the cap."""
        return closure(TwistedGroupElement.identity(self.n), self.generators,
                       TwistedGroupElement.compose, cap)


def abstract_twisted_group(n: int) -> AbstractTwistedGroup:
    return AbstractTwistedGroup(n)


def kernel_mod3(delta) -> Lattice:
    """{beta : <beta, delta> = 0 mod 3} as a sublattice of the norm-2
    shell's lattice (index 1 or 3)."""
    L = e8_lattice()
    residues = [int(dot(b, tuple(Q(c) for c in delta))) % 3 for b in L.basis]
    pivot = next((k for k, m in enumerate(residues) if m), None)
    if pivot is None:
        return L
    inv = 1 if residues[pivot] == 1 else 2
    gens = [tuple(3 * c for c in L.basis[pivot])]
    for k, b in enumerate(L.basis):
        if k == pivot:
            continue
        f = (residues[k] * inv) % 3
        gens.append(tuple(c - f * p for c, p in zip(b, L.basis[pivot])))
    return from_generators(gens, L.ambient_dim)


def _classifies_as_A8(K: Lattice) -> bool:
    roots = shell(K, 2)
    if len(roots) != 72:
        return False
    simple = simple_system(r for r in roots if sign_normalized(r) == r)
    if len(simple) != 8:
        return False
    edges = 0
    degree = [0] * 8
    adj = [[] for _ in range(8)]
    for a in range(8):
        for b in range(a):
            s = dot(simple[a], simple[b])
            if s not in (0, -1):
                return False
            if s == -1:
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
    # c_i = <omega_i, r> for the dual basis omega
    omega = L.dual_basis()
    wden = lcm(*(c.denominator for w in omega for c in w))
    ones, twos = [], []
    for w in omega:
        w_int = [c.numerator * (wden // c.denominator) for c in w]
        one = two = 0
        for b, v in enumerate(roots):
            c = (sum(map(mul, w_int, v)) // (wden * den)) % 3
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


def find_delta() -> tuple[tuple, Lattice]:
    """Smallest-norm vector delta (lexicographic tie-break) whose mod-3
    pairing kernel inside the norm-2 shell's lattice is an index-3
    sublattice with determinant 9 and a single 8-node chain of simple
    roots (72 roots in all).

    The shells of norm 2, 4, 6 and 8 are read in ints, and a candidate
    reaches the lattice checks only when its class in E8/3E8 has 72
    kernel roots in the ``_class_root_counts`` table."""
    global _DELTA_CACHE
    if _DELTA_CACHE is not None:
        return _DELTA_CACHE
    L = e8_lattice()
    counts = _class_root_counts(L)
    for norm in (2, 4, 6, 8):
        vectors, den = _shell_ints(L, norm)
        # <alpha_i, v / den> = <den alpha_i, v> / den^2, i from the top
        simple = [[int(den * c) for c in a] for a in reversed(L.basis)]
        den2 = den * den
        for v in vectors:
            key = 0
            for a in simple:
                key = 3 * key + (sum(map(mul, a, v)) // den2) % 3
            if counts[key] != 72:
                continue
            delta = tuple(Q(c, den) for c in v)
            K = kernel_mod3(delta)
            if K.det() != 9 or index_in(K, L) != 3:
                continue
            if not _classifies_as_A8(K):
                continue
            _DELTA_CACHE = (delta, K)
            return _DELTA_CACHE
    raise NotFound("no suitable twist vector with norm at most 8")
