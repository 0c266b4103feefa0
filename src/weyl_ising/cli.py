"""Command-line surface: run constructions and emit JSON reports.

Subcommands construct root systems, lattices, Griess algebras, Miyamoto
groups, and twisted axis systems, check them against their expected
exact values, and emit a machine-readable report.  Reports are JSON
with a versioned schema; every rational number appears both as an
exact string ("16/11") and as a decimal approximation.  Identical
inputs produce byte-identical output: check order is fixed and timing
goes to stderr, never into the JSON.

Exit status: 0 when every check passes, 1 when any check fails,
2 on usage errors (an output path that cannot be written among them)
and on refused computations (a system with more than ``MAX_AXES`` axes
or a Gram with more rows, a shell beyond the rank cap, a Smith reduction
past its round cap).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
import time
from fractions import Fraction as Q
from functools import cache
from itertools import product
from operator import mul
from typing import NamedTuple

from . import __version__
from .axes import (
    _is_conformal,
    associative_on_units,
    automorphic_on_units,
    from_root_system,
    gram_positive_definite,
    miyamoto_permutation,
    virasoro,
)
from .cocycle import CocycleTable, check_sign_lemma, scaled
from .lattice import (
    NotRSSD,
    RankTooLarge,
    ade_realization,
    discriminant_group,
    e8_lattice,
    index_in,
    is_RSSD,
    is_SSD,
    malpha_lattice,
    matrix_order,
    shell,
    t_involution,
    tensor,
    verify_identification,
)
from .linalg import (
    SmithDidNotConverge,
    dot,
    ldl_is_positive_definite,
    mat_mul,
    smith_invariants,
)
from .permgrp import (
    contains_minus_one,
    enumerate_elements,
    miyamoto_group,
    transposition_profile,
    weyl_group,
)
from .rootsys import RootSystem, build_root_system
from .triality import (
    abstract_twisted_group,
    find_delta,
    twisted_axis_algebra,
    twisted_group,
)
from .weight2 import (
    NonRealCocycle,
    RootCreated,
    ising_vector,
    oracle_pairing,
    oracle_product,
)

class UsageError(Exception):
    """Bad command-line usage; reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# Report plumbing.
# ---------------------------------------------------------------------------

def _render(value):
    """JSON form of a check value: exact string plus decimal for numbers."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, Q)):
        q = Q(value)
        return {"exact": f"{q.numerator}/{q.denominator}" if q.denominator != 1
                else str(q.numerator),
                "approx": float(q)}
    if isinstance(value, (list, tuple)):
        return [_render(v) for v in value]
    return str(value)


def check(name: str, expected, actual, ok: bool | None = None) -> dict:
    if ok is None:
        ok = expected == actual
    return {"name": name, "status": "pass" if ok else "fail",
            "expected": _render(expected), "actual": _render(actual)}


def skipped(name: str, reason: str) -> dict:
    return {"name": name, "status": "skipped", "expected": reason,
            "actual": None}


def make_report(command: str, parameters: dict, checks: list[dict],
                extra: dict | None = None) -> dict:
    report = {
        "schema": 1,
        "tool": "weyl-ising",
        "version": __version__,
        "command": command,
        "parameters": parameters,
        "checks": checks,
        "status": "fail" if any(c["status"] == "fail" for c in checks)
                  else "pass",
    }
    if extra:
        report.update(extra)
    return report


def emit(report: dict, out_path: str | None) -> int:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as err:
            raise UsageError(f"cannot write report: {err}")
    else:
        sys.stdout.write(text)
    return 0 if report["status"] == "pass" else 1


def _vec(v) -> str:
    return "(" + ", ".join(str(Q(c)) for c in v) + ")"


# ---------------------------------------------------------------------------
# Closed forms: every expected value derives from the degrees of the Weyl
# group (Humphreys, Reflection Groups and Coxeter Groups, CUP 1990, ch. 3)
# or, for the twisted kind T on n blocks, of G(3,3,n), whose quotient by
# its centre is 3^k:S_n (Shephard-Todd, Canad. J. Math. 6, 1954;
# Lehrer-Taylor, Unitary Reflection Groups, CUP 2009, ch. 2 and 4).  h is
# the largest degree, the axis count is sum(d - 1), the order is the
# product of the degrees, and the centre has order gcd(degrees): for W,
# 2 exactly when -1 lies in W.
# ---------------------------------------------------------------------------

MAX_AXES = 400  # admits D20 (380 axes), A27 (378) and T16 (360)


def _degrees(kind: str, rank: int) -> tuple[int, ...]:
    if kind == "A" and rank >= 1:
        return tuple(range(2, rank + 2))
    if kind == "D" and rank >= 4:
        return tuple(range(2, 2 * rank - 1, 2)) + (rank,)
    if kind == "E" and rank in (6, 7, 8):
        return {6: (2, 5, 6, 8, 9, 12), 7: (2, 6, 8, 10, 12, 14, 18),
                8: (2, 8, 12, 14, 18, 20, 24, 30)}[rank]
    if kind == "T" and rank >= 2:
        return tuple(range(3, 3 * rank - 2, 3)) + (rank,)
    raise UsageError(f"unsupported system {kind}{rank}")


class _Forms(NamedTuple):
    """The closed forms of one reflection group of rank n."""
    h: int
    positive: int       # sum(d - 1): |Phi+|, also the number of axes
    m_alpha: int        # 3C partners of each axis
    charge: Q           # central charge 8hn/(h+30)
    norm: Q             # conformal norm, half the charge
    order3: int         # axis pairs whose involutions multiply to order 3
    order: int          # product of the degrees
    center: int         # gcd of the degrees, the order of the centre
    miyamoto: int       # order / center, the Miyamoto group's order


def _forms(kind: str, rank: int) -> _Forms:
    degrees = _degrees(kind, rank)
    h = max(degrees)
    positive = sum(d - 1 for d in degrees)
    m_alpha = 2 * (h - 2)
    charge = Q(8 * h * rank, h + 30)
    order = math.prod(degrees)
    center = math.gcd(*degrees)
    return _Forms(h, positive, m_alpha, charge, charge / 2,
                  positive * m_alpha // 2, order, center, order // center)


def _admit(kind: str, rank: int) -> None:
    """Refuse with ``UsageError``, before anything is built, a system
    that ``_degrees`` does not list or that has more than ``MAX_AXES``
    axes.  Every degree is at least 2, so the axis count is at least
    the rank, and a rank past the cap is refused before its degrees are
    listed."""
    if rank > MAX_AXES or _forms(kind, rank).positive > MAX_AXES:
        name = (f"the twisted system on {rank} blocks" if kind == "T"
                else f"{kind}{rank}")
        raise UsageError(f"{name} is past the size cap of {MAX_AXES} axes")


# ---------------------------------------------------------------------------
# Check builders of the subcommands.  The first three also back the
# acceptance criteria that check the same fact.
# ---------------------------------------------------------------------------

def _charge_checks(forms: _Forms, rep, suffix: str = "") -> list[dict]:
    """Central charge and conformal norm of a Virasoro solve ``rep``."""
    return [check(f"central_charge{suffix}", forms.charge, rep.central_charge),
            check(f"conformal_norm{suffix}", forms.norm, rep.norm)]


def _involutions(R: RootSystem, script):
    """alpha -> t_involution(M_alpha, script), each built once, or None
    where that raises ``NotRSSD``: exactly where ``is_RSSD`` is False."""
    @cache
    def t(alpha):
        try:
            return t_involution(malpha_lattice(R, alpha), script)
        except NotRSSD:
            return None
    return t


def _t_order_checks(R: RootSystem, t, prefix: str) -> list[dict]:
    """Order of t_a t_b, t from ``_involutions``, for the first adjacent
    (order 3) and the first orthogonal (order 2) pair of simple roots,
    each skipped when R has no such pair."""
    simple = R.simple_roots()
    pairs = [(a, b) for i, b in enumerate(simple) for a in simple[:i]]
    out = []
    for label, inner, order in (("adjacent", -1, 3), ("orthogonal", 0, 2)):
        name = f"{prefix}_{label}"
        pair = next((p for p in pairs if R.inner(*p) == inner), None)
        if pair is None:
            out.append(skipped(name, f"no {label} simple pair at this rank"))
        else:
            out.append(check(name, order, matrix_order(mat_mul(*map(t, pair)))))
    return out


def _weyl_quotient(R: RootSystem) -> tuple[int, bool, int]:
    """Computed from R: |W|, whether -1 lies in W, and the order
    |W| / |W meet {1, -1}| that the Miyamoto group must have."""
    order = weyl_group(R).order
    minus_one = contains_minus_one(R)
    return order, minus_one, order // (2 if minus_one else 1)


def roots_checks(R: RootSystem) -> list[dict]:
    forms = _forms(R.kind, R.rank)
    m_values = sorted({R.m_alpha(a) for a in R.roots})
    return [
        check("root_count", 2 * forms.positive, len(R.roots)),
        check("positive_root_count", forms.positive, len(R.positive_roots)),
        check("coxeter_number", forms.h, R.coxeter_number()),
        check("m_alpha_uniform", [forms.m_alpha], m_values),
    ]


def lattice_checks(R: RootSystem) -> list[dict]:
    alpha = R.simple_roots()[0]
    m = malpha_lattice(R, alpha)
    script = ade_realization(R)
    out = [
        check("identification", True, verify_identification(R.kind, R.rank)),
        check("block_discriminant", [2] * 8, list(discriminant_group(m))),
        check("block_even", True, m.is_even()),
        check("block_ssd", True, is_SSD(m)),
        check("block_norm4_count", 240, len(shell(m, 4))),
        check("realization_even", True, script.is_even()),
    ]
    # capped by the admitted systems (A27's rank 216), not SHELL_RANK_CAP:
    # the norm-2 shell is empty and its tree small on the Kronecker basis
    out.append(check("realization_no_norm2", 0,
                     len(shell(script, 2, cap=script.rank))))
    t = _involutions(R, script)
    out.append(check("block_rssd", True, t(alpha) is not None))
    return out + _t_order_checks(R, t, "t_product_order")


def _oracle_verdicts(R: RootSystem, pairs=None):
    """Compare oracle products and pairings with the closed forms over
    ``pairs`` of distinct positive roots (by default all unordered pairs,
    each as (later, earlier)); yields (a, b, kind, agrees) per pair.  A
    product that raises ``NonRealCocycle`` or ``RootCreated`` disagrees;
    its message goes to stderr."""
    A = from_root_system(R)
    if pairs is None:
        pairs = [(a, b) for i, a in enumerate(R.positive_roots)
                 for b in R.positive_roots[:i]]
    vectors: dict = {}

    def vector(a):
        if a not in vectors:
            vectors[a] = ising_vector(malpha_lattice(R, a))
        return vectors[a]

    for a, b in pairs:
        c = A.third(a, b)
        kind = ("2B: zero product, zero pairing" if c is None
                else "3C: (e+f-g)/32 product, 1/256 pairing")
        ea, eb = vector(a), vector(b)
        try:
            prod = oracle_product(ea, eb)
        except (NonRealCocycle, RootCreated) as err:
            print(f"[weyl-ising] oracle {_vec(a)} | {_vec(b)}: "
                  f"{type(err).__name__}: {err}", file=sys.stderr)
            yield a, b, kind, False
            continue
        pair = oracle_pairing(ea, eb)
        if c is None:
            yield a, b, kind, not prod and pair == 0
        else:
            closed = (ea + eb - vector(c)).scale(Q(1, 32))
            yield a, b, kind, prod == closed and pair == Q(1, 256)


def griess_checks(R: RootSystem, oracle: bool) -> list[dict]:
    forms = _forms(R.kind, R.rank)
    A = from_root_system(R)
    rep = virasoro(A)
    out = [
        check("dimension", forms.positive, len(A)),
        check("gram_positive_definite", True, gram_positive_definite(R, A)),
        *_charge_checks(forms, rep),
        check("is_conformal", True, _is_conformal(A, rep.vector)),
    ]
    if oracle:
        verdicts = [ok for _, _, _, ok in _oracle_verdicts(R)]
        agree, total = sum(verdicts), len(verdicts)
        out.append(check("oracle_agreement", f"{total}/{total} pairs",
                         f"{agree}/{total} pairs"))
    else:
        out.append(skipped("oracle_agreement", "run with --oracle"))
    return out


def group_checks(R: RootSystem) -> tuple[list[dict], dict]:
    A = from_root_system(R)
    G = miyamoto_group(A)
    order, minus_one, quotient = _weyl_quotient(R)
    profile = transposition_profile(A)
    checks = [
        check("miyamoto_equals_weyl_quotient", quotient, G.order),
        check("transposition_orders", "subset of {1, 2, 3}",
              "{" + ", ".join(str(k) for k in sorted(profile)) + "}",
              ok=set(profile) <= {1, 2, 3}),
        check("order3_pair_count", _forms(R.kind, R.rank).order3,
              profile.get(3, 0)),
    ]
    extra = {"weyl_order": order, "minus_one_in_weyl": minus_one,
             "miyamoto_order": G.order}
    return checks, extra


def _delta_kernel_checks() -> tuple[tuple, list[dict]]:
    """The twist vector delta and the checks on its mod-3 kernel K: the
    A8 sublattice of E8, with 72 roots, det 9 and index 3."""
    delta, K = find_delta()
    return delta, [
        check("delta_kernel_roots", 72, len(shell(K, 2))),
        check("delta_kernel_det", 9, K.det()),
        check("delta_kernel_index", 3, index_in(K, e8_lattice())),
    ]


def triality_checks(n: int) -> tuple[list[dict], dict]:
    if n < 3:
        raise UsageError("triality needs at least 3 blocks")
    _admit("T", n)
    forms = _forms("T", n)
    # the degrees multiply to 3^(n-1) n!, and a centre of order 3 takes
    # one factor 3 off the kernel
    k = n - 1 if forms.center == 1 else n - 2
    A = twisted_axis_algebra(n)
    report = twisted_group(A)
    delta, kernel = _delta_kernel_checks()
    checks = [
        check("axis_count", forms.positive, len(A)),
        check("group_order", forms.miyamoto, report.group.order),
        check("kernel_order", forms.miyamoto // math.factorial(n),
              report.kernel_order),
        check("pair_action_order", math.factorial(n),
              report.pair_action_order),
        check("shape", f"3^{k}:S_{n}", report.shape),
        check("abstract_order_agrees", report.group.order,
              abstract_twisted_group(n).order),
        check("central_charge", forms.charge, virasoro(A).central_charge),
    ]
    return checks + kernel, {"delta": _vec(delta)}


MAX_DIGITS = 4300  # CPython's default limit on the digits of an int literal
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _rational(x) -> Q:
    """``Fraction(str(x))``, refused (``ValueError``) past ``MAX_DIGITS``
    digits or exponent: ``Fraction("1e10000000")`` builds 10**10000000."""
    text = str(x)
    exponent = _EXPONENT.search(text)
    if (sum(c.isdigit() for c in text) > MAX_DIGITS
            or exponent and abs(int(exponent[1])) > MAX_DIGITS):
        raise ValueError(f"digit count or exponent past {MAX_DIGITS}")
    return Q(text)


def audit_checks(path: str) -> tuple[list[dict], dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError, RecursionError) as err:
        # ValueError covers malformed JSON, a file that is not UTF-8 and
        # an int literal past Python's int-string conversion limit
        raise UsageError(f"cannot read gram file: {err}")
    if not isinstance(payload, dict) or "gram" not in payload:
        raise UsageError('gram file must be a JSON object {"gram": [[...]]}')
    unknown = sorted(set(payload) - {"gram"})
    if unknown:
        raise UsageError(f"unknown keys in gram file: {', '.join(unknown)}")
    rows = payload["gram"]
    if not (isinstance(rows, list) and rows
            and all(isinstance(row, list) for row in rows)):
        raise UsageError("gram must be a nonempty list of rows (lists)")
    if len(rows) > MAX_AXES:
        raise UsageError(f"gram has more than {MAX_AXES} rows")
    try:
        gram = [[_rational(x) for x in row] for row in rows]
    except (ValueError, TypeError, ZeroDivisionError) as err:
        raise UsageError(f"gram entries must be rational numbers: {err}")

    n = len(gram)
    square = all(len(row) == n for row in gram)
    symmetric = square and all(gram[i][j] == gram[j][i]
                               for i in range(n) for j in range(n))
    out = [check("square_symmetric", True, symmetric)]
    details: dict = {"rank": n}
    if symmetric:
        pd = ldl_is_positive_definite(gram)
        out.append(check("positive_definite", True, pd))
        integral = all(c.denominator == 1 for row in gram for c in row)
        details["integral"] = integral
        if integral:
            details["even"] = all(gram[i][i] % 2 == 0 for i in range(n))
            if pd:
                ints = [[int(c) for c in row] for row in gram]
                details["discriminant"] = smith_invariants(ints)
    else:
        out.append(skipped("positive_definite", "gram is not symmetric"))
    return out, {"details": details}


# ---------------------------------------------------------------------------
# Acceptance criteria: the fixed check suite behind the report command.
# ---------------------------------------------------------------------------

def _criterion_1() -> list[dict]:
    """Oracle products and pairings equal the closed forms on all 15
    pairs of positive roots in the rank-3 chain system."""
    return [check(f"oracle {_vec(a)} | {_vec(b)}", kind,
                  kind if ok else "oracle differs", ok=ok)
            for a, b, kind, ok in _oracle_verdicts(build_root_system("A", 3))]


def _criterion_2() -> list[dict]:
    """Ising normalization of the oracle axis vector."""
    R = build_root_system("A", 2)
    e = ising_vector(malpha_lattice(R, R.simple_roots()[0]))
    square = oracle_product(e, e)
    norm = oracle_pairing(e, e)
    return [
        check("e_product_e_is_2e", True, square == e + e),
        check("e_norm", Q(1, 4), norm),
        check("central_charge_half", Q(1, 2), 2 * norm),
    ]


_CHARGE_SYSTEMS = [("A", 2), ("A", 4), ("D", 4), ("E", 6), ("E", 7), ("E", 8)]


def _criterion_3() -> list[dict]:
    """Central charges and conformal norms from the Virasoro solve."""
    out = []
    for kind, rank in _CHARGE_SYSTEMS:
        rep = virasoro(from_root_system(build_root_system(kind, rank)))
        out += _charge_checks(_forms(kind, rank), rep, f" {kind}{rank}")
    return out


def _criterion_4() -> list[dict]:
    """Complementary Virasoro vector inside a 3C triple."""
    A = twisted_axis_algebra(2)
    e, f, g = (A.axis(a) for a in A.axes)
    a = A.element({A.axes[0]: Q(-1, 33), A.axes[1]: Q(32, 33),
                   A.axes[2]: Q(32, 33)})
    double = {k: 2 * c for k, c in a.items()}
    return [
        check("a_product_a_is_2a", True, A.product(a, a) == double),
        check("a_norm", Q(21, 44), A.pairing(a, a)),
        check("e_product_a_is_zero", True, A.product(e, a) == {}),
        check("e_pairing_a_is_zero", Q(0), A.pairing(e, a)),
    ]


_GROUP_SYSTEMS = [("A", 3), ("D", 4), ("E", 6), ("E", 7), ("E", 8)]


def _criterion_5() -> list[dict]:
    """Miyamoto group orders equal Weyl quotients, both sides computed
    independently."""
    out = []
    for kind, rank in _GROUP_SYSTEMS:
        R = build_root_system(kind, rank)
        expected = _forms(kind, rank).miyamoto
        G = miyamoto_group(from_root_system(R))
        quotient = _weyl_quotient(R)[2]
        out.append(check(f"miyamoto_order {kind}{rank}", expected, G.order))
        out.append(check(f"weyl_quotient {kind}{rank}", expected, quotient))
    return out


_PROFILE_SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4),
                    ("D", 5), ("E", 6), ("E", 7), ("E", 8)]


def _criterion_6() -> list[dict]:
    """Transposition profiles and order-3 pair counts."""
    out = []
    for kind, rank in _PROFILE_SYSTEMS:
        R = build_root_system(kind, rank)
        profile = transposition_profile(from_root_system(R))
        out.append(check(f"orders_in_123 {kind}{rank}", True,
                         set(profile) <= {1, 2, 3}))
        out.append(check(f"order3_count {kind}{rank}",
                         _forms(kind, rank).order3, profile.get(3, 0)))
    return out


def _criterion_7() -> list[dict]:
    """Lattice layer: discriminants, tensor unimodularity,
    identifications, involution orders, SSD/RSSD, empty norm-2 shell."""
    out = []
    a2 = build_root_system("A", 2)
    a3 = build_root_system("A", 3)
    m = malpha_lattice(a2, a2.simple_roots()[0])
    out.append(check("block_discriminant_2^8", [2] * 8,
                     list(discriminant_group(m))))
    e8 = e8_lattice()
    t = tensor(e8, e8)
    out.append(check("e8_tensor_e8_even", True, t.is_even()))
    out.append(check("e8_tensor_e8_unimodular", 1, t.det()))
    for kind, rank in [("A", 2), ("A", 3), ("D", 4),
                       ("E", 6), ("E", 7), ("E", 8)]:
        out.append(check(f"identification {kind}{rank}", True,
                         verify_identification(kind, rank)))
    t3 = _involutions(a3, ade_realization(a3))
    out += _t_order_checks(a3, t3, "t_order")
    out.append(check("block_ssd", True, is_SSD(m)))
    script2 = ade_realization(a2)
    out.append(check("block_rssd_A2", True, is_RSSD(m, script2)))
    out.append(check("block_rssd_A3", True,
                     t3(a3.simple_roots()[0]) is not None))
    out.append(check("tensor_no_norm2", 0, len(shell(script2, 2))))
    return out


def _criterion_8() -> list[dict]:
    """Cocycle layer: sign lemma, vanishing on blocks, commutator."""
    out = []
    for kind, rank in [("A", 2), ("A", 3), ("D", 4), ("E", 8)]:
        out.append(check(f"sign_lemma {kind}{rank}", True,
                         check_sign_lemma(build_root_system(kind, rank))))
    for kind, rank in [("A", 2), ("D", 4)]:
        R = build_root_system(kind, rank)
        table = CocycleTable(R.ambient_dim)
        values = set()
        for alpha in R.simple_roots()[:2]:
            mb = [scaled(u) for u in malpha_lattice(R, alpha).basis]
            values |= {table.eps0_scaled(u, v) for u in mb for v in mb}
        out.append(check(f"eps0_zero_on_blocks {kind}{rank}", [0],
                         sorted(values)))
    table = CocycleTable(1)
    rng = random.Random(17)
    # doubled coordinates in ints: 4 <a, b> is the int dot of 2a and 2b
    simple2 = [tuple(int(2 * c) for c in s)
               for s in build_root_system("E", 8).simple_roots()]
    columns = list(zip(*simple2))

    def lattice_vector():
        coeffs = [rng.randrange(-2, 3) for _ in simple2]
        v2 = tuple(sum(map(mul, coeffs, col)) for col in columns)
        return tuple(2 * c for c in v2), v2

    pairs = ((lattice_vector(), lattice_vector()) for _ in range(100))
    holds = all((table.eps0_scaled(a, b) - table.eps0_scaled(b, a)) % 8
                == dot(a2, b2) % 8 for (a, a2), (b, b2) in pairs)
    out.append(check("commutator_identity", True, holds))
    return out


def _criterion_9(max_n: int = 6) -> list[dict]:
    """Triality: kernel sublattice, twisted group orders and kernels,
    abstract agreement, twisted central charges."""
    _, out = _delta_kernel_checks()
    algebras = {n: twisted_axis_algebra(n)
                for n in range(2, max(7, max_n) + 1)}
    for n in range(3, max_n + 1):
        order = _forms("T", n).miyamoto
        report = twisted_group(algebras[n])
        out.append(check(f"twisted_order n={n}", order, report.group.order))
        out.append(check(f"twisted_kernel n={n}", order // math.factorial(n),
                         report.kernel_order))
        out.append(check(f"abstract_agrees n={n}", report.group.order,
                         abstract_twisted_group(n).order))
    for n, A in algebras.items():
        rep = virasoro(A)
        out.append(check(f"twisted_charge n={n}", _forms("T", n).charge,
                         rep.central_charge))
    return out


def _criterion_10() -> list[dict]:
    """Property suites: form associativity, automorphism property,
    positive definiteness, brute-force group orders."""
    out = []
    for kind, rank in [("A", 2), ("A", 3), ("D", 4)]:
        A = from_root_system(build_root_system(kind, rank))
        ok = associative_on_units(A, product(range(len(A)), repeat=3))
        out.append(check(f"associativity_exhaustive {kind}{rank}", True, ok))
    E = from_root_system(build_root_system("E", 8))
    rng = random.Random(5)
    axes = range(len(E))
    triples = [[rng.choice(axes) for _ in range(3)] for _ in range(1000)]
    out.append(check("associativity_random_E8 (1000 triples)", True,
                     associative_on_units(E, triples)))

    for kind, rank in [("A", 3), ("D", 4)]:
        A = from_root_system(build_root_system(kind, rank))
        ok = automorphic_on_units(A, [miyamoto_permutation(A, e)
                                      for e in A.axes])
        out.append(check(f"miyamoto_automorphism {kind}{rank}", True, ok))

    for kind, rank in [("A", 2), ("A", 4), ("D", 4), ("E", 6), ("E", 8)]:
        R = build_root_system(kind, rank)
        out.append(check(f"gram_positive_definite {kind}{rank}", True,
                         gram_positive_definite(R, from_root_system(R))))

    brute_cases = [
        ("weyl A3", weyl_group(build_root_system("A", 3))),
        ("miyamoto D4",
         miyamoto_group(from_root_system(build_root_system("D", 4)))),
        ("twisted n=4", twisted_group(twisted_axis_algebra(4)).group),
        ("twisted n=5", twisted_group(twisted_axis_algebra(5)).group),
    ]
    for label, G in brute_cases:
        brute = len(enumerate_elements(G.generators))
        out.append(check(f"bsgs_vs_bruteforce {label}", brute, G.order))
    return out


ACCEPTANCE = [
    ("oracle equivalence", _criterion_1),
    ("ising normalization", _criterion_2),
    ("central charges", _criterion_3),
    ("3C sub-Virasoro", _criterion_4),
    ("group orders", _criterion_5),
    ("transposition profile", _criterion_6),
    ("lattice layer", _criterion_7),
    ("cocycle layer", _criterion_8),
    ("triality", _criterion_9),
    ("property suites", _criterion_10),
]


def report_checks(max_n: int) -> list[dict]:
    if max_n < 6:
        raise UsageError("--max-n below 6 would drop required checks")
    _admit("T", max_n)
    out = []
    for index, (title, fn) in enumerate(ACCEPTANCE, start=1):
        checks = _criterion_9(max_n) if fn is _criterion_9 else fn()
        for c in checks:
            c["name"] = f"{index:02d} {title}: {c['name']}"
        out.extend(checks)
        print(f"[weyl-ising] criterion {index} ({title}): "
              f"{sum(1 for c in checks if c['status'] == 'pass')}"
              f"/{len(checks)} pass", file=sys.stderr)
    return out


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weyl-ising",
        description="Exact checks for root-indexed axis algebras, their "
                    "Miyamoto groups, and twisted variants.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("-o", "--output", metavar="PATH",
                       help="write the JSON report to PATH instead of stdout")

    p = sub.add_parser("roots", help="root system counts and Coxeter data")
    p.add_argument("kind", choices=["A", "D", "E"])
    p.add_argument("rank", type=int)
    add_out(p)

    p = sub.add_parser("lattice", help="block lattice and realization checks")
    p.add_argument("kind", choices=["A", "D", "E"])
    p.add_argument("rank", type=int)
    p.add_argument("--shell", type=int, metavar="NORM",
                   help="include the realization shell of this norm")
    add_out(p)

    p = sub.add_parser("griess", help="axis algebra and Virasoro checks")
    p.add_argument("kind", choices=["A", "D", "E"])
    p.add_argument("rank", type=int)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check closed forms against the lattice "
                        "oracle")
    add_out(p)

    p = sub.add_parser("group", help="Miyamoto group versus Weyl quotient")
    p.add_argument("kind", choices=["A", "D", "E"])
    p.add_argument("rank", type=int)
    add_out(p)

    p = sub.add_parser("triality", help="twisted axis groups and charges")
    p.add_argument("n", type=int)
    add_out(p)

    p = sub.add_parser("audit", help="audit a Gram matrix from a JSON file")
    p.add_argument("gram_file", metavar="GRAM_JSON")
    add_out(p)

    p = sub.add_parser("report", help="run the full acceptance suite")
    p.add_argument("--max-n", type=int, default=6, dest="max_n",
                   help="largest twisted block count (default 6)")
    add_out(p)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = time.perf_counter()
    try:
        if args.command in ("roots", "lattice", "griess", "group"):
            _admit(args.kind, args.rank)
            R = build_root_system(args.kind, args.rank)
            system = {"kind": args.kind, "rank": args.rank}
        if args.command == "roots":
            report = make_report("roots", system, roots_checks(R))
        elif args.command == "lattice":
            extra = None
            if args.shell is not None:
                vectors = shell(ade_realization(R), args.shell)
                extra = {"shells": {str(args.shell): [_vec(v)
                                                      for v in vectors]}}
            report = make_report("lattice", {**system, "shell": args.shell},
                                 lattice_checks(R), extra)
        elif args.command == "griess":
            if args.oracle:
                n = len(R.positive_roots)
                print(f"[weyl-ising] oracle sweep: {n * (n - 1) // 2} pairs",
                      file=sys.stderr)
            report = make_report("griess", {**system, "oracle": args.oracle},
                                 griess_checks(R, args.oracle))
        elif args.command == "group":
            checks, extra = group_checks(R)
            report = make_report("group", system, checks, extra)
        elif args.command == "triality":
            checks, extra = triality_checks(args.n)
            report = make_report("triality", {"n": args.n}, checks, extra)
        elif args.command == "audit":
            checks, extra = audit_checks(args.gram_file)
            report = make_report("audit", {"gram_file": args.gram_file},
                                 checks, extra)
        elif args.command == "report":
            checks = report_checks(args.max_n)
            report = make_report("report", {"max_n": args.max_n}, checks)
        else:  # pragma: no cover - argparse enforces the choices
            raise UsageError(f"unknown command {args.command!r}")
        code = emit(report, args.output)
    except (UsageError, RankTooLarge, SmithDidNotConverge) as err:
        print(f"weyl-ising: {err}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    print(f"[weyl-ising] {args.command}: {elapsed:.1f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
