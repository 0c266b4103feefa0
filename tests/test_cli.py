"""Command-line surface: subcommands, JSON shape, exit codes."""

import contextlib
import io
import json
import math
import tempfile
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from weyl_ising import cli
from weyl_ising.axes import AxisAlgebra, from_root_system, virasoro
from weyl_ising.permgrp import (
    contains_minus_one,
    miyamoto_group,
    transposition_profile,
    weyl_group,
)
from weyl_ising.rootsys import build_root_system
from weyl_ising.triality import (
    twisted_axes,
    twisted_axis_algebra,
    twisted_group,
)

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report


def by_name(report):
    return {c["name"]: c for c in report["checks"]}


def test_roots_e8(capsys):
    code, report = run(capsys, "roots", "E", "8")
    assert code == 0
    assert report["schema"] == 1
    assert report["tool"] == "weyl-ising"
    assert report["status"] == "pass"
    checks = by_name(report)
    assert checks["root_count"]["actual"]["exact"] == "240"
    assert checks["coxeter_number"]["actual"]["exact"] == "30"
    assert checks["m_alpha_uniform"]["actual"][0]["exact"] == "56"


def test_roots_a1(capsys):
    code, report = run(capsys, "roots", "A", "1")
    assert code == 0
    checks = by_name(report)
    assert checks["root_count"]["actual"]["exact"] == "2"
    assert checks["positive_root_count"]["actual"]["exact"] == "1"


def test_roots_unsupported_kind():
    with pytest.raises(SystemExit) as err:
        cli.main(["roots", "B", "2"])
    assert err.value.code == 2


def test_roots_unsupported_rank(capsys):
    code, _ = run(capsys, "roots", "E", "5")
    assert code == 2


def test_lattice_a2(capsys):
    code, report = run(capsys, "lattice", "A", "2")
    assert code == 0
    checks = by_name(report)
    assert checks["block_discriminant"]["status"] == "pass"
    assert checks["t_product_order_adjacent"]["actual"]["exact"] == "3"
    assert checks["t_product_order_orthogonal"]["status"] == "skipped"


def test_lattice_a1_skips_both_t_orders(capsys):
    """A1 has one simple root, so neither t-involution pair exists; both
    checks are recorded as skipped."""
    code, report = run(capsys, "lattice", "A", "1")
    assert code == 0
    checks = by_name(report)
    assert checks["t_product_order_adjacent"] == cli.skipped(
        "t_product_order_adjacent", "no adjacent simple pair at this rank")
    assert checks["t_product_order_orthogonal"]["status"] == "skipped"


def test_lattice_d5_checks_block_rssd_past_rank_24(capsys):
    """The rank-40 realization of D5 is past the shell cap of
    ``lattice --shell``, but ``realization_no_norm2`` runs with its own
    cap and RSSD is read off solves, so both run there and pass."""
    code, report = run(capsys, "lattice", "D", "5")
    assert code == 0
    checks = by_name(report)
    assert checks["realization_no_norm2"] == cli.check(
        "realization_no_norm2", 0, 0)
    assert checks["block_rssd"] == cli.check("block_rssd", True, True)


def test_lattice_shell_flag(capsys):
    code, report = run(capsys, "lattice", "A", "2", "--shell", "2")
    assert code == 0
    assert report["shells"] == {"2": []}


def test_lattice_shell_rank_cap(capsys):
    """The rank-64 realization of E8 is refused by ``shell`` itself
    (``RankTooLarge``), reported as exit 2 with no report."""
    assert cli.main(["lattice", "E", "8", "--shell", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rank 64 exceeds enumeration cap 24" in captured.err


def test_griess_a2_oracle(capsys):
    code, report = run(capsys, "griess", "A", "2", "--oracle")
    assert code == 0
    checks = by_name(report)
    assert checks["central_charge"]["actual"]["exact"] == "16/11"
    assert checks["oracle_agreement"]["actual"] == "3/3 pairs"
    assert checks["oracle_agreement"]["status"] == "pass"


def test_griess_d4(capsys):
    code, report = run(capsys, "griess", "D", "4")
    assert code == 0
    checks = by_name(report)
    assert checks["dimension"]["actual"]["exact"] == "12"
    assert checks["central_charge"]["actual"]["exact"] == "16/3"
    assert checks["oracle_agreement"]["status"] == "skipped"


def test_griess_e7_charge(capsys):
    code, report = run(capsys, "griess", "E", "7")
    assert code == 0
    assert by_name(report)["central_charge"]["actual"]["exact"] == "21"


def test_griess_oracle_restriction(capsys):
    """The oracle sweep runs beyond kind A and announces its size."""
    assert cli.main(["griess", "D", "4", "--oracle"]) == 0
    captured = capsys.readouterr()
    assert "oracle sweep: 66 pairs" in captured.err
    checks = by_name(json.loads(captured.out))
    assert checks["oracle_agreement"]["actual"] == "66/66 pairs"
    assert checks["oracle_agreement"]["status"] == "pass"


def test_griess_oracle_counts_typed_errors_as_disagreement(capsys, monkeypatch):
    """A product that raises NonRealCocycle disagrees: the sweep and
    criterion 1 fail with exit 1 and the message on stderr, not a
    traceback."""
    from weyl_ising.cocycle import CocycleTable
    monkeypatch.setattr(CocycleTable, "eps0_residues",
                        lambda self, row, coords: bytes([2]) * coords.count)
    assert cli.main(["griess", "A", "3", "--oracle"]) == 1
    captured = capsys.readouterr()
    assert "NonRealCocycle: pair ((" in captured.err
    assert "produced the non-real unit z^2" in captured.err
    assert "Fraction" not in captured.err
    check = by_name(json.loads(captured.out))["oracle_agreement"]
    assert check["status"] == "fail"
    assert check["actual"] == "3/15 pairs"
    results = cli._criterion_1()
    failed = [c for c in results if c["status"] == "fail"]
    assert len(results) == 15 and len(failed) == 12
    assert all(c["actual"] == "oracle differs" for c in failed)


def test_griess_oracle_catches_a_wrong_product(capsys, monkeypatch):
    """A product that returns a wrong value without raising disagrees:
    doubling every product keeps the three zero 2B products and breaks
    the twelve 3C ones."""
    product = cli.oracle_product
    monkeypatch.setattr(cli, "oracle_product",
                        lambda u, v: product(u, v) + product(u, v))
    code, report = run(capsys, "griess", "A", "3", "--oracle")
    assert code == 1
    check = by_name(report)["oracle_agreement"]
    assert check["status"] == "fail"
    assert check["actual"] == "3/15 pairs"


def test_griess_is_conformal_catches_a_wrong_vector(capsys, monkeypatch):
    """A Virasoro solve that returns 2w, with w's norm and charge, passes
    the charge checks and fails ``is_conformal``: 2w acts on every axis
    as multiplication by 4."""
    solve = cli.virasoro

    def doubled(A):
        rep = solve(A)
        return replace(rep, vector={a: 2 * c for a, c in rep.vector.items()})

    monkeypatch.setattr(cli, "virasoro", doubled)
    code, report = run(capsys, "griess", "A", "3")
    assert code == 1
    checks = by_name(report)
    assert checks["is_conformal"]["status"] == "fail"
    assert checks["central_charge"]["status"] == "pass"


def test_griess_is_conformal_catches_a_wrong_product(capsys, monkeypatch):
    """With the Virasoro solve left alone and the int product corrupted
    after it (one more unit on the first term of every product),
    ``is_conformal`` fails while the charge checks pass."""
    solve, ints = cli.virasoro, AxisAlgebra._product_ints

    def corrupted(self, ut, vt):
        out = ints(self, ut, vt)
        for i in out:
            out[i] += 1
            break
        return out

    def solve_then_corrupt(A):
        rep = solve(A)
        monkeypatch.setattr(AxisAlgebra, "_product_ints", corrupted)
        return rep

    monkeypatch.setattr(cli, "virasoro", solve_then_corrupt)
    code, report = run(capsys, "griess", "A", "3")
    assert code == 1
    checks = by_name(report)
    assert checks["is_conformal"]["status"] == "fail"
    assert checks["central_charge"]["status"] == "pass"


def test_group_a3(capsys):
    code, report = run(capsys, "group", "A", "3")
    assert code == 0
    assert report["miyamoto_order"] == 24
    assert report["weyl_order"] == 24
    assert report["minus_one_in_weyl"] is False
    checks = by_name(report)
    assert checks["miyamoto_equals_weyl_quotient"]["status"] == "pass"
    assert checks["order3_pair_count"]["actual"]["exact"] == "12"


def test_triality_3(capsys):
    code, report = run(capsys, "triality", "3")
    assert code == 0
    checks = by_name(report)
    assert checks["group_order"]["actual"]["exact"] == "18"
    assert checks["central_charge"]["actual"]["exact"] == "4"
    assert checks["shape"]["actual"] == "3^1:S_3"
    assert report["delta"].startswith("(-5/2, -1/2")


def test_triality_too_small(capsys):
    assert run(capsys, "triality", "2")[0] == 2


def test_audit_pass(tmp_path, capsys):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"gram": [[2, -1], [-1, 2]]}))
    code, report = run(capsys, "audit", str(path))
    assert code == 0
    assert report["details"] == {"rank": 2, "integral": True, "even": True,
                                 "discriminant": [3]}


def test_audit_rational_entries(tmp_path, capsys):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"gram": [["1/2", 0], [0, "3/2"]]}))
    code, report = run(capsys, "audit", str(path))
    assert code == 0
    assert report["details"]["integral"] is False


def test_audit_indefinite(tmp_path, capsys):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"gram": [[0, 1], [1, 0]]}))
    code, report = run(capsys, "audit", str(path))
    assert code == 1
    assert by_name(report)["positive_definite"]["status"] == "fail"


def test_audit_not_symmetric(tmp_path, capsys):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"gram": [[2, 1], [0, 2]]}))
    code, report = run(capsys, "audit", str(path))
    assert code == 1
    checks = by_name(report)
    assert checks["square_symmetric"]["status"] == "fail"
    assert checks["positive_definite"]["status"] == "skipped"


def test_audit_smith_did_not_converge(tmp_path, capsys, monkeypatch):
    """A Smith reduction past its round cap is exit 2, not a traceback;
    a Hermite step that leaves its rows alone never converges."""
    from weyl_ising import linalg
    monkeypatch.setattr(linalg, "hnf", lambda rows: [list(r) for r in rows])
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"gram": [[2, -1], [-1, 2]]}))
    assert cli.main(["audit", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Smith reduction did not converge" in captured.err


def test_audit_usage_errors(tmp_path, capsys):
    assert run(capsys, "audit", str(tmp_path / "missing.json"))[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert run(capsys, "audit", str(bad))[0] == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"matrix": []}))
    assert run(capsys, "audit", str(wrong))[0] == 2
    for name, content in [
        ("not-utf8", b'{"gram": [[2]]}\xff'),
        ("long-int", b'{"gram": [[' + b"1" * 4301 + b"]]}"),
        ("deep", b"[" * 100_000 + b"]" * 100_000),
        ("big-exponent", b'{"gram": [["1e10000000"]]}'),
        ("small-exponent", b'{"gram": [["1E-4_301"]]}'),
        ("long-digits", b'{"gram": [["1.' + b"1" * 4300 + b'"]]}'),
    ]:
        unreadable = tmp_path / f"{name}.json"
        unreadable.write_bytes(content)
        start = time.perf_counter()
        assert run(capsys, "audit", str(unreadable)) == (2, None)
        assert time.perf_counter() - start < 1


@pytest.mark.parametrize("payload", [
    {"gram": {"2": 0}},
    {"gram": "2"},
    {"gram": ["2"]},
    {"gram": []},
    {"gram": [[2]], "extra": 1},
])
def test_audit_rejects_malformed_gram(tmp_path, capsys, payload):
    """Non-list grams, rows that are not lists, an empty gram and unknown
    keys are usage errors, not a 1x1 or 0x0 Gram that passes."""
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(payload))
    code, report = run(capsys, "audit", str(path))
    assert code == 2
    assert report is None


def test_audit_refuses_a_gram_past_the_size_cap(tmp_path, capsys):
    """A Gram with more than MAX_AXES rows is exit 2 before any entry is
    converted or eliminated."""
    n = cli.MAX_AXES + 1
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"gram": [[int(i == j) for j in range(n)]
                                         for i in range(n)]}))
    start = time.perf_counter()
    code, report = run(capsys, "audit", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert report is None


def test_output_file_deterministic(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert cli.main(["roots", "A", "2", "-o", str(first)]) == 0
    out = capsys.readouterr().out
    assert out == ""
    assert cli.main(["roots", "A", "2", "-o", str(second)]) == 0
    a = first.read_bytes()
    assert a == second.read_bytes()
    assert a.endswith(b"\n")
    assert b"\r" not in a


def test_report_max_n_floor(capsys):
    assert run(capsys, "report", "--max-n", "5")[0] == 2


def test_report_plumbing(monkeypatch, capsys):
    """Report assembly: prefixed unique names, deterministic order,
    failure propagates to the exit code."""
    fake = [
        ("alpha", lambda: [cli.check("one", 1, 1), cli.check("two", 2, 2)]),
        ("beta", lambda: [cli.check("one", True, False)]),
    ]
    monkeypatch.setattr(cli, "ACCEPTANCE", fake)
    code, report = run(capsys, "report")
    assert code == 1
    names = [c["name"] for c in report["checks"]]
    assert names == ["01 alpha: one", "01 alpha: two", "02 beta: one"]
    assert report["status"] == "fail"


def test_render_values():
    from fractions import Fraction as Q
    assert cli._render(Q(16, 11)) == {"exact": "16/11",
                                      "approx": 16 / 11}
    assert cli._render(7) == {"exact": "7", "approx": 7.0}
    assert cli._render(True) is True
    assert cli._render(None) is None
    assert cli._render([1, "x"]) == [{"exact": "1", "approx": 1.0}, "x"]


SYSTEMS = ([("A", n) for n in range(1, 11)] + [("D", n) for n in range(4, 11)]
           + [("E", n) for n in (6, 7, 8)] + [("T", n) for n in range(2, 13)])


@pytest.mark.parametrize("kind,rank", SYSTEMS,
                         ids=[f"{k}{r}" for k, r in SYSTEMS])
def test_degree_forms_match_computed(kind, rank):
    """Every closed form the CLI checks against, derived from the degrees
    of the Weyl group or of G(3,3,n) (kind T), equals the value computed
    from the root system or from the twisted axes themselves."""
    forms = cli._forms(kind, rank)
    assert forms.center == math.gcd(*cli._degrees(kind, rank))
    if kind == "T":
        A = twisted_axis_algebra(rank)
        assert forms.positive == len(twisted_axes(rank))
        assert forms.charge == virasoro(A).central_charge
        assert {sum(b != a and A.third(a, b) is not None for b in A.axes)
                for a in A.axes} == {forms.m_alpha}
        if rank >= 3:
            assert forms.miyamoto == twisted_group(A).group.order
    else:
        R = build_root_system(kind, rank)
        A = from_root_system(R)
        assert forms.h == R.coxeter_number()
        assert forms.positive == len(R.positive_roots)
        assert forms.order == weyl_group(R).order
        assert (forms.center == 2) == contains_minus_one(R)
    assert forms.miyamoto == miyamoto_group(A).order
    assert forms.order3 == transposition_profile(A)[3]


def test_size_cap_admits_the_largest_systems_run():
    """D20 (380 axes) is the largest system measured, D18 and A16 run in
    CI; one rank more than the largest admitted of each family is
    refused."""
    for kind, rank in [("A", 27), ("D", 20), ("E", 8), ("T", 16)]:
        cli._admit(kind, rank)
    for kind, rank in [("A", 28), ("D", 21), ("T", 17)]:
        with pytest.raises(cli.UsageError):
            cli._admit(kind, rank)


@pytest.mark.parametrize("argv", [["roots", "A", "100000000"],
                                  ["triality", "100000"],
                                  ["report", "--max-n", "100000"]],
                         ids=" ".join)
def test_oversize_request_exits_2_at_once(argv, capsys):
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "size cap of 400 axes" in captured.err


# Subcommand outputs pinned byte for byte; the goldens under tests/golden
# were written by the CLI before its expected values moved onto the Weyl
# degrees, and bench/golden holds the report that CI also compares.
GOLDEN = [
    (["roots", "E", "8"], "tests/golden/roots_E8.json"),
    (["lattice", "A", "3"], "tests/golden/lattice_A3.json"),
    (["griess", "A", "4"], "tests/golden/griess_A4.json"),
    (["group", "D", "4"], "tests/golden/group_D4.json"),
    (["triality", "4"], "tests/golden/triality_4.json"),
    (["report", "--max-n", "6"], "bench/golden/report_max_n6.json"),
]


@pytest.mark.parametrize("argv,golden", GOLDEN,
                         ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_output_matches_golden(argv, golden, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(argv + ["-o", str(out)]) == 0
    assert out.read_bytes() == (ROOT / golden).read_bytes()


def test_twisted_algebra_built_once_per_n(monkeypatch):
    """``triality_checks``, criterion 9 and criterion 10 build each
    twisted algebra once; the first two hand it to both ``twisted_group``
    and ``virasoro``."""
    built = Counter()

    def counting(n):
        built[n] += 1
        return twisted_axis_algebra(n)

    monkeypatch.setattr(cli, "twisted_axis_algebra", counting)
    cli.triality_checks(4)
    assert built == {4: 1}
    built.clear()
    assert all(c["status"] == "pass" for c in cli._criterion_9())
    assert built == {n: 1 for n in range(2, 8)}
    built.clear()
    assert all(c["status"] == "pass" for c in cli._criterion_10())
    assert built == {4: 1, 5: 1}


# -- the CLI boundary: whatever the argv and the audit file, ``main``
# returns 0, 1 or 2, or argparse exits with 0 or 2; nothing else escapes.
# Ranks, --shell norms and --max-n stay where a run takes milliseconds:
# small systems, or values refused before anything is built.

SMALL = st.integers(1, 4).map(str)
RANKS = st.one_of(SMALL, SMALL, st.integers(-3, 0).map(str),
                  st.sampled_from(["28", "401", "1000000000", "10" * 15]),
                  st.sampled_from(["", "x", "1.5", "0x10"]))
KINDS = st.sampled_from(["A", "A", "D", "E", "B", "a", ""])
# extra tokens: unknown flags, flags missing or stealing their value,
# help, stray positionals; "-7" rather than "7" so that a stolen value
# is never a costly shell norm
EXTRAS = st.sampled_from(["--bogus", "-h", "--shell", "--oracle", "--max-n",
                          "-o", "-7", "A", "report"])
# exponent notation around the refusal bound of 4300 and far past it
EXPONENTS = st.tuples(
    st.sampled_from(["1", "-2.5", "3/", "e"]), st.sampled_from(["e", "E"]),
    st.one_of(st.integers(-4310, 4310), st.integers(-10**7, 10**7))).map(
        lambda t: f"{t[0]}{t[1]}{t[2]}")
ENTRIES = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=4).map(str),
                    st.floats(), st.text(max_size=4), st.booleans(), st.none(),
                    st.lists(st.integers(), max_size=2), EXPONENTS)


def _symmetric(n: int, values: list[int]) -> list[list[int]]:
    return [[values[min(i, j) * n + max(i, j)] for j in range(n)]
            for i in range(n)]


SYMMETRIC = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.integers(-3, 3), min_size=n * n, max_size=n * n).map(
        lambda values: _symmetric(n, values)))
GRAMS = st.one_of(SYMMETRIC, st.lists(st.lists(ENTRIES, max_size=3),
                                      max_size=3))
AUDIT_FILES = st.one_of(
    GRAMS.map(lambda g: json.dumps({"gram": g}).encode()),
    st.dictionaries(st.text(max_size=4), GRAMS, max_size=2).map(
        lambda d: json.dumps(d).encode()),
    st.binary(max_size=24),
    # nesting past the recursion limit, digit strings past int's limit
    st.sampled_from([3, 999, 1001, 100_000]).map(
        lambda d: b'{"gram": ' + b"[" * d + b"]" * d + b"}"),
    st.integers(4290, 4310).map(lambda k: b'{"gram": [[' + b"1" * k + b"]]}"))


@st.composite
def invocations(draw) -> tuple[list[str], bytes]:
    """An argv over every subcommand, and the bytes of gram.json."""
    command = draw(st.sampled_from(["roots", "lattice", "griess", "group",
                                    "triality", "audit", "report"]))
    argv = [command]
    gram = b""
    if command in ("roots", "lattice", "griess", "group"):
        argv += [draw(KINDS), draw(RANKS)]
    elif command == "triality":
        argv.append(draw(RANKS))
    elif command == "audit":
        argv.append(draw(st.sampled_from(["gram.json", "gram.json", ".",
                                          "missing/gram.json"])))
        gram = draw(AUDIT_FILES)
    elif command == "report":
        argv += ["--max-n", draw(RANKS)]
    if command == "lattice" and draw(st.booleans()):
        argv += ["--shell", draw(st.one_of(st.integers(-2, 4).map(str),
                                           st.sampled_from(["", "x"])))]
    if command == "griess" and draw(st.booleans()):
        argv.append("--oracle")
    if draw(st.booleans()):
        argv += ["-o", draw(st.sampled_from(["out.json", "out.json", ".",
                                             "missing/out.json"]))]
    if draw(st.integers(0, 3)) == 0:
        for extra in draw(st.lists(EXTRAS, min_size=1, max_size=2)):
            argv.insert(draw(st.integers(0, len(argv))), extra)
    return argv, gram


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_cli_boundary(invocation):
    """Run in a fresh directory, so that an output path a flag steals
    lands there."""
    argv, gram = invocation
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        Path("gram.json").write_bytes(gram)
        with (contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(io.StringIO())):
            try:
                code = cli.main(argv)
            except SystemExit as exit:
                assert exit.code in (0, 2), argv
            else:
                assert code in (0, 1, 2), argv
