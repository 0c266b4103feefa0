"""Self-tests of the benchmark harness: ``python3 -m pytest bench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import textwrap
import time

import pytest

import child
import run
import tracer

TOY_B = """
from toy_clock import CLOCK

def leaf():
    CLOCK[0] += 3.0

def hot(x):
    CLOCK[0] += 0.5
    return x

def fails():
    CLOCK[0] += 1.0
    raise ValueError("boom")
"""

TOY_A = """
from toy_clock import CLOCK
from toy_b import fails, hot, leaf

def outer():
    CLOCK[0] += 2.0
    leaf()
    inner()
    return hot(1) + hot(2)

def inner():
    CLOCK[0] += 1.0
    leaf()

def countdown(k):
    CLOCK[0] += 1.0
    return countdown(k - 1) if k else 0

def swallow():
    try:
        fails()
    except ValueError:
        pass

def _private():
    return leaf()

class Box:
    def __init__(self, v):
        CLOCK[0] += 4.0
        self.v = v

    def get(self):
        return self.v

    def __add__(self, other):
        return Box(self.v + other.v)

    def __repr__(self):
        return "Box"
"""


@pytest.fixture
def toy(tmp_path, monkeypatch):
    for name, src in (("toy_clock", "CLOCK = [0.0]\n"), ("toy_a", TOY_A),
                      ("toy_b", TOY_B)):
        (tmp_path / f"{name}.py").write_text(textwrap.dedent(src))
    monkeypatch.syspath_prepend(str(tmp_path))
    import toy_a
    import toy_b
    import toy_clock
    toy_clock.CLOCK[0] = 0.0
    hooks = {"toy_b.leaf": (lambda args, kwargs: len(args),
                            lambda token, result: {"args": token})}
    t = tracer.Tracer(counted={"toy_b.hot"}, hooks=hooks,
                      clock=lambda: toy_clock.CLOCK[0])
    t.install([toy_a, toy_b])
    yield t, toy_a, toy_b, toy_clock.CLOCK
    t.restore()
    for name in ("toy_clock", "toy_a", "toy_b"):
        sys.modules.pop(name, None)


def _head(t):
    return {"layers": t.layers, "layer_of": t.layer_of, "names": t.names,
            "entries": t.entries, "errors": t.errors}


def _spans(t):
    return [(t.names[s[0]], s[1], s[2],
             t.names[t.spans[s[3]][0]] if s[3] >= 0 else None)
            for s in t.spans]


def test_install_rebinds_imported_names(toy):
    t, a, b, _ = toy
    assert a.leaf is b.leaf and a.leaf.__wrapped__ is not None
    assert a.hot is b.hot
    assert "toy_a._private" not in t.names
    assert {"toy_a.Box", "toy_a.Box.get", "toy_a.Box.__add__"} <= set(t.names)
    assert "toy_a.Box.__repr__" not in t.names
    t.restore()
    assert not hasattr(a.leaf, "__wrapped__")
    assert not hasattr(a.Box.__init__, "__wrapped__")


def test_nesting_and_self_time(toy):
    t, a, _, clock = toy
    assert a.outer() == 3
    assert _spans(t) == [
        ("toy_a.outer", 0.0, 10.0, None),
        ("toy_b.leaf", 2.0, 5.0, "toy_a.outer"),
        ("toy_a.inner", 5.0, 9.0, "toy_a.outer"),
        ("toy_b.leaf", 6.0, 9.0, "toy_a.inner"),
    ]
    self_s = dict(zip(t.layers, t.layer_s))
    # outer 2 + inner 1 in toy_a; 2 leaf calls 3 + 3, 2 counted hot calls
    # 0.5 + 0.5 in toy_b
    assert self_s == {"toy_a": 3.0, "toy_b": 7.0}
    assert sum(self_s.values()) == tracer.root_time(t.spans) == clock[0]
    entries = dict(zip(t.layers, tracer.layer_totals(_head(t), "entries")))
    assert entries == {"toy_a": 1, "toy_b": 4}  # 2 leaf + 2 hot
    assert t.calls[t.names.index("toy_b.hot")] == 2


def test_hooks_set_span_attrs(toy):
    t, a, _, _ = toy
    a.outer()
    assert [(t.names[s[0]], s[4]) for s in t.spans] == [
        ("toy_a.outer", None), ("toy_b.leaf", {"args": 0}),
        ("toy_a.inner", None), ("toy_b.leaf", {"args": 0})]


def test_outer_time_counts_recursion_once(toy):
    t, a, _, _ = toy
    a.countdown(3)
    head = {"names": t.names}
    assert len(t.spans) == 4
    assert tracer.outer_time(head, t.spans, ["toy_a.countdown"]) == 4.0


def test_constructor_and_operator_spans(toy):
    t, a, _, _ = toy
    total = a.Box(1) + a.Box(2)
    assert total.get() == 3
    names = [n for n, *_ in _spans(t)]
    assert names == ["toy_a.Box", "toy_a.Box", "toy_a.Box.__add__",
                     "toy_a.Box", "toy_a.Box.get"]


def test_errors_count_only_when_escaping_the_layer(toy):
    t, a, b, _ = toy
    a.swallow()  # fails() raises out of toy_b into toy_a
    with pytest.raises(ValueError):
        b.fails()
    errors = dict(zip(t.layers, tracer.layer_totals(_head(t), "errors")))
    assert errors == {"toy_a": 0, "toy_b": 2}


def test_self_times_and_gaps_add_up_to_elapsed(toy):
    t, a, _, clock = toy
    start = clock[0]
    a.outer()
    clock[0] += 7.0  # untraced work between spans
    a.inner()
    elapsed = clock[0] - start
    gaps = elapsed - tracer.root_time(t.spans)
    assert gaps == 7.0
    assert sum(t.layer_s) + gaps == elapsed


def test_dump_and_load_round_trip(toy, tmp_path):
    t, a, _, _ = toy
    a.outer()
    path = tmp_path / "t.jsonl"
    t.dump(str(path), {"workload": "toy"})
    head, spans = tracer.load(str(path))
    assert head["workload"] == "toy" and spans == t.spans


def test_recorder_cost_is_positive_and_small():
    cost = tracer.recorder_cost(n=2000, repeats=3)
    assert 0 < cost["counted"] < cost["counted_entry"] < 1e-4
    assert 0 < cost["span"] < 1e-4


def test_real_package_rebinding():
    sys.path.insert(0, str(run.ROOT / "src"))
    import weyl_ising
    from weyl_ising import cli, lattice, linalg
    original = lattice.shell
    t = tracer.Tracer(child.COUNTED)
    import importlib
    import pkgutil
    modules = [weyl_ising] + [importlib.import_module(f"weyl_ising.{m.name}")
                              for m in pkgutil.iter_modules(weyl_ising.__path__)]
    t.install(modules)
    try:
        assert cli.shell is lattice.shell is weyl_ising.shell
        assert lattice.shell.__wrapped__ is original
        assert lattice.dot is linalg.dot
        missing = [n for n in ("permgrp.PermGroup", "axes.AxisAlgebra.product",
                               "cocycle.CocycleTable.eps0",
                               "triality.kernel_mod3", "linalg.smith_invariants")
                   + child.CYC8_OPS if n not in t.names]
        assert not missing
        assert set(child.hooks(weyl_ising)) <= set(t.names)
    finally:
        t.restore()
    assert lattice.shell is original and cli.shell is original


# -- golden output and failure accounting ---------------------------------------

def _result_from_golden(golden, numbers):
    return {"ready": 0.0, "done": 1.0, "order": list(numbers),
            "kernel_s": run.KERNEL_REF_S,
            "criteria": {str(n): {"seconds": 0.1, "checks": list(golden[n])}
                         for n in numbers}}


def test_workloads_partition_acceptance_and_golden():
    sys.path.insert(0, str(run.ROOT / "src"))
    from weyl_ising import cli
    child.check_partition(len(cli.ACCEPTANCE))
    golden = run.load_golden()
    assert set(golden) == set(range(1, len(cli.ACCEPTANCE) + 1))
    counts = {w: sum(len(golden[n]) for n in c)
              for w, c in child.WORKLOADS.items()}
    assert counts == {"oracle-sweep": 25, "algebra-groups": 59,
                      "lattice-triality": 36}
    with pytest.raises(SystemExit):
        child.check_partition(len(cli.ACCEPTANCE) + 1)


def test_altered_golden_check_is_reported_failed():
    golden = run.load_golden()
    numbers = child.WORKLOADS["lattice-triality"]
    result = _result_from_golden(golden, numbers)
    assert run.compare(golden, numbers, result) == (36, 0, [])
    check = json.loads(golden[9][4])
    check["actual"] = {"approx": 244.0, "exact": "244"}
    altered = dict(golden)
    altered[9] = golden[9][:4] + [json.dumps(check, sort_keys=True)] + golden[9][5:]
    attempted, failed, bad = run.compare(altered, numbers, result)
    assert (attempted, failed, bad) == (36, 1, [check["name"]])
    # an extra check the golden report lacks fails too
    result["criteria"]["7"]["checks"].append(golden[7][0])
    assert run.compare(golden, numbers, result)[:2] == (37, 1)


def test_measure_fails_every_check_of_a_crashed_child(monkeypatch):
    monkeypatch.setattr(run, "spawn", lambda *a, **k: {
        "wall_s": 1.0, "setup_raw_s": None, "peak_rss_mb": 1.0, "cpu_s": 1.0,
        "returncode": -9, "result": None})
    golden = run.load_golden()
    r = run.measure("oracle-sweep", 1, 1.0, False, golden)
    assert not r["correct"]
    assert r["attempted"] == r["failed"] == 25
    assert r["failed_frac"] == 1.0


def test_measure_reports_an_altered_check(monkeypatch):
    golden = run.load_golden()
    numbers = child.WORKLOADS["oracle-sweep"]
    result = _result_from_golden(golden, numbers)
    result["criteria"]["2"]["checks"][0] = result["criteria"]["2"]["checks"][0] \
        .replace('"pass"', '"fail"')
    monkeypatch.setattr(run, "spawn", lambda *a, **k: {
        "wall_s": 2.0, "setup_raw_s": 0.1, "peak_rss_mb": 20.0, "cpu_s": 2.0,
        "returncode": 0, "result": json.loads(json.dumps(result))})
    r = run.measure("oracle-sweep", 1, 1.0, False, golden)
    assert not r["correct"] and r["failed"] == 1


def test_measure_traced_run_reports_every_layer_metric(toy, tmp_path,
                                                       monkeypatch):
    t, a, _, _ = toy
    a.outer()  # 10 clock units in spans
    golden = run.load_golden()
    result = _result_from_golden(golden, child.WORKLOADS["oracle-sweep"])
    result["kernel_s"] = None  # a traced child samples no kernel

    def spawn(workload, seed, timeout, *, probe=False, trace=None):
        assert trace and not probe
        t.dump(str(trace), {"workload": workload})
        return {"wall_s": 21.0, "setup_raw_s": 1.0, "peak_rss_mb": 20.0,
                "cpu_s": 20.0, "returncode": 0,
                "result": json.loads(json.dumps(result))}

    monkeypatch.setattr(run, "spawn", spawn)
    monkeypatch.setattr(run, "OUT", tmp_path)
    r = run.measure("oracle-sweep", 1, 1.0, True, golden)
    assert r["correct"] and r["attempted"] == 25
    assert list(r["metrics"]) == ([n for n, *_ in run.PER_LAYER]
                                  + [n for n, *_ in run.RUN_METRICS])
    assert r["metrics"]["trace_coverage_frac"]["value"] == 10.0 / 20.0
    assert r["metrics"]["cli.cpu_s"]["value"] == 20.0


@pytest.mark.parametrize("script,timeout,code", [
    ("import sys; print('{\"ready\": 0'); sys.exit(3)", 30.0, 3),
    ("import time; time.sleep(60)", 0.5, -9),
])
def test_spawn_crashed_or_killed_child_counts_as_failed(tmp_path, monkeypatch,
                                                        script, timeout, code):
    fake = tmp_path / "bench"
    fake.mkdir()
    (fake / "child.py").write_text(script)
    monkeypatch.setattr(run, "BENCH", fake)
    sample = run.spawn("oracle-sweep", 1, timeout)
    assert sample["returncode"] == code and sample["result"] is None
    assert sample["wall_s"] < 30
    golden = run.load_golden()
    assert run.compare(golden, child.WORKLOADS["oracle-sweep"], None)[:2] == (25, 25)


def test_probe_measures_setup_and_times_the_kernel():
    sample = run.spawn("algebra-groups", 1, 60.0, probe=True)
    assert sample["returncode"] == 0
    assert 0 < sample["setup_raw_s"] < sample["wall_s"]
    assert 0 < sample["result"]["kernel_s"] < 0.01


def test_kernel_sampler_times_the_kernel_until_stopped():
    samples = child.sample_kernel(period=0.01)
    end = time.monotonic() + 0.3
    while time.monotonic() < end:
        pass
    child.stop_sampling()
    n = len(samples)
    assert n >= 5 and all(0 < t < 0.01 for t in samples)
    time.sleep(0.05)
    assert len(samples) == n


def test_order_follows_the_seed_and_keeps_runs_before():
    orders = {tuple(child.workload_order("algebra-groups", seed))
              for seed in range(40)}
    assert len(orders) > 10
    for order in orders:
        assert sorted(order) == sorted(child.WORKLOADS["algebra-groups"])
        assert order.index(5) < order.index(10)
    assert (child.workload_order("oracle-sweep", 7)
            == child.workload_order("oracle-sweep", 7))


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        [(n, u, b) for n, u, b, _ in run.PER_LAYER] + list(run.RUN_METRICS))
    assert [w["name"] for w in spec["workloads"]] == list(child.WORKLOADS)
    for layer in run.LAYERS:
        for what in ("calls", "self_s", "errors"):
            assert f"{layer}.{what}" in {m["name"] for m in spec["per_layer"]}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""


def test_wall_and_setup_scale_by_the_kernel(monkeypatch):
    golden = run.load_golden()
    result = _result_from_golden(golden, child.WORKLOADS["oracle-sweep"])
    result["kernel_s"] = 4 * run.KERNEL_REF_S  # a machine at a quarter speed
    probe_result = {"ready": 0.0, "kernel_s": 2 * run.PROBE_KERNEL_REF_S}
    setups = iter(0.1 * (i + 1) for i in range(run.PROBES))

    def spawn(*args, probe=False, **kwargs):
        return {"wall_s": 0.2 if probe else 3.0,
                "setup_raw_s": next(setups) if probe else 0.1,
                "peak_rss_mb": 20.0, "cpu_s": 3.0, "returncode": 0,
                "result": json.loads(json.dumps(probe_result if probe
                                                else result))}

    monkeypatch.setattr(run, "spawn", spawn)
    r = run.measure("oracle-sweep", 1, 1.0, False, golden)
    assert r["correct"] and r["failed"] == 0
    assert r["metrics"]["wall_ref_s"]["value"] == 3.0 / 4 ** run.WALL_EXPONENT
    assert r["metrics"]["wall_s"]["value"] == 3.0
    setup = r["metrics"]["setup_s"]  # median of 0.05, 0.10, ..., 0.75
    assert setup["value"] == pytest.approx(0.05 * 8)
    assert setup["n"] == run.PROBES
