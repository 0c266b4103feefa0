"""One cold run of a benchmark workload, in a fresh interpreter.

    python3 bench/child.py --workload NAME --seed N [--trace FILE] [--probe]

Imports ``weyl_ising.cli`` from the checkout's ``src``, checks that the
workloads partition ``cli.ACCEPTANCE``, and calls that workload's
criteria (the same functions ``weyl-ising report --max-n 6`` calls) in
an order shuffled by the seed.  The last line on stdout is one JSON
object: ``ready`` and ``done`` (``time.monotonic`` just before the first
criterion and just after the last), the order run, per criterion its
seconds and its checks rendered as canonical JSON, named as ``report``
names them, and ``kernel_s``.

``kernel_s`` tells how fast the machine ran while the criteria ran.  A
``SIGALRM`` handler in the main thread times a fixed kernel (``kernel``,
no ``weyl_ising`` code) every ``KERNEL_PERIOD_S``, in thread CPU time,
and ``kernel_s`` is the harmonic mean of those times: the kernel time at
the machine's mean speed over the run.  The handler needs no second
thread, and the kernel makes no object that the garbage collector
tracks, so it neither waits on nor sets off the library's collections.
It costs about 0.4 % of the wall time.  A traced run has no sampler.

``--probe`` stops at ``ready``: it measures set-up alone, and then times
the kernel in a burst with the collector off (``kernel_s`` again), so
that ``run.py`` can scale the set-up time the same way.  ``--trace``
installs the recorders of ``tracer.py`` on every ``weyl_ising`` module
before the first criterion and writes the spans to FILE at the end.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import signal
import sys
import time
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_N = 6
KERNEL_PERIOD_S = 0.05

# Criterion numbers (1-based positions in cli.ACCEPTANCE) per workload.
WORKLOADS = {
    "oracle-sweep": (1, 2, 8),
    "algebra-groups": (3, 4, 5, 6, 10),
    "lattice-triality": (7, 9),
}
# (a, b): criterion a runs before criterion b whatever the seed.  Criterion
# 5 fills the weyl_group cache that criterion 10 reuses; the other order
# changes algebra-groups' peak RSS by about 2 MB.
RUNS_BEFORE = ((5, 10),)

# Kernels counted without spans: each is called more than about 5 000
# times in some workload, where a span would cost more than the call.
# Their time stays in the self time of the span around them.
CYC8_OPS = tuple(f"cyclotomic.Cyc8.{op}" for op in
                 ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                  "__rmul__", "__truediv__", "__neg__"))
COUNTED = frozenset(CYC8_OPS + tuple(
    f"cyclotomic.Cyc8.{m}" for m in
    ("of", "zeta_pow", "conjugate", "is_real", "is_rational", "as_fraction",
     "unit_exponent")) + (
    "linalg.dot", "linalg.vec_add", "linalg.vec_sub", "linalg.vec_scale",
    "linalg.vec_neg", "linalg.qvec", "linalg.mat_vec",
    "cocycle.CocycleTable.eps0", "cocycle.CocycleTable.eps",
    "cocycle.CocycleTable.block_coordinates",
    "axes.AxisAlgebra.product", "axes.AxisAlgebra.pairing",
    "axes.AxisAlgebra.relation", "axes.AxisAlgebra.element",
    "axes.AxisAlgebra.axis",
    "rootsys.RootSystem.is_root", "rootsys.RootSystem.inner",
    "rootsys.RootSystem.reflect", "rootsys.RootSystem.canonical_positive",
    "rootsys.RootSystem.m_alpha",
    "permgrp.Permutation", "permgrp.Permutation.__mul__",
    "permgrp.Permutation.order", "permgrp.Permutation.cycle_lengths",
    "permgrp.Permutation.inverse", "permgrp.Permutation.is_identity",
    "weight2.canonical_label",
    "triality.canonical_axis", "triality.twisted_tau_image",
    "triality.twisted_tau_image_by_rewriting",
    "triality.TwistedGroupElement.compose",
    "triality.TwistedGroupElement.inverse",
    "triality.TwistedGroupElement.is_identity"))


def _cache_hit(is_cached):
    """Hook recording whether a call was answered from a module-level
    cache: ``is_cached(args)``, read before the call."""
    return (lambda args, kwargs: is_cached(args),
            lambda hit, result: {"hit": hit})


def _after(read):
    """Hook recording ``read(args, kwargs, result)`` after the call."""
    return (lambda args, kwargs: (args, kwargs),
            lambda call, result: read(*call, result))


def _group(g) -> dict:
    return {"degree": g.degree, "order": g.order, "base": len(g.base),
            "strong_generators": len(g.strong_generators)}


def hooks(wi) -> dict:
    """Span attributes read from outside the library: sizes that tell
    which instance a span ran on (``shell`` of E8 at norm 4, ``virasoro``
    on the 120 axes of E8, ...), BSGS counters and cache hits."""
    return {
        "lattice.shell": _after(lambda a, k, r: {
            "rank": a[0].rank, "norm": str(a[1] if len(a) > 1 else k["norm"]),
            "vectors": len(r)}),
        "axes.AxisAlgebra": _after(lambda a, k, r: {"axes": len(a[0].axes)}),
        "axes.virasoro": _after(lambda a, k, r: {"axes": len(a[0])}),
        "permgrp.miyamoto_group": _after(lambda a, k, r: {"axes": len(a[0])}),
        "permgrp.PermGroup": _after(lambda a, k, r: _group(a[0])),
        "linalg.smith_invariants": _after(lambda a, k, r: {"rows": len(a[0])}),
        "weight2.oracle_product": _after(lambda a, k, r: {
            "terms": len(r.exps) + len(r.quad)}),
        "lattice.e8_model": _cache_hit(
            lambda args: wi.lattice._E8_MODEL is not None),
        "permgrp.weyl_group": _cache_hit(
            lambda args: (args[0].kind, args[0].rank) in wi.permgrp._WEYL_CACHE),
        "triality.find_delta": _cache_hit(
            lambda args: wi.triality._DELTA_CACHE is not None),
    }


_KERNEL_OUT: dict = {}


def kernel() -> None:
    """The calibration kernel: a sum of 119 rationals kept as reduced int
    pairs, the big-int arithmetic under the library's ``Fraction`` work,
    with an int-keyed dict store per term.  It is no library code, and
    the objects it makes are ints, which the garbage collector does not
    track, so it cannot set off a collection of the library's objects."""
    num, den, out = 0, 1, _KERNEL_OUT
    for i in range(1, 120):
        b = (i + 7) * (i + 1)
        num, den = num * b + 3 * i * den, den * b
        g = gcd(num, den)
        num, den = num // g, den // g
        out[i] = num % 1000003


def time_kernel() -> float:
    """Median thread CPU time of 25 kernel runs, with the garbage
    collector off."""
    times = []
    gc.disable()
    try:
        for _ in range(25):
            start = time.thread_time()
            kernel()
            times.append(time.thread_time() - start)
    finally:
        gc.enable()
    return sorted(times)[12]


def sample_kernel(period: float = KERNEL_PERIOD_S) -> list[float]:
    """Start timing ``kernel`` every ``period`` seconds from a ``SIGALRM``
    handler; returns the list the times go to.  ``stop_sampling`` ends
    it."""
    times: list[float] = []

    def handler(signum, frame):
        start = time.thread_time()
        kernel()
        times.append(time.thread_time() - start)

    signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, period, period)
    return times


def stop_sampling() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def workload_order(workload: str, seed: int) -> list[int]:
    """The workload's criteria in the order the seed shuffles them into,
    ``RUNS_BEFORE`` kept."""
    order = list(WORKLOADS[workload])
    random.Random(seed).shuffle(order)
    for a, b in RUNS_BEFORE:
        if a in order and b in order:
            i, j = sorted((order.index(a), order.index(b)))
            order[i], order[j] = a, b
    return order


def check_partition(count: int) -> None:
    numbers = sorted(n for crit in WORKLOADS.values() for n in crit)
    if numbers != list(range(1, count + 1)):
        raise SystemExit(f"workloads {WORKLOADS} do not partition the "
                         f"{count} acceptance criteria")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", metavar="FILE")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import weyl_ising
    from weyl_ising import cli
    if not Path(weyl_ising.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"weyl_ising imported from {weyl_ising.__file__}, "
                         f"not from {ROOT / 'src'}")
    check_partition(len(cli.ACCEPTANCE))

    order = workload_order(args.workload, args.seed)
    jobs = []
    tracer = None
    if args.trace:
        import importlib
        import pkgutil
        from tracer import Tracer
        modules = [weyl_ising] + [
            importlib.import_module(f"weyl_ising.{m.name}")
            for m in pkgutil.iter_modules(weyl_ising.__path__)]
        tracer = Tracer(COUNTED, hooks(weyl_ising))
        tracer.install(modules)
    for number in order:
        title, fn = cli.ACCEPTANCE[number - 1]
        if "max_n" in fn.__code__.co_varnames[:fn.__code__.co_argcount]:
            call = lambda fn=fn: fn(MAX_N)  # as cli.report_checks calls it
        else:
            call = fn
        if tracer:
            call = tracer.wrap(call, f"cli.criterion_{number}", "cli")
        jobs.append((number, title, call))

    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready, "kernel_s": time_kernel()}))
        return 0

    samples = [] if tracer else sample_kernel()
    criteria = {}
    for number, title, call in jobs:
        start = time.perf_counter()
        checks = call()
        seconds = time.perf_counter() - start
        rendered = []
        for c in checks:
            c["name"] = f"{number:02d} {title}: {c['name']}"
            rendered.append(json.dumps(c, sort_keys=True))
        criteria[str(number)] = {"seconds": seconds, "checks": rendered}
    done = time.monotonic()
    if tracer:
        kernel_s = None
        tracer.dump(args.trace, {"workload": args.workload, "seed": args.seed,
                                 "ready": ready, "done": done})
    else:
        stop_sampling()
        kernel_s = len(samples) / sum(1 / t for t in samples)
    print(json.dumps({"ready": ready, "done": done, "order": order,
                      "criteria": criteria, "kernel_s": kernel_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
