"""Steadiness report: repeated benchmark runs of every workload.

    python3 bench/steady.py [--runs 10]

Makes ``--runs`` runs of each workload (seeds ``SEED``, ``SEED``+1, ...),
exactly as ``run.py`` makes them with ``run_seconds`` from
``BENCHMARK.json``, and prints for every end-to-end
metric its median, quartiles and quartile spread ((q3 - q1) / median, as
``statistics.quantiles(values, n=4)`` gives them) with the sample count,
next to the bound in ``BENCHMARK.json``.  It also prints ``failed_frac``
and the same figures for each criterion's seconds, so that a claim about
one criterion can be weighed against that criterion's own spread.
One traced run per workload follows, and its coverage and overhead are
printed.  Writes everything to ``out/steady.json``.  Exit status is 1
if any check failed or differed from golden.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from child import WORKLOADS

SEED = 301  # seed of the first run of each workload


def spread(values: list[float]) -> dict:
    s = run.summary(values)
    s["spread"] = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
    return s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    golden = run.load_golden()
    run.OUT.mkdir(exist_ok=True)

    report, failed = {}, 0
    for workload in WORKLOADS:
        runs = []
        for i in range(args.runs):
            r = run.measure(workload, SEED + i, seconds, False, golden)
            failed += r["failed"]
            runs.append(r)
            print(f"{workload} seed {SEED + i}: "
                  + ", ".join(f"{n} {m['value']:.4g}"
                              for n, m in r["metrics"].items())
                  + f", failed {r['failed']}/{r['attempted']}",
                  file=sys.stderr, flush=True)
        rows = {n: spread([r["metrics"][n]["value"] for r in runs
                           if n in r["metrics"]] or [0.0])
                for n, _ in run.END_TO_END + run.RAW}
        rows["failed_frac"] = spread([r["failed_frac"] for r in runs])
        for c in WORKLOADS[workload]:
            rows[f"criterion_{c}_s"] = spread(
                [s["criterion_s"][str(c)] for r in runs for s in r["samples"]
                 if "criterion_s" in s] or [0.0])
        t = run.measure(workload, SEED, seconds, True, golden)
        failed += t["failed"]
        report[workload] = {"metrics": rows, "runs": runs, "trace": t}

    units = dict(run.END_TO_END + run.RAW, failed_frac="frac")
    print(f"{'workload':17} {'metric':15} {'unit':5} {'n':>3} {'median':>10} "
          f"{'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
    for workload, entry in report.items():
        for name, s in entry["metrics"].items():
            bound = bounds.get(name)
            flag = " WIDE" if bound is not None and s["spread"] > bound / 3 else ""
            print(f"{workload:17} {name:15} {units.get(name, 's'):5} {s['n']:3d} "
                  f"{s['median']:10.4f} {s['q1']:10.4f} {s['q3']:10.4f} "
                  f"{s['spread']:7.3f} "
                  + (f"{bound:6.2f}" if bound is not None else " " * 6) + flag)
        m = entry["trace"]["metrics"]
        for name in ("trace_coverage_frac", "trace_overhead_frac"):
            if name in m:
                print(f"{workload:17} {name:25} {m[name]['value']:.4f}")
    with open(run.OUT / "steady.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
