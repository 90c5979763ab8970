"""Compare two sets of benchmark reports (written by ``run.py --report``).

    python3 perfbench/compare.py --base A1.json A2.json ... \\
                                 --new  B1.json B2.json ...

For every workload and end-to-end metric it prints both medians, their
ratio and the quartile spread of each side, and flags a change worse
than the metric's bound in ``BENCHMARK.json``.  Runs made with different
CPU counts are not comparable: the comparison is refused (exit 2).
Exit 1 when any metric regressed beyond its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    """``{(workload, metric): [values]}`` and the set of CPU counts."""
    values = defaultdict(list)
    nprocs = set()
    for path in paths:
        with open(path) as handle:
            report = json.load(handle)
        meta = report["meta"]
        nprocs.add(meta["nproc"])
        if meta["trace"]:
            continue
        for name, metric in report["result"]["metrics"].items():
            values[(meta["workload"], name)].append(metric["value"])
    return values, nprocs


def spread(values) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, base_cpus = load(args.base)
    new, new_cpus = load(args.new)
    if len(base_cpus | new_cpus) != 1:
        print(f"refused: runs were made with different CPU counts "
              f"(base {sorted(base_cpus)}, new {sorted(new_cpus)})",
              file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    gated = {m["name"]: m for m in spec["end_to_end"]}
    regressed = False
    print(f"{'workload':12s} {'metric':18s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s} {'spread b':>9s} {'spread n':>9s}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, name = key
        if name not in gated:
            continue
        b, n = statistics.median(base[key]), statistics.median(new[key])
        bound = gated[name]["bound"]
        worse = (n - b) / b if gated[name]["better"] == "lower" \
            else (b - n) / b
        verdict = "ok"
        if worse > bound:
            verdict = f"REGRESSED (> {bound:.0%})"
            regressed = True
        elif max(spread(base[key]), spread(new[key])) > bound:
            verdict = "unresolved (spread above bound)"
        print(f"{workload:12s} {name:18s} {b:12.5g} {n:12.5g} "
              f"{n / b:9.3f} {spread(base[key]):9.3f} "
              f"{spread(new[key]):9.3f}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
