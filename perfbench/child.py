"""One benchmark role in a fresh process (started by ``run.py``).

    child.py prep     --workload W --seed N --workdir D
    child.py ready    --workload W --seed N --workdir D [--artifact A]
    child.py measure  --workload W --seed N --workdir D --seconds S [...]
    child.py traced   --workload W --seed N --workdir D --seconds S [...]

``prep`` trains the artifact the serve workloads load.  ``ready`` sets
the workload up and prints ``READY <wall time>`` the moment it could
serve; ``run.py`` subtracts the wall time at which it started the
process.  ``measure`` and ``traced`` print
their result as one JSON line prefixed ``perfbench-result``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import layers
import workloads

RESULT_PREFIX = "perfbench-result "


def _workload(args):
    cls = workloads.WORKLOADS[args.workload]
    if args.workload.startswith("serve-"):
        return cls(args.seed, args.workdir, args.artifact)
    return cls(args.seed, args.workdir)


def _emit(payload) -> None:
    sys.stdout.write(RESULT_PREFIX + json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("prep", "ready", "measure",
                                         "traced"))
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--artifact", default="")
    args = parser.parse_args(argv)

    if args.role == "prep":
        import inputs
        path = os.path.join(args.workdir, "artifact")
        workloads.train(inputs.SERVE_CITY, path)
        _emit({"artifact": path})
        return 0

    workload = _workload(args)
    if args.role == "ready":
        cleanup = workload.ready()
        sys.stdout.write(f"READY {time.time()!r}\n")
        sys.stdout.flush()
        cleanup()
        return 0

    if args.role == "measure":
        if workload.one_cpu:
            # A single-process workload runs on one CPU, with the host
            # probes that scale its timings: its threads then hand the
            # GIL over without cross-CPU wake-ups, and the probes time
            # the CPU the work ran on.
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        result = workload.measure(args.seconds)
        metrics = {name: {"value": value,
                          "unit": workloads.E2E_UNITS[name]}
                   for name, value in result.metrics.items()}
    else:
        from repro.obs import validate_trace_file
        result = workload.traced(args.seconds)
        for i, trace in enumerate(result.traces):
            path = os.path.join(args.workdir, f"trace-{i}.json")
            with open(path, "w") as handle:
                json.dump(trace, handle)
            validate_trace_file(path)
            result.lines.append(f"trace {path} validated "
                                f"({len(trace['spans'])} root spans)")
        metrics = {name: {"value": float(result.metrics.get(name, 0.0)),
                          "unit": unit,
                          "measured": name in result.metrics,
                          "moves": moves}
                   for name, (unit, _, moves) in layers.PER_LAYER.items()}
    payload = result.to_dict()
    payload["metrics"] = metrics
    _emit(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
