"""End-to-end benchmark of the travel-time stack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--report PATH]

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (see README.md for why each exists):

    build-mega   disk build of a mega city with HMM re-matching + reopen
    train-mini   spec -> dataset -> pretrain -> fit -> artifact -> reload
    serve-hot    cluster, repeated held-out ODs, open loop + saturation
    serve-live   one process, never-repeating ODs, live speed publishes

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Every heavy step runs in a fresh
child process (``child.py``): set-up probes, the measurement, and for
the serve workloads the training of the artifact they load.  The last
line of standard output is the JSON result; ``--report`` also writes it,
with the run's metadata and traces, for ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("build-mega", "train-mini", "serve-hot", "serve-live")
SETUP_PROBES = 3
BUDGET_S = 170.0
RESULT_PREFIX = "perfbench-result "

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class BenchError(Exception):
    """A step of the benchmark could not run; no result is printed."""


def cpu_ticks():
    """``(steal, total)`` CPU ticks since boot, or ``None`` off Linux."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def metadata(args) -> dict:
    """What a comparison must match: CPU count and software versions."""
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit, "src_sha256": digest.hexdigest(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


class Children:
    """Runs ``child.py`` roles under one overall deadline."""

    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ)
        # Same string hashing in every child: set and dict orders, and
        # the work that follows them, must not change from run to run.
        self.env["PYTHONHASHSEED"] = "0"
        # One BLAS thread per process.  OpenBLAS otherwise starts one
        # thread per CPU in every process (the cluster's workers too)
        # and lets them spin after each call, so a process competes with
        # its own idle BLAS threads for the other vCPU.
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]]
                                   if self.env.get("PYTHONPATH") else []))
        self.artifact = ""

    def _command(self, role: str):
        args = self.args
        return [sys.executable, str(HERE / "child.py"), role,
                "--workload", args.workload, "--seed", str(args.seed),
                "--workdir", str(self.workdir),
                "--seconds", str(args.seconds),
                "--artifact", self.artifact]

    def run(self, role: str):
        """Run one role; returns ``(stdout lines, wall start)``."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"time budget spent before {role}")
        started = time.time()
        proc = subprocess.Popen(self._command(role), cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{role} did not finish within the budget")
        if proc.returncode != 0:
            raise BenchError(f"{role} exited with {proc.returncode}")
        return out.splitlines(), started

    def result(self, role: str) -> dict:
        lines, _ = self.run(role)
        for line in reversed(lines):
            if line.startswith(RESULT_PREFIX):
                return json.loads(line[len(RESULT_PREFIX):])
        raise BenchError(f"{role} printed no result")

    def setup_seconds(self) -> float:
        """Fresh process to ready: the child stamps wall time on READY."""
        lines, started = self.run("ready")
        for line in lines:
            if line.startswith("READY "):
                return float(line.split()[1]) - started
        raise BenchError("ready probe never became ready")


def serve_artifact(children: Children, meta: dict) -> str:
    """The artifact both serve workloads load.  It is the same for every
    seed (the serve city is not seeded), so it is trained once per
    program and benchmark version and kept under ``.bench_build``."""
    digest = hashlib.sha256(meta["src_sha256"].encode())
    for path in sorted(HERE.glob("*.py")):
        digest.update(path.read_bytes())
    cache = ROOT / ".bench_build" / "perfbench" / \
        f"artifact-{digest.hexdigest()[:16]}"
    if not cache.is_dir():
        trained = children.result("prep")["artifact"]
        try:
            os.replace(trained, cache)
        except OSError:         # another run got there first
            if not cache.is_dir():
                raise
    return str(cache)


def run(args) -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {ROOT / 'src'}")
    meta = metadata(args)
    workdir = ROOT / ".bench_build" / "perfbench" / \
        f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        children = Children(args, workdir)
        if args.workload.startswith("serve-"):
            children.artifact = serve_artifact(children, meta)
        probes = []
        if not args.trace:
            probes = [children.setup_seconds()
                      for _ in range(SETUP_PROBES)]
        before = cpu_ticks()
        payload = children.result("traced" if args.trace else "measure")
        after = cpu_ticks()
        # Time the hypervisor gave to other guests: shared hosts slow
        # every metric in bursts, and this is how to tell.
        meta["steal_share"] = (
            (after[0] - before[0]) / max(after[1] - before[1], 1)
            if before and after else None)
        if probes:
            payload["metrics"]["setup_s"] = {
                "value": statistics.median(probes), "unit": "s"}
        payload["setup_probes_s"] = probes
        payload["meta"] = meta
        if args.report:
            for trace in sorted(workdir.glob("trace-*.json")):
                shutil.copy(trace, f"{args.report}.{trace.name}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return payload


def report(payload: dict) -> dict:
    """Print the human-readable report; returns the result line."""
    meta = payload["meta"]
    print(f"perfbench {meta['workload']}  seed={meta['seed']}  "
          f"seconds={meta['seconds']}  trace={meta['trace']}  "
          f"nproc={meta['nproc']}  python={meta['python']}  "
          f"numpy={meta['numpy']}  scipy={meta['scipy']}  "
          f"commit={meta['commit']}  src={meta['src_sha256'][:16]}  "
          f"steal={meta['steal_share']}")
    metrics = payload["metrics"]
    if meta["trace"]:
        print(f"{'per-layer metric':36s} {'value':>14s} {'unit':6s} "
              "should move")
        for name, m in metrics.items():
            value = f"{m['value']:14.6g}" if m["measured"] else \
                f"{'n/a':>14s}"
            print(f"{name:36s} {value} {m['unit']:6s} {m['moves']}")
    else:
        print(f"{'end-to-end metric':20s} {'value':>14s} unit")
        for name in sorted(metrics):
            m = metrics[name]
            print(f"{name:20s} {m['value']:14.6g} {m['unit']}")
        print("setup probes (s): " + ", ".join(
            f"{s:.4f}" for s in payload["setup_probes_s"]))
    for line in payload["lines"]:
        print(line)
    checks_ok = True
    for name, ok, detail in payload["checks"]:
        checks_ok &= ok
        print(f"check {'ok  ' if ok else 'FAIL'} {name}"
              + (f"  [{detail}]" if detail else ""))
    attempted, failed = payload["attempted"], payload["failed"]
    print(f"attempted {attempted}, failed {failed}, failed_ratio "
          f"{failed / max(attempted, 1):.6f}")
    return {"correct": bool(checks_ok and failed == 0 and attempted > 0),
            "attempted": int(attempted), "failed": int(failed),
            "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--report", default="",
                        help="also write the full result to this JSON file")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        payload = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = report(payload)
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(dict(payload, result=result), handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
