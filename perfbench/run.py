"""minorbit benchmark: runs one workload of ``classify`` requests and
prints its metrics.

    python3 perfbench/run.py --workload instances|sweep-mot
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is imported from ``src/`` next to this
directory.  A run is a sequence of passes.  Every pass is one fresh
interpreter (``perfbench/child.py``, with CONCAVITY_THREADS=1) that imports
the package, then sends the pass's requests one at a time, each as one call
of ``minorbit.cli.main(argv)`` with stdout captured.  After MIN_PASSES
passes, passes continue while the next one is expected to end within
``--seconds``.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
every pass also runs a second time with the layer calls wrapped, the two
outputs must agree byte for byte, and the run reports the per-layer metrics
plus the tracing overhead.  Every request's output is checked (see
checker.py).  The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checker import Checker
from workloads import WORKLOADS, pass_requests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".perfbench-spans"
SETUP_PROBES = 5          # extra set-up-only interpreters per run
MIN_PASSES = 2            # so that instances has >= 100 requests
CHILD_TIMEOUT_S = 170

# Single-process measurement.  The classify path makes no BLAS call, but
# numpy starts its BLAS thread pool on import, and on a 2-vCPU machine that
# start made set-up read 0.115 s or 0.175 s depending on the state of the
# other vCPU, so the pools are pinned to one thread (no pool is started).
CHILD_ENV = {"CONCAVITY_THREADS": "1", "PYTHONHASHSEED": "0",
             "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not run: no result is printed."""


def run_child(requests: list[list[str]], trace: bool = False,
              spans_path: Path | None = None) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONOPTIMIZE")}
    env.update(CHILD_ENV)
    job = {"root": str(ROOT), "requests": requests, "trace": trace,
           "spans_path": str(spans_path) if spans_path else None}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py")],
                              input=json.dumps(job), capture_output=True,
                              text=True, env=env, cwd=str(ROOT),
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"pass did not end within {CHILD_TIMEOUT_S}s") from e
    if proc.returncode != 0:
        raise BenchError(f"pass exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return {"git_sha": git.stdout.strip() if git.returncode == 0 else None,
            "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "child_env": CHILD_ENV}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "minorbit" / "__init__.py").is_file():
        raise BenchError(f"no minorbit package under {ROOT / 'src'}")
    refs = json.loads((HERE / "reference_rows.json").read_text())
    checker = Checker(refs)
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        for old in SPANS_DIR.glob(f"spans-{workload}-*.jsonl.gz"):
            old.unlink()

    t_start = time.perf_counter()
    run_child([])  # compiles the bytecode cache outside the measurements
    setups = [run_child([])["setup_s"] for _ in range(SETUP_PROBES)]
    walls, latencies, rss, layers, overheads = [], [], [], [], []
    attempted, failures, pass_durations = 0, [], []
    r = 0
    while True:
        t_pass = time.perf_counter()
        reqs = pass_requests(workload, seed, r, refs["forms"])
        argvs = [q["argv"] for q in reqs]
        plain = run_child(argvs)
        traced = (run_child(argvs, True, SPANS_DIR /
                            f"spans-{workload}-pass{r}.jsonl.gz")
                  if trace else None)
        setups.append(plain["setup_s"])
        walls.append(plain["wall_s"])
        rss.append(plain["peak_rss_mb"])
        for k, (q, res) in enumerate(zip(reqs, plain["results"])):
            attempted += 1
            latencies.append(res["ms"])
            why = checker.problem(q, res)
            if why is None and traced is not None:
                tres = traced["results"][k]
                if (tres["rc"], tres["out"]) != (res["rc"], res["out"]):
                    why = "traced output differs from untraced output"
            if why is not None:
                failures.append((q["argv"], why))
        if traced is not None:
            layers.append(traced["layers"])
            overheads.append(traced["wall_s"] - plain["wall_s"])
        pass_durations.append(time.perf_counter() - t_pass)
        r += 1
        elapsed = time.perf_counter() - t_start
        if (r >= MIN_PASSES
                and elapsed + statistics.mean(pass_durations) > seconds):
            break

    if trace:
        metrics = {name: (statistics.median(l[name] for l in layers), unit)
                   for name, unit in layer_units(layers[0])}
        metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    else:
        metrics = {"setup_s": (statistics.median(setups), "s"),
                   "wall_s": (statistics.median(walls), "s"),
                   "request_ms_p50": (percentile(latencies, 0.5), "ms"),
                   "request_ms_p90": (percentile(latencies, 0.9), "ms"),
                   "peak_rss_mb": (statistics.median(rss), "MB")}
    return {"passes": r, "walls": walls, "attempted": attempted,
            "failures": failures, "metrics": metrics}


def layer_units(sample: dict):
    for name in sample:
        if name.endswith("_s"):
            yield name, "s"
        elif name.endswith("_frac"):
            yield name, "ratio"
        else:
            yield name, "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="minorbit benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1

    failed = len(res["failures"])
    for argv_, why in res["failures"][:10]:
        print(f"FAILED {' '.join(argv_)}: {why}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{res['passes']} passes, {res['attempted']} requests, pass walls "
          + " ".join(f"{w:.3f}" for w in res["walls"]) + " s")
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:28s} {value:14.6f} {unit}")
    print(f"  {'fail_frac':28s} {failed / res['attempted']:14.6f} "
          f"ratio ({failed}/{res['attempted']})")
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
