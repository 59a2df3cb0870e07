"""Alternating parent/change benchmark pairs, written as a BENCH_<n>.json.

    python3 tools/bench.py --parent REV --change REV --out BENCH_<n>.json
                           [--seed S]

Exports the two git revisions of this repository with `git archive` into a
temporary directory, then, for every workload of BENCHMARK.json, runs
`perfbench/run.py` of each checkout in turn, 10 times: pair k uses seed
S + k for both sides and runs the parent first when k is even and the
change first when k is odd, so a slow drift of the machine falls on both
sides alike.  Every run is one fresh `run.py` process with its default run
length and `--trace 0`, so every claim runs the same pairs.  Give a seed
that was not used while the change was written.

The output records, per workload and pair, the seed, the order and both
sides' end-to-end metrics (each already a median over the run's passes)
and fail_frac; and per metric each side's median, quartiles and
interquartile range over the pairs, and the number of pairs the change won
(a lower or higher value, as BENCHMARK.json says is better; a tie counts
for neither side).  It also records both git SHAs, the seeds, `nproc` and
the Python version.  Standard library only.

Last, a start-up probe: for each side, 21 fresh `python -S` interpreters
(the sides alternating, after one untimed run each) time the set-up that
`perfbench/child.py` reports as `setup_s`: importing `minorbit.cli`,
building `catalog(8)` and loading the packaged golden table.  `-S` skips
the site hook, which may import modules (`typing`, `importlib.resources`)
before `setup_s` starts; the probe counts them where the package imports
them.  The output records each side's times, median and quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
PROBE_RUNS = 21
# the set-up steps of perfbench/child.py, after the checkout's src is put
# first on sys.path; prints their time in seconds
PROBE = """import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import minorbit.cli as cli
from minorbit import golden, realform
realform.catalog(8)
golden.load_golden(cli.default_golden_path())
print(time.perf_counter() - t0)
"""


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> str:
    """Write the tree of `rev` to `dest`; return its full SHA."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One `perfbench/run.py` run: its metric values and fail_frac."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, cwd=str(checkout))
    if proc.returncode != 0:
        raise RuntimeError(f"run.py failed in {checkout}:\n"
                           f"{proc.stderr[-3000:]}")
    doc = json.loads(proc.stdout.splitlines()[-1])
    out = {name: m["value"] for name, m in doc["metrics"].items()}
    out["fail_frac"] = doc["failed"] / doc["attempted"]
    return out


def probe_once(checkout: Path) -> float:
    """One start-up probe in a fresh `python -S`: its set-up seconds.  As
    in `perfbench/run.py`, the environment may not stop the bytecode cache
    or set the optimisation level."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONOPTIMIZE")}
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE,
                           str(checkout / "src")], check=True, env=env,
                          capture_output=True, text=True, cwd=str(checkout))
    return float(proc.stdout)


def quartiles(xs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def startup_probe(sides: dict) -> dict:
    """PROBE_RUNS timed probes per side, alternating which side goes first,
    after one untimed probe per side (it may write the bytecode cache)."""
    times = {side: [] for side in sides}
    for side, checkout in sides.items():
        probe_once(checkout)
    for k in range(PROBE_RUNS):
        for side in (list(sides) if k % 2 == 0 else list(sides)[::-1]):
            times[side].append(probe_once(sides[side]))
    out = {"command": "python -S: import minorbit.cli, catalog(8), "
                      "load the packaged golden table",
           "runs": PROBE_RUNS}
    for side, xs in times.items():
        out[side] = {"setup_s": xs, **quartiles(xs)}
        print(f"start-up probe {side}: median {out[side]['median']:.4g} s",
              file=sys.stderr, flush=True)
    return out


def summary(pairs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for name, direction in better.items():
        par = [p["parent"][name] for p in pairs]
        chg = [p["change"][name] for p in pairs]
        wins = sum((c < p) if direction == "lower" else (c > p)
                   for p, c in zip(par, chg))
        out[name] = {"better": direction, "change_wins": wins,
                     "pairs": len(pairs)}
        for side, xs in (("parent", par), ("change", chg)):
            out[name].update({f"{side}_{k}": v
                              for k, v in quartiles(xs).items()})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--change", required=True, help="git revision")
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of the first pair")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better["fail_frac"] = "lower"

    work = Path(tempfile.mkdtemp(prefix="minorbit-bench-"))
    try:
        sides = {}
        for side in ("parent", "change"):
            sides[side] = (work / side,
                           export(getattr(args, side), work / side))
        result = {
            "parent": {"rev": args.parent, "sha": sides["parent"][1]},
            "change": {"rev": args.change, "sha": sides["change"][1]},
            "machine": {"nproc": os.cpu_count(),
                        "python": platform.python_version(),
                        "implementation": platform.python_implementation()},
            "seeds": [args.seed + k for k in range(PAIRS)],
            "workloads": {},
        }
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = []
            for k in range(PAIRS):
                seed = args.seed + k
                order = ("parent", "change") if k % 2 == 0 else \
                    ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(sides[side][0], workload, seed)
                pairs.append(pair)
                print(f"{workload} pair {k + 1}/{PAIRS} seed {seed}: "
                      + "  ".join(f"{n} {pair['parent'][n]:.4g} -> "
                                  f"{pair['change'][n]:.4g}"
                                  for n in ("wall_s", "request_ms_p90")),
                      file=sys.stderr, flush=True)
            result["workloads"][workload] = {
                "pairs": pairs, "summary": summary(pairs, better)}
        result["startup_probe"] = startup_probe(
            {side: sides[side][0] for side in ("parent", "change")})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True)
                              + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
