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
            q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
            out[name].update({f"{side}_median": med, f"{side}_q1": q1,
                              f"{side}_q3": q3, f"{side}_iqr": q3 - q1})
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
    finally:
        shutil.rmtree(work, ignore_errors=True)
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True)
                              + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
