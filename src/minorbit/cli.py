"""Batch classifier command line.

    classify --form <label> [--p N --q N --l N] [--phi 1,4]
             [--check mot|span|all] [--format json|csv|table]
             [--golden <file>] [--gauge-seed N] [--allow-large]
             [--dump-form] [--max-rank N]

Exit codes: 0 all golden parity passed, 1 mismatches, 2 usage or data error,
3 internal error (an implementation bug; the traceback goes to stderr).
CONCAVITY_THREADS caps worker parallelism.  Identical invocations produce
byte-identical JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from importlib import resources
from itertools import combinations

from . import golden as goldenmod
from .crflag import concavity_verdict, get_context
from .realform import SatakeDiagram, catalog

LARGE_DIM = 150  # algebras above this need --allow-large


def _resolve_form(args) -> SatakeDiagram:
    entries = catalog(args.max_rank)
    byname = [e for e in entries if e.name == args.form]
    if byname:
        return byname[0]
    want = {}
    if args.p is not None:
        want["p"] = args.p
    if args.q is not None:
        want["q"] = args.q
    if args.l is not None:
        want["l"] = args.l
    labeled = [e for e in entries if e.label == args.form]
    cands = labeled
    if want:
        cands = [e for e in labeled
                 if all(e.params.get(k) == v for k, v in want.items())]
        if not cands and "l" in want:
            # --l names the rank for labels without an l parameter
            byrank = dict(want)
            del byrank["l"]
            cands = [e for e in labeled if e.rank == want["l"] and
                     all(e.params.get(k) == v for k, v in byrank.items())]
    if len(cands) == 1:
        return cands[0]
    if not cands:
        raise SystemExit(f"error: unknown form {args.form!r} "
                         f"(params {want or 'none'})")
    names = ", ".join(e.name for e in cands[:8])
    raise SystemExit(f"error: ambiguous form {args.form!r}; candidates: {names}")


def _all_phi(rank: int):
    for k in range(rank + 1):
        for c in combinations(range(1, rank + 1), k):
            yield frozenset(c)


def _parse_phi(text: str, rank: int) -> frozenset:
    if not text.strip():
        return frozenset()
    out = set()
    for tok in text.split(","):
        j = int(tok)
        if not 1 <= j <= rank:
            raise SystemExit(f"error: phi index {j} outside 1..{rank}")
        out.add(j)
    return frozenset(out)


def _phi_str(phi) -> str:
    return "+".join(str(j) for j in sorted(phi)) if phi else "-"


def _worker(task):
    name, phi, gauge_seed, check, max_rank = task
    v = concavity_verdict(name, phi, gauge_seed, check, max_rank)
    return v.to_doc()


def enumerate_form(name: str, phis=None, gauge_seed=None, check="all",
                   max_rank: int = 8) -> list[dict]:
    """Verdict documents for the given cross sets (all subsets by default),
    in deterministic row order."""
    entries = [e for e in catalog(max_rank) if e.name == name]
    if not entries:
        raise KeyError(f"unknown form {name!r}")
    diag = entries[0]
    if phis is None:
        phis = list(_all_phi(diag.rank))
    return [_worker((diag.name, tuple(sorted(p)), gauge_seed, check,
                     max_rank)) for p in phis]


def _run_rows(diag, phis, args) -> list[dict]:
    tasks = [(diag.name, tuple(sorted(p)), args.gauge_seed, args.check,
              args.max_rank) for p in phis]
    threads = max(1, int(os.environ.get("CONCAVITY_THREADS", "1")))
    docs = []
    if threads > 1 and len(tasks) > 1:
        import multiprocessing as mp
        get_context(diag.name, args.gauge_seed, args.max_rank)  # warm for fork
        with mp.get_context("fork").Pool(threads) as pool:
            docs = pool.map(_worker, tasks)
    else:
        total = len(tasks)
        for k, t in enumerate(tasks):
            docs.append(_worker(t))
            if args.allow_large and (k + 1) % 8 == 0:
                print(f"rows done: {k + 1}/{total}", file=sys.stderr)
    return docs


def _report_rows(docs) -> list[dict]:
    rows = []
    for d in docs:
        levi = ";".join(
            "%s:%s" % ("".join(str(c) for c in g["root"]), g["class"])
            for g in d["gammas"])
        rows.append({
            "form": d["form"],
            "phi": d["phi"],
            "finite_type": d["finite_type"],
            "levi": levi,
            "mot": d["mot_satisfied"],
            "span": d["span_satisfied"],
            "verdict": d["verdict"],
            "expected": None,
            "match": None,
        })
    return rows


def emit(rows: list[dict], fmt: str, details=None) -> bytes:
    if fmt == "json":
        doc = {"rows": rows}
        if details:
            doc["details"] = details
        return (json.dumps(doc, sort_keys=True, separators=(",", ":"))
                + "\n").encode()
    if fmt == "csv":
        import csv
        import io
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["form", "phi", "finite_type", "mot", "span", "verdict",
                    "expected", "match"])
        for r in rows:
            exp = "" if r["expected"] is None else str(r["expected"]).lower()
            mat = "" if r["match"] is None else str(r["match"]).lower()
            w.writerow([r["form"], _phi_str(r["phi"]),
                        str(r["finite_type"]).lower(), str(r["mot"]).lower(),
                        str(r["span"]).lower(), str(r["verdict"]).lower(),
                        exp, mat])
        return buf.getvalue().encode()
    if fmt == "table":
        heads = ["form", "phi", "ft", "mot", "span", "verdict", "expected",
                 "match", "levi"]
        body = []
        for r in rows:
            exp = "" if r["expected"] is None else str(r["expected"])
            mat = "" if r["match"] is None else str(r["match"])
            body.append([r["form"], _phi_str(r["phi"]), str(r["finite_type"]),
                         str(r["mot"]), str(r["span"]), str(r["verdict"]),
                         exp, mat, r["levi"]])
        widths = [max(len(h), *(len(b[i]) for b in body)) if body else len(h)
                  for i, h in enumerate(heads)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(heads, widths))]
        for b in body:
            lines.append("  ".join(x.ljust(w) for x, w in zip(b, widths)))
        return ("\n".join(lines) + "\n").encode()
    raise SystemExit(f"error: unknown format {fmt!r}")


def default_golden_path() -> str:
    return str(resources.files("minorbit").joinpath("data/golden_table.json"))


@functools.cache
def _packaged_golden() -> dict:
    """The packaged golden table, read once per process: it is package data.
    A table given by --golden is read on every call."""
    return goldenmod.load_golden(default_golden_path())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="classify",
        description="decide the higher Levi concavity condition for minimal "
                    "orbits of a real form, over choices of cross set Phi")
    ap.add_argument("--form", required=False,
                    help="form name like su(2,3) or a label like AIIIa")
    ap.add_argument("--p", type=int)
    ap.add_argument("--q", type=int)
    ap.add_argument("--l", type=int)
    ap.add_argument("--phi", help="comma-separated simple root indices")
    ap.add_argument("--check", choices=("mot", "span", "all"), default="all")
    ap.add_argument("--format", choices=("json", "csv", "table"),
                    default="json")
    ap.add_argument("--golden", help="golden table JSON (default: packaged)")
    ap.add_argument("--no-golden", action="store_true",
                    help="skip golden comparison")
    ap.add_argument("--gauge-seed", type=int, default=None)
    ap.add_argument("--allow-large", action="store_true")
    ap.add_argument("--max-rank", type=int, default=8)
    ap.add_argument("--dump-form", action="store_true",
                    help="print the catalog entry and exit")
    args = ap.parse_args(argv)

    if not args.form:
        ap.print_usage(sys.stderr)
        return 2
    try:
        diag = _resolve_form(args)
    except SystemExit as e:
        print(e, file=sys.stderr)
        return 2

    if args.dump_form:
        sys.stdout.write(json.dumps(diag.to_doc(), sort_keys=True,
                                    separators=(",", ":")) + "\n")
        return 0

    if diag.dim > LARGE_DIM and not args.allow_large:
        print(f"error: {diag.name} has dimension {diag.dim}; rerun with "
              f"--allow-large", file=sys.stderr)
        return 2

    if args.phi is not None:
        try:
            phis = [_parse_phi(args.phi, diag.rank)]
        except (SystemExit, ValueError) as e:
            print(e, file=sys.stderr)
            return 2
    else:
        if diag.rank > 8 and not args.allow_large:
            print(f"error: rank {diag.rank} enumeration needs --phi or "
                  f"--allow-large", file=sys.stderr)
            return 2
        phis = list(_all_phi(diag.rank))

    try:
        docs = _run_rows(diag, phis, args)
    except (KeyError, ValueError) as e:  # data errors, ConjugationError too
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:  # a bug, SufficiencyViolation included
        print("internal error", file=sys.stderr)
        traceback.print_exc()
        return 3
    rows = _report_rows(docs)

    exit_code = 0
    if not args.no_golden:
        try:
            gold = (goldenmod.load_golden(args.golden) if args.golden
                    else _packaged_golden())
            diff = goldenmod.compare_golden(rows, gold)
        except (KeyError, OSError, json.JSONDecodeError) as e:
            print(f"error: golden comparison failed: {e}", file=sys.stderr)
            return 2
        ok = all(f["pass"] for f in diff["forms"].values())
        exit_code = 0 if ok else 1

    details = docs if args.phi is not None else None
    sys.stdout.buffer.write(emit(rows, args.format, details))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
