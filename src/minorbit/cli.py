"""Batch classifier command line.

    classify --form <label> [--p N --q N --l N] [--phi 1,4]
             [--check mot|span|all] [--format json|csv|table]
             [--golden <file>] [--gauge-seed N] [--allow-large]
             [--dump-form] [--max-rank N]

Exit codes: 0 all golden parity passed, 1 mismatches, 2 usage or data error,
3 internal error (an implementation bug; the traceback goes to stderr).
--form, --p, --q and --l pick one catalog entry by `realform.find_form`.
Identical invocations produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from importlib import resources
from itertools import combinations

from . import golden as goldenmod
from .crflag import concavity_verdict
# catalog is not called here, but perfbench/tracing.py wraps cli.catalog by
# name, so it stays a module attribute
from .realform import catalog, find_form  # noqa: F401

LARGE_DIM = 150  # algebras above this need --allow-large


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


def enumerate_form(name: str, phis=None, gauge_seed=None, check="all",
                   max_rank: int = 8) -> list[dict]:
    """Verdict documents for the given cross sets (all subsets by default),
    in deterministic row order, each computed directly."""
    diag = find_form(name, max_rank)
    if phis is None:
        phis = list(_all_phi(diag.rank))
    return [concavity_verdict(diag.name, tuple(sorted(p)), gauge_seed, check,
                              max_rank).to_doc() for p in phis]


def _swap_source(diag, phis) -> list[int]:
    """For each cross set, the position of the cross set whose report row
    it takes: itself, or for a complex-type form the first cross set of its
    orbit under the copy swap s, in the order of `phis`.

    Proof that s(Phi) has the report row of Phi but for `phi`.  The form
    lives on R + R, and s maps alpha_j to alpha_{j+l} and back (l the rank
    of one copy).  It permutes the roots, preserves addition, sign and
    height, and maps supports by j <-> j + l, so Q_{s Phi} = s(Q_Phi), and
    likewise for Qn.  The conjugation c of a complex-type form has no black
    node and the arrows j <-> j + l, so c = s and s commutes with c.  No
    root mixes the two copies, while a and c(a) lie in different copies, so
    a + c(a) is never a root: no root is real, `levi` is empty, and K_Phi
    = Q_Phi (`k_phi`), so K_{s Phi} = s(K_Phi).  Then s carries every
    closure of `crflag` (the chain closure of c(Q) under K u c(K), the
    span's P u c(P)) onto the one for s(Phi), since it maps start, moves
    and sums; it carries finite type's negative supports onto theirs, and
    the complex zero pairs {b, c(b)} of Phi and their q_form entry sets
    onto those of s(Phi).  So finite type, the chain verdict, the span
    verdict and the verdict agree, under any sign gauge, since none of
    them reads a structure constant or a sign exponent."""
    source = list(range(len(phis)))
    if diag.doubled:
        half = diag.rank // 2
        first: dict[frozenset, int] = {}
        for k, p in enumerate(phis):
            p = frozenset(p)
            swapped = frozenset(j + half if j <= half else j - half for j in p)
            source[k] = first.get(swapped, k)
            first.setdefault(p, k)
    return source


def _run_rows(diag, phis, args) -> tuple[list[dict], list[dict]]:
    """(verdict documents, report rows) for `phis`.  A verdict is computed
    for each cross set that is its own `_swap_source`; every other cross set
    takes that row with its own `phi`, and has no document."""
    source = _swap_source(diag, phis)
    todo = [k for k, src in enumerate(source) if src == k]
    docs = []
    for n, k in enumerate(todo, 1):
        docs.append(concavity_verdict(diag.name, tuple(sorted(phis[k])),
                                      args.gauge_seed, args.check,
                                      args.max_rank).to_doc())
        if args.allow_large and n % 8 == 0:
            print(f"rows done: {n}/{len(todo)}", file=sys.stderr)
    computed = dict(zip(todo, _report_rows(docs)))
    rows = []
    for k, src in enumerate(source):
        row = computed[src]
        rows.append(row if src == k else dict(row, phi=sorted(phis[k])))
    return docs, rows


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged."""
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
    return ap


def main(argv=None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)

    if not args.form:
        ap.print_usage(sys.stderr)
        return 2
    try:
        diag = find_form(args.form, args.max_rank, p=args.p, q=args.q,
                         l=args.l)
    except (KeyError, ValueError) as e:
        print(f"error: {e.args[0]}", file=sys.stderr)
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
        docs, rows = _run_rows(diag, phis, args)
    except (KeyError, ValueError) as e:  # data errors, ConjugationError too
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:  # a bug, SufficiencyViolation included
        print("internal error", file=sys.stderr)
        traceback.print_exc()
        return 3

    exit_code = 0
    if not args.no_golden:
        try:
            gold = (goldenmod.load_golden(args.golden) if args.golden
                    else _packaged_golden())
            diff = goldenmod.compare_golden(rows, gold)
        except (KeyError, OSError, ValueError) as e:  # JSONDecodeError too
            print(f"error: golden comparison failed: {e}", file=sys.stderr)
            return 2
        ok = all(f["pass"] for f in diff["forms"].values())
        exit_code = 0 if ok else 1

    details = docs if args.phi is not None else None
    sys.stdout.buffer.write(emit(rows, args.format, details))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
