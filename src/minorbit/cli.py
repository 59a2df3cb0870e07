"""Batch classifier command line.

    classify --form <label> [--p N --q N --l N] [--phi 1,4]
             [--check mot|span|all] [--format json|csv|table]
             [--golden <file> | --no-golden] [--gauge-seed N]
             [--dump-form] [--max-rank N]

Exit codes: 0 all golden parity passed, 1 mismatches, 2 usage or data error,
3 internal error (an implementation bug; the traceback goes to stderr).
--form, --p, --q and --l pick one catalog entry by `realform.find_form`.
--golden and --no-golden exclude each other.  --max-rank must lie in
1..16, checked before the catalog is built.  Before any row is computed:
a whole-form run (no --phi) needs rank <= 16, and the golden table, unless
--no-golden, must cover the form with the catalog entry's params.
--phi names each index at most once.
A single-Phi run (--phi) prints the report row and, under "details", the
verdict document, the plain dict that `concavity_verdict` returns.  A
whole-form run prints only the rows, so it builds no documents.  It walks
the cross sets as masks (`_all_phi`) and builds each row once, with its
sorted `phi` list, from the fields of one of three sources: for a
complex-type form `complex_type_verdict` and for a compact form
`compact_verdict`, theorems that need no context, and for every other form
`verdict_fields`, which decides the chain condition bound first and stops
at its first failed target.  Both `concavity_verdict` and
`verdict_fields` take the context that `get_context` builds once per run.
The JSON report is written row by row from one template (`emit`).  Once
the form, Phi and golden table
(checked by `golden.load_golden`) are valid, the only data error is a
`ConjugationError` (exit 2); any other exception, from the engine or the
golden comparison, is a bug (exit 3).
Identical invocations produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import combinations

from . import golden as goldenmod
from .crflag import (compact_verdict, complex_type_verdict,
                     concavity_verdict, get_context, levi_label,
                     verdict_fields)
# catalog is not called here, but perfbench/tracing.py wraps cli.catalog by
# name, so it stays a module attribute
from .realform import ConjugationError, catalog, find_form  # noqa: F401

# The largest rank of a whole-form run (the largest rank in catalog(8):
# 2^16 cross sets) and the largest --max-rank: catalog(16) is the largest
# catalog in use.  The catalog itself is small (catalog(16) holds about
# 0.6 MB); the form contexts set the memory of a long run, as a rank-16
# real-form context holds about 7 MB and `crflag.get_context` keeps every
# context it builds.
MAX_WHOLE_FORM_RANK = 16


def _all_phi(rank: int):
    """Every cross set of a rank-`rank` form as a mask, bit j - 1 for the
    simple index j: by size, and within a size in the order in which
    `combinations` lists the sorted indices, since it lists the bits of
    the same positions in the same order."""
    bits = [1 << j for j in range(rank)]
    for k in range(rank + 1):
        yield from map(sum, combinations(bits, k))


@functools.cache
def _byte_indices(offset: int) -> list:
    """Per byte value b, the list of simple indices offset + i + 1 for the
    set bits i of b, ascending.  Built by doubling: the lists of the bytes
    below 2^i, then the same lists with offset + i + 1 appended, which is
    the largest index of each, for i = 0..7."""
    table = [[]]
    for j in range(offset + 1, offset + 9):
        table += [t + [j] for t in table]
    return table


def _parse_phi(text: str, rank: int) -> tuple:
    """The sorted simple indices of a --phi list."""
    if not text.strip():
        return ()
    out = set()
    for tok in text.split(","):
        try:
            j = int(tok)
        except ValueError:
            raise ValueError(f"error: phi index {tok!r} is not an integer")
        if not 1 <= j <= rank:
            raise ValueError(f"error: phi index {j} outside 1..{rank}")
        if j in out:
            raise ValueError(f"error: phi index {j} given twice")
        out.add(j)
    return tuple(sorted(out))


def _phi_str(phi) -> str:
    return "+".join(str(j) for j in sorted(phi)) if phi else "-"


def _whole_form_rows(diag, args) -> list[dict]:
    """The report rows of every cross set of `diag`, in `_all_phi` order.
    Each row is built once, from the fields (finite_type, levi, mot, span,
    verdict) of its cross set mask: a compact form's, the same for every
    cross set, from `compact_verdict` and a complex-type form's from
    `complex_type_verdict`, with no context; every other form builds its
    context once and reads `verdict_fields`.  The row's `phi` list is read
    from byte tables, two lookups for a rank <= 16 mask; it serves the
    report and the golden predicates."""
    name, check = diag.name, args.check
    masks = _all_phi(diag.rank)
    if diag.label == "compact":
        fields = compact_verdict(check)
        results = ((m, fields) for m in masks)
    elif diag.doubled:
        results = ((m, complex_type_verdict(diag, m, check)) for m in masks)
    else:
        ctx = get_context(name, args.gauge_seed, args.max_rank)
        results = ((m, verdict_fields(ctx, m, check)) for m in masks)
    # a rank <= 8 mask has no high byte, so it reads no high table
    low = _byte_indices(0)
    high = _byte_indices(8) if diag.rank > 8 else ([],)
    return [{"form": name, "phi": low[m & 255] + high[m >> 8],
             "finite_type": ft, "levi": levi, "mot": mot, "span": span,
             "verdict": verdict, "expected": None, "match": None}
            for m, (ft, levi, mot, span, verdict) in results]


def _report_rows(docs) -> list[dict]:
    return [{"form": d["form"], "phi": d["phi"],
             "finite_type": d["finite_type"],
             "levi": ";".join(levi_label(g["root"], g["class"])
                              for g in d["gammas"]),
             "mot": d["mot_satisfied"], "span": d["span_satisfied"],
             "verdict": d["verdict"], "expected": None, "match": None}
            for d in docs]


# A report row in JSON with its keys sorted, as json.dumps(row,
# sort_keys=True, separators=(",", ":")) writes it
_ROW_TEMPLATE = ('{"expected":%s,"finite_type":%s,"form":%s,"levi":%s,'
                 '"match":%s,"mot":%s,"phi":[%s],"span":%s,"verdict":%s}')
_JSON_LITERALS = {True: "true", False: "false", None: "null"}


class _JSONStrings(dict):
    """JSON encodings of strings, each encoded on its first lookup."""

    def __missing__(self, text: str) -> str:
        self[text] = encoded = json.dumps(text)
        return encoded


def emit(rows: list[dict], fmt: str, details=None) -> bytes:
    """The report in `fmt`.  JSON is the bytes of json.dumps({"rows": rows}
    and "details" when given, sort_keys=True, separators=(",", ":")) and a
    newline, with each row written from `_ROW_TEMPLATE`: its booleans and
    nulls from `_JSON_LITERALS`, its `phi` integers by str, and each
    distinct form name and levi label encoded once per call."""
    if fmt == "json":
        lit, enc = _JSON_LITERALS, _JSONStrings()
        body = ",".join([_ROW_TEMPLATE % (
            lit[r["expected"]], lit[r["finite_type"]], enc[r["form"]],
            enc[r["levi"]], lit[r["match"]], lit[r["mot"]],
            ",".join(map(str, r["phi"])), lit[r["span"]], lit[r["verdict"]])
            for r in rows])
        head = ('{"details":%s,' % json.dumps(details, sort_keys=True,
                                              separators=(",", ":"))
                if details else "{")
        return f'{head}"rows":[{body}]}}\n'.encode()
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
    """The packaged golden table, beside this module: the package is
    installed as plain files (see pyproject.toml), so no resource loader is
    needed."""
    return os.path.join(os.path.dirname(__file__), "data",
                        "golden_table.json")


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
    golden = ap.add_mutually_exclusive_group()
    golden.add_argument("--golden",
                        help="golden table JSON (default: packaged)")
    golden.add_argument("--no-golden", action="store_true",
                        help="skip golden comparison")
    ap.add_argument("--gauge-seed", type=int, default=None)
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
    if not 1 <= args.max_rank <= MAX_WHOLE_FORM_RANK:
        print(f"error: --max-rank must be between 1 and "
              f"{MAX_WHOLE_FORM_RANK}", file=sys.stderr)
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

    if args.phi is not None:
        try:
            phi = _parse_phi(args.phi, diag.rank)
        except ValueError as e:
            print(e, file=sys.stderr)
            return 2
    elif diag.rank > MAX_WHOLE_FORM_RANK:
        print(f"error: {diag.name} has 2^{diag.rank} cross sets; give "
              f"--phi", file=sys.stderr)
        return 2

    gold = None
    if not args.no_golden:
        try:
            gold = (goldenmod.load_golden(args.golden) if args.golden
                    else _packaged_golden())
            if diag.name not in gold:
                raise KeyError(f"golden table does not cover form "
                               f"{diag.name!r}")
            if gold[diag.name]["params"] != diag.params:
                raise ValueError(f"golden params {gold[diag.name]['params']} "
                                 f"of form {diag.name!r} disagree with the "
                                 f"catalog's {diag.params}")
        except (KeyError, OSError, ValueError) as e:  # JSONDecodeError too
            print(f"error: golden comparison failed: {e}", file=sys.stderr)
            return 2

    # form, phi and golden row are valid by now, so the one data error left
    # is a catalog entry failing its conjugation checks; the rest are bugs
    try:
        if args.phi is not None:
            ctx = get_context(diag.name, args.gauge_seed, args.max_rank)
            docs = [concavity_verdict(ctx, phi, args.check)]
            rows = _report_rows(docs)
        else:
            docs, rows = None, _whole_form_rows(diag, args)
        diff = (None if gold is None
                else goldenmod.compare_golden(rows, gold[diag.name]))
    except ConjugationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:  # SufficiencyViolation and LeviInvariantError too
        import traceback  # imported here: no other path needs it
        print("internal error", file=sys.stderr)
        traceback.print_exc()
        return 3

    exit_code = 0 if diff is None or diff["pass"] else 1

    sys.stdout.buffer.write(emit(rows, args.format, docs))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
