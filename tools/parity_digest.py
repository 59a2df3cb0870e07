"""Digest of `classify` output over nine fixed invocation sets, and of the
form contexts of the whole catalog, for showing that a change leaves every
output byte, exit code and context table as it was.

    python3 tools/parity_digest.py

Runs, through `minorbit.cli.main` in one process, with the package taken
from the `src` directory beside this script:
- instances: every (form, phi) row of the 14 acceptance instances with
  `--phi` (248 rows), ungauged and with `--gauge-seed 1`: 496 invocations;
- sweep: every non-compact catalog form of rank 6-8 and dimension <= 80
  (44 forms) as a whole form with `--check mot --no-golden`, ungauged and
  with `--gauge-seed 1`: 88 invocations;
- span: the instance rows again with `--check span`, where the span and
  not a chain search starts the cross set's closure: 496 invocations;
- complex: every complex-type form of dimension <= 150 (20 forms) as a
  whole form with `--check all` and golden comparison on, ungauged and
  with `--gauge-seed 1`: 40 invocations;
- complex-all: every complex-type form of `catalog(8)` (32 forms, up to
  e8(C) with 2^16 cross sets) as a whole form with `--check all` and
  golden comparison on, ungauged: 32 invocations;
- real: every non-compact, non-complex form of `catalog(6)` (80 forms) as
  a whole form, three times: `--check all` with golden comparison on,
  `--check span --no-golden`, and `--check all --gauge-seed 1` with golden
  comparison on: 240 invocations;
- compact: every compact form of `catalog(8)` (32 forms), whose every
  cross set has Q u c(Q) every root, so that the span holds by theorem,
  as a whole form twice: `--check all` with golden comparison on and
  `--check span --no-golden`, each ungauged and with `--gauge-seed 1`:
  128 invocations;
- resolve: `--dump-form` for every `catalog(8)` entry given by its name,
  by its label, by its label with its `--p`/`--q`/`--l` parameters, and by
  its label with `--l <rank>` when it has no `l` parameter; the same four
  again with `--max-rank 4` for the entries of rank <= 4: 1,016
  invocations, which pin every exit code and entry of form resolution;
- formats: the 14 acceptance-instance forms, each as a whole form and
  with `--phi 1` (its first one-element cross set, whose `levi` column
  `cli` builds from the verdict document), in `--format csv` and
  `--format table`, golden comparison on: 56 invocations, which pin the
  two formats other than JSON.
For each set it prints the number of invocations and the SHA-256 of the
argv, exit code and stdout of each in turn.  A last line, `context`, is
the SHA-256 of `roots` (in order), `cartan`, `ntable` (items in order),
`coroots` (derived when read), `lattice`, `c_index` and `t_exp` of the
context of each of the 201 `catalog(8)` entries under the gauges None, 1
and 7.  Run it in two checkouts and compare the lines; a set that one
checkout's copy of this script lacks is compared by running the newer
script against both checkouts' `src`.  Standard library only.
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
from itertools import combinations

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from minorbit import cli  # noqa: E402
from minorbit.crflag import FormContext  # noqa: E402
from minorbit.realform import catalog  # noqa: E402

INSTANCE_FORMS = (
    "su(2,3)", "su(2,4)", "su(1,3)", "su*(6)", "sp(1,2)", "sp(2,2)",
    "so*(8)", "so(2,5)", "so(3,3)", "sl(3,C)", "compact-G2", "sl(3,R)",
    "EIII", "FII",
)
GAUGES = ([], ["--gauge-seed", "1"])
CONTEXT_GAUGES = (None, 1, 7)


def invocation_sets() -> dict[str, list[list[str]]]:
    forms = {e.name: e for e in catalog(8)}
    instances = []
    for gauge in GAUGES:
        for name in INSTANCE_FORMS:
            rank = forms[name].rank
            for k in range(rank + 1):
                for phi in combinations(range(1, rank + 1), k):
                    instances.append(["--form", name, "--phi",
                                      ",".join(map(str, phi)), *gauge])
    sweep_names = sorted(n for n, e in forms.items()
                         if e.rank in (6, 7, 8) and e.dim <= 80
                         and e.label != "compact")
    sweep = [["--form", name, "--check", "mot", "--no-golden", *gauge]
             for gauge in GAUGES for name in sweep_names]
    span = [[*argv, "--check", "span"] for argv in instances]
    complex_names = sorted(n for n, e in forms.items()
                           if e.label == "complex" and e.dim <= 150)
    complex_ = [["--form", name, "--check", "all", *gauge]
                for gauge in GAUGES for name in complex_names]
    complex_all = [["--form", name, "--check", "all"]
                   for name in sorted(n for n, e in forms.items()
                                      if e.label == "complex")]
    real_names = sorted(e.name for e in catalog(6)
                        if e.label not in ("compact", "complex"))
    real = [["--form", name, *mode]
            for mode in (["--check", "all"],
                         ["--check", "span", "--no-golden"],
                         ["--check", "all", "--gauge-seed", "1"])
            for name in real_names]
    compact = [["--form", name, *mode, *gauge]
               for mode in (["--check", "all"],
                            ["--check", "span", "--no-golden"])
               for gauge in GAUGES
               for name in sorted(n for n, e in forms.items()
                                  if e.label == "compact")]
    formats = [["--form", name, *phi, "--format", fmt]
               for fmt in ("csv", "table") for name in INSTANCE_FORMS
               for phi in ([], ["--phi", "1"])]
    return {"instances": instances, "sweep": sweep, "span": span,
            "complex": complex_, "resolve": resolve_set(),
            "complex-all": complex_all, "real": real, "compact": compact,
            "formats": formats}


def resolve_set() -> list[list[str]]:
    out = []
    for limit in ([], ["--max-rank", "4"]):
        for e in catalog(8):
            if limit and e.rank > 4:
                continue
            params = [x for k in ("p", "q", "l") if k in e.params
                      for x in (f"--{k}", str(e.params[k]))]
            rank = [] if "l" in e.params else ["--l", str(e.rank)]
            for ident in (["--form", e.name], ["--form", e.label],
                          ["--form", e.label, *params],
                          ["--form", e.label, *rank]):
                out.append([*ident, "--dump-form", *limit])
    return out


def run(argv: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout bytes of one `classify` call."""
    out = io.BytesIO()
    wrapper = io.TextIOWrapper(out, encoding="utf-8")
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = wrapper, io.StringIO()
    try:
        rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    finally:
        sys.stdout, sys.stderr = saved
        wrapper.flush()
        wrapper.detach()
    return rc, out.getvalue()


def main() -> int:
    for name, argvs in invocation_sets().items():
        h = hashlib.sha256()
        for argv in argvs:
            rc, stdout = run(argv)
            h.update(repr((argv, rc)).encode() + b"\n" + stdout)
        print(f"{name}: {len(argvs)} invocations sha256 {h.hexdigest()}")
    h = hashlib.sha256()
    entries = catalog(8)
    for gauge in CONTEXT_GAUGES:
        for diag in entries:
            ctx = FormContext(diag, gauge)
            conj = ctx.conj
            h.update(repr((diag.name, gauge, ctx.rs.roots, ctx.rs.cartan,
                           list(ctx.sc.ntable.items()),
                           list(ctx.sc.coroots), conj.lattice,
                           list(conj.c_index), list(conj.t_exp))).encode())
    print(f"context: {len(entries) * len(CONTEXT_GAUGES)} contexts sha256 "
          f"{h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
