"""Record the reference report rows that the benchmark checks against.

    python3 perfbench/record_refs.py

Run once, from the root of the repository, on the code the references should
pin.  It covers every row a workload can draw:
  * the 248 instance rows under ``--check all`` (golden comparison on);
  * every cross set of every sweep-mot form under ``--check mot``,
    ungauged: verdicts are gauge-invariant.
For every ``--check mot`` row it also records whether some reading of the
golden predicate expects the cross set to be concave, so that the checker
never runs the program's golden code.  It writes
perfbench/reference_rows.json with the form table the workload generator
reads and the commit the rows come from (``git rev-parse HEAD``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from child import run_request  # noqa: E402
from workloads import INSTANCE_FORMS, phi_key, sweep_forms  # noqa: E402

ROW_FIELDS = ("finite_type", "levi", "mot", "span", "verdict")


def rows_of(cli, argv: list[str]) -> dict:
    res = run_request(cli, argv)
    if res["rc"] != 0:
        raise RuntimeError(f"{argv}: exit {res['rc']}: {res['err']}")
    return {phi_key(r["phi"]): [r[f] for f in ROW_FIELDS]
            for r in json.loads(res["out"])["rows"]}


def main() -> int:
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
        text=True, check=True).stdout.strip()
    os.environ["CONCAVITY_THREADS"] = "1"

    import minorbit.cli as cli
    from minorbit import golden
    from minorbit.realform import catalog

    forms, diags = {}, {}
    for e in catalog(8):
        diags[e.name] = e
        rs = e.root_system()
        forms[e.name] = {"label": e.label, "family": e.family,
                         "rank": e.rank, "dim": rs.rank + len(rs.roots),
                         "doubled": e.doubled}

    t0 = time.time()
    rows_all = {}
    for name in INSTANCE_FORMS:
        rows_all[name] = rows_of(cli, ["--form", name, "--check", "all"])
        print(f"all {name}: {len(rows_all[name])} rows "
              f"({time.time() - t0:.0f}s)", file=sys.stderr)
    rows_mot = {}
    for name in sweep_forms(forms):
        rows_mot[name] = rows_of(cli, ["--form", name, "--check", "mot",
                                       "--no-golden"])
        print(f"mot {name}: {len(rows_mot[name])} rows "
              f"({time.time() - t0:.0f}s)", file=sys.stderr)

    table = golden.load_golden(cli.default_golden_path())
    golden_concave = {}
    for name, got in rows_mot.items():
        keys = sorted(got)
        phis = [[int(j) for j in k.split("+")] if k != "-" else []
                for k in keys]
        readings = golden.expected_values(table[name], diags[name], phis)
        golden_concave[name] = [k for i, k in enumerate(keys)
                                if any(vals[i] for vals in readings)]

    doc = {"commit": commit, "fields": list(ROW_FIELDS), "forms": forms,
           "rows": {"all": rows_all, "mot": rows_mot},
           "golden_concave": golden_concave}
    out = HERE / "reference_rows.json"
    out.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":"))
                   + "\n")
    print(f"wrote {out} ({time.time() - t0:.0f}s)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
