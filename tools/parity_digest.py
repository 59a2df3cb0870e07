"""Digest of `classify` output over two fixed invocation sets, for showing
that a change leaves every output byte and exit code as it was.

    python3 tools/parity_digest.py

Runs, through `minorbit.cli.main` in one process, with the package taken
from the `src` directory beside this script:
- instances: every (form, phi) row of the 14 acceptance instances with
  `--phi` (248 rows), ungauged and with `--gauge-seed 1`: 496 invocations;
- sweep: every non-compact catalog form of rank 6-8 and dimension <= 80
  (44 forms) as a whole form with `--check mot --no-golden`, ungauged and
  with `--gauge-seed 1`: 88 invocations.
For each set it prints the number of invocations and the SHA-256 of the
argv, exit code and stdout of each in turn.  Run it in two checkouts and
compare the lines.  Standard library only.
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
from minorbit.realform import catalog  # noqa: E402

INSTANCE_FORMS = (
    "su(2,3)", "su(2,4)", "su(1,3)", "su*(6)", "sp(1,2)", "sp(2,2)",
    "so*(8)", "so(2,5)", "so(3,3)", "sl(3,C)", "compact-G2", "sl(3,R)",
    "EIII", "FII",
)
GAUGES = ([], ["--gauge-seed", "1"])


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
    return {"instances": instances, "sweep": sweep}


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
