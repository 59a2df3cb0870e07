"""Digest of every `catalog(8)` form run as a whole form, for showing that a
change leaves every row of the catalog as it was.

    python3 tools/catalog_digest.py > catalog_digest.json

Runs each of the 201 entries of `catalog(8)`, in catalog order, through
`minorbit.cli.main` in one process, with the package taken from the `src`
directory beside this script: `--form <name> --check all`, golden
comparison on against the packaged table.  Per form it writes the exit
code, the number of rows, of parity rows and of true verdicts, the golden
reading that `golden.compare_golden` selects on the printed rows (the index
of the first reading that matches every parity row, or null when none does,
or when the run printed nothing), and the SHA-256 of stdout.  The document
goes to stdout as sorted JSON; the CPU time spent on each kind of form
(real, complex-type, compact) goes to stderr, as it varies from run to run.
Run it in two checkouts and compare the documents byte for byte.
`digest()` returns the document and the CPU times;
`tests/test_catalog_digest.py` compares the document with the committed
`catalog_digest.json`.  Standard library only.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from minorbit import cli, golden  # noqa: E402
from minorbit.realform import catalog  # noqa: E402

MAX_RANK = 8


def kind(entry) -> str:
    if entry.label == "compact":
        return "compact"
    return "complex-type" if entry.doubled else "real"


def run(argv: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout bytes of one `classify` call."""
    out = io.BytesIO()
    wrapper = io.TextIOWrapper(out, encoding="utf-8")
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = wrapper, io.StringIO()
    try:
        rc = cli.main(argv)
    finally:
        sys.stdout, sys.stderr = saved
        wrapper.flush()
        wrapper.detach()
    return rc, out.getvalue()


def digest() -> tuple[dict, dict]:
    """The digest document, and the CPU seconds spent on each kind of form."""
    forms = {}
    cpu = {"real": 0.0, "complex-type": 0.0, "compact": 0.0}
    table = golden.load_golden(cli.default_golden_path())
    for entry in catalog(MAX_RANK):
        t0 = time.process_time()
        rc, stdout = run(["--form", entry.name, "--check", "all"])
        cpu[kind(entry)] += time.process_time() - t0
        rows = json.loads(stdout)["rows"] if stdout else []
        diff = (golden.compare_golden(rows, table[entry.name]) if stdout
                else None)
        forms[entry.name] = {
            "exit": rc,
            "rows": len(rows),
            "parity_rows": diff["parity_rows"] if diff else None,
            "true_verdicts": sum(r["verdict"] for r in rows),
            "reading": diff["reading"] if diff else None,
            "sha256": hashlib.sha256(stdout).hexdigest(),
        }
    doc = {"max_rank": MAX_RANK, "forms": forms,
           "totals": {"forms": len(forms),
                      "rows": sum(f["rows"] for f in forms.values()),
                      "true_verdicts": sum(f["true_verdicts"]
                                           for f in forms.values())}}
    return doc, cpu


def main() -> int:
    doc, cpu = digest()
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    for k, s in cpu.items():
        print(f"{k}: {s:.2f} s CPU", file=sys.stderr)
    print(f"total: {sum(cpu.values()):.2f} s CPU", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
