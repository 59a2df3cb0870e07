"""The whole-catalog run: every form of `catalog(8)` as a whole form
(`--check all`, packaged golden table), digested by
`tools/catalog_digest.py`, equals the committed `catalog_digest.json` byte
for byte: each form's exit code, row counts, selected golden reading and
the SHA-256 of its stdout."""

import importlib.util
import json
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "catalog_digest", os.path.join(ROOT, "tools", "catalog_digest.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_catalog_digest_matches_committed_file():
    with open(os.path.join(ROOT, "catalog_digest.json")) as fh:
        committed = fh.read()
    doc, _ = _load_tool().digest()
    assert json.dumps(doc, sort_keys=True, indent=1) + "\n" == committed
