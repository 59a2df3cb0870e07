"""The JSON report is written row by row from one template (`cli.emit`).
It is compared here with json.dumps of the same document over every row
shape that `classify` prints, with the rows and details taken from the
`emit` call of `cli.main` itself, so that a row that gains, loses or
retypes a key fails.  The cross set masks of `cli._all_phi` and the
printed `phi` lists are checked against the `combinations` order of the
report."""

import json
from itertools import combinations

import pytest

from minorbit import cli
from minorbit.crflag import phi_indices
from minorbit.golden import golden_table_doc
from minorbit.realform import catalog
from test_swap_reuse import _classify


def _reference(rows, details=None) -> bytes:
    doc = {"rows": rows}
    if details:
        doc["details"] = details
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def _combinations(rank: int) -> list[list[int]]:
    return [list(c) for k in range(rank + 1)
            for c in combinations(range(1, rank + 1), k)]


@pytest.fixture
def emitted(monkeypatch):
    """The (rows, fmt, details) of each `emit` call that `cli.main` makes."""
    emit, seen = cli.emit, []

    def recording(rows, fmt, details=None):
        seen.append((rows, fmt, details))
        return emit(rows, fmt, details)

    monkeypatch.setattr(cli, "emit", recording)
    return seen


def _mismatch_table(tmp_path) -> str:
    """A golden table whose FII row reads `never`, so FII's true verdicts
    mismatch."""
    doc = golden_table_doc(catalog(8))
    for row in doc["rows"]:
        if row["form"] == "FII":
            row["predicates"] = [{"kind": "never"}]
    path = tmp_path / "never.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_template_equals_json_dumps_on_every_row_shape(emitted, tmp_path):
    cases = [
        (["--form", "su(2,3)"], 0),  # real, golden on
        (["--form", "sl(3,C)"], 0),  # complex-type
        (["--form", "compact-G2"], 0),  # compact
        (["--form", "FII", "--golden", _mismatch_table(tmp_path)], 1),
        (["--form", "so*(8)", "--check", "mot", "--no-golden"], 0),
        (["--form", "su(2,3)", "--check", "span", "--gauge-seed", "7"], 0),
        (["--form", "so(6,C)", "--gauge-seed", "1"], 0),
        (["--form", "EIII", "--phi", "1,6"], 0),  # --phi, with details
        (["--form", "su(2,3)", "--phi", ""], 0),  # the empty cross set
    ]
    expected, match = set(), set()
    for argv, rc in cases:
        got = _classify(argv)
        rows, fmt, details = emitted[-1]
        assert fmt == "json"
        assert (details is not None) == ("--phi" in argv), argv
        want = _reference(rows, details)
        assert cli.emit(rows, "json", details) == want, argv
        assert got == (rc, want), argv
        expected |= {r["expected"] for r in rows}
        match |= {r["match"] for r in rows}
    assert expected == match == {True, False, None}
    assert cli.emit([], "json") == _reference([]) == b'{"rows":[]}\n'


def test_template_encodes_strings_as_json_dumps():
    row = {"form": 'x"\\ü', "phi": [1, 10], "finite_type": True,
           "levi": "10:Zero;1\t2:−", "mot": False, "span": True,
           "verdict": False, "expected": None, "match": None}
    details = [{"b": [1, None], "a": "é"}]
    assert cli.emit([row, dict(row, form="y")], "json", details) == \
        _reference([row, dict(row, form="y")], details)


@pytest.mark.parametrize("rank", range(17))
def test_all_phi_masks_follow_the_combinations_order(rank):
    assert [phi_indices(m) for m in cli._all_phi(rank)] == \
        _combinations(rank)


@pytest.mark.parametrize("form", ["sl(9,C)", "EIII"])
def test_printed_phi_lists_follow_the_combinations_order(form):
    """The byte tables of the printed `phi` lists, on a rank-16 form, whose
    masks use both tables, and on a rank-6 form."""
    rc, stdout = _classify(["--form", form, "--check", "mot",
                            "--no-golden"])
    assert rc == 0
    rank = 16 if form == "sl(9,C)" else 6
    assert [r["phi"] for r in json.loads(stdout)["rows"]] == \
        _combinations(rank)
