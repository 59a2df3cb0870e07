import json
import os
import shutil
import subprocess
import sys

import pytest

from minorbit.cli import default_golden_path, emit
from minorbit.golden import compare_golden, load_golden
from test_swap_reuse import _forbid_engine, enumerate_form


def run_cli(args, env=None):
    e = dict(os.environ)
    if env:
        e.update(env)
    return subprocess.run([sys.executable, "-m", "minorbit.cli", *args],
                          capture_output=True, env=e)


def test_emit_json_empty():
    assert emit([], "json") == b'{"rows":[]}\n'


def test_emit_csv_header():
    out = emit([], "csv").decode()
    assert out.splitlines()[0] == \
        "form,phi,finite_type,mot,span,verdict,expected,match"


def test_emit_table_alignment():
    rows = [{"form": "FII", "phi": (3,), "finite_type": True, "mot": False,
             "span": False, "verdict": False, "expected": False,
             "match": True, "levi": "x"}]
    text = emit(rows, "table").decode().splitlines()
    assert text[0].startswith("form")
    assert "FII" in text[1]


def test_emit_unknown_format():
    with pytest.raises(SystemExit):
        emit([], "yaml")


def test_cli_golden_pass_and_determinism():
    r1 = run_cli(["--form", "FII", "--format", "json"])
    r2 = run_cli(["--form", "FII", "--format", "json"])
    assert r1.returncode == 0, r1.stderr
    assert r1.stdout == r2.stdout


def test_cli_single_phi_details():
    r = run_cli(["--form", "FII", "--phi", "3", "--format", "json"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["verdict"] is False
    det = doc["details"][0]
    assert det["k_phi"] and det["span_dims"]
    assert det["mot_details"][0]["toward_minus"]["certificate"][
        "kind"] == "coefficient-bound"


def test_cli_label_with_params():
    r = run_cli(["--form", "AIIIa", "--p", "2", "--q", "3", "--dump-form"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["name"] == "su(2,3)"


def test_cli_usage_errors():
    assert run_cli([]).returncode == 2
    assert run_cli(["--form", "nonsense"]).returncode == 2
    assert run_cli(["--form", "AIIIa"]).returncode == 2  # ambiguous
    r = run_cli(["--form", "su(2,3)", "--phi", "9"])
    assert r.returncode == 2


def test_cli_rejects_golden_file_with_no_golden(capsys):
    """--golden FILE and --no-golden contradict each other: the run exits 2
    before the file is read, where it used to ignore the file and pass."""
    from minorbit import cli
    with pytest.raises(SystemExit) as e:
        cli.main(["--form", "su(2,3)", "--phi", "1", "--golden",
                  "/nonexistent.json", "--no-golden"])
    assert e.value.code == 2
    out, err = capsys.readouterr()
    assert not out
    assert "not allowed with argument --golden" in err


def test_cli_params_must_agree_with_an_exact_name(capsys):
    from minorbit import cli
    for extra in (["--p", "1", "--q", "9"], ["--p", "3"], ["--l", "5"]):
        assert cli.main(["--form", "su(2,3)", "--dump-form", *extra]) == 2
        assert "unknown form" in capsys.readouterr().err
    # agreeing parameters, and --l as the rank of a form without an l
    for extra in (["--p", "2"], ["--p", "2", "--q", "3"], ["--l", "4"]):
        assert cli.main(["--form", "su(2,3)", "--dump-form", *extra]) == 0
        assert json.loads(capsys.readouterr().out)["name"] == "su(2,3)"


def test_cli_non_integer_phi_index(capsys):
    from minorbit import cli
    for phi, tok in (("1,x", "'x'"), ("1,,2", "''")):
        assert cli.main(["--form", "su(2,3)", "--phi", phi]) == 2
        assert capsys.readouterr().err == \
            f"error: phi index {tok} is not an integer\n"


def test_cli_repeated_phi_index(monkeypatch, capsys):
    """A --phi list that names an index twice is ambiguous input: exit 2
    before any row is computed, where it used to run as if the index were
    named once."""
    from minorbit import cli
    _forbid_engine(monkeypatch)
    for phi, j in (("1,1", 1), ("2,1,4,2", 2), ("3,1,3", 3)):
        assert cli.main(["--form", "su(2,3)", "--phi", phi]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err == f"error: phi index {j} given twice\n"


def test_cli_internal_error_exit_code(monkeypatch, capsys):
    from minorbit import cli, crflag
    from minorbit.realform import ConjugationError
    span = crflag.t_module_span
    # FII phi={1} satisfies the chain condition, so a failed span is a bug
    monkeypatch.setattr(crflag, "t_module_span", lambda chains: (False, []))
    assert cli.main(["--form", "FII", "--phi", "1", "--no-golden"]) == 3
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("internal error\n")
    assert "Traceback" in err and "SufficiencyViolation" in err

    def data_error(chains):
        raise ConjugationError("bad catalog entry")

    monkeypatch.setattr(crflag, "t_module_span", data_error)
    assert cli.main(["--form", "FII", "--phi", "1", "--no-golden"]) == 2
    assert capsys.readouterr().err == "error: bad catalog entry\n"

    # form and phi are valid by now, so a KeyError from the engine is a bug
    def engine_bug(chains):
        raise KeyError("stray key")

    monkeypatch.setattr(crflag, "t_module_span", engine_bug)
    assert cli.main(["--form", "FII", "--phi", "1", "--no-golden"]) == 3
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("internal error\n")
    assert "Traceback" in err and "KeyError: 'stray key'" in err

    # the golden table is checked when it is loaded, so a KeyError from the
    # comparison is a bug too
    def comparison_bug(rows, gold):
        raise KeyError("stray predicate key")

    monkeypatch.setattr(crflag, "t_module_span", span)
    monkeypatch.setattr(cli.goldenmod, "compare_golden", comparison_bug)
    assert cli.main(["--form", "FII", "--phi", "1"]) == 3
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("internal error\n")
    assert "Traceback" in err and "KeyError: 'stray predicate key'" in err


def test_cli_levi_invariant_failure_is_internal_error(monkeypatch, capsys):
    """A Levi pattern that breaks `classify_levi`'s invariants in a built,
    validated context is a bug: exit 3 with a traceback, not a data
    error.  One Chevalley constant of a fresh context is set to zero."""
    from minorbit import cli, crflag
    from minorbit.realform import find_form
    ctx = crflag.FormContext(find_form("sp(1,2)"))
    monkeypatch.setitem(crflag._CTX_CACHE, ("sp(1,2)", None, 8), ctx)
    pd = crflag.parabolic(ctx, crflag.phi_mask((1, 2, 3)))
    assert pd.Qbar & ~pd.Q  # a nonempty Levi side, so the patterns are read
    target = ctx.negi(crflag.characteristic_real_roots(ctx, pd)[0])
    monkeypatch.setitem(ctx.sc.ntable, ctx.rs.sum_pairs[target][0], 0)
    assert cli.main(["--form", "sp(1,2)", "--phi", "1,2,3",
                     "--no-golden"]) == 3
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("internal error\n")
    assert "Traceback" in err and "LeviInvariantError" in err
    assert "zero entry" in err


def test_cli_single_phi_of_e8(capsys):
    from minorbit import cli
    assert cli.main(["--form", "EIX", "--phi", "1"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(r["form"], r["phi"]) for r in rows] == [("EIX", [1])]


def _forbid_rows(monkeypatch):
    """Make building a form context or computing any row fail, the
    theorem rows of complex-type and compact forms included."""
    from minorbit import cli

    def fail(*args, **kwargs):
        raise AssertionError("a row was computed")

    _forbid_engine(monkeypatch)
    monkeypatch.setattr(cli, "complex_type_verdict", fail)
    monkeypatch.setattr(cli, "compact_verdict", fail)


def test_cli_whole_form_rank_cap(monkeypatch, capsys):
    """A whole-form run past rank 16 is refused before any row is built."""
    from minorbit import cli
    _forbid_rows(monkeypatch)
    assert cli.main(["--form", "sl(10,C)", "--max-rank", "9",
                     "--no-golden"]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err == "error: sl(10,C) has 2^18 cross sets; give --phi\n"


@pytest.mark.parametrize("max_rank", ["0", "17"])
def test_cli_max_rank_out_of_range_fails_before_the_catalog(
        monkeypatch, capsys, max_rank):
    """--max-rank outside 1..16 is refused before `find_form` builds the
    catalog, whose memory grows like the cube of its rank."""
    from minorbit import cli

    def fail(*args, **kwargs):
        raise AssertionError("the catalog was built")

    monkeypatch.setattr(cli, "find_form", fail)
    assert cli.main(["--form", "su(2,3)", "--max-rank", max_rank]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err == "error: --max-rank must be between 1 and 16\n"


def test_cli_uncovered_form_fails_before_rows(monkeypatch, capsys):
    from minorbit import cli
    _forbid_rows(monkeypatch)
    assert cli.main(["--form", "sl(10,R)", "--max-rank", "9"]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err == ("error: golden comparison failed: \"golden table does "
                   "not cover form 'sl(10,R)'\"\n")


def test_cli_mismatch_exit_code(tmp_path):
    """With no reading matching, `classify` exits 1 and shows reading 0 on
    the parity rows: its value as `expected` and `match` false exactly
    where it disagrees with the verdict.  The empty cross set and the rows
    not of finite type get null `expected` and `match`, in JSON and CSV."""
    import csv
    import io
    gold = load_golden(default_golden_path())
    doc = {"version": 1, "rows": [dict(gold["FII"])]}
    # FII's verdicts are neither of these readings: phi = {1} holds
    # (`eiii` is false there) and phi = {3} fails (`always` is true there)
    doc["rows"][0]["predicates"] = [{"kind": "eiii"}, {"kind": "always"}]
    p = tmp_path / "g.json"
    p.write_text(json.dumps(doc))
    r = run_cli(["--form", "FII", "--golden", str(p)])
    assert r.returncode == 1
    rows = json.loads(r.stdout)["rows"]
    c = run_cli(["--form", "FII", "--golden", str(p), "--format", "csv"])
    assert c.returncode == 1
    table = list(csv.DictReader(io.StringIO(c.stdout.decode())))
    assert len(table) == len(rows) == 16
    lit = {None: "", True: "true", False: "false"}
    matches = set()
    for row, line in zip(rows, table):
        if row["finite_type"] and row["phi"]:
            expected = set(row["phi"]) <= {3, 4, 5}
            assert row["expected"] is expected, row
            assert row["match"] is (expected == row["verdict"]), row
            matches.add(row["match"])
        else:
            assert row["expected"] is None and row["match"] is None, row
        assert (line["expected"], line["match"]) == (
            lit[row["expected"]], lit[row["match"]])
    assert matches == {True, False}
    assert rows[0]["phi"] == [] and rows[0]["finite_type"]
    assert any(not row["finite_type"] for row in rows)


def test_cli_reads_packaged_golden_once(tmp_path, monkeypatch, capsys):
    from minorbit import cli, golden
    calls = []

    def counting(path):
        calls.append(path)
        return load_golden(path)

    monkeypatch.setattr(golden, "load_golden", counting)
    cli._packaged_golden.cache_clear()
    try:
        for _ in range(3):
            assert cli.main(["--form", "sl(3,R)"]) == 0
        assert calls == [default_golden_path()]
        # a table named on the command line is read on every call
        p = tmp_path / "g.json"
        shutil.copy(default_golden_path(), p)
        for _ in range(2):
            assert cli.main(["--form", "sl(3,R)", "--golden", str(p)]) == 0
        assert calls == [default_golden_path(), str(p), str(p)]
    finally:
        cli._packaged_golden.cache_clear()
    capsys.readouterr()


def test_cli_builds_parser_once(monkeypatch, capsys):
    import argparse
    from minorbit import cli
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *a, **kw):
        built.append(1)
        init(self, *a, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            assert cli.main(["--form", "sl(3,R)", "--phi", "1"]) == 0
        assert len(built) == 1
        with pytest.raises(SystemExit) as exc:
            cli.main(["--form", "sl(3,R)", "--check", "bogus"])
        assert exc.value.code == 2
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()


@pytest.mark.parametrize("shape", ["top-level list", "unknown kind",
                                   "no predicates", "empty predicates",
                                   "list form", "repeated form",
                                   "repeated form, real row first",
                                   "params disagree with the catalog",
                                   "missing parameter", "missing kind"])
def test_cli_malformed_golden_exits_2(monkeypatch, capsys, tmp_path, shape):
    """A malformed golden table is a data error found when it is loaded,
    before any row is computed."""
    from minorbit import cli
    row = dict(load_golden(default_golden_path())["su(2,3)"])
    never = dict(row, predicates=[{"kind": "never"}])
    if shape == "top-level list":
        doc = [row]
    elif shape == "unknown kind":
        doc = {"rows": [dict(row, predicates=[{"kind": "bogus"}])]}
    elif shape == "missing parameter":  # so_star_ends reads l
        doc = {"rows": [dict(row, predicates=[{"kind": "so_star_ends"}])]}
    elif shape == "missing kind":
        doc = {"rows": [dict(row, predicates=[{"reading": 0}])]}
    elif shape == "empty predicates":
        doc = {"rows": [dict(row, predicates=[])]}
    elif shape == "list form":
        doc = {"rows": [dict(row, form=["su(2,3)"]), row]}
    elif shape == "repeated form":
        doc = {"rows": [never, row]}
    elif shape == "repeated form, real row first":
        doc = {"rows": [row, never]}
    elif shape == "params disagree with the catalog":
        doc = {"rows": [dict(row, params={"p": 1, "q": 4})]}
    else:
        del row["predicates"]
        doc = {"rows": [row]}
    p = tmp_path / "g.json"
    p.write_text(json.dumps(doc))
    _forbid_rows(monkeypatch)
    assert cli.main(["--form", "su(2,3)", "--golden", str(p)]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("error: golden comparison failed")


def test_package_has_no_assert_statement():
    """Invariants in the installed package raise real exceptions: an
    `assert` statement vanishes under `python -O`."""
    import ast
    from pathlib import Path

    import minorbit
    sources = sorted(Path(minorbit.__file__).parent.glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_classify_never_imports_fractions():
    """The installed package computes in integers only: a gauged classify
    row leaves `fractions` unimported."""
    code = ("import sys\n"
            "from minorbit import cli\n"
            "rc = cli.main(['--form', 'su(2,3)', '--phi', '2', "
            "'--gauge-seed', '1'])\n"
            "assert rc == 0, rc\n"
            "assert 'fractions' not in sys.modules, 'fractions imported'\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert r.returncode == 0, r.stderr


# stdlib modules that no classify request runs; importing any of them costs
# start-up time on every invocation
UNUSED_MODULES = ("dataclasses", "inspect", "typing", "importlib.resources",
                  "pathlib", "zipfile", "tempfile", "traceback")


def test_classify_imports_only_what_it_runs():
    """Without the site hook (`python -S`, which would import some of these
    itself), importing `minorbit.cli` leaves every module of
    UNUSED_MODULES unimported, and so do a gauged --phi row and a whole
    form under --check mot: no import moved into a request."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = ("import sys\n"
            f"unused = {UNUSED_MODULES!r}\n"
            "from minorbit import cli\n"
            "assert not [m for m in unused if m in sys.modules], "
            "[m for m in unused if m in sys.modules]\n"
            "rc = cli.main(['--form', 'su(2,3)', '--phi', '2', "
            "'--gauge-seed', '1'])\n"
            "assert rc == 0, rc\n"
            "rc = cli.main(['--form', 'so(3,4)', '--check', 'mot', "
            "'--no-golden'])\n"
            "assert rc == 0, rc\n"
            "assert not [m for m in unused if m in sys.modules], "
            "[m for m in unused if m in sys.modules]\n")
    r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                       env=dict(os.environ, PYTHONPATH=src))
    assert r.returncode == 0, r.stderr


def test_cli_missing_coverage(tmp_path):
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"version": 1, "rows": []}))
    r = run_cli(["--form", "sl(2,R)", "--golden", str(p)])
    assert r.returncode == 2


def test_cli_gauge_seed_same_verdicts():
    base = json.loads(run_cli(["--form", "sp(1,2)"]).stdout)
    for seed in ("1", "2", "3"):
        doc = json.loads(run_cli(["--form", "sp(1,2)",
                                  "--gauge-seed", seed]).stdout)
        assert [r["verdict"] for r in doc["rows"]] == \
            [r["verdict"] for r in base["rows"]]


def test_cli_check_mot_only():
    import csv
    import io
    r = run_cli(["--form", "sp(1,2)", "--check", "mot", "--no-golden",
                 "--format", "csv"])
    assert r.returncode == 0
    rows = list(csv.reader(io.StringIO(r.stdout.decode())))
    assert rows[0][4] == "span"
    assert all(row[4] == "false" for row in rows[1:])  # span engine off
    assert all(row[0] == "sp(1,2)" for row in rows[1:])


def test_compare_golden_api():
    gold = load_golden(default_golden_path())
    rows = [
        {"form": "FII", "phi": [3], "finite_type": True, "verdict": False},
        {"form": "FII", "phi": [1], "finite_type": True, "verdict": True},
        {"form": "FII", "phi": [], "finite_type": True, "verdict": True},
        {"form": "FII", "phi": [4], "finite_type": False, "verdict": False},
    ]
    diff = compare_golden(rows, gold["FII"])
    assert diff == {"pass": True, "reading": 0, "parity_rows": 2,
                    "mismatches": []}
    assert rows[0]["expected"] is False and rows[0]["match"] is True
    assert rows[1]["expected"] is True and rows[1]["match"] is True
    assert rows[2]["match"] is None and rows[3]["match"] is None


def test_compare_golden_stops_at_first_matching_reading(monkeypatch,
                                                        capsys):
    """The readings are evaluated in order up to the first that matches
    every parity row: so(2,5) (BI) matches its reading 0 and evaluates
    no other; so*(6) (DIIIb) matches its reading 1 only and evaluates
    both.  A later reading with an unknown kind is never evaluated."""
    from minorbit import cli, golden
    gold = cli._packaged_golden()
    calls = []
    evaluate = golden._eval_predicate

    def counting(doc, params, phi):
        calls.append(doc["kind"])
        return evaluate(doc, params, phi)

    monkeypatch.setattr(golden, "_eval_predicate", counting)
    for name, reading in (("so(2,5)", 0), ("so*(6)", 1)):
        assert cli.main(["--form", name, "--no-golden"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        calls.clear()
        diff = compare_golden(rows, gold[name])
        assert diff["pass"] and diff["reading"] == reading, name
        assert diff["parity_rows"] > 0
        kinds = [p["kind"] for p in gold[name]["predicates"]]
        assert len(kinds) == 2, name
        assert calls == [k for k in kinds[:reading + 1]
                         for _ in range(diff["parity_rows"])], name
        row = dict(gold[name], predicates=gold[name]["predicates"][
            :reading + 1] + [{"kind": "no-such-kind"}])
        assert compare_golden(rows, row)["reading"] == reading, name


def test_golden_table_covers_catalog():
    from minorbit.realform import catalog
    gold = load_golden(default_golden_path())
    for e in catalog(8):
        assert e.name in gold


def test_golden_table_file_matches_generator():
    from minorbit.golden import golden_table_doc
    from minorbit.realform import catalog
    with open(default_golden_path()) as fh:
        doc = json.load(fh)
    assert doc == golden_table_doc(catalog(8))
    assert len(doc["rows"]) == 201


def test_library_and_cli_resolve_labels_alike(capsys):
    from minorbit import cli
    from minorbit.realform import find_form
    direct = enumerate_form("DIIIa", phis=[{1}], max_rank=4)
    assert cli.main(["--form", "DIIIa", "--max-rank", "4", "--phi", "1",
                     "--no-golden"]) == 0
    assert json.loads(capsys.readouterr().out)["details"] == direct
    assert direct[0]["form"] == "so*(8)"
    assert find_form("AIIIa", p=2, q=3).name == "su(2,3)"
    with pytest.raises(KeyError):
        find_form("su(2,3)", p=1, q=9)


def test_structure_constant_dump_and_signs():
    from algebra_oracle import basis_conjugation_signs, ntable_json
    from minorbit.crflag import get_context
    ctx = get_context("su(1,2)")
    doc = json.loads(ntable_json(ctx.sc))
    assert doc["n"]
    for a, b, v in doc["n"]:
        assert isinstance(v, int) and v != 0
    signs = basis_conjugation_signs(ctx.conj)
    from gaussq import QQi
    assert signs[(1, 1)] == QQi(1)          # the real root
    assert signs[(1, 0)] in (QQi(0, 1), QQi(0, -1))  # complex needs +-i


def test_cli_passes_golden_on_every_rank6_form(capsys):
    """`classify --form <name>` (--check all, packaged golden table) exits 0
    on every form of catalog(6), and the reading each form selects is
    pinned: reading 0 for every form but so*(2l), BI and BII included
    (where so(p, p+1) has no parity row, every reading passes vacuously);
    reading 1 for DIIIa (so*(8), so*(12): `always`) and DIIIb (so*(6),
    so*(10): `so_star_ends`)."""
    from minorbit import cli
    from minorbit.realform import catalog
    gold = cli._packaged_golden()
    readings = {}
    for e in catalog(6):
        assert cli.main(["--form", e.name]) == 0, e.name
        rows = json.loads(capsys.readouterr().out)["rows"]
        diff = compare_golden(rows, gold[e.name])
        assert diff["pass"] and not diff["mismatches"], e.name
        readings[e.name] = diff["reading"]
    assert readings == {e.name: int(e.label.startswith("DIII"))
                        for e in catalog(6)}
    diii = {"so*(6)": "so_star_ends", "so*(8)": "always",
            "so*(10)": "so_star_ends", "so*(12)": "always"}
    for name, kind in diii.items():
        assert gold[name]["predicates"][readings[name]]["kind"] == kind


def test_cli_pins_rank_7_and_8_ambiguous_readings(capsys):
    """The ambiguous forms of rank 7-8 exit 0 as whole forms (--check all,
    packaged golden table) with these readings: 0 for every BI and BII
    form (so(7,8) and so(8,9) have no parity row, so every reading passes
    vacuously and the first is reported), 1 for so*(14) (DIIIb,
    `so_star_ends`) and so*(16) (DIIIa, `always`)."""
    from minorbit import cli
    from minorbit.realform import catalog
    gold = cli._packaged_golden()
    forms = [e for e in catalog(8) if e.rank >= 7 and e.label in
             ("BI", "BII", "DIIIa", "DIIIb")]
    assert len(forms) == 17
    readings, parity = {}, {}
    for e in forms:
        assert cli.main(["--form", e.name]) == 0, e.name
        rows = json.loads(capsys.readouterr().out)["rows"]
        summary = compare_golden(rows, gold[e.name])
        assert summary["pass"] and not summary["mismatches"], e.name
        readings[e.name] = summary["reading"]
        parity[e.name] = summary["parity_rows"]
    assert readings == {e.name: int(e.label.startswith("DIII"))
                        for e in forms}
    assert [n for n, k in parity.items() if not k] == ["so(7,8)", "so(8,9)"]
    for name, kind in (("so*(14)", "so_star_ends"), ("so*(16)", "always")):
        assert gold[name]["predicates"][readings[name]]["kind"] == kind
