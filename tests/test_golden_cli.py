import json
import os
import shutil
import subprocess
import sys

import pytest

from minorbit.cli import default_golden_path, emit
from minorbit.golden import compare_golden, load_golden


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


def test_cli_params_must_agree_with_an_exact_name(capsys):
    from minorbit import cli
    for extra in (["--p", "1", "--q", "9"], ["--p", "3"], ["--l", "5"]):
        assert cli.main(["--form", "su(2,3)", "--dump-form", *extra]) == 2
        assert "unknown form" in capsys.readouterr().err
    # agreeing parameters, and --l as the rank of a form without an l
    for extra in (["--p", "2"], ["--p", "2", "--q", "3"], ["--l", "4"]):
        assert cli.main(["--form", "su(2,3)", "--dump-form", *extra]) == 0
        assert json.loads(capsys.readouterr().out)["name"] == "su(2,3)"


def test_cli_internal_error_exit_code(monkeypatch, capsys):
    from minorbit import cli, crflag
    from minorbit.realform import ConjugationError
    # FII phi={1} satisfies the chain condition, so a failed span is a bug
    monkeypatch.setattr(crflag, "t_module_span",
                        lambda ctx, pd, kp: (False, []))
    assert cli.main(["--form", "FII", "--phi", "1", "--no-golden"]) == 3
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("internal error\n")
    assert "Traceback" in err and "SufficiencyViolation" in err

    def data_error(ctx, pd, kp):
        raise ConjugationError("bad catalog entry")

    monkeypatch.setattr(crflag, "t_module_span", data_error)
    assert cli.main(["--form", "FII", "--phi", "1", "--no-golden"]) == 2
    assert capsys.readouterr().err == "error: bad catalog entry\n"


def test_cli_large_gate():
    r = run_cli(["--form", "EIX", "--phi", "1"])
    assert r.returncode == 2
    assert b"--allow-large" in r.stderr


def test_cli_mismatch_exit_code(tmp_path):
    gold = load_golden(default_golden_path())
    doc = {"version": 1, "rows": [dict(gold["FII"])]}
    doc["rows"][0]["predicates"] = [{"kind": "always"}]
    p = tmp_path / "g.json"
    p.write_text(json.dumps(doc))
    r = run_cli(["--form", "FII", "--golden", str(p)])
    assert r.returncode == 1


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
                                   "no predicates"])
def test_cli_malformed_golden_exits_2(tmp_path, shape):
    row = dict(load_golden(default_golden_path())["su(2,3)"])
    if shape == "top-level list":
        doc = [row]
    elif shape == "unknown kind":
        doc = {"rows": [dict(row, predicates=[{"kind": "bogus"}])]}
    else:
        del row["predicates"]
        doc = {"rows": [row]}
    p = tmp_path / "g.json"
    p.write_text(json.dumps(doc))
    r = run_cli(["--form", "su(2,3)", "--golden", str(p)])
    assert r.returncode == 2, r.stderr
    assert b"error: golden comparison failed" in r.stderr
    assert b"Traceback" not in r.stderr


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
    diff = compare_golden(rows, gold)
    assert not diff["mismatches"]
    assert diff["forms"]["FII"]["pass"]
    assert diff["parity_rows"] == 2
    assert rows[2]["match"] is None and rows[3]["match"] is None
    with pytest.raises(KeyError):
        compare_golden([{"form": "zz", "phi": [], "finite_type": True,
                         "verdict": True}], gold)


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


def test_enumerate_form_library_api():
    from minorbit.cli import enumerate_form
    rows = enumerate_form("sl(2,R)")
    assert len(rows) == 2
    assert all(r["form"] == "sl(2,R)" for r in rows)
    with pytest.raises(KeyError):
        enumerate_form("not-a-form")
    one = enumerate_form("FII", phis=[{3}])
    assert len(one) == 1 and one[0]["verdict"] is False


def test_library_and_cli_resolve_labels_alike(capsys):
    from minorbit import cli
    from minorbit.realform import find_form
    direct = cli.enumerate_form("DIIIa", phis=[{1}], max_rank=4)
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
