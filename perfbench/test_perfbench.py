"""Tests of the benchmark's own pieces.

    python3 -m pytest perfbench -q
"""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
from checker import Checker  # noqa: E402
from child import run_request  # noqa: E402
from workloads import WORKLOADS, pass_requests, strata  # noqa: E402

REFS = json.loads((HERE / "reference_rows.json").read_text())
FORMS = REFS["forms"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_argv_other_seed_other_sample(workload):
    def argvs(seed):
        return [[q["argv"] for q in pass_requests(workload, seed, r, FORMS)]
                for r in range(3)]

    assert argvs(7) == argvs(7)
    assert argvs(7) != argvs(8)
    # another seed draws other items, not only another order
    picks = [sorted(map(str, a)) for a in argvs(7)]
    assert picks != [sorted(map(str, a)) for a in argvs(8)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pass_sends_one_item_per_stratum(workload):
    groups = strata(workload, FORMS)
    for r in range(3):
        reqs = pass_requests(workload, 3, r, FORMS)
        assert len(reqs) == len(groups)
        for q in reqs:
            assert q["form"] in REFS["rows"][q["check"]]


def test_sweep_mot_gauges_half_the_requests():
    reqs = pass_requests("sweep-mot", 5, 0, FORMS)
    gauged = [q for q in reqs if "--gauge-seed" in q["argv"]]
    assert len(gauged) == len(reqs) // 2


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # b holds 0.5 s of counted calls
    spans = [
        ["root", 0.0, 10.0, None, 0, 0.0],
        ["a", 1.0, 4.0, 0, 0, 0.0],
        ["c", 2.0, 3.0, 1, 0, 0.0],
        ["b", 5.0, 9.0, 0, 0, 0.5],
        ["a", 11.0, 12.0, None, 1, 0.0],
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx({"root": 3.0, "a": 3.0, "c": 1.0, "b": 3.5})


class _FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_tracer_records_parents_and_counted_calls():
    lib = types.SimpleNamespace(leaf=lambda: 1)
    mod = types.SimpleNamespace(outer=lambda: lib.leaf() + lib.leaf())
    tr = tracing.Tracer(clock=_FakeClock())
    tr.span(mod, "outer", "outer")
    tr.count(lib, "leaf", "leaf")
    tr.request = 4
    assert mod.outer() == 2
    tr.restore()
    (rec,) = tr.spans
    assert rec[tracing.NAME] == "outer" and rec[tracing.REQUEST] == 4
    assert tr.calls["leaf"] == [2, 2.0]
    assert rec[tracing.COUNTED] == 2.0
    # 5 clock ticks inside the span, 2 of them in counted calls
    assert tracing.self_times(tr.spans)["outer"] == 3.0


def _report(rows):
    return json.dumps({"rows": rows})


def _row(form, phi, check):
    vals = REFS["rows"][check][form]["+".join(map(str, phi)) or "-"]
    row = dict(zip(REFS["fields"], vals))
    row.update(form=form, phi=phi, expected=None, match=None)
    return row


def test_checker_accepts_reference_row():
    q = {"form": "FII", "check": "all", "phi": [3], "gauged": False}
    res = {"rc": 0, "out": _report([_row("FII", [3], "all")]), "err": ""}
    assert Checker(REFS).problem(q, res) is None


def test_checker_counts_a_raise_and_a_bad_exit():
    q = {"form": "FII", "check": "all", "phi": [3], "gauged": False}
    assert Checker(REFS).problem(q, {"rc": None, "out": "",
                                     "err": "raised ValueError: x"})
    assert Checker(REFS).problem(q, {"rc": 1, "out": "", "err": ""})
    assert Checker(REFS).problem(q, {"rc": 2, "out": "", "err": "bad"})


def test_checker_counts_an_altered_row():
    q = {"form": "FII", "check": "all", "phi": [3], "gauged": False}
    for field in REFS["fields"]:
        row = _row("FII", [3], "all")
        row[field] = "x" if field == "levi" else not row[field]
        res = {"rc": 0, "out": _report([row]), "err": ""}
        assert Checker(REFS).problem(q, res), field
    res = {"rc": 0, "out": _report([_row("FII", [3], "all"),
                                    _row("FII", [1], "all")]), "err": ""}
    assert Checker(REFS).problem(q, res)


def test_checker_sufficiency_direction():
    form = next(f for f, rows in REFS["rows"]["mot"].items()
                if any(v[0] and v[2] and k != "-" for k, v in rows.items()))
    key = next(k for k, v in REFS["rows"]["mot"][form].items()
               if v[0] and v[2] and k != "-")
    phi = [int(x) for x in key.split("+")]
    q = {"form": form, "check": "mot", "phi": phi, "gauged": False}
    res = {"rc": 0, "out": _report([_row(form, phi, "mot")]), "err": ""}
    assert key in REFS["golden_concave"][form]
    assert Checker(REFS).problem(q, res) is None
    refs = dict(REFS, golden_concave=dict(REFS["golden_concave"]))
    refs["golden_concave"][form] = [k for k in refs["golden_concave"][form]
                                    if k != key]
    why = Checker(refs).problem(q, res)
    assert why and "golden predicate" in why


def test_traced_run_restores_module_attributes():
    from minorbit import chevalley, cli, crflag, golden, realform

    owners = [cli, golden, crflag, crflag.FormContext, realform.SatakeDiagram,
              chevalley.StructureConstants]
    before = [dict(vars(o)) for o in owners]
    tr = tracing.Tracer()
    tracing.install(tr)
    assert cli.__dict__["main"] is not before[0]["main"]
    try:
        res = run_request(cli, ["--form", "su(2,3)", "--phi", "2",
                                "--check", "all"])
    finally:
        tr.restore()
    assert res["rc"] == 0
    assert [dict(vars(o)) for o in owners] == before
    metrics = tracing.layer_metrics(tr)
    assert metrics["crflag.rows"] == 1
    assert metrics["chevalley.bracket_calls"] > 0
    assert metrics["crflag.span_rounds"] > 0
