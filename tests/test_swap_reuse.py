"""Whole-form runs of complex-type forms compute one verdict per orbit of
the copy swap (Phi_1, Phi_2) -> (Phi_2, Phi_1) and give the swapped cross
set the same report row with its own phi (`cli._swap_source`).  Checked
here against rows built directly from `enumerate_form`, which computes
every cross set, on every complex-type form of dimension <= 150, ungauged
and under gauge seed 1, with golden comparison on."""

import io
import sys

import pytest

from minorbit import cli
from minorbit.cli import _all_phi, _report_rows, emit, enumerate_form
from minorbit.golden import compare_golden
from minorbit.realform import catalog

COMPLEX = [e for e in catalog(8) if e.label == "complex" and e.dim <= 150]
CASES = [(e, seed) for seed in (None, 1) for e in COMPLEX]


def _orbits(rank: int) -> int:
    half = rank // 2
    return len({frozenset({p, frozenset(j + half if j <= half else j - half
                                        for j in p)})
                for p in _all_phi(rank)})


def _classify(argv):
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


@pytest.fixture
def calls(monkeypatch):
    """The cross sets `cli` asks `concavity_verdict` for, in call order."""
    verdict = cli.concavity_verdict
    seen = []

    def counting(*args):
        seen.append(args[1])
        return verdict(*args)

    monkeypatch.setattr(cli, "concavity_verdict", counting)
    return seen


@pytest.mark.parametrize("entry,seed", CASES,
                         ids=[f"{e.name}-seed{s}" for e, s in CASES])
def test_reused_rows_equal_direct_rows(calls, entry, seed):
    argv = ["--form", entry.name, "--check", "all", "--allow-large"]
    if seed is not None:
        argv += ["--gauge-seed", str(seed)]
    rc, stdout = _classify(argv)
    assert rc == 0
    made = list(calls)
    assert len(made) == len(set(made)) == _orbits(entry.rank)

    rows = _report_rows(enumerate_form(entry.name, gauge_seed=seed))
    assert compare_golden(rows, cli._packaged_golden())["mismatches"] == []
    assert emit(rows, "json") == stdout


def test_single_phi_is_computed_directly(calls):
    rc, stdout = _classify(["--form", "sl(3,C)", "--phi", "3"])
    assert rc == 0 and calls == [(3,)]
    direct = enumerate_form("sl(3,C)", phis=[{3}])
    rows = _report_rows(direct)
    compare_golden(rows, cli._packaged_golden())
    assert emit(rows, "json", direct) == stdout
