"""Whole-form runs of complex-type forms read their report rows from
`crflag.complex_type_verdict`, with no form context and no closure.  The
engine stays as the oracle: rows built from `enumerate_form`, which runs
`concavity_verdict` on every cross set, are compared with `classify`'s
output on every complex-type form of dimension <= 150 (ungauged and under
gauge seed 1, with golden comparison on), and under `--check mot` and
`--check span` on those of dimension <= 80.  The proof's hypotheses are
checked too: the shape of every doubled catalog entry, and the root-poset
lemma on every simple type of rank <= 8."""

import io
import sys

import pytest

from minorbit import cli, crflag
from minorbit.cli import _report_rows, emit
from minorbit.golden import compare_golden
from minorbit.realform import catalog, find_form
from minorbit.rootsys import build_root_system

COMPLEX = [e for e in catalog(8) if e.label == "complex" and e.dim <= 150]
CASES = [(e, seed) for seed in (None, 1) for e in COMPLEX]
SMALL = [(e, check) for check in ("mot", "span") for e in COMPLEX
         if e.dim <= 80]
SIMPLE_TYPES = ([("A", l) for l in range(1, 9)] +
                [(f, l) for f, lo in (("B", 2), ("C", 3), ("D", 3))
                 for l in range(lo, 9)] +
                [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


def enumerate_form(name: str, phis=None, gauge_seed=None, check="all",
                   max_rank: int = 8) -> list[dict]:
    """Verdict documents for the given cross sets (all subsets by default),
    in deterministic row order, each computed directly by
    `concavity_verdict`: the oracle of the whole-form rows."""
    diag = find_form(name, max_rank)
    if phis is None:
        phis = [phi for _, phi in cli._all_phi(diag.rank)]
    ctx = crflag.get_context(diag.name, gauge_seed, max_rank)
    return [crflag.concavity_verdict(ctx, tuple(sorted(p)), check)
            for p in phis]


def test_enumerate_form_library_api():
    rows = enumerate_form("sl(2,R)")
    assert len(rows) == 2
    assert all(r["form"] == "sl(2,R)" for r in rows)
    with pytest.raises(KeyError):
        enumerate_form("not-a-form")
    one = enumerate_form("FII", phis=[{3}])
    assert len(one) == 1 and one[0]["verdict"] is False


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


def _forbid_engine(monkeypatch):
    """Make building a form context or computing a verdict fail."""
    def fail(*args, **kwargs):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(crflag, "get_context", fail)
    monkeypatch.setattr(cli, "get_context", fail)  # a cached context too
    monkeypatch.setattr(crflag, "FormContext", fail)
    monkeypatch.setattr(cli, "concavity_verdict", fail)


@pytest.mark.parametrize("entry,seed", CASES,
                         ids=[f"{e.name}-seed{s}" for e, s in CASES])
def test_reused_rows_equal_direct_rows(monkeypatch, entry, seed):
    """The formula's rows, as `classify` prints them, equal the engine's."""
    rows = _report_rows(enumerate_form(entry.name, gauge_seed=seed))
    assert compare_golden(
        rows, cli._packaged_golden()[entry.name])["mismatches"] == []
    argv = ["--form", entry.name, "--check", "all"]
    if seed is not None:
        argv += ["--gauge-seed", str(seed)]
    _forbid_engine(monkeypatch)
    assert _classify(argv) == (0, emit(rows, "json"))


@pytest.mark.parametrize("entry,check", SMALL,
                         ids=[f"{e.name}-{c}" for e, c in SMALL])
def test_formula_rows_under_one_check(monkeypatch, entry, check):
    rows = _report_rows(enumerate_form(entry.name, check=check))
    _forbid_engine(monkeypatch)
    assert _classify(["--form", entry.name, "--check", check,
                      "--no-golden"]) == (0, emit(rows, "json"))


def test_doubled_entries_have_the_proofs_shape():
    """No black node and the arrows j <-> j + l, so the conjugation is the
    copy swap: the hypothesis of `complex_type_verdict`."""
    doubled = [e for e in catalog(8) if e.doubled]
    assert [e.name for e in doubled] == [e.name for e in catalog(8)
                                         if e.label == "complex"]
    for e in doubled:
        half = e.rank // 2
        assert not e.black, e.name
        assert e.arrows == {j: j + half if j <= half else j - half
                            for j in range(1, e.rank + 1)}, e.name


@pytest.mark.parametrize("family,rank", SIMPLE_TYPES,
                         ids=[f"{f}{l}" for f, l in SIMPLE_TYPES])
def test_root_poset_lemma(family, rank):
    """Adding simple roots to alpha_i, staying inside the root set, reaches
    every positive root whose support holds i."""
    rs = build_root_system(family, rank)
    simples = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    for i, start in enumerate(simples):
        reached, frontier = {start}, [start]
        while frontier:
            nxt = []
            for r in frontier:
                for s in simples:
                    t = tuple(x + y for x, y in zip(r, s))
                    if t in rs.index and t not in reached:
                        reached.add(t)
                        nxt.append(t)
            frontier = nxt
        assert reached == {r for r in rs.roots if r[i] > 0}


def test_single_phi_is_computed_directly(calls):
    rc, stdout = _classify(["--form", "sl(3,C)", "--phi", "3"])
    assert rc == 0 and calls == [(3,)]
    direct = enumerate_form("sl(3,C)", phis=[{3}])
    rows = _report_rows(direct)
    compare_golden(rows, cli._packaged_golden()["sl(3,C)"])
    assert emit(rows, "json", direct) == stdout
