"""Whole-form runs of real forms read their report rows from
`crflag.verdict_fields`, with no verdict document, witness chain or
certificate.  The document engine stays as the oracle: rows built from
`enumerate_form`, which runs `concavity_verdict` on every cross set, are
compared with `classify`'s output on every non-compact real form of rank
<= 5 under each `--check` mode, ungauged and under gauge seed 1.  The
bound-first chain decision is checked against the closure it skips, the
closures a row builds are counted, and the span's support rule and its
theorem rows are checked against the closure."""

import itertools
import json

import pytest

import chain_oracle as oracle
from minorbit import cli, crflag
from minorbit.cli import _report_rows
from minorbit.crflag import (Chains, _mot_targets, get_context, k_phi,
                             parabolic, phi_indices, phi_mask)
from minorbit.realform import catalog
from test_chain_oracle import RANDOM_FORMS, _random_draws
from test_swap_reuse import _classify, enumerate_form

REAL = [e for e in catalog(5)
        if e.rank <= 5 and e.label not in ("compact", "complex")]
CASES = [(e, check, seed) for seed in (None, 1)
         for check in ("mot", "span", "all") for e in REAL]


@pytest.mark.parametrize("entry,check,seed", CASES,
                         ids=[f"{e.name}-{c}-seed{s}" for e, c, s in CASES])
def test_whole_form_rows_equal_document_rows(entry, check, seed):
    argv = ["--form", entry.name, "--check", check, "--no-golden",
            "--max-rank", "5"]
    if seed is not None:
        argv += ["--gauge-seed", str(seed)]
    rc, stdout = _classify(argv)
    assert rc == 0
    want = _report_rows(enumerate_form(entry.name, gauge_seed=seed,
                                       check=check, max_rank=5))
    assert json.loads(stdout)["rows"] == want


def test_whole_form_real_runs_build_no_document(monkeypatch):
    """With the document path made to raise, whole-form real runs of every
    form of rank <= 4 still pass golden parity under each check mode."""
    def fail(*args, **kwargs):
        raise AssertionError("a verdict document was built")

    monkeypatch.setattr(cli, "concavity_verdict", fail)
    monkeypatch.setattr(crflag, "concavity_verdict", fail)
    monkeypatch.setattr(crflag, "hlc_reachability", fail)
    for e in catalog(4):
        if e.rank <= 4 and e.label != "complex":
            for check in ("mot", "span", "all"):
                assert _classify(["--form", e.name, "--check", check,
                                  "--max-rank", "4"])[0] == 0, (e.name, check)


def test_sufficiency_violation_still_fires_on_whole_forms(monkeypatch):
    # FII phi={1} satisfies the chain condition, so a failed span is a bug
    monkeypatch.setattr(crflag, "t_module_span", lambda chains: (False, []))
    with pytest.raises(crflag.SufficiencyViolation):
        crflag.verdict_fields(get_context("FII"), phi_mask((1,)),
                              check="all")
    assert cli.main(["--form", "FII", "--no-golden"]) == 3


@pytest.mark.parametrize("name,rank", RANDOM_FORMS,
                         ids=[n for n, _ in RANDOM_FORMS])
def test_bound_excluded_target_is_never_in_the_closure(name, rank):
    ctx = get_context(name)
    excluded = 0
    for pd, kphi, searches in _random_draws(ctx, name, rank):
        chains = Chains(ctx, pd, kphi)
        closure = chains.closure()[0]
        for g, minus in searches:
            target = ctx.negi(g) if minus else g
            reached = chains.reached(target)
            if chains.bound(target) is None:
                assert chains.closure()[0] is closure
                assert reached == (target in closure)
            else:
                assert not reached and target not in closure
                excluded += 1
    assert excluded


def _count_closures(monkeypatch) -> list:
    """Make `crflag.root_closure` append to the returned list per call."""
    closure = crflag.root_closure
    made = []

    def counting(ctx, start, moves):
        made.append(1)
        return closure(ctx, start, moves)

    monkeypatch.setattr(crflag, "root_closure", counting)
    return made


@pytest.mark.parametrize("check", ["mot", "span", "all"])
def test_whole_form_row_builds_at_most_one_closure(monkeypatch, check):
    """A row builds at most one closure.  Under --check mot it builds none
    when every chain target fails its coefficient bound.  Under --check
    span|all it builds none exactly when Q u conj(Q) is every root, so
    that the span holds by theorem, and no chain decision reads the
    closure: under --check all the chain condition stops at its first
    target, which reads the closure iff one of its roots has no bound.
    Every other row builds one."""
    made = _count_closures(monkeypatch)
    seen = set()
    for e in REAL:
        ctx = get_context(e.name, max_rank=5)
        for k in range(e.rank + 1):
            for phi in itertools.combinations(range(1, e.rank + 1), k):
                before = len(made)
                crflag.verdict_fields(ctx, phi_mask(phi), check=check)
                built = len(made) - before
                assert built <= 1, (e.name, phi)
                pd = parabolic(ctx, phi_mask(phi))
                kphi = k_phi(ctx, pd)
                levi = crflag._levi_classes(ctx, pd)
                bounds = Chains(ctx, pd, kphi).bounds
                targets = list(_mot_targets(ctx, pd, levi))

                def bounded(r):
                    return any(ctx.rs.roots[ctx.negi(r)][j] < lo
                               for j, lo in bounds)

                if check == "mot":
                    all_bounded = all(bounded(r) for choices in targets
                                      for r in choices)
                    if all_bounded:
                        assert built == 0, (e.name, phi)
                    seen.add((all_bounded, built))
                    continue
                theorem = pd.Q | pd.Qbar == ctx.every_root
                chain_reads = check == "all" and bool(targets) and not all(
                    bounded(r) for r in targets[0])
                assert built == (0 if theorem and not chain_reads else 1), \
                    (e.name, phi)
                seen.add((theorem, built))
    assert {(True, 0), (False, 1)} <= seen, seen


@pytest.mark.parametrize("seed", (None, 1))
def test_every_chain_target_is_bound_excluded_or_reached(seed):
    """Every chain target that `_mot_targets` lists, not only the first
    that fails, is either excluded by a coefficient bound or reached, on
    every cross set of every non-compact form of `catalog(6)` with
    dimension <= 80, complex-type forms included: no target is left
    unreached by a closure run to exhaustion.  A candidate theorem (see
    ROADMAP.md); with random kernel sets that case does occur, so no
    decision relies on it."""
    counts = {"bound": 0, "reached": 0}
    for e in catalog(6):
        if e.label == "compact" or e.dim > 80:
            continue
        ctx = get_context(e.name, seed, max_rank=6)
        for k in range(e.rank + 1):
            for phi in itertools.combinations(range(1, e.rank + 1), k):
                pd = parabolic(ctx, phi_mask(phi))
                levi = crflag._levi_classes(ctx, pd)
                chains = Chains(ctx, pd, k_phi(ctx, pd))
                for choices in _mot_targets(ctx, pd, levi):
                    for r in choices:
                        target = ctx.negi(r)
                        if chains.bound(target) is not None:
                            counts["bound"] += 1
                        else:
                            assert target in chains.closure()[0], \
                                (e.name, phi, r)
                            counts["reached"] += 1
    assert counts["bound"] and counts["reached"], counts


def _assert_span_theorem_row(chains, made):
    """`t_module_span` gives (True, [rank + |R|]) with no closure built,
    equal to the closure of the oracle."""
    ctx, pd = chains.ctx, chains.pd
    before = len(made)
    got = crflag.t_module_span(chains)
    assert len(made) == before, (ctx.diag.name, phi_indices(pd.phi))
    assert got == (True, [ctx.rs.rank + len(ctx.rs.roots)]), \
        (ctx.diag.name, phi_indices(pd.phi))
    assert got == oracle.t_module_span(ctx, pd, k_phi(ctx, pd))


@pytest.mark.parametrize("seed", (None, 1))
def test_span_support_rule_matches_the_closure(monkeypatch, seed):
    """The support rule of the span (ROADMAP item 14), which no decision
    reads: with M = K_Phi u conj(K_Phi) the chain moves, the span holds
    iff M meets the table set neg[j] of every simple index j.  It equals
    the closure span of `chain_oracle.t_module_span` on every cross set
    of every real form of `catalog(8)` that is neither compact nor of
    complex type (13,614 rows per gauge).  The theorem rows, where
    Q u conj(Q) is every root, get the full span from `t_module_span`
    with no closure: every cross set of every compact form of rank <= 6
    and the empty cross set of every form above."""
    made = _count_closures(monkeypatch)
    agree = set()
    for e in catalog(8):
        if e.label == "complex" or e.label == "compact" and e.rank > 6:
            continue
        ctx = get_context(e.name, seed)
        for k in range(e.rank + 1):
            for phi in itertools.combinations(range(1, e.rank + 1), k):
                pd = parabolic(ctx, phi_mask(phi))
                kphi = k_phi(ctx, pd)
                chains = Chains(ctx, pd, kphi)
                if e.label == "compact" or not phi:
                    _assert_span_theorem_row(chains, made)
                if e.label == "compact":
                    continue
                rule = all(chains.moves & neg for neg in ctx.neg)
                span = oracle.t_module_span(ctx, pd, kphi)[0]
                assert rule == span, (e.name, phi)
                agree.add(span)
    assert agree == {True, False}
