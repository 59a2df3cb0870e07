"""Differential test: the one-closure-per-cross-set chain search, the span
read from it, the row-walking `root_closure`, `parabolic`, the support-rule
`finite_type` and the pair-list `q_form` of `minorbit.crflag` against the
versions kept in `chain_oracle` (its `q_form` is the dense Killing-scaled
matrix, compared after scaling the integer entries), and a count of the
closures a verdict runs."""

import itertools
import random

import pytest

import chain_oracle as oracle
from levi_oracle import densify, killing_scale
from minorbit import crflag
from minorbit.crflag import (get_context, indices, k_phi, parabolic,
                             phi_indices, phi_mask)
from minorbit.realform import catalog
from test_acceptance import INSTANCES

# every instance row ungauged and under gauge seed 1, and every cross set
# of three rank-6 forms of types A, B and E
FORMS = [(name, rank, seed) for seed in (None, 1) for name, rank in INSTANCES]
FORMS += [("sl(7,R)", 6, None), ("so(2,11)", 6, None), ("EI", 6, None)]


def _searches(ctx, pd):
    """Every search a verdict reports: each real characteristic root toward
    both signs, each complex characteristic root toward minus."""
    out = []
    for g in indices(pd.Qn):
        cg = ctx.c(g)
        if cg == g:
            out += [(g, True), (g, False)]
        elif cg != ctx.negi(g):
            out.append((g, True))
    return out


def _search(chains, g, minus):
    """The chain search toward -g, or toward +g of a real root g the answer
    `concavity_verdict` writes without a search."""
    if minus:
        return crflag.hlc_reachability(chains, g)
    return {"reached": True, "chain": [list(chains.ctx.rs.roots[g])]}


def _assert_chains_match(chains, kphi, searches, kinds):
    ctx, pd = chains.ctx, chains.pd
    for g, minus in searches:
        got = _search(chains, g, minus)
        want = oracle.hlc_reachability(ctx, pd, kphi, g, minus)
        assert got == want, (ctx.diag.name, phi_indices(pd.phi), g, minus)
        kinds.add(got["certificate"]["kind"] if not got["reached"]
                  else "reached")


@pytest.mark.parametrize("name,rank,seed", FORMS,
                         ids=[f"{n}-seed{s}" for n, _, s in FORMS])
def test_chain_search_matches_per_target_oracle(name, rank, seed):
    ctx = get_context(name, seed)
    for k in range(rank + 1):
        for phi in itertools.combinations(range(1, rank + 1), k):
            pd = parabolic(ctx, phi_mask(phi))
            ft = crflag.finite_type(ctx, pd)
            assert ft == oracle.finite_type(ctx, pd)
            assert ft == oracle.finite_type_rows(ctx, pd)
            # the span runs first, so unless Q u conj(Q) is every root it
            # starts the cross set's closure
            kphi = k_phi(ctx, pd)
            chains = crflag.Chains(ctx, pd, kphi)
            assert crflag.t_module_span(chains) == \
                oracle.t_module_span(ctx, pd, kphi), (name, phi)
            for t in range(len(ctx.rs.roots)):
                index, entries = crflag.q_form(ctx, pd, t)
                want_index, want = oracle.q_form(ctx, pd, t)
                assert index == want_index
                assert densify(index, entries, killing_scale(ctx, t)) == want
            _assert_chains_match(chains, kphi, _searches(ctx, pd), set())


def test_parabolic_and_closure_match_oracles_on_rank6_catalog():
    """`parabolic` against the sign-and-support oracle on every cross set of
    every rank <= 6 form, and the row-walking `root_closure` against the
    move-by-move one (parent map in discovery order, and sizes), from
    conj(Q) under K u conj(K) and under a seeded random subset of Q."""
    rng = random.Random("root-closure")
    for entry in catalog(6):
        if entry.rank > 6:
            continue
        ctx = get_context(entry.name, max_rank=6)
        for k in range(entry.rank + 1):
            for phi in itertools.combinations(range(1, entry.rank + 1), k):
                pd = parabolic(ctx, phi_mask(phi))
                assert pd == oracle.parabolic(ctx, phi), (entry.name, phi)
                kphi = k_phi(ctx, pd)
                q = indices(pd.Q)
                ks = indices(kphi)
                for moves in (ks + [ctx.c(a) for a in ks],
                              rng.sample(q, rng.randint(0, len(q)))):
                    moves = oracle.mask_of(moves)
                    got = crflag.root_closure(ctx, pd.Qbar, moves)
                    want = oracle.root_closure_by_moves(ctx, pd.Qbar, moves)
                    assert list(got[0].items()) == list(want[0].items())
                    assert got[1] == want[1]


def test_finite_type_matches_closure_on_rank6_catalog():
    verdicts = set()
    for entry in catalog(6):
        if entry.rank > 6:
            continue
        ctx = get_context(entry.name, max_rank=6)
        for k in range(entry.rank + 1):
            for phi in itertools.combinations(range(1, entry.rank + 1), k):
                pd = parabolic(ctx, phi_mask(phi))
                got = crflag.finite_type(ctx, pd)
                assert got == oracle.finite_type_rows(ctx, pd), \
                    (entry.name, phi)
                verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("check", ["all", "span", "mot"])
def test_verdict_runs_one_root_closure(monkeypatch, check):
    closure = crflag.root_closure
    starts = []

    def counting(ctx, start, moves):
        starts.append(start)
        return closure(ctx, start, moves)

    monkeypatch.setattr(crflag, "root_closure", counting)
    seen = set()
    for name, rank in INSTANCES:
        ctx = get_context(name)
        for k in range(rank + 1):
            for phi in itertools.combinations(range(1, rank + 1), k):
                pd = parabolic(ctx, phi_mask(phi))
                before = len(starts)
                crflag.finite_type(ctx, pd)
                assert len(starts) == before
                crflag.concavity_verdict(ctx, phi, check=check)
                # --check mot reads the closure only when a chain is
                # searched; under --check span|all a row builds none
                # exactly when Q u conj(Q) is every root, so the span holds
                # by theorem, and no chain search reads it: the document
                # searches every root of every target, and a search reads
                # the closure iff no bound excludes its target
                made = len(starts) - before
                if check == "mot":
                    assert made in (0, 1), (name, phi)
                else:
                    theorem = pd.Q | pd.Qbar == ctx.every_root
                    chains = crflag.Chains(ctx, pd, k_phi(ctx, pd))
                    levi = crflag._levi_classes(ctx, pd)
                    chain_reads = check == "all" and any(
                        chains.bound(ctx.negi(r)) is None
                        for choices in crflag._mot_targets(ctx, pd, levi)
                        for r in choices)
                    assert made == (0 if theorem and not chain_reads else 1), \
                        (name, phi)
                    seen.add((theorem, made))
                # the one closure starts from conj(Q), never Q u conj(Q)
                assert starts[before:] in ([], [pd.Qbar]), (name, phi)
    if check != "mot":
        assert {(True, 0), (False, 1)} <= seen, seen


# Real kernel sets rarely leave a target unreached by an exhausted closure,
# so seeded random subsets of Q stand in for K_Phi to reach that branch.
RANDOM_FORMS = [(name, rank) for name, rank in INSTANCES if rank >= 3]
RANDOM_FORMS += [("sl(7,R)", 6), ("so(2,11)", 6), ("EI", 6)]


def _random_draws(ctx, name, rank, count=24):
    rng = random.Random(f"chain-{name}")
    draws = []
    for _ in range(count):
        phi = rng.sample(range(1, rank + 1), rng.randint(1, rank))
        pd = parabolic(ctx, phi_mask(phi))
        q = indices(pd.Q)
        kphi = oracle.mask_of(rng.sample(q, rng.randint(0, len(q) // 2)))
        draws.append((pd, kphi, _searches(ctx, pd)))
    return draws


@pytest.mark.parametrize("name,rank", RANDOM_FORMS,
                         ids=[n for n, _ in RANDOM_FORMS])
def test_chain_search_matches_oracle_on_random_kernels(name, rank):
    ctx = get_context(name)
    draws = _random_draws(ctx, name, rank)
    kinds = set()
    for pd, kphi, searches in draws:
        _assert_chains_match(crflag.Chains(ctx, pd, kphi), kphi, searches,
                             kinds)
    # revisit in reverse so that each search follows a different cross set
    for pd, kphi, searches in reversed(draws):
        _assert_chains_match(crflag.Chains(ctx, pd, kphi), kphi, searches[:1],
                             kinds)
    assert {"reached", "coefficient-bound"} <= kinds, kinds


def test_random_kernels_reach_every_certificate_kind():
    # in a split form c fixes every root, so start and moves lie in Q, whose
    # Phi coordinates are >= 0, and every unreached target has a coefficient
    # bound; the exhausted branch is therefore counted over all forms
    kinds = set()
    for name, rank in RANDOM_FORMS:
        ctx = get_context(name)
        for pd, kphi, searches in _random_draws(ctx, name, rank):
            chains = crflag.Chains(ctx, pd, kphi)
            for g, minus in searches:
                res = _search(chains, g, minus)
                kinds.add(res["certificate"]["kind"] if not res["reached"]
                          else "reached")
    assert kinds == {"reached", "coefficient-bound", "closure-exhausted"}
