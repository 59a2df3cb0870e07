"""Differential test: the one-closure-per-cross-set chain search, the
sum-row `finite_type` and the pair-list `q_form` of `minorbit.crflag`
against the per-call versions kept in `chain_oracle` (its `q_form` is the
dense Killing-scaled matrix, compared after scaling the integer entries)."""

import itertools
import random

import pytest

import chain_oracle as oracle
from levi_oracle import densify, killing_scale
from minorbit import crflag
from minorbit.crflag import get_context, k_phi, parabolic
from test_acceptance import INSTANCES

# every instance row ungauged and under gauge seed 1, and every cross set
# of three rank-6 forms of types A, B and E
FORMS = [(name, rank, seed) for seed in (None, 1) for name, rank in INSTANCES]
FORMS += [("sl(7,R)", 6, None), ("so(2,11)", 6, None), ("EI", 6, None)]


def _searches(ctx, pd):
    """Every search a verdict can ask for: each real characteristic root
    toward both signs, each complex characteristic root toward minus."""
    out = []
    for g in sorted(pd.Qn):
        cg = ctx.c(g)
        if cg == g:
            out += [(g, True), (g, False)]
        elif cg != ctx.negi(g):
            out.append((g, True))
    return out


def _assert_chains_match(ctx, pd, kphi, searches, kinds):
    for g, minus in searches:
        got = crflag.hlc_reachability(ctx, pd, kphi, g, minus)
        want = oracle.hlc_reachability(ctx, pd, kphi, g, minus)
        assert got == want, (ctx.diag.name, sorted(pd.phi), g, minus)
        kinds.add(got["certificate"]["kind"] if not got["reached"]
                  else "reached")


@pytest.mark.parametrize("name,rank,seed", FORMS,
                         ids=[f"{n}-seed{s}" for n, _, s in FORMS])
def test_chain_search_matches_per_target_oracle(name, rank, seed):
    ctx = get_context(name, seed)
    for k in range(rank + 1):
        for phi in itertools.combinations(range(1, rank + 1), k):
            pd = parabolic(ctx, phi)
            assert crflag.finite_type(ctx, pd) == oracle.finite_type(ctx, pd)
            for t in range(len(ctx.rs.roots)):
                index, entries = crflag.q_form(ctx, pd, t)
                want_index, want = oracle.q_form(ctx, pd, t)
                assert index == want_index
                assert densify(index, entries, killing_scale(ctx, t)) == want
            _assert_chains_match(ctx, pd, k_phi(ctx, pd),
                                 _searches(ctx, pd), set())


# Real kernel sets rarely leave a target unreached by an exhausted closure,
# so seeded random subsets of Q stand in for K_Phi to reach that branch.
RANDOM_FORMS = [(name, rank) for name, rank in INSTANCES if rank >= 3]
RANDOM_FORMS += [("sl(7,R)", 6), ("so(2,11)", 6), ("EI", 6)]


def _random_draws(ctx, name, rank, count=24):
    rng = random.Random(f"chain-{name}")
    draws = []
    for _ in range(count):
        phi = rng.sample(range(1, rank + 1), rng.randint(1, rank))
        pd = parabolic(ctx, phi)
        q = sorted(pd.Q)
        kphi = frozenset(rng.sample(q, rng.randint(0, len(q) // 2)))
        draws.append((pd, kphi, _searches(ctx, pd)))
    return draws


@pytest.mark.parametrize("name,rank", RANDOM_FORMS,
                         ids=[n for n, _ in RANDOM_FORMS])
def test_chain_search_matches_oracle_on_random_kernels(name, rank):
    ctx = get_context(name)
    draws = _random_draws(ctx, name, rank)
    kinds = set()
    for pd, kphi, searches in draws:
        _assert_chains_match(ctx, pd, kphi, searches, kinds)
    # revisit in reverse so that each search follows a different cross set
    for pd, kphi, searches in reversed(draws):
        _assert_chains_match(ctx, pd, kphi, searches[:1], kinds)
    assert {"reached", "coefficient-bound"} <= kinds, kinds


def test_random_kernels_reach_every_certificate_kind():
    # in a split form c fixes every root, so start and moves lie in Q, whose
    # Phi coordinates are >= 0, and every unreached target has a coefficient
    # bound; the exhausted branch is therefore counted over all forms
    kinds = set()
    for name, rank in RANDOM_FORMS:
        ctx = get_context(name)
        for pd, kphi, searches in _random_draws(ctx, name, rank):
            for g, minus in searches:
                res = crflag.hlc_reachability(ctx, pd, kphi, g, minus)
                kinds.add(res["certificate"]["kind"] if not res["reached"]
                          else "reached")
    assert kinds == {"reached", "coefficient-bound", "closure-exhausted"}
