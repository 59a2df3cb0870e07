"""Differential tests for the per-form tables of `minorbit.crflag`: the
set-algebra `parabolic`, `finite_type`, `k_phi`, Levi classes, complex zero
pairs and chain bounds against the per-root loops they replaced (kept in
`chain_oracle`), on every cross set of every non-compact form of rank <= 5,
ungauged and under gauge seed 1, and on seeded random kernel sets; the
Levi forms that `k_phi` classifies."""

from collections import Counter
import itertools

import pytest

import chain_oracle as oracle
from minorbit import crflag
from minorbit.crflag import _chain_memo, _mot_targets, get_context, parabolic
from minorbit.realform import catalog
from test_chain_oracle import RANDOM_FORMS, _random_draws

NONCOMPACT = [e for e in catalog(5) if e.rank <= 5 and e.label != "compact"]
CASES = [(e, seed) for seed in (None, 1) for e in NONCOMPACT]


def _cross_sets(rank):
    for k in range(rank + 1):
        yield from itertools.combinations(range(1, rank + 1), k)


@pytest.mark.parametrize("entry,seed", CASES,
                         ids=[f"{e.name}-seed{s}" for e, s in CASES])
def test_tables_match_per_root_loops(entry, seed):
    ctx = get_context(entry.name, seed, max_rank=5)
    for phi in _cross_sets(entry.rank):
        pd = parabolic(ctx, phi)
        assert pd == oracle.parabolic_by_masks(ctx, phi), phi
        assert crflag.finite_type(ctx, pd) == \
            oracle.finite_type_by_masks(ctx, pd), phi
        kphi = crflag.k_phi(ctx, pd)
        assert kphi == oracle.k_phi_by_roots(ctx, pd), phi
        levi = crflag._levi_classes(ctx, pd)
        assert levi == oracle.levi_classes_by_matrix(ctx, pd), phi
        pairs = [t for t in _mot_targets(ctx, pd, levi) if len(t) == 2]
        assert pairs == oracle.complex_zero_pairs_by_roots(ctx, pd), phi
        assert _chain_memo(ctx, pd, kphi).bounds == \
            oracle.chain_bounds_by_roots(ctx, pd, kphi), phi


@pytest.mark.parametrize("name,rank", RANDOM_FORMS,
                         ids=[n for n, _ in RANDOM_FORMS])
def test_chain_bounds_match_per_root_loop_on_random_kernels(name, rank):
    ctx = get_context(name)
    for pd, kphi, _ in _random_draws(ctx, name, rank):
        assert _chain_memo(ctx, pd, kphi).bounds == \
            oracle.chain_bounds_by_roots(ctx, pd, kphi)


def test_k_phi_classifies_the_targets_of_the_root_loop(monkeypatch):
    """`k_phi` classifies the Levi form at the same targets as the loop over
    the roots of Q, each once, on every cross set of the forms of rank
    <= 5, ungauged."""
    targets, calls = [], Counter()
    real_q_form, real_classify = crflag.q_form, crflag.classify_levi

    def recording_q_form(ctx, pd, target):
        targets.append(target)
        return real_q_form(ctx, pd, target)

    def counting_classify(index, entries):
        calls["classify"] += 1
        return real_classify(index, entries)

    monkeypatch.setattr(crflag, "q_form", recording_q_form)
    monkeypatch.setattr(crflag, "classify_levi", counting_classify)
    classified = 0
    for e in NONCOMPACT:
        ctx = get_context(e.name, max_rank=5)
        for phi in _cross_sets(e.rank):
            pd = parabolic(ctx, phi)
            runs = []
            for k_phi in (crflag.k_phi, oracle.k_phi_by_roots):
                targets.clear()
                calls.clear()
                k_phi(ctx, pd)
                assert calls["classify"] == len(targets)
                runs.append(Counter(targets))
            assert runs[0] == runs[1], (e.name, phi)
            assert set(runs[0].values()) <= {1}, (e.name, phi)
            classified += len(runs[0])
    assert classified

