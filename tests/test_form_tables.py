"""Differential tests for the per-form tables of `minorbit.crflag`: each
mask table against its per-root definition on every real `catalog(8)`
form; the mask-algebra `parabolic`, `finite_type`, `k_phi`, Levi classes,
complex zero pairs and chain moves and bounds against the per-root loops
they replaced (kept in `chain_oracle`), on every cross set of every
non-compact form of rank <= 5, ungauged and under gauge seed 1, and on
seeded random kernel sets; the Levi forms that `k_phi` classifies; the
Levi patterns of every real root of the real `catalog(8)` forms, read on
the whole root set and on seeded random sides against the sign-counting
loop kept in `levi_oracle`, and the `--phi` categories read from them."""

from collections import Counter
import itertools
import json
import random

import pytest

import chain_oracle as oracle
from algebra_oracle import add
from levi_oracle import classify_by_counts
from minorbit import cli, crflag
from minorbit.crflag import (Chains, LeviPattern, _entries, _mot_targets,
                             characteristic_real_roots, get_context, indices,
                             parabolic, phi_mask)
from minorbit.realform import catalog
from test_chain_oracle import RANDOM_FORMS, _random_draws

NONCOMPACT = [e for e in catalog(5) if e.rank <= 5 and e.label != "compact"]
CASES = [(e, seed) for seed in (None, 1) for e in NONCOMPACT]


def _cross_sets(rank):
    for k in range(rank + 1):
        yield from itertools.combinations(range(1, rank + 1), k)


def _moves_by_map(ctx, kphi):
    """K u c(K), mapping c over K, in ascending order."""
    ks = indices(kphi)
    return sorted(set(ks) | {ctx.c(a) for a in ks})


@pytest.mark.parametrize("entry,seed", CASES,
                         ids=[f"{e.name}-seed{s}" for e, s in CASES])
def test_tables_match_per_root_loops(entry, seed):
    ctx = get_context(entry.name, seed, max_rank=5)
    for phi in _cross_sets(entry.rank):
        pd = parabolic(ctx, phi_mask(phi))
        assert pd == oracle.parabolic_by_masks(ctx, phi), phi
        assert crflag.finite_type(ctx, pd) == \
            oracle.finite_type_by_masks(ctx, pd), phi
        kphi = crflag.k_phi(ctx, pd)
        assert kphi == oracle.k_phi_by_roots(ctx, pd), phi
        levi = crflag._levi_classes(ctx, pd)
        assert levi == oracle.levi_classes_by_matrix(ctx, pd), phi
        pairs = [t for t in _mot_targets(ctx, pd, levi) if len(t) == 2]
        assert pairs == oracle.complex_zero_pairs_by_roots(ctx, pd), phi
        assert Chains(ctx, pd, kphi).bounds == \
            oracle.chain_bounds_by_roots(ctx, pd, kphi), phi


@pytest.mark.parametrize("name,rank", RANDOM_FORMS,
                         ids=[n for n, _ in RANDOM_FORMS])
def test_chain_bounds_match_per_root_loop_on_random_kernels(name, rank):
    ctx = get_context(name)
    for pd, kphi, _ in _random_draws(ctx, name, rank):
        assert Chains(ctx, pd, kphi).bounds == \
            oracle.chain_bounds_by_roots(ctx, pd, kphi)


def test_k_phi_classifies_the_targets_of_the_root_loop(monkeypatch):
    """`k_phi` classifies the Levi form at the same targets as the loop over
    the roots of Q, each once, on every cross set of the forms of rank
    <= 5, ungauged.  `k_phi` reads each class with one `levi_class` call;
    the loop builds each form with `q_form` and classifies it with
    `classify_levi`, and the test checks that it pairs the two."""
    targets, calls = [], Counter()
    real_q_form, real_classify = crflag.q_form, crflag.classify_levi
    real_levi_class = crflag.levi_class

    def recording_q_form(ctx, pd, target):
        targets.append(target)
        return real_q_form(ctx, pd, target)

    def counting_classify(index, entries):
        calls["classify"] += 1
        return real_classify(index, entries)

    def recording_levi_class(ctx, target, side):
        targets.append(target)
        return real_levi_class(ctx, target, side)

    monkeypatch.setattr(crflag, "q_form", recording_q_form)
    monkeypatch.setattr(crflag, "classify_levi", counting_classify)
    monkeypatch.setattr(crflag, "levi_class", recording_levi_class)
    classified = 0
    for e in NONCOMPACT:
        ctx = get_context(e.name, max_rank=5)
        for phi in _cross_sets(e.rank):
            pd = parabolic(ctx, phi_mask(phi))
            runs = []
            for k_phi in (crflag.k_phi, oracle.k_phi_by_roots):
                targets.clear()
                calls.clear()
                k_phi(ctx, pd)
                runs.append(Counter(targets))
            # the calls are cleared before each run, so only the loop's
            # are counted
            assert calls["classify"] == sum(runs[1].values())
            assert runs[0] == runs[1], (e.name, phi)
            assert set(runs[0].values()) <= {1}, (e.name, phi)
            classified += len(runs[0])
    assert classified


@pytest.mark.parametrize("entry,seed", CASES,
                         ids=[f"{e.name}-seed{s}" for e, s in CASES])
def test_chain_moves_are_kernel_and_its_conjugate(entry, seed):
    ctx = get_context(entry.name, seed, max_rank=5)
    for phi in _cross_sets(entry.rank):
        pd = parabolic(ctx, phi_mask(phi))
        kphi = crflag.k_phi(ctx, pd)
        assert indices(Chains(ctx, pd, kphi).moves) == \
            _moves_by_map(ctx, kphi), phi


@pytest.mark.parametrize("name,rank", RANDOM_FORMS,
                         ids=[n for n, _ in RANDOM_FORMS])
def test_chain_moves_are_kernel_and_its_conjugate_on_random_kernels(name,
                                                                    rank):
    ctx = get_context(name)
    for pd, kphi, _ in _random_draws(ctx, name, rank):
        assert indices(Chains(ctx, pd, kphi).moves) == \
            _moves_by_map(ctx, kphi)


REAL_CATALOG = [e for e in catalog(8) if e.label != "compact"
                and not e.doubled]


@pytest.mark.parametrize("seed", (None, 1))
def test_mask_tables_match_per_root_definitions(seed):
    """Each mask table of `FormContext` read through `indices` equals its
    definition root by root, with signs and supports read from the
    coefficient vectors, on every real form of `catalog(8)`, compact
    ones included."""
    forms = 0
    for e in catalog(8):
        if e.doubled:
            continue
        ctx = get_context(e.name, seed)
        roots, t, c = ctx.rs.roots, ctx, ctx.c
        every = range(len(roots))
        assert indices(t.every_root) == list(every)
        for j in range(ctx.rs.rank):
            neg = [a for a in every if sum(roots[a]) < 0 and roots[a][j]]
            assert indices(t.neg[j]) == neg, (e.name, j)
            assert indices(t.conj_neg[j]) == sorted(map(c, neg)), (e.name, j)
            assert indices(t.pos[j]) == [a for a in every if sum(roots[a]) > 0
                                         and roots[a][j]], (e.name, j)
            col = [r[j] for r in roots]
            assert [(v, indices(part)) for v, part in t.levels[j]] == \
                [(v, [a for a in every if col[a] == v])
                 for v in sorted(set(col))], (e.name, j)
        sums: dict[int, list[int]] = {}
        for a in every:
            beta = ctx.rs.index.get(add(roots[a], roots[c(a)]))
            if beta is not None:
                sums.setdefault(beta, []).append(a)
        assert [(beta, nb, indices(group)) for beta, nb, group in
                t.conj_sums] == [(beta, ctx.negi(beta), group)
                                 for beta, group in sums.items()], e.name
        assert indices(t.positive_real) == [a for a in every if c(a) == a
                                            and sum(roots[a]) > 0], e.name
        assert [(b, cb, indices(both)) for b, cb, both in t.complex_pairs] \
            == [(b, c(b), [b, c(b)]) for b in every
                if sum(roots[b]) > 0 and c(b) > b], e.name
        forms += 1
    assert forms == len([e for e in catalog(8) if not e.doubled])


def _pattern(ctx, t):
    """The `LeviPattern` of the root t's entries over every root."""
    every = ctx.every_root
    return LeviPattern(_entries(ctx, t, every, every))


def test_levi_pattern_classes_on_random_sides():
    """`LeviPattern.classify` on seeded random sides equals the
    sign-counting loop on the entries `_entries` builds on that side, for
    every real root whose pattern has an off-diagonal pair, on every
    non-compact real form of `catalog(8)`, ungauged.  Each draw takes a
    side that keeps at least one pair, where `classify` stops at the first
    kept pair instead of counting them, and a side that holds one end of a
    pair without the other, which keeps no entry of that pair."""
    rng = random.Random("levi-pattern-sides")
    kept, patterns = Counter(), 0
    for e in REAL_CATALOG:
        ctx = get_context(e.name)
        n = len(ctx.rs.roots)
        for g in indices(ctx.positive_real):
            for t in (g, ctx.negi(g)):
                pattern = _pattern(ctx, t)
                if not pattern.pairs:
                    continue
                patterns += 1
                for fraction in (0.1, 0.5, 0.9):
                    pair = rng.choice(pattern.pairs)
                    rest = sum(1 << a for a in range(n)
                               if rng.random() < fraction)
                    one_end = rng.choice(indices(pair))
                    for side, keeps in ((rest | pair, True),
                                        (rest & ~pair | 1 << one_end,
                                         False)):
                        want = classify_by_counts(indices(side),
                                                  _entries(ctx, t, side, side))
                        assert pattern.classify(side) == want, (e.name, t)
                        if keeps:
                            kept[want[1]] += 1
    assert patterns
    assert set(kept) == {"mixed", "zero-diagonal"}


@pytest.mark.parametrize("seed", (None, 1))
def test_levi_patterns_pass_their_invariants(seed):
    """The pattern of every positive real root and of its negative builds,
    so passes `classify_levi`'s invariants, on every non-compact real form
    of `catalog(8)`, and on the whole root set it reads the class that the
    sign-counting loop finds for the full entry map."""
    patterns = 0
    for e in REAL_CATALOG:
        ctx = get_context(e.name, seed)
        every = ctx.every_root
        for g in indices(ctx.positive_real):
            for t in (g, ctx.negi(g)):
                full = classify_by_counts(indices(every),
                                          _entries(ctx, t, every, every))
                assert _pattern(ctx, t).classify(every) == full, (e.name, t)
                patterns += 1
    assert patterns


@pytest.mark.parametrize("entry", NONCOMPACT, ids=[e.name for e in NONCOMPACT])
def test_phi_categories_match_classify_levi_of_entries(entry, capsysbinary):
    """The classes and categories of a `--phi` run's details equal the
    sign-counting loop of `levi_oracle` on the entries `_entries` builds on
    the side conj(Q) \\ Q, on every cross set, ungauged."""
    ctx = get_context(entry.name, max_rank=5)
    for phi in _cross_sets(entry.rank):
        assert cli.main(["--form", entry.name, "--phi",
                         ",".join(map(str, phi)), "--check", "mot",
                         "--no-golden", "--max-rank", "5"]) == 0
        doc = json.loads(capsysbinary.readouterr().out)
        gammas = doc["details"][0]["gammas"]
        pd = parabolic(ctx, phi_mask(phi))
        side = pd.Qbar & ~pd.Q
        want = []
        for g in characteristic_real_roots(ctx, pd):
            cls, cat = classify_by_counts(
                indices(side), _entries(ctx, ctx.negi(g), side, side))
            want.append({"root": list(ctx.rs.roots[g]), "class": cls.value,
                         "category": cat})
        assert gammas == want, phi
