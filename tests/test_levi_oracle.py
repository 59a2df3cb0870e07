"""Differential test: the sparse integer Levi forms of `minorbit.crflag` and
`classify_levi` against the dense Killing-scaled matrices, their exact
elimination and their structural category, kept in `levi_oracle`, and
`classify_levi`'s one-pass pattern against the sign-counting loop kept
there, errors and their messages included."""

import itertools
import random

import pytest

import levi_oracle as dense
from levi_oracle import densify, killing_scale
from minorbit import crflag
from minorbit.crflag import (characteristic_real_roots, classify_levi,
                             concavity_verdict, get_context, indices,
                             parabolic, phi_mask)
from minorbit.exactla import DefinitenessClass, hermitian_classify
# every instance row ungauged and under gauge seed 1, and every cross set
# of sl(7,R), so(2,11) and EI
from test_chain_oracle import FORMS

D = DefinitenessClass


def _q_form_targets(name, phi, seed, monkeypatch):
    """The targets of every form on Q (`q_form`'s) that a `--check mot`
    verdict reads: those of `k_phi`, which reads them through `levi_class`
    with side Q, and those of the complex-zero-pair test, -b for each
    complex pair {b, c(b)} in Qn, which it reads from the pair lists
    without building the form."""
    targets = []
    real_levi_class = crflag.levi_class
    ctx = get_context(name, seed)
    pd = parabolic(ctx, phi_mask(phi))

    def recording_levi_class(ctx, target, side):
        if side == pd.Q:
            targets.append(target)
        return real_levi_class(ctx, target, side)

    with monkeypatch.context() as mp:
        mp.setattr(crflag, "levi_class", recording_levi_class)
        concavity_verdict(ctx, phi, check="mot")
    Qn = indices(pd.Qn)
    targets += [ctx.negi(b) for b in Qn if b < ctx.c(b) and ctx.c(b) in Qn]
    return sorted(set(targets))


def _assert_form_matches(ctx, sparse, oracle, target):
    """Equal entry for entry after scaling; at a real target, where the
    form is Hermitian, also equal in class and category.  The zero-pair test
    reads forms at complex targets only for being zero."""
    index, entries = sparse
    want_index, want = oracle
    assert index == want_index
    assert densify(index, entries, killing_scale(ctx, target)) == want
    if ctx.c(target) == target:
        assert classify_levi(index, entries) == dense.classify_levi(want)


@pytest.mark.parametrize("name,rank,seed", FORMS,
                         ids=[f"{n}-seed{s}" for n, _, s in FORMS])
def test_levi_forms_match_dense_oracle(name, rank, seed, monkeypatch):
    ctx = get_context(name, seed)
    for k in range(rank + 1):
        for phi in itertools.combinations(range(1, rank + 1), k):
            pd = parabolic(ctx, phi_mask(phi))
            side = pd.Q & ~pd.Qbar  # the mirrored convention's index
            for g in characteristic_real_roots(ctx, pd):
                _assert_form_matches(ctx, crflag.levi_matrix(ctx, pd, g),
                                     dense.levi_matrix(ctx, pd, g),
                                     ctx.negi(g))
                mirrored = (indices(side),
                            crflag._entries(ctx, ctx.negi(g), side, side))
                _assert_form_matches(ctx, mirrored,
                                     dense.levi_matrix(ctx, pd, g,
                                                       mirrored=True),
                                     ctx.negi(g))
            for t in _q_form_targets(name, phi, seed, monkeypatch):
                _assert_form_matches(ctx, crflag.q_form(ctx, pd, t),
                                     dense.q_form(ctx, pd, t), t)


def _random_form(rng, n):
    """A random Hermitian form on range(n) whose pattern is a partial
    involution, with small nonzero Gaussian-integer entries."""
    rest = list(range(n))
    rng.shuffle(rest)
    entries = {}
    while rest:
        x = rest.pop()
        roll = rng.random()
        if roll < 0.3:
            continue
        if roll < 0.65 or not rest:
            entries[(x, x)] = (rng.choice([-3, -1, 1, 2]), 0)
            continue
        y = rest.pop()
        re, im = rng.choice([(0, 1), (1, 0), (0, -2), (-1, 0), (1, 1)])
        entries[(x, y)] = (re, im)
        entries[(y, x)] = (re, -im)
    return list(range(n)), entries


def test_classify_levi_matches_dense_on_random_involution_forms():
    rng = random.Random(2026)
    seen = set()
    for _ in range(2000):
        index, entries = _random_form(rng, rng.randint(0, 6))
        got = classify_levi(index, entries)
        assert got == dense.classify_levi(densify(index, entries))
        assert got == dense.classify_by_counts(index, entries)
        seen.add(got)
    assert {cls for cls, _ in seen} == set(D)
    assert {cat for _, cat in seen} == {"zero-diagonal",
                                        "diagonal-semidefinite",
                                        "diagonal-indefinite", "mixed"}


def _rejects(index, entries, exc):
    """`classify_levi` raises `exc` with the counting loop's message."""
    with pytest.raises(exc) as got:
        classify_levi(index, entries)
    with pytest.raises(exc) as want:
        dense.classify_by_counts(index, entries)
    assert str(got.value) == str(want.value)


def test_classify_levi_empty_and_zero_forms():
    assert classify_levi([], {}) == (D.ZERO, "zero-diagonal")
    assert classify_levi([3, 5], {}) == (D.ZERO, "zero-diagonal")
    assert hermitian_classify(densify([3, 5], {})) is D.ZERO


def test_classify_levi_rejects_non_real_diagonal():
    _rejects([0], {(0, 0): (1, 1)}, ArithmeticError)
    _rejects([0, 1, 2], {(0, 1): (0, 1), (1, 0): (0, -1), (2, 2): (0, 3)},
             ArithmeticError)


def test_classify_levi_rejects_non_hermitian_pairs():
    # the mirror entry differs, or is missing
    _rejects([0, 1], {(0, 1): (1, 0), (1, 0): (2, 0)}, ValueError)
    _rejects([0, 1], {(0, 1): (0, 1), (1, 0): (0, 1)}, ValueError)
    _rejects([0, 1], {(0, 1): (0, 1)}, ValueError)
    # the dense elimination rejects the same matrices
    with pytest.raises(ValueError):
        hermitian_classify(densify([0, 1], {(0, 1): (1, 0), (1, 0): (2, 0)}))


def test_classify_levi_rejects_malformed_entries():
    # two entries in one row
    _rejects([0, 1], {(0, 0): (1, 0), (0, 1): (1, 0), (1, 0): (1, 0)},
             ValueError)
    _rejects([0], {(0, 0): (0, 0)}, ValueError)  # an explicit zero
    # an entry outside the index
    _rejects([0], {(0, 0): (1, 0), (4, 4): (1, 0)}, ValueError)
