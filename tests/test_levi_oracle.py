"""Differential test: the sparse integer Levi forms of `minorbit.crflag` and
`classify_levi` against the dense Killing-scaled matrices, their exact
elimination and their structural category, kept in `levi_oracle`."""

import itertools
import random

import pytest

import levi_oracle as dense
from levi_oracle import densify, killing_scale
from minorbit import crflag
from minorbit.crflag import (characteristic_real_roots, classify_levi,
                             concavity_verdict, get_context, parabolic)
from minorbit.exactla import DefinitenessClass, hermitian_classify
# every instance row ungauged and under gauge seed 1, and every cross set
# of sl(7,R), so(2,11) and EI
from test_chain_oracle import FORMS

D = DefinitenessClass


def _q_form_targets(name, phi, seed, monkeypatch):
    """The targets of every `q_form` that a `--check mot` verdict reads:
    those of `k_phi` and of the complex-zero-pair test."""
    targets = []
    real_q_form = crflag.q_form

    def recording(ctx, pd, target):
        targets.append(target)
        return real_q_form(ctx, pd, target)

    with monkeypatch.context() as mp:
        mp.setattr(crflag, "q_form", recording)
        concavity_verdict(name, phi, gauge_seed=seed, check="mot")
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
            pd = parabolic(ctx, phi)
            for g in characteristic_real_roots(ctx, pd):
                for mirrored in (False, True):
                    _assert_form_matches(
                        ctx, crflag.levi_matrix(ctx, pd, g, mirrored),
                        dense.levi_matrix(ctx, pd, g, mirrored), ctx.negi(g))
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
        seen.add(got)
    assert {cls for cls, _ in seen} == set(D)
    assert {cat for _, cat in seen} == {"zero-diagonal",
                                        "diagonal-semidefinite",
                                        "diagonal-indefinite", "mixed"}


def test_classify_levi_empty_and_zero_forms():
    assert classify_levi([], {}) == (D.ZERO, "zero-diagonal")
    assert classify_levi([3, 5], {}) == (D.ZERO, "zero-diagonal")
    assert hermitian_classify(densify([3, 5], {})) is D.ZERO


def test_classify_levi_rejects_non_real_diagonal():
    with pytest.raises(ArithmeticError):
        classify_levi([0], {(0, 0): (1, 1)})
    with pytest.raises(ArithmeticError):
        classify_levi([0, 1, 2], {(0, 1): (0, 1), (1, 0): (0, -1),
                                  (2, 2): (0, 3)})


def test_classify_levi_rejects_non_hermitian_pairs():
    # the mirror entry differs, or is missing
    with pytest.raises(ValueError):
        classify_levi([0, 1], {(0, 1): (1, 0), (1, 0): (2, 0)})
    with pytest.raises(ValueError):
        classify_levi([0, 1], {(0, 1): (0, 1), (1, 0): (0, 1)})
    with pytest.raises(ValueError):
        classify_levi([0, 1], {(0, 1): (0, 1)})
    # the dense elimination rejects the same matrices
    with pytest.raises(ValueError):
        hermitian_classify(densify([0, 1], {(0, 1): (1, 0), (1, 0): (2, 0)}))


def test_classify_levi_rejects_malformed_entries():
    with pytest.raises(ValueError):  # two entries in one row
        classify_levi([0, 1], {(0, 0): (1, 0), (0, 1): (1, 0),
                               (1, 0): (1, 0)})
    with pytest.raises(ValueError):  # an explicit zero
        classify_levi([0], {(0, 0): (0, 0)})
    with pytest.raises(ValueError):  # an entry outside the index
        classify_levi([0], {(0, 0): (1, 0), (4, 4): (1, 0)})
