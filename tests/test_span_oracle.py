"""Differential test: the root-set closure span in `crflag.t_module_span`
against the exact bracket-module engine in `span_oracle`, on the verdict and
on every round dimension."""

import itertools

import pytest

from minorbit.crflag import (Chains, get_context, k_phi, parabolic,
                             phi_mask, t_module_span)
from span_oracle import exact_span
from test_acceptance import INSTANCES

# every instance row, ungauged and under gauge seeds 1, 2 and 3
CASES = [(name, rank, seed) for seed in (None, 1, 2, 3)
         for name, rank in INSTANCES]


@pytest.mark.parametrize("name,rank,seed", CASES,
                         ids=[f"{n}-seed{s}" for n, _, s in CASES])
def test_closure_span_matches_exact_engine(name, rank, seed):
    ctx = get_context(name, seed)
    for k in range(rank + 1):
        for phi in itertools.combinations(range(1, rank + 1), k):
            pd = parabolic(ctx, phi_mask(phi))
            kp = k_phi(ctx, pd)
            assert t_module_span(Chains(ctx, pd, kp)) == \
                exact_span(ctx, pd, kp), (name, seed, phi)
