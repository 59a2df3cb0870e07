"""Whole-form runs of compact forms read their rows from
`crflag.compact_verdict`, a theorem, with no form context.  The engine
stays as the oracle: on every compact form of `catalog(8)`, under each
`--check` mode, ungauged and under gauge seed 1, `classify`'s rows equal
the fields of `verdict_fields` on a built context, cross set by cross set.
The proof's hypothesis, c(a) = -a on every root, is checked on each of
those contexts."""

import json

import pytest

from minorbit import cli
from minorbit.crflag import get_context, phi_indices, verdict_fields
from minorbit.realform import catalog
from test_swap_reuse import _classify, _forbid_engine

COMPACT = [e for e in catalog(8) if e.label == "compact"]


def _engine_fields(check, seed) -> dict:
    """Per compact form, the `verdict_fields` of each cross set in
    `_all_phi` order, on a built context whose conjugation is checked to be
    c(a) = -a."""
    out = {}
    for e in COMPACT:
        ctx = get_context(e.name, seed)
        assert all(ctx.c(a) == ctx.negi(a)
                   for a in range(len(ctx.rs.roots))), e.name
        out[e.name] = [verdict_fields(ctx, m, check)
                       for m in cli._all_phi(e.rank)]
    return out


@pytest.mark.parametrize("seed", [None, 1])
@pytest.mark.parametrize("check", ["mot", "span", "all"])
def test_compact_rows_equal_engine_rows(monkeypatch, check, seed):
    want = _engine_fields(check, seed)
    assert sum(map(len, want.values())) == 2494
    gauge = [] if seed is None else ["--gauge-seed", str(seed)]
    _forbid_engine(monkeypatch)
    for e in COMPACT:
        rc, stdout = _classify(["--form", e.name, "--check", check,
                                "--no-golden", *gauge])
        assert rc == 0, e.name
        rows = json.loads(stdout)["rows"]
        assert [(r["finite_type"], r["levi"], r["mot"], r["span"],
                 r["verdict"]) for r in rows] == want[e.name], e.name
        assert [r["phi"] for r in rows] == \
            [phi_indices(m) for m in cli._all_phi(e.rank)], e.name
        assert _classify(["--form", e.name, "--check", check, *gauge])[0] \
            == 0, e.name
