"""Low-rank isomorphisms of real forms as an independent oracle.

Isomorphic real forms must give equal rows, cross set by cross set, under
a node map that carries one Satake diagram onto the other (Helgason,
ch. X): A3 = D3 under 1 -> 2, 2 -> 1, 3 -> 3, and the triality of D4
under 1 -> 4, 3 -> 1, 4 -> 3.  No golden table enters the row comparison.
The golden readings transported through these maps are then checked
against the data: su(1,3) `su_ends` against so*(6) `so_star_ends`, and
so(2,6) `always` against so*(8) `always`.  These are the readings that
`compare_golden` selects for DIIIb and DIIIa, the second of each, so the
isomorphisms say that the primary so*(2l) readings of `golden._RULES` are
the wrong way round (a finding against the transcription; the table is
left as it is)."""

import pytest

from minorbit.cli import _all_phi, _packaged_golden
from minorbit.crflag import concavity_verdict, get_context, phi_indices
from minorbit.golden import compare_golden
from minorbit.realform import find_form

A3_D3 = {1: 2, 2: 1, 3: 3}
TRIALITY = {1: 4, 2: 2, 3: 1, 4: 3}
DOUBLED_A3_D3 = A3_D3 | {j + 3: k + 3 for j, k in A3_D3.items()}

PAIRS = [
    ("su(1,3)", "so*(6)", A3_D3),
    ("sl(4,R)", "so(3,3)", A3_D3),
    ("su(2,2)", "so(2,4)", A3_D3),
    ("su*(4)", "so(1,5)", A3_D3),
    ("compact-A3", "compact-D3", A3_D3),
    ("sl(4,C)", "so(6,C)", DOUBLED_A3_D3),
    ("so(2,6)", "so*(8)", TRIALITY),
]
CASES = [(a, b, m, seed) for seed in (None, 1) for a, b, m in PAIRS]


def _docs(form, phis, seed):
    ctx = get_context(form, seed)
    return [concavity_verdict(ctx, tuple(sorted(p))) for p in phis]


def _map_root(root, node_map):
    out = [0] * len(root)
    for j, c in enumerate(root, 1):
        out[node_map[j] - 1] = c
    return out


def _reading_passes(docs, form, kind) -> bool:
    """Whether the packaged golden reading `kind` of `form` matches the
    verdict of every parity row in `docs`; there must be such rows."""
    row = dict(_packaged_golden()[form])
    row["predicates"] = [p for p in row["predicates"] if p["kind"] == kind]
    assert row["predicates"], (form, kind)
    rows = [{"form": form, "phi": d["phi"], "finite_type": d["finite_type"],
             "verdict": d["verdict"]} for d in docs]
    diff = compare_golden(rows, row)
    assert diff["parity_rows"] > 0
    return diff["pass"]


def test_node_maps_carry_satake_diagrams():
    for a, b, node_map in PAIRS:
        da, db = find_form(a), find_form(b)
        assert da.rank == db.rank and da.dim == db.dim, (a, b)
        assert {node_map[j] for j in da.black} == set(db.black), (a, b)
        assert {node_map[i]: node_map[j] for i, j in da.arrows.items()} \
            == db.arrows, (a, b)


@pytest.mark.parametrize("form,image,node_map,seed", CASES,
                         ids=[f"{a}-{b}-seed{s}" for a, b, _, s in CASES])
def test_isomorphic_forms_give_equal_rows(form, image, node_map, seed):
    phis = [phi_indices(m) for m in _all_phi(find_form(form).rank)]
    left = _docs(form, phis, seed)
    right = _docs(image, [{node_map[j] for j in p} for p in phis], seed)
    for x, y in zip(left, right):
        where = (form, x["phi"], image, y["phi"])
        for key in ("finite_type", "mot_satisfied", "span_satisfied",
                    "verdict", "span_dims"):
            assert x[key] == y[key], (where, key)
        assert sorted((_map_root(g["root"], node_map), g["class"],
                       g["category"]) for g in x["gammas"]) == \
            sorted((g["root"], g["class"], g["category"])
                   for g in y["gammas"]), where


@pytest.mark.parametrize("form,kind,image,image_kind,node_map", [
    ("su(1,3)", "su_ends", "so*(6)", "so_star_ends", A3_D3),
    ("so(2,6)", "always", "so*(8)", "always", TRIALITY),
])
def test_transported_golden_readings_agree_with_data(form, kind, image,
                                                     image_kind, node_map):
    phis = [phi_indices(m) for m in _all_phi(find_form(form).rank)]
    assert _reading_passes(_docs(form, phis, None), form, kind)
    image_phis = [{node_map[j] for j in p} for p in phis]
    assert _reading_passes(_docs(image, image_phis, None), image, image_kind)
