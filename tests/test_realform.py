import json
import random
from importlib import resources

import pytest

from algebra_oracle import killing, real_basis, sigma
from minorbit.chevalley import build_chevalley
from minorbit.crflag import get_context
from minorbit.exactla import inertia
from minorbit.gaussq import QQi
from minorbit.realform import (ConjugationError, RootClass, SatakeDiagram,
                               catalog, find_form)
from minorbit.rootsys import neg, support
from model_oracle import expected_lattice_conjugation

CATALOG6 = catalog(6)


def _ctx(name):
    return get_context(name, max_rank=6)


def test_catalog_counts_and_lookup():
    assert find_form("su(2,3)").label == "AIIIa"
    assert find_form("FII").black == frozenset({1, 2, 3})
    assert find_form("su(1,3)").label == "AIV"
    assert find_form("sp(2,2)").label == "CIIb"
    assert find_form("so*(8)").params == {"l": 4}
    with pytest.raises(KeyError):
        find_form("su(9,9)")


def test_find_form_rejects_ambiguous_label():
    with pytest.raises(ValueError, match=r"su\(2,3\), su\(2,4\)"):
        find_form("AIIIa")
    with pytest.raises(ValueError):
        find_form("compact")
    assert find_form("AIIIa", 4).name == "su(2,3)"  # unique at rank <= 4
    assert find_form("FII").name == "FII"


def test_catalog_rank_filter():
    for e in CATALOG6:
        assert (e.rank <= 6) if not e.doubled else (e.rank <= 12)


def test_catalog_is_cached_and_immutable():
    assert catalog(6) is CATALOG6
    assert isinstance(CATALOG6, tuple)
    assert catalog(8) is not CATALOG6


def test_dim_matches_root_system():
    for e in catalog(8):
        rs = e.root_system()
        assert e.dim == rs.rank + len(rs.roots), e.name


def test_catalog_examples():
    su23 = find_form("su(2,3)")
    assert su23.black == frozenset()
    assert su23.arrows == {1: 4, 4: 1, 2: 3, 3: 2}
    su25 = find_form("su(2,5)")
    assert su25.black == frozenset({3, 4})
    cg2 = find_form("compact-G2")
    assert cg2.black == frozenset({1, 2}) and not cg2.arrows
    fii = find_form("FII")
    assert fii.black == frozenset({1, 2, 3}) and not fii.arrows


@pytest.mark.parametrize("entry", CATALOG6, ids=lambda e: e.name)
def test_conjugation_invariant_battery(entry):
    ctx = _ctx(entry.name)
    rs, conj = ctx.rs, ctx.conj
    n = rs.rank
    # involution and root permutation
    for j in range(n):
        ej = tuple(1 if k == j else 0 for k in range(n))
        img = conj.c(ej)
        assert rs.is_root(img)
        assert conj.c(img) == ej
    for r in rs.roots:
        assert rs.is_root(conj.c(r))
    # black simples to their own negatives
    for b in entry.black:
        ej = tuple(1 if k == b - 1 else 0 for k in range(n))
        assert conj.c(ej) == neg(ej)
    # positivity preserved on complex roots
    for r in rs.positives:
        if conj.classify_root(r) is RootClass.COMPLEX:
            assert sum(conj.c(r)) > 0
    # no noncompact imaginary roots; real and imaginary signs +1
    for ia, r in enumerate(rs.roots):
        cl = conj.classify_root(r)
        assert cl is not RootClass.IMAGINARY_NONCOMPACT
        if cl is not RootClass.COMPLEX:
            assert conj.t_exp[ia] == 0
        if cl is RootClass.IMAGINARY_COMPACT:
            assert support(r) <= set(entry.black)
    # sigma is an involutive anti-automorphism (cocycle checked exhaustively
    # during construction; spot-check the action here)
    sc = ctx.sc
    rng = random.Random(42)
    pairs = min(400, sc.dim * sc.dim)
    for _ in range(pairs):
        k1, k2 = rng.randrange(sc.dim), rng.randrange(sc.dim)
        x, y = {k1: QQi(1)}, {k2: QQi(1)}
        assert sigma(conj, sigma(conj, x)) == x
        assert sigma(conj, sc.bracket(x, y)) == \
            sc.bracket(sigma(conj, x), sigma(conj, y))


@pytest.mark.parametrize("entry", CATALOG6, ids=lambda e: e.name)
def test_real_basis_and_killing_character(entry):
    ctx = _ctx(entry.name)
    rs, sc, conj = ctx.rs, ctx.sc, ctx.conj
    rb = real_basis(conj)
    assert len(rb) == sc.dim
    for x in rb:
        assert sigma(conj, x) == x
    gram = [[killing(sc, u, v) for v in rb] for u in rb]
    assert all(gram[i][j].is_real() for i in range(len(rb))
               for j in range(len(rb)))
    p, q, z = inertia(gram)
    assert z == 0
    assert p - q == entry.char


@pytest.mark.parametrize(
    "entry",
    [e for e in CATALOG6 if expected_lattice_conjugation(e, e.root_system())
     is not None],
    ids=lambda e: e.name)
def test_matrix_realization_oracle(entry):
    ctx = _ctx(entry.name)
    expected = expected_lattice_conjugation(entry, ctx.rs)
    assert expected == ctx.conj.lattice


def test_compact_and_split_classification():
    c = _ctx("compact-A2")
    for r in c.rs.roots:
        assert c.conj.classify_root(r) is RootClass.IMAGINARY_COMPACT
    s = _ctx("sl(3,R)")
    for r in s.rs.roots:
        assert s.conj.classify_root(r) is RootClass.REAL


def test_su23_real_roots():
    ctx = _ctx("su(2,3)")
    for s in (1, 2):
        g = tuple(1 if s <= j + 1 <= 5 - s else 0 for j in range(4))
        assert ctx.conj.c(g) == g
    # and the remaining roots are complex
    counts = {}
    for r in ctx.rs.roots:
        counts[ctx.conj.classify_root(r)] = \
            counts.get(ctx.conj.classify_root(r), 0) + 1
    assert counts[RootClass.REAL] == 4
    assert counts[RootClass.COMPLEX] == 16


def test_fii_unique_positive_real_root():
    ctx = _ctx("FII")
    reals = [r for r in ctx.rs.positives
             if ctx.conj.classify_root(r) is RootClass.REAL]
    assert reals == [(1, 2, 3, 2)]


def test_complex_type_has_no_real_or_imaginary_roots():
    ctx = _ctx("sl(3,C)")
    for r in ctx.rs.roots:
        assert ctx.conj.classify_root(r) is RootClass.COMPLEX


def test_bad_catalog_data_is_rejected():
    good = find_form("su(2,5)")
    # an arrow pairing a white node with a black one must trip the battery
    bad = SatakeDiagram(good.label, good.name, good.family, good.rank,
                        good.params, good.black, {1: 3, 3: 1, 2: 5, 5: 2},
                        good.char)
    rs = bad.root_system()
    with pytest.raises(ConjugationError):
        from minorbit.realform import build_conjugation
        build_conjugation(bad, rs, build_chevalley(rs))


def test_catalog_data_file_matches_generator():
    path = resources.files("minorbit").joinpath("data/satake_catalog.json")
    with open(str(path)) as fh:
        doc = json.load(fh)
    assert doc["version"] == 1
    regenerated = [e.to_doc() for e in catalog(8)]
    assert doc["entries"] == regenerated
