import itertools
import random
from fractions import Fraction

import pytest

from algebra_oracle import (adjoint_matrix, build_chevalley_fraction,
                            fraction_coroots, h, idx, killing, killing_z_pair,
                            ntable_per_pair, pairing, root_string, z)
from gaussq import QQi
from minorbit.chevalley import build_chevalley
from minorbit.realform import catalog
from minorbit.rootsys import build_doubled_system, build_root_system, neg

SMALL = [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("C", 3), ("B", 3)]


def _basis(sc, k):
    return {k: 1}


def _elt_eq_zero(e):
    return not e


def _jacobi_defect(sc, k1, k2, k3):
    t = {}
    for a, b, c in ((k1, k2, k3), (k2, k3, k1), (k3, k1, k2)):
        inner = sc.bracket(_basis(sc, b), _basis(sc, c))
        for k, v in sc.bracket(_basis(sc, a), inner).items():
            nv = t.get(k, 0) + v
            if nv:
                t[k] = nv
            elif k in t:
                del t[k]
    return t


@pytest.fixture(scope="module")
def algebras():
    out = {}
    for fam, rk in SMALL + [("F", 4), ("A", 5), ("E", 6), ("D", 4)]:
        rs = build_root_system(fam, rk)
        out[(fam, rk)] = (rs, build_chevalley(rs))
    return out


@pytest.mark.parametrize("fam,rk", SMALL)
def test_footnote_identities(algebras, fam, rk):
    rs, sc = algebras[(fam, rk)]
    for i in range(rs.rank):
        a = tuple(1 if k == i else 0 for k in range(rs.rank))
        assert sc.bracket(h(sc, i), z(sc, a)) == {rs.rank + idx(rs, a): QQi(2)}
        assert sc.bracket(h(sc, i), z(sc, neg(a))) == \
            {rs.rank + idx(rs, neg(a)): QQi(-2)}
        assert sc.bracket(z(sc, a), z(sc, neg(a))) == {i: QQi(-1)}


@pytest.mark.parametrize("fam,rk", SMALL + [("F", 4)])
def test_n_magnitude_and_symmetries(algebras, fam, rk):
    rs, sc = algebras[(fam, rk)]
    for (ia, ib), v in sc.ntable.items():
        a, b = rs.roots[ia], rs.roots[ib]
        p, _ = root_string(rs, a, b)
        assert abs(v) == p + 1
        assert sc.ntable[(ib, ia)] == -v
        assert sc.ntable[(idx(rs, neg(a)), idx(rs, neg(b)))] == v


@pytest.mark.parametrize("fam,rk", SMALL + [("F", 4)])
def test_jacobi_exhaustive_small_rank(algebras, fam, rk):
    rs, sc = algebras[(fam, rk)]
    for k1, k2, k3 in itertools.combinations(range(sc.dim), 3):
        assert _elt_eq_zero(_jacobi_defect(sc, k1, k2, k3))


@pytest.mark.parametrize("fam,rk", [("A", 5), ("E", 6), ("D", 4)])
def test_jacobi_random_large_rank(algebras, fam, rk):
    rs, sc = algebras[(fam, rk)]
    rng = random.Random(17)
    for _ in range(10000):
        k1, k2, k3 = (rng.randrange(sc.dim) for _ in range(3))
        assert _elt_eq_zero(_jacobi_defect(sc, k1, k2, k3))


@pytest.mark.parametrize("fam,rk", SMALL)
def test_sign_flip_involution_is_automorphism(algebras, fam, rk):
    # H -> -H, Z_a -> Z_-a on all basis pairs
    rs, sc = algebras[(fam, rk)]

    def theta(e):
        out = {}
        for k, v in e.items():
            if k < rs.rank:
                out[k] = out.get(k, 0) - v
            else:
                out[rs.rank + idx(rs, neg(rs.roots[k - rs.rank]))] = v
        return {k: v for k, v in out.items() if v}

    for k1 in range(sc.dim):
        for k2 in range(k1 + 1, sc.dim):
            lhs = theta(sc.bracket(_basis(sc, k1), _basis(sc, k2)))
            rhs = sc.bracket(theta(_basis(sc, k1)), theta(_basis(sc, k2)))
            assert lhs == rhs


def test_bracket_bilinear_and_alternating(algebras):
    rs, sc = algebras[("A", 2)]
    rng = random.Random(5)
    for _ in range(50):
        x = {rng.randrange(sc.dim): QQi(rng.randint(-3, 3), rng.randint(-3, 3))
             for _ in range(3)}
        assert _elt_eq_zero(sc.bracket(x, x))


def test_weight_grading(algebras):
    rs, sc = algebras[("A", 2)]
    # [H, Z_b] = b(H) Z_b
    h = {0: QQi(2), 1: QQi(-1)}
    b = (1, 1)
    out = sc.bracket(h, z(sc, b))
    want = 2 * pairing(rs, (1, 0), b) - 1 * pairing(rs, (0, 1), b)
    assert out == {rs.rank + idx(rs, b): QQi(want)}


def test_killing_values(algebras):
    rs1 = build_root_system("A", 1)
    sc1 = build_chevalley(rs1)
    # independent oracle: ad(H) on the ordered basis (H, Z, Z-) is
    # diag(0, 2, -2), so trace(ad H o ad H) = 8
    m = adjoint_matrix(sc1, h(sc1, 0))
    tr = QQi(0)
    for i in range(3):
        tr = tr + sum((m[i][k] * m[k][i] for k in range(3)), QQi(0))
    assert tr == QQi(8)
    assert killing(sc1, h(sc1, 0), h(sc1, 0)) == QQi(8)
    rs, sc = algebras[("A", 2)]
    for a in rs.roots:
        for b in rs.roots:
            k = killing(sc, z(sc, a), z(sc, b))
            if b == neg(a):
                assert k
            else:
                assert not k
        assert not killing(sc, z(sc, a), h(sc, 0))


def test_killing_matches_explicit_adjoint_trace(algebras):
    rs, sc = algebras[("B", 2)]
    for x, y in [(h(sc, 0), h(sc, 1)), (z(sc, (1, 0)), z(sc, (-1, 0))),
                 (z(sc, (1, 1)), z(sc, (-1, -1)))]:
        mx, my = adjoint_matrix(sc, x), adjoint_matrix(sc, y)
        tr = QQi(0)
        for i in range(sc.dim):
            tr = tr + sum((mx[i][k] * my[k][i] for k in range(sc.dim)), QQi(0))
        assert tr == killing(sc, x, y)


def test_killing_ad_invariance(algebras):
    rs, sc = algebras[("C", 3)]
    rng = random.Random(9)
    for _ in range(200):
        ks = [rng.randrange(sc.dim) for _ in range(3)]
        x, y, z = ({k: QQi(1)} for k in ks)
        lhs = killing(sc, sc.bracket(x, y), z)
        rhs = killing(sc, x, sc.bracket(y, z))
        assert lhs == rhs


def _distinct_forms(max_rank):
    """One catalog entry per distinct root system of catalog(max_rank)."""
    seen = {}
    for entry in catalog(max_rank):
        seen.setdefault((entry.family, entry.rank, entry.doubled), entry)
    return [e for _, e in sorted(seen.items())]


def test_killing_z_pair_closed_form():
    # kappa(H_a, H_a) = -2 kappa(Z_a, Z_-a) by invariance, so the adjoint
    # trace equals -1/2 sum_b <b, a^>^2, negative since b = a gives 4; here
    # <b, a^> = b(H_a) = sum_j a^_j b(H_j) over the simple coroots
    systems = [e.root_system() for e in _distinct_forms(6)]
    assert len(systems) > 20
    for rs in systems:
        sc = build_chevalley(rs)
        rk = rs.rank
        on_h = [[sum(rs.cartan[j][t] * b[t] for t in range(rk))
                 for j in range(rk)] for b in rs.roots]
        for ia, a in enumerate(rs.roots):
            cor = sc.coroots[ia]
            closed = Fraction(-sum(sum(c * hb for c, hb in zip(cor, h)) ** 2
                                   for h in on_h), 2)
            assert closed < 0
            assert killing_z_pair(sc, ia) == closed, (rs.types, a)
        # the coroot pairing agrees with 2(a|b)/(a|a) from the Gram matrix
        for ia in range(0, len(rs.roots), 7):
            for ib in range(0, len(rs.roots), 5):
                assert sum(c * hb for c, hb in zip(sc.coroots[ia], on_h[ib])) \
                    == pairing(rs, rs.roots[ia], rs.roots[ib])


@pytest.mark.parametrize("fam,rk", [("A", 2), ("B", 2), ("G", 2), ("C", 3)])
def test_killing_nondegenerate(algebras, fam, rk):
    from algebra_oracle import rank as xrank
    rs, sc = algebras[(fam, rk)]
    basis = [{k: QQi(1)} for k in range(sc.dim)]
    gram = [[killing(sc, u, v) for v in basis] for u in basis]
    assert xrank(gram) == sc.dim


def test_adjoint_matrix_shape_and_trace(algebras):
    rs, sc = algebras[("A", 2)]
    zmat = adjoint_matrix(sc, {})
    assert all(not x for row in zmat for x in row)
    for a in rs.roots:
        m = adjoint_matrix(sc, z(sc, a))
        assert sum((m[i][i] for i in range(sc.dim)), QQi(0)) == QQi(0)
    mh = adjoint_matrix(sc, h(sc, 0))
    for k, b in enumerate(rs.roots):
        assert mh[rs.rank + k][rs.rank + k] == QQi(pairing(rs, (1, 0), b))


def test_doubled_algebra_blocks():
    d = build_doubled_system("A", 2)
    sc = build_chevalley(d)
    assert not sc.bracket(z(sc, (1, 0, 0, 0)), z(sc, (0, 0, 1, 0)))
    assert sc.bracket(z(sc, (1, 0, 0, 0)), z(sc, (0, 1, 0, 0)))


def test_sign_gauge_is_still_chevalley():
    rs = build_root_system("B", 2)
    sc = build_chevalley(rs).sign_gauge(11)
    for (ia, ib), v in sc.ntable.items():
        p, _ = root_string(rs, rs.roots[ia], rs.roots[ib])
        assert abs(v) == p + 1
        assert sc.ntable[(ib, ia)] == -v
        assert sc.ntable[(idx(rs, neg(rs.roots[ia])), idx(rs, neg(rs.roots[ib])))] == v
    for k1, k2, k3 in itertools.combinations(range(sc.dim), 3):
        assert _elt_eq_zero(_jacobi_defect(sc, k1, k2, k3))


@pytest.mark.parametrize("entry", _distinct_forms(8),
                         ids=lambda e: f"{e.family}{e.rank}"
                                       f"{'-doubled' if e.doubled else ''}")
def test_integer_build_matches_fraction_oracle(entry):
    """The integer recursion against the Fraction one on every distinct
    root system of catalog(8): ntable items in the same order, and the
    coroots, derived on first read, equal the Fraction oracle's."""
    rs = entry.root_system()
    got, want = build_chevalley(rs), build_chevalley_fraction(rs)
    assert list(got.ntable.items()) == list(want.ntable.items())
    assert got.coroots == fraction_coroots(rs)


def test_classify_builds_no_coroot_table(monkeypatch, capsys):
    """`classify` never reads the coroots, so neither a whole-form request
    nor a --phi request (gauged, so through `sign_gauge`) leaves them on
    its context's constants; read afterwards, they equal the oracle's."""
    from minorbit import cli, crflag
    monkeypatch.setattr(crflag, "_CTX_CACHE", {})
    assert cli.main(["--form", "su(2,3)"]) == 0
    assert cli.main(["--form", "FII", "--phi", "1", "--gauge-seed", "1"]) == 0
    capsys.readouterr()
    ctxs = crflag._CTX_CACHE
    assert set(ctxs) == {("su(2,3)", None, 8), ("FII", 1, 8)}
    for ctx in ctxs.values():
        assert "coroots" not in vars(ctx.sc)
        assert ctx.sc.coroots == fraction_coroots(ctx.rs)
        assert "coroots" in vars(ctx.sc)


@pytest.mark.parametrize("entry", _distinct_forms(8),
                         ids=lambda e: f"{e.family}{e.rank}"
                                       f"{'-doubled' if e.doubled else ''}")
def test_antisymmetric_fill_matches_per_pair_fill(entry):
    """The fill that reads N(a, b), b < a, as -N(b, a) against the one that
    runs the recursion on every pair, on every distinct root system of
    catalog(8): the same ntable items in the same order."""
    rs = entry.root_system()
    got = build_chevalley(rs).ntable
    assert list(got.items()) == list(ntable_per_pair(rs).items())


def test_exact_division_raises_on_a_remainder():
    from minorbit.rootsys import exact_div
    assert exact_div(-12, 4, lambda: "q") == -3
    with pytest.raises(ArithmeticError, match="q = 3/2 is not integral"):
        exact_div(6, 4, lambda: "q")
    with pytest.raises(ArithmeticError, match="-1/3"):
        exact_div(-2, 6, lambda: "q")
