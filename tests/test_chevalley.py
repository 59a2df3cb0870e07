import itertools
import random
from fractions import Fraction

import pytest

from algebra_oracle import adjoint_matrix, killing, killing_z_pair
from minorbit.chevalley import build_chevalley
from minorbit.gaussq import QQi
from minorbit.realform import catalog
from minorbit.rootsys import build_doubled_system, build_root_system, neg

SMALL = [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("C", 3), ("B", 3)]


def _basis(sc, k):
    return {k: QQi(1)}


def _elt_eq_zero(e):
    return not e


def _jacobi_defect(sc, k1, k2, k3):
    t = {}
    for a, b, c in ((k1, k2, k3), (k2, k3, k1), (k3, k1, k2)):
        inner = sc.bracket(_basis(sc, b), _basis(sc, c))
        for k, v in sc.bracket(_basis(sc, a), inner).items():
            nv = t.get(k, QQi(0)) + v
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
        assert sc.bracket(sc.h(i), sc.z(a)) == {rs.rank + rs.idx(a): QQi(2)}
        assert sc.bracket(sc.h(i), sc.z(neg(a))) == \
            {rs.rank + rs.idx(neg(a)): QQi(-2)}
        assert sc.bracket(sc.z(a), sc.z(neg(a))) == {i: QQi(-1)}


@pytest.mark.parametrize("fam,rk", SMALL + [("F", 4)])
def test_n_magnitude_and_symmetries(algebras, fam, rk):
    rs, sc = algebras[(fam, rk)]
    for (ia, ib), v in sc.ntable.items():
        a, b = rs.roots[ia], rs.roots[ib]
        p, _ = rs.root_string(a, b)
        assert abs(v) == p + 1
        assert sc.ntable[(ib, ia)] == -v
        assert sc.ntable[(rs.idx(neg(a)), rs.idx(neg(b)))] == v


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
                out[k] = out.get(k, QQi(0)) - v
            else:
                out[rs.rank + rs.idx(neg(rs.roots[k - rs.rank]))] = v
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
    out = sc.bracket(h, sc.z(b))
    want = 2 * rs.pairing((1, 0), b) - 1 * rs.pairing((0, 1), b)
    assert out == {rs.rank + rs.idx(b): QQi(want)}


def test_killing_values(algebras):
    rs1 = build_root_system("A", 1)
    sc1 = build_chevalley(rs1)
    # independent oracle: ad(H) on the ordered basis (H, Z, Z-) is
    # diag(0, 2, -2), so trace(ad H o ad H) = 8
    m = adjoint_matrix(sc1, sc1.h(0))
    tr = QQi(0)
    for i in range(3):
        tr = tr + sum((m[i][k] * m[k][i] for k in range(3)), QQi(0))
    assert tr == QQi(8)
    assert killing(sc1, sc1.h(0), sc1.h(0)) == QQi(8)
    rs, sc = algebras[("A", 2)]
    for a in rs.roots:
        for b in rs.roots:
            k = killing(sc, sc.z(a), sc.z(b))
            if b == neg(a):
                assert k
            else:
                assert not k
        assert not killing(sc, sc.z(a), sc.h(0))


def test_killing_matches_explicit_adjoint_trace(algebras):
    rs, sc = algebras[("B", 2)]
    for x, y in [(sc.h(0), sc.h(1)), (sc.z((1, 0)), sc.z((-1, 0))),
                 (sc.z((1, 1)), sc.z((-1, -1)))]:
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


def _distinct_root_systems(max_rank):
    seen = {}
    for entry in catalog(max_rank):
        seen.setdefault((entry.family, entry.rank, entry.doubled), entry)
    return [e.root_system() for _, e in sorted(seen.items())]


def test_killing_z_pair_closed_form():
    # kappa(H_a, H_a) = -2 kappa(Z_a, Z_-a) by invariance, so the adjoint
    # trace equals -1/2 sum_b <b, a^>^2, negative since b = a gives 4; here
    # <b, a^> = b(H_a) = sum_j a^_j b(H_j) over the simple coroots
    systems = _distinct_root_systems(6)
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
                    == rs.pairing(rs.roots[ia], rs.roots[ib])


@pytest.mark.parametrize("fam,rk", [("A", 2), ("B", 2), ("G", 2), ("C", 3)])
def test_killing_nondegenerate(algebras, fam, rk):
    from minorbit.exactla import rank as xrank
    rs, sc = algebras[(fam, rk)]
    basis = [{k: QQi(1)} for k in range(sc.dim)]
    gram = [[killing(sc, u, v) for v in basis] for u in basis]
    assert xrank(gram) == sc.dim


def test_adjoint_matrix_shape_and_trace(algebras):
    rs, sc = algebras[("A", 2)]
    zmat = adjoint_matrix(sc, {})
    assert all(not x for row in zmat for x in row)
    for a in rs.roots:
        m = adjoint_matrix(sc, sc.z(a))
        assert sum((m[i][i] for i in range(sc.dim)), QQi(0)) == QQi(0)
    mh = adjoint_matrix(sc, sc.h(0))
    for k, b in enumerate(rs.roots):
        assert mh[rs.rank + k][rs.rank + k] == QQi(rs.pairing((1, 0), b))


def test_doubled_algebra_blocks():
    d = build_doubled_system("A", 2)
    sc = build_chevalley(d)
    assert not sc.bracket(sc.z((1, 0, 0, 0)), sc.z((0, 0, 1, 0)))
    assert sc.bracket(sc.z((1, 0, 0, 0)), sc.z((0, 1, 0, 0)))


def test_sign_gauge_is_still_chevalley():
    rs = build_root_system("B", 2)
    sc = build_chevalley(rs).sign_gauge(11)
    for (ia, ib), v in sc.ntable.items():
        p, _ = rs.root_string(rs.roots[ia], rs.roots[ib])
        assert abs(v) == p + 1
        assert sc.ntable[(ib, ia)] == -v
        assert sc.ntable[(rs.idx(neg(rs.roots[ia])), rs.idx(neg(rs.roots[ib])))] == v
    for k1, k2, k3 in itertools.combinations(range(sc.dim), 3):
        assert _elt_eq_zero(_jacobi_defect(sc, k1, k2, k3))
