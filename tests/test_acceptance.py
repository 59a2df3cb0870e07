"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (run with -s to see them)."""

import itertools
import random
from fractions import Fraction

from algebra_oracle import (RootClass, classify_root, conj_image, idx,
                            is_root, killing, killing_hh, killing_z_pair,
                            rank, root_string)
from chain_oracle import summed, verify_no_triples
from float_oracle import float_classify
from gaussq import QQi
import levi_oracle as dense
from minorbit.chevalley import build_chevalley
from minorbit.cli import default_golden_path
from minorbit.crflag import (characteristic_real_roots, classify_levi,
                             concavity_verdict, get_context, indices, k_phi,
                             levi_matrix, parabolic, phi_mask)
from minorbit.exactla import DefinitenessClass, hermitian_classify
from minorbit.golden import compare_golden, load_golden
from minorbit.realform import catalog
from minorbit.rootsys import build_root_system, neg
from model_oracle import expected_lattice_conjugation

D = DefinitenessClass

INSTANCES = [
    ("su(2,3)", 4), ("su(2,4)", 5), ("su(1,3)", 3), ("su*(6)", 5),
    ("sp(1,2)", 3), ("sp(2,2)", 4), ("so*(8)", 4), ("so(2,5)", 3),
    ("so(3,3)", 3), ("sl(3,C)", 4), ("compact-G2", 2), ("sl(3,R)", 2),
    ("EIII", 6), ("FII", 4),
]

_cache = {}


def _all_phi(rank):
    for k in range(rank + 1):
        for c in itertools.combinations(range(1, rank + 1), k):
            yield frozenset(c)


def _enumerate(gauge_seed=None):
    key = gauge_seed
    if key not in _cache:
        rows = []
        for name, rk in INSTANCES:
            ctx = get_context(name, gauge_seed)
            for phi in _all_phi(rk):
                rows.append(concavity_verdict(ctx, phi))
        _cache[key] = rows
    return _cache[key]


def test_criterion_1_classification_parity():
    import time
    t0 = time.time()
    verdicts = _enumerate()
    elapsed = time.time() - t0
    rows = [{"form": v["form"], "phi": v["phi"],
             "finite_type": v["finite_type"], "verdict": v["verdict"]}
            for v in verdicts]
    gold = load_golden(default_golden_path())
    # the rows of each instance form are consecutive: one call per form
    diffs = [compare_golden(list(frows), gold[form]) for form, frows
             in itertools.groupby(rows, key=lambda r: r["form"])]
    mismatches = [m for d in diffs for m in d["mismatches"]]
    ok = not mismatches and all(d["pass"] for d in diffs)
    print(f"ACCEPTANCE 1 classification parity: "
          f"{'PASS' if ok else 'FAIL'} "
          f"({len(rows)} rows, {sum(d['parity_rows'] for d in diffs)} "
          f"parity rows, {len(mismatches)} mismatches, {elapsed:.0f}s)")
    assert len(diffs) == len(INSTANCES) and len(rows) == 248
    assert ok, mismatches
    assert elapsed < 600, "runtime target exceeded"


def test_criterion_2_exact_micro_facts():
    # (a) FII: one positive real characteristic root, Levi rank 1
    ctx = get_context("FII")
    pd = parabolic(ctx, phi_mask({3}))
    chars = characteristic_real_roots(ctx, pd)
    assert [ctx.rs.roots[g] for g in chars] == [(1, 2, 3, 2)]
    _, m = dense.levi_matrix(ctx, pd, chars[0])
    assert rank(m) == 1 and hermitian_classify(m).is_semidefinite()
    assert classify_levi(*levi_matrix(ctx, pd, chars[0]))[0].is_semidefinite()

    # (b) EIII: the unique semidefinite characteristic root and its unique
    # diagonal contributor
    ctx = get_context("EIII")
    pd = parabolic(ctx, phi_mask({3}))
    semidef = []
    for g in characteristic_real_roots(ctx, pd):
        if classify_levi(*levi_matrix(ctx, pd, g))[0].is_semidefinite():
            semidef.append((g, *dense.levi_matrix(ctx, pd, g)))
    assert len(semidef) == 1
    g, index, m = semidef[0]
    assert ctx.rs.roots[g] == (1, 2, 2, 3, 2, 1)
    diag = [index[i] for i in range(len(index)) if m[i][i]]
    assert [ctx.rs.roots[a] for a in diag] == [(-1, -1, -2, -2, -1, 0)]
    assert rank(m) == 1

    # (c) CIIa Levi classes around the threshold index
    ctx = get_context("sp(2,3)", max_rank=6)

    def gamma(r, l=5):
        v = [0] * l
        v[2 * r - 2] += 1
        v[l - 1] += 1
        for j in range(2 * r, l):
            v[j - 1] += 2
        return tuple(v)

    def levi_class(pd, g):
        return classify_levi(*levi_matrix(ctx, pd, idx(ctx.rs, g)))[0]

    pd = parabolic(ctx, phi_mask({3, 5}))
    assert levi_class(pd, gamma(1)) is D.ZERO
    c2 = levi_class(pd, gamma(2))
    assert c2.is_semidefinite() and c2 is not D.ZERO
    pd = parabolic(ctx, phi_mask({1, 5}))
    c1 = levi_class(pd, gamma(1))
    assert c1.is_semidefinite() and c1 is not D.ZERO
    assert levi_class(pd, gamma(2)) is D.INDEFINITE

    # (d) AIIIa: the semidefinite-nonzero real characteristic roots are
    # exactly the nested interval sums in the derived s-range
    for name, p, q, phi in [("su(2,4)", 2, 4, {1, 3}),
                            ("su(2,5)", 2, 5, {1, 4})]:
        ctx = get_context(name, max_rank=6)
        pd = parabolic(ctx, phi_mask(phi))
        n = p + q
        j_a = max([j for j in phi if j < p], default=0)
        j_b1 = min([j for j in phi if j > q], default=n)
        want = []
        for s in range(1, p + 1):
            if n - j_b1 < s <= j_a:
                want.append(tuple(1 if s <= j + 1 <= n - s else 0
                                  for j in range(n - 1)))
        got = []
        for g in characteristic_real_roots(ctx, pd):
            cls = classify_levi(*levi_matrix(ctx, pd, g))[0]
            if cls.is_semidefinite() and cls is not D.ZERO:
                got.append(ctx.rs.roots[g])
        assert sorted(got) == sorted(want), (name, phi, got, want)

    # (e) FII kernel set: the complement of {-alpha_4} in Q
    ctx = get_context("FII")
    for phi in ({3}, {1, 3}, {2, 3}, {1, 2, 3}):
        pd = parabolic(ctx, phi_mask(phi))
        kp = k_phi(ctx, pd)
        assert indices(pd.Q & ~kp) == [idx(ctx.rs, (0, 0, 0, -1))]
    print("ACCEPTANCE 2 exact micro-facts: PASS (a-e)")


def test_criterion_3_no_triples_exhaustive():
    total = 0
    for entry in catalog(6):
        ctx = get_context(entry.name, max_rank=6)
        assert verify_no_triples(ctx) == 0, entry.name
        total += 1
    print(f"ACCEPTANCE 3 no forbidden triples: PASS "
          f"({total} catalog conjugations, rank <= 6, exhaustive)")


def test_criterion_4_chevalley_invariants():
    small = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
             ("B", 4), ("C", 3), ("C", 4), ("D", 3), ("D", 4), ("F", 4),
             ("G", 2)]
    rng = random.Random(101)

    def jac_zero(sc, k1, k2, k3):
        t = {}
        for a, b, c in ((k1, k2, k3), (k2, k3, k1), (k3, k1, k2)):
            for k, v in sc.bracket({a: 1}, sc.bracket({b: 1}, {c: 1})).items():
                nv = t.get(k, 0) + v
                if nv:
                    t[k] = nv
                elif k in t:
                    del t[k]
        return not t

    checked = 0
    for fam, rk in small:
        rs = build_root_system(fam, rk)
        sc = build_chevalley(rs)
        for k1, k2, k3 in itertools.combinations(range(sc.dim), 3):
            assert jac_zero(sc, k1, k2, k3)
            checked += 1
        for (ia, ib), v in sc.ntable.items():
            p, _ = root_string(rs, rs.roots[ia], rs.roots[ib])
            assert abs(v) == p + 1
    for fam, rk in [("A", 5), ("C", 5), ("E", 6)]:
        rs = build_root_system(fam, rk)
        sc = build_chevalley(rs)
        for _ in range(10000):
            assert jac_zero(sc, rng.randrange(sc.dim), rng.randrange(sc.dim),
                            rng.randrange(sc.dim))
        for (ia, ib), v in sc.ntable.items():
            p, _ = root_string(rs, rs.roots[ia], rs.roots[ib])
            assert abs(v) == p + 1
        # footnote involution is an automorphism

        def theta(e):
            out = {}
            for k, v2 in e.items():
                if k < rs.rank:
                    out[k] = out.get(k, QQi(0)) - v2
                else:
                    out[rs.rank + idx(rs, neg(rs.roots[k - rs.rank]))] = v2
            return {k: v2 for k, v2 in out.items() if v2}

        for _ in range(2000):
            k1, k2 = rng.randrange(sc.dim), rng.randrange(sc.dim)
            x, y = {k1: QQi(1)}, {k2: QQi(1)}
            assert theta(sc.bracket(x, y)) == sc.bracket(theta(x), theta(y))
        # Killing: nondegenerate and ad-invariant
        hh = killing_hh(sc)
        gram = [[QQi(hh[i][j]) for j in range(rs.rank)] for i in range(rs.rank)]
        assert rank(gram) == rs.rank
        for r in rs.roots[len(rs.roots) // 2:][:20]:
            assert killing_z_pair(sc, idx(rs, r)) != 0
        for _ in range(500):
            ks = [rng.randrange(sc.dim) for _ in range(3)]
            x, y, z = ({k: QQi(1)} for k in ks)
            assert killing(sc, sc.bracket(x, y), z) == \
                killing(sc, x, sc.bracket(y, z))
    print(f"ACCEPTANCE 4 chevalley invariants: PASS "
          f"(exhaustive Jacobi on {len(small)} systems, {checked} triples; "
          f"10^4 random triples each on A5, C5, E6)")


def test_criterion_5_conjugation_invariants():
    entries = catalog(6)
    oracle_checked = 0
    for entry in entries:
        ctx = get_context(entry.name, max_rank=6)
        rs, conj = ctx.rs, ctx.conj
        for r in rs.roots:
            img = conj_image(conj, r)
            assert is_root(rs, img) and conj_image(conj, img) == r
            cl = classify_root(conj, r)
            assert cl is not RootClass.IMAGINARY_NONCOMPACT
            if cl is RootClass.COMPLEX and sum(r) > 0:
                assert sum(img) > 0
            if cl is not RootClass.COMPLEX:
                assert conj.t_exp[idx(rs, r)] == 0
        for b in entry.black:
            ej = tuple(1 if k == b - 1 else 0 for k in range(rs.rank))
            assert conj_image(conj, ej) == neg(ej)
        # cocycle consistency over every composable pair
        for ia in range(len(rs.roots)):
            for ib in range(len(rs.roots)):
                s = summed(ctx, ia, ib)
                if s is None or rs.roots[ia] == neg(rs.roots[ib]):
                    continue
                ta = conj.t_exp[ia]
                tb = conj.t_exp[ib]
                ts = conj.t_exp[s]
                ratio = Fraction(ctx.sc.n(ia, ib),
                                 ctx.sc.n(conj.c_index[ia], conj.c_index[ib]))
                e = 0 if ratio == 1 else 2
                assert (ta + tb - ts - e) % 4 == 0, entry.name
        expected = expected_lattice_conjugation(entry, rs)
        if expected is not None:
            assert expected == conj.lattice, entry.name
            oracle_checked += 1
    print(f"ACCEPTANCE 5 conjugation invariants: PASS "
          f"({len(entries)} entries exhaustive; {oracle_checked} classical "
          f"labels matched the matrix-realization oracle)")


def test_criterion_6_exact_vs_numeric():
    # every Levi matrix arising from the criterion-1 instances
    checked = 0
    for name, rk in INSTANCES:
        ctx = get_context(name)
        for phi in _all_phi(rk):
            pd = parabolic(ctx, phi_mask(phi))
            for g in characteristic_real_roots(ctx, pd):
                _, m = dense.levi_matrix(ctx, pd, g)
                if m:
                    assert hermitian_classify(m) == float_classify(m)
                    assert classify_levi(*levi_matrix(ctx, pd, g))[0] == \
                        float_classify(m)
                    checked += 1
    # randomized Hermitian agreement
    rng = random.Random(2026)
    for _ in range(1000):
        n = rng.randint(1, 8)
        b = [[QQi(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                  Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
              for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.4:
            m = [[sum((b[k][i].conj() * b[k][j] for k in range(n)), QQi(0))
                  for j in range(n)] for i in range(n)]
        else:
            m = [[b[i][j] + b[j][i].conj() for j in range(n)]
                 for i in range(n)]
        assert hermitian_classify(m) == float_classify(m)
    # kernel lemma on 10^4 randomized semidefinite splittings
    for _ in range(10000):
        n = rng.randint(1, 5)
        k = rng.randint(1, n)
        G = [[QQi(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
             for _ in range(k)]
        M = [[sum((G[t][i].conj() * G[t][j] for t in range(k)), QQi(0))
              for j in range(n)] for i in range(n)]
        for i in range(n):
            if not M[i][i]:
                assert all(not M[i][j] for j in range(n))
    print(f"ACCEPTANCE 6 exact vs numeric: PASS "
          f"({checked} pipeline Levi matrices, 1000 random Hermitian, "
          f"10^4 kernel-lemma pairs)")


def test_criterion_7_gauge_robustness():
    base = _enumerate()
    for seed in (1, 2, 3):
        redone = _enumerate(seed)
        assert len(base) == len(redone)
        for v0, v1 in zip(base, redone):
            assert (v0["form"], v0["phi"]) == (v1["form"], v1["phi"])
            assert v0["verdict"] == v1["verdict"]
            assert v0["k_phi"] == v1["k_phi"]
            assert v0["mot_satisfied"] == v1["mot_satisfied"]
            assert [g["root"] for g in v0["gammas"]] == \
                [g["root"] for g in v1["gammas"]]
    print("ACCEPTANCE 7 gauge robustness: PASS "
          "(3 randomized sign gauges, identical verdicts, kernel sets, "
          "chain results on every row)")


def test_criterion_8_sufficiency_direction():
    rows = list(_enumerate())
    for seed in (1, 2, 3):
        rows.extend(_enumerate(seed))
    viol = [(v["form"], v["phi"]) for v in rows
            if v["mot_satisfied"] and not v["span_satisfied"]]
    print(f"ACCEPTANCE 8 sufficiency direction: "
          f"{'PASS' if not viol else 'FAIL'} "
          f"({len(rows)} rows, chain condition implies span on all)")
    assert not viol
