import pytest

from algebra_oracle import add, idx, is_root
from algebra_oracle import rank as xrank
import levi_oracle as dense
from chain_oracle import summed, verify_no_triples
from minorbit import crflag
from minorbit.crflag import (Chains, characteristic_real_roots,
                             classify_levi, concavity_verdict, finite_type,
                             get_context, hlc_reachability, indices, k_phi,
                             levi_matrix, parabolic, phi_mask, q_form,
                             t_module_span)
from minorbit.exactla import DefinitenessClass, hermitian_classify, is_hermitian
from minorbit.rootsys import neg

D = DefinitenessClass


def roots_of(ctx, idxs):
    return sorted(list(ctx.rs.roots[i]) for i in idxs)


# -- parabolic data -----------------------------------------------------------


def test_parabolic_empty_phi():
    ctx = get_context("sl(3,R)")
    pd = parabolic(ctx, phi_mask(set()))
    assert len(indices(pd.Q)) == len(ctx.rs.roots)
    assert not pd.Qn


def test_parabolic_a2():
    ctx = get_context("sl(3,R)")
    pd = parabolic(ctx, phi_mask({1}))
    got = roots_of(ctx, indices(pd.Q))
    want = sorted([[1, 0], [0, 1], [1, 1], [0, -1]])
    assert got == want


def test_parabolic_f4_contains_gamma():
    ctx = get_context("FII")
    pd = parabolic(ctx, phi_mask({3}))
    assert idx(ctx.rs, (1, 2, 3, 2)) in indices(pd.Qn)


def test_parabolic_invalid_phi():
    ctx = get_context("sl(3,R)")
    with pytest.raises(ValueError):
        parabolic(ctx, phi_mask({5}))


def test_parabolicity_closure_and_ideal():
    ctx = get_context("su(2,3)")
    for phi in [{1}, {2}, {1, 3}]:
        pd = parabolic(ctx, phi_mask(phi))
        Q, Qn = set(indices(pd.Q)), set(indices(pd.Qn))
        for a in Q:
            for b in Q:
                s = summed(ctx, a, b)
                if s is not None:
                    assert s in Q
            for b in Qn:
                s = summed(ctx, b, a)
                if s is not None:
                    assert s in Qn
        # monotonicity of Q under growing phi
        pd2 = parabolic(ctx, phi_mask(set(phi) | {4}))
        assert set(indices(pd2.Q)) <= Q


# -- characteristic roots and Levi matrices ----------------------------------


def test_characteristic_roots_compact_none():
    ctx = get_context("compact-A2")
    pd = parabolic(ctx, phi_mask({1}))
    assert characteristic_real_roots(ctx, pd) == []


def test_fii_characteristic_and_levi():
    ctx = get_context("FII")
    pd = parabolic(ctx, phi_mask({3}))
    chars = characteristic_real_roots(ctx, pd)
    assert roots_of(ctx, chars) == [[1, 2, 3, 2]]
    index, m = dense.levi_matrix(ctx, pd, chars[0])
    assert is_hermitian(m)
    cls, cat = classify_levi(*levi_matrix(ctx, pd, chars[0]))
    assert xrank(m) == 1
    assert cls.is_semidefinite() and cls is not D.ZERO
    assert cat == "diagonal-semidefinite"
    # the float oracle sees exactly one nonzero eigenvalue
    from float_oracle import float_eigen_oracle
    ev = float_eigen_oracle(m)
    scale = max(abs(e) for e in ev)
    assert sum(1 for e in ev if abs(e) > 1e-9 * scale) == 1


def test_eiii_characteristic_and_levi():
    ctx = get_context("EIII")
    pd = parabolic(ctx, phi_mask({3}))
    chars = characteristic_real_roots(ctx, pd)
    semidef = []
    for g in chars:
        cls, _ = classify_levi(*levi_matrix(ctx, pd, g))
        if cls.is_semidefinite() and cls is not D.ZERO:
            semidef.append(g)
    assert roots_of(ctx, semidef) == [[1, 2, 2, 3, 2, 1]]
    g = semidef[0]
    index, m = dense.levi_matrix(ctx, pd, g)
    assert xrank(m) == 1
    diag = [index[i] for i in range(len(index)) if m[i][i]]
    assert roots_of(ctx, diag) == [[-1, -1, -2, -2, -1, 0]]


def test_ciia_levi_classes():
    ctx = get_context("sp(2,3)", max_rank=6)

    def gamma(r, l=5):
        v = [0] * l
        v[2 * r - 2] += 1
        v[l - 1] += 1
        for j in range(2 * r, l):
            v[j - 1] += 2
        return tuple(v)

    # j_a = 3 gives the threshold index 2: below zero, at it semidefinite
    pd = parabolic(ctx, phi_mask({3, 5}))
    cls = {}
    for g in characteristic_real_roots(ctx, pd):
        cls[ctx.rs.roots[g]] = classify_levi(*levi_matrix(ctx, pd, g))[0]
    assert cls[gamma(1)] is D.ZERO
    c2 = cls[gamma(2)]
    assert c2.is_semidefinite() and c2 is not D.ZERO
    # j_a = 1: the second root is beyond the threshold, hence indefinite
    pd = parabolic(ctx, phi_mask({1, 5}))
    cls = {}
    for g in characteristic_real_roots(ctx, pd):
        cls[ctx.rs.roots[g]] = classify_levi(*levi_matrix(ctx, pd, g))[0]
    c1 = cls[gamma(1)]
    assert c1.is_semidefinite() and c1 is not D.ZERO
    assert cls[gamma(2)] is D.INDEFINITE


def test_ciia_sp12_zero_case():
    ctx = get_context("sp(1,2)")
    pd = parabolic(ctx, phi_mask({2}))
    for g in characteristic_real_roots(ctx, pd):
        assert classify_levi(*levi_matrix(ctx, pd, g))[0] in (
            D.ZERO, D.INDEFINITE, D.POSITIVE_SEMIDEFINITE_NONZERO,
            D.NEGATIVE_SEMIDEFINITE_NONZERO)


def test_levi_matrix_preconditions():
    ctx = get_context("FII")
    pd = parabolic(ctx, phi_mask({3}))
    complex_root = next(i for i, r in enumerate(ctx.rs.roots)
                        if ctx.c(i) not in (i, ctx.negi(i)))
    with pytest.raises(ValueError):
        levi_matrix(ctx, pd, complex_root)
    # a real root outside Qn is not characteristic
    ctx2 = get_context("su(2,3)")
    pd2 = parabolic(ctx2, phi_mask({1}))
    gamma2 = idx(ctx2.rs, (0, 1, 1, 0))
    assert ctx2.c(gamma2) == gamma2 and gamma2 not in indices(pd2.Qn)
    with pytest.raises(ValueError):
        levi_matrix(ctx2, pd2, gamma2)


def test_mirrored_convention_same_classes():
    for form, phi in [("FII", {3}), ("EIII", {3}), ("su(2,3)", {2}),
                      ("sp(1,2)", {1}), ("so*(8)", {1})]:
        ctx = get_context(form)
        pd = parabolic(ctx, phi_mask(phi))
        side = pd.Q & ~pd.Qbar  # the mirrored convention's index
        for g in characteristic_real_roots(ctx, pd):
            _, m1 = dense.levi_matrix(ctx, pd, g)
            _, m2 = dense.levi_matrix(ctx, pd, g, mirrored=True)
            c1, c2 = hermitian_classify(m1), hermitian_classify(m2)
            assert c1 == c2 or c1 == c2.flipped()
            s1 = classify_levi(*levi_matrix(ctx, pd, g))[0]
            s2 = classify_levi(indices(side), crflag._entries(
                ctx, ctx.negi(g), side, side))[0]
            assert s1 == s2 or s1 == s2.flipped()


# -- kernel set ----------------------------------------------------------------


def test_k_phi_fii_complement():
    ctx = get_context("FII")
    for phi in [{3}, {1, 3}, {2, 3}, {1, 2, 3}]:
        pd = parabolic(ctx, phi_mask(phi))
        kp = k_phi(ctx, pd)
        excluded = indices(pd.Q & ~kp)
        assert roots_of(ctx, excluded) == [[0, 0, 0, -1]]


def test_k_phi_vacuous_when_no_semidefinite():
    ctx = get_context("sl(3,R)")
    pd = parabolic(ctx, phi_mask({1}))
    # split form: every a + conj(a) = 2a is not a root, so K = Q
    assert k_phi(ctx, pd) == pd.Q


def test_eiii_simple_roots_in_kernel_closure():
    ctx = get_context("EIII")
    pd = parabolic(ctx, phi_mask({3}))
    kp = indices(k_phi(ctx, pd))
    kk = set(kp) | {ctx.c(a) for a in kp}
    for j in range(6):
        ej = tuple(1 if k == j else 0 for k in range(6))
        assert idx(ctx.rs, ej) in kk or idx(ctx.rs, neg(ej)) in kk


def test_k_phi_isotropy_invariant():
    # every kernel root is isotropic for every semidefinite Levi form
    for form, phi in [("FII", {3}), ("EIII", {3}), ("su(2,4)", {1, 3}),
                      ("sp(2,3)", {3, 5})]:
        ctx = get_context(form, max_rank=6)
        pd = parabolic(ctx, phi_mask(phi))
        kp = k_phi(ctx, pd)
        for g in characteristic_real_roots(ctx, pd):
            index, m = dense.q_form(ctx, pd, ctx.negi(g))
            _, entries = q_form(ctx, pd, ctx.negi(g))
            if not hermitian_classify(m).is_semidefinite():
                continue
            pos = {a: k for k, a in enumerate(index)}
            for a in indices(kp):
                assert (a, a) not in entries
                if a in pos:
                    assert not m[pos[a]][pos[a]]


# -- finite type -----------------------------------------------------------------


def test_finite_type_cases():
    ctx = get_context("su(2,3)")
    assert finite_type(ctx, parabolic(ctx, phi_mask(set())))
    assert finite_type(ctx, parabolic(ctx, phi_mask({1})))
    assert not finite_type(ctx, parabolic(ctx, phi_mask({1, 4})))
    assert not finite_type(ctx, parabolic(ctx, phi_mask({2, 3})))


# -- chain reachability -----------------------------------------------------------


def test_fii_chain_fails_with_certificate():
    ctx = get_context("FII")
    pd = parabolic(ctx, phi_mask({3}))
    kp = k_phi(ctx, pd)
    g = characteristic_real_roots(ctx, pd)[0]
    res = hlc_reachability(Chains(ctx, pd, kp), g)
    assert not res["reached"]
    cert = res["certificate"]
    assert cert["kind"] == "coefficient-bound"
    assert cert["coordinate"] == 4
    assert cert["target_coefficient"] == -2
    assert cert["start_minimum"] == -1
    # the positive direction is trivially reachable
    real = concavity_verdict(ctx, {3}, check="mot")["mot_details"][0]
    assert real["gamma"] == list(ctx.rs.roots[g])
    assert real["toward_plus"]["reached"]


def test_eiii_chain_succeeds_with_witness():
    ctx = get_context("EIII")
    pd = parabolic(ctx, phi_mask({3}))
    kp = k_phi(ctx, pd)
    semidef = []
    for g in characteristic_real_roots(ctx, pd):
        if classify_levi(*levi_matrix(ctx, pd, g))[0].is_semidefinite():
            semidef.append(g)
    for g in semidef:
        res = hlc_reachability(Chains(ctx, pd, kp), g)
        assert res["reached"]
        chain = [tuple(r) for r in res["chain"]]
        total = chain[0]
        assert is_root(ctx.rs, total)
        kk = set(indices(kp)) | {ctx.c(a) for a in indices(kp)}
        for step in chain[1:]:
            assert idx(ctx.rs, step) in kk
            total = add(total, step)
            assert is_root(ctx.rs, total)
        assert total == neg(ctx.rs.roots[g])


def test_ciia_small_threshold_reaches_all_characteristics():
    # sp(2,3) with the threshold index below p: the kernel chains cover the
    # negative of every characteristic root, complex ones included
    ctx = get_context("sp(2,3)", max_rank=6)
    pd = parabolic(ctx, phi_mask({1, 5}))
    kp = k_phi(ctx, pd)
    Qn = indices(pd.Qn)
    chars = sorted(set(Qn) & {ctx.c(a) for a in Qn})
    assert chars
    for d in chars:
        assert hlc_reachability(Chains(ctx, pd, kp), d)["reached"]


# -- no-triples scan -----------------------------------------------------------


@pytest.mark.parametrize("name", ["su(2,3)", "compact-A2", "sp(3,R)",
                                  "sl(3,C)", "FII", "so(2,5)"])
def test_no_triples(name):
    assert verify_no_triples(get_context(name)) == 0


def test_get_context_key_includes_max_rank():
    get_context("FII")
    with pytest.raises(KeyError):
        get_context("FII", max_rank=3)  # F4 is outside the rank <= 3 catalog


# -- span decision -----------------------------------------------------------------


def test_span_compact_always_full():
    ctx = get_context("compact-G2")
    for phi in [set(), {1}, {2}, {1, 2}]:
        pd = parabolic(ctx, phi_mask(phi))
        ok, dims = t_module_span(Chains(ctx, pd, k_phi(ctx, pd)))
        assert ok and dims[-1] == ctx.sc.dim


def test_span_fii_phi3_fails():
    ctx = get_context("FII")
    pd = parabolic(ctx, phi_mask({3}))
    ok, dims = t_module_span(Chains(ctx, pd, k_phi(ctx, pd)))
    assert not ok
    assert dims[-1] < ctx.sc.dim


def test_span_su23_phi1_succeeds():
    ctx = get_context("su(2,3)")
    pd = parabolic(ctx, phi_mask({1}))
    ok, _ = t_module_span(Chains(ctx, pd, k_phi(ctx, pd)))
    assert ok


def test_chain_covers_zero_levi_complex_pairs():
    # a form with no real roots at all: the literal real-root chain loop is
    # vacuous, but zero-Levi complex pairs still demand chains; without them
    # the chain condition would wrongly claim sufficiency here
    v = concavity_verdict(get_context("su*(6)"), {2})
    assert not v["finite_type"]
    assert not v["span_satisfied"]
    assert not v["mot_satisfied"]
    kinds = {d["kind"] for d in v["mot_details"]}
    assert kinds == {"complex-zero-pair"}
    assert any(not (d["toward_minus_beta"]["reached"]
                    or d["toward_minus_conj_beta"]["reached"])
               for d in v["mot_details"])


def test_span_matches_dense_reference():
    """The exact engine with every basis key in one block, so with no orbit
    decomposition, against the closure span and the block engine."""
    from span_oracle import exact_span
    for form, phi in [("su(1,2)", {1}), ("sp(1,2)", {2}), ("su*(4)", {2}),
                      ("sl(2,C)", {1, 2}), ("sl(2,C)", {1})]:
        ctx = get_context(form)
        pd = parabolic(ctx, phi_mask(phi))
        kp = k_phi(ctx, pd)
        ok, dims = t_module_span(Chains(ctx, pd, kp))
        dense_ok, dense_dims = exact_span(ctx, pd, kp,
                                          blocks=[list(range(ctx.sc.dim))])
        block_ok, block_dims = exact_span(ctx, pd, kp)
        assert dense_ok == block_ok == ok, (form, phi)
        assert dense_dims[-1] == block_dims[-1] == dims[-1], (form, phi)


# -- full pipeline -----------------------------------------------------------------


def test_verdict_empty_phi_annotated():
    v = concavity_verdict(get_context("su(2,3)"), set())
    assert v["verdict"] and v["annotation"]


def test_verdict_examples():
    fii, eiii, su23 = (get_context(n) for n in ("FII", "EIII", "su(2,3)"))
    assert concavity_verdict(fii, {1, 2})["verdict"]
    assert not concavity_verdict(fii, {3})["verdict"]
    assert concavity_verdict(eiii, {3})["verdict"]
    assert concavity_verdict(su23, {1})["verdict"]
    assert not concavity_verdict(su23, {2})["verdict"]


def test_verdict_serialization_deterministic():
    import json
    d1 = concavity_verdict(get_context("FII"), {3})
    d2 = concavity_verdict(get_context("FII"), {3})
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    assert d1["k_phi"] and d1["gammas"][0]["class"]
    assert d1["mot_details"][0]["toward_minus"]["certificate"]


def test_verdict_check_modes():
    ctx = get_context("FII")
    vm = concavity_verdict(ctx, {1}, check="mot")
    assert vm["mot_satisfied"] and not vm["span_satisfied"]
    vs = concavity_verdict(ctx, {1}, check="span")
    assert vs["span_satisfied"] and not vs["mot_satisfied"]
    assert vm["verdict"] and vs["verdict"]
    # mode selection never changes the outcome of the engine that does run
    for phi in ({3}, {1, 2}):
        va = concavity_verdict(ctx, phi, check="all")
        assert concavity_verdict(ctx, phi, check="span")["span_satisfied"] \
            == va["span_satisfied"]
        assert concavity_verdict(ctx, phi, check="mot")["mot_satisfied"] \
            == va["mot_satisfied"]


def test_so_star_parity_pattern():
    # computed resolution of the sub-label ambiguity: the avoid-the-last-two
    # condition binds for odd l, while even l passes on every finite-type row
    v = concavity_verdict(get_context("so*(6)"), {2})
    assert v["finite_type"] and not v["verdict"]
    v = concavity_verdict(get_context("so*(6)"), {1})
    assert v["finite_type"] and v["verdict"]
    v = concavity_verdict(get_context("so*(8)"), {3})
    assert v["finite_type"] and v["verdict"]


def test_global_normalization_flip():
    # negating every Levi matrix swaps the Positive/Negative labels but
    # leaves every decision-relevant predicate unchanged
    for form, phi in [("FII", {3}), ("su(2,3)", {2}), ("sp(2,3)", {1, 5})]:
        ctx = get_context(form, max_rank=6)
        pd = parabolic(ctx, phi_mask(phi))
        for g in characteristic_real_roots(ctx, pd):
            _, m = dense.levi_matrix(ctx, pd, g)
            flipped = [[-x for x in row] for row in m]
            c0, c1 = hermitian_classify(m), hermitian_classify(flipped)
            assert c1 == c0.flipped()
            assert c0.is_semidefinite() == c1.is_semidefinite()
            assert (c0 is DefinitenessClass.INDEFINITE) == \
                (c1 is DefinitenessClass.INDEFINITE)


def test_gauge_robustness_small():
    for form, phi in [("FII", {3}), ("su(2,3)", {2}), ("so*(8)", {3})]:
        base = concavity_verdict(get_context(form), phi)
        for seed in (1, 2, 3):
            v = concavity_verdict(get_context(form, seed), phi)
            assert v["verdict"] == base["verdict"]
            assert v["k_phi"] == base["k_phi"]
            assert v["mot_satisfied"] == base["mot_satisfied"]
            assert [g["root"] for g in v["gammas"]] == \
                [g["root"] for g in base["gammas"]]
            assert all(
                a["class"] == b["class"] or
                DefinitenessClass(a["class"])
                == DefinitenessClass(b["class"]).flipped()
                for a, b in zip(v["gammas"], base["gammas"]))
