"""Dense Levi matrices over Gaussian rationals, scaled by the Killing value
kappa(Z_t, Z_-t), with the structural category read from the dense entry
pattern: the Levi layer as `minorbit.crflag` computed it before it read
each form from its root involution.  The tests compare it with the sparse
integer forms entry for entry, and its elimination
(`exactla.hermitian_classify`) with `crflag.classify_levi`.
"""

from __future__ import annotations

from fractions import Fraction

from algebra_oracle import killing_z_pair
from minorbit.crflag import FormContext, ParabolicData
from minorbit.exactla import DefinitenessClass, hermitian_classify
from minorbit.gaussq import I_POW, QQi


def _entry(ctx: FormContext, x: int, y: int, kpair: Fraction) -> QQi:
    # i * t_y * N(x, c(y)) * kappa(Z_g, Z_-g)
    nval = ctx.sc.n(x, ctx.c(y))
    return QQi(0, 1) * I_POW[ctx.conj.t_exp[y]] * nval * kpair


def levi_matrix(ctx: FormContext, pd: ParabolicData, gamma: int,
                mirrored: bool = False):
    """Hermitian Levi matrix of the real characteristic root `gamma`.

    Default convention: rows and columns indexed by conj(Q) \\ Q, entry at
    (x, y) iff x + conj(y) = -gamma.  The mirrored convention indexes
    Q \\ conj(Q) (the same covector, presented on the parabolic side); the
    two matrices are unitarily congruent and must classify identically.
    Returns (index list, matrix).
    """
    if ctx.c(gamma) != gamma:
        raise ValueError("levi_matrix needs a real root")
    if gamma not in pd.Qn:
        raise ValueError("levi_matrix needs a characteristic root")
    if mirrored:
        index = sorted(pd.Q - pd.Qbar)
    else:
        index = sorted(pd.Qbar - pd.Q)
    target = ctx.negi(gamma)
    kpair = killing_z_pair(ctx.sc, gamma)
    pos = {ia: k for k, ia in enumerate(index)}
    n = len(index)
    m = [[QQi(0)] * n for _ in range(n)]
    for x, rest in ctx.rs.sum_pairs[target]:
        if x in pos:
            y = ctx.c(rest)
            if y in pos:
                m[pos[x]][pos[y]] = _entry(ctx, x, y, kpair)
    return index, m


def q_form(ctx: FormContext, pd: ParabolicData, target: int):
    """Levi form on the parabolic subalgebra itself: rows and columns over Q,
    entry at (x, y) iff x + conj(y) = target (a real root, either sign).
    Support-restricted; used for the kernel-set test.  The pairs of
    `target` come sorted by x, so rows keep the order of sorted(Q)."""
    rows = []
    for x, rest in ctx.rs.sum_pairs[target]:
        if x in pd.Q:
            y = ctx.c(rest)
            if y in pd.Q:
                rows.append((x, y))
    index = sorted({x for x, _ in rows} | {y for _, y in rows})
    pos = {ia: k for k, ia in enumerate(index)}
    kpair = killing_z_pair(ctx.sc, target)
    n = len(index)
    m = [[QQi(0)] * n for _ in range(n)]
    for x, y in rows:
        m[pos[x]][pos[y]] = _entry(ctx, x, y, kpair)
    return index, m


def structural_category(m) -> str:
    """The proof partition of Hermitian shapes by entry pattern."""
    n = len(m)
    diag = any(m[i][i] for i in range(n))
    off = any(m[i][j] for i in range(n) for j in range(n) if i != j)
    if not diag:
        return "zero-diagonal"
    if not off:
        cls = hermitian_classify(m)
        return "diagonal-semidefinite" if cls.is_semidefinite() else \
            "diagonal-indefinite"
    return "mixed"


def classify_levi(m) -> tuple[DefinitenessClass, str]:
    return hermitian_classify(m), structural_category(m)


def densify(index, entries, scale=1):
    """The dense QQi matrix of a sparse form (index, entries), each entry
    multiplied by `scale`."""
    pos = {ia: k for k, ia in enumerate(index)}
    n = len(index)
    m = [[QQi(0)] * n for _ in range(n)]
    for (x, y), (re, im) in entries.items():
        m[pos[x]][pos[y]] = QQi(re, im) * scale
    return m


def killing_scale(ctx: FormContext, target: int) -> Fraction:
    """|kappa(Z_t, Z_-t)|, the factor between a dense Levi matrix at the
    real root t and the integer entries of `crflag`."""
    return abs(killing_z_pair(ctx.sc, target))
