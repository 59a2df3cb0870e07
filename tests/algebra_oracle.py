"""Exact linear-algebra and real-form constructions used only by the tests:
an incremental echelon store and a span-closure fixpoint engine, adjoint
matrices, the Killing form as an explicit adjoint trace, and the
anti-linear involution sigma of a real form with a basis of its fixed
points.

`classify` decides everything from root-index tables and never forms these
objects; the tests use them as independent references (the Killing trace,
the dense span, the Killing character of the real form).
"""

from __future__ import annotations

from functools import cache
from fractions import Fraction
from typing import Callable, Sequence

from minorbit.chevalley import StructureConstants
from minorbit.exactla import kernel, rref
from minorbit.gaussq import I_POW, QQi, ZERO
from minorbit.realform import Conjugation
from minorbit.rootsys import neg


class Echelon:
    """Incremental row-echelon store over the QQi field."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[QQi]] = []
        self.pivots: list[int] = []

    def reduce(self, v: Sequence[QQi]) -> list[QQi]:
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        return v

    def insert(self, v: Sequence[QQi]) -> bool:
        v = self.reduce(v)
        p = next((k for k, x in enumerate(v) if x), None)
        if p is None:
            return False
        lead = v[p]
        v = [x / lead for x in v]
        self.rows.append(v)
        self.pivots.append(p)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


def span_closure(generators: Sequence[Sequence], step: Callable) -> list[list[QQi]]:
    """Least subspace containing `generators` and closed under `step`.

    `step` maps a list of basis vectors to an iterable of new vectors; it is
    applied to the newly inserted vectors each round (monotone fixpoint,
    deterministic in generator order)."""
    gens = [[QQi.of(x) for x in v] for v in generators]
    if not gens:
        return []
    ech = Echelon(len(gens[0]))
    fresh = [v for v in gens if ech.insert(v)]
    while fresh:
        produced = []
        for w in step(fresh):
            w = [QQi.of(x) for x in w]
            if ech.insert(w):
                produced.append(ech.rows[-1])
        fresh = produced
    return [row[:] for row in ech.rows]


def adjoint_matrix(sc: StructureConstants, x: dict) -> list[list[QQi]]:
    n = sc.dim
    m = [[ZERO] * n for _ in range(n)]
    for k in range(n):
        col = sc.bracket(x, {k: QQi(1)})
        for k3, v in col.items():
            m[k3][k] = v
    return m


def _ad_sparse(sc: StructureConstants, k: int) -> dict[int, list[tuple[int, int]]]:
    out: dict[int, list[tuple[int, int]]] = {}
    for k2 in range(sc.dim):
        img = sc.bracket_basis(k, k2)
        if img:
            out[k2] = img
    return out


@cache
def killing_hh(sc: StructureConstants) -> tuple:
    rk, rs = sc.rank, sc.rs
    tab = [[Fraction(0)] * rk for _ in range(rk)]
    # kappa(H_i, H_j) = sum_b b(H_i) b(H_j)
    for i in range(rk):
        for j in range(rk):
            tot = 0
            for b in rs.roots:
                bi = sum(rs.cartan[i][t] * b[t] for t in range(rk))
                bj = sum(rs.cartan[j][t] * b[t] for t in range(rk))
                tot += bi * bj
            tab[i][j] = Fraction(tot)
    return tuple(tuple(r) for r in tab)


@cache
def killing_z_pair(sc: StructureConstants, ia: int) -> Fraction:
    """kappa(Z_a, Z_-a), cached; computed as an explicit adjoint trace."""
    rs = sc.rs
    ineg = rs.idx(neg(rs.roots[ia]))
    ad1 = _ad_sparse(sc, sc.rank + ia)
    ad2 = _ad_sparse(sc, sc.rank + ineg)
    tot = Fraction(0)
    for k in range(sc.dim):
        for k2, c2 in ad2.get(k, ()):
            for k3, c3 in ad1.get(k2, ()):
                if k3 == k:
                    tot += c2 * c3
    return tot


def killing(sc: StructureConstants, x: dict, y: dict) -> QQi:
    """trace(ad x . ad y), bilinear over the cached basis tables."""
    rk, rs = sc.rank, sc.rs
    tot = QQi(0)
    hh = killing_hh(sc)
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            if k1 < rk and k2 < rk:
                tot = tot + c1 * c2 * hh[k1][k2]
            elif k1 >= rk and k2 >= rk:
                if rs.roots[k2 - rk] == neg(rs.roots[k1 - rk]):
                    tot = tot + c1 * c2 * killing_z_pair(sc, k1 - rk)
    return tot


@cache
def sigma_h(conj: Conjugation) -> tuple:
    """S with S^T A = A C over the rationals (A the Cartan matrix, C the
    lattice involution); column j gives sigma(H_j)."""
    rs = conj.rs
    n = rs.rank
    A = [[Fraction(rs.cartan[i][j]) for j in range(n)] for i in range(n)]
    C = [[Fraction(conj.lattice[i][j]) for j in range(n)] for i in range(n)]
    AC = [[sum(A[i][k] * C[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    # S^T A = AC  <=>  A^T S = (AC)^T, one augmented solve for all columns
    aug = [[A[j][i] for j in range(n)] + [AC[j][i] for j in range(n)]
           for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ArithmeticError("singular Cartan matrix")
    return tuple(tuple(red[i][n + j] for j in range(n)) for i in range(n))


def sigma(conj: Conjugation, x: dict) -> dict:
    """The anti-linear involution of the real form on a sparse element:
    sigma(Z_a) = t_a Z_{c(a)}, sigma(H_j) = sum_i S[i][j] H_i."""
    rk = conj.rs.rank
    sh = sigma_h(conj)
    out: dict[int, QQi] = {}

    def acc(k, v):
        nv = out.get(k, QQi(0)) + v
        if nv:
            out[k] = nv
        elif k in out:
            del out[k]

    for k, cv in x.items():
        cv = cv.conj()
        if k < rk:
            for i in range(rk):
                s = sh[i][k]
                if s:
                    acc(i, cv * s)
        else:
            ia = k - rk
            acc(rk + conj.c_index[ia], cv * I_POW[conj.t_exp[ia]])
    return out


def real_pair(conj: Conjugation, elt: dict) -> list[dict]:
    """The nonzero ones of elt + sigma(elt) and i(elt - sigma(elt)), the
    real-form elements made from elt."""
    s = sigma(conj, elt)
    u: dict[int, QQi] = {}
    w: dict[int, QQi] = {}
    for k in set(elt) | set(s):
        a = elt.get(k, QQi(0)) + s.get(k, QQi(0))
        if a:
            u[k] = a
        b = QQi(0, 1) * (elt.get(k, QQi(0)) - s.get(k, QQi(0)))
        if b:
            w[k] = b
    return [x for x in (u, w) if x]


def real_basis(conj: Conjugation) -> list[dict]:
    """Basis of the fixed real form: per conjugation orbit {a, c a} the
    elements Z + sigma(Z) and i(Z - sigma(Z)) (Z itself when a is real),
    plus a real Cartan basis from the +1/-1 eigenspaces of sigma on the
    coroot space."""
    rk = conj.rs.rank
    sh = sigma_h(conj)
    out: list[dict] = []
    # Cartan part: x with Sx = x gives H_x; y with Sy = -y gives iH_y
    for sgn in (1, -1):
        m = [[sh[i][j] - (sgn if i == j else 0) for j in range(rk)]
             for i in range(rk)]
        for v in kernel(m):
            coef = QQi(1) if sgn == 1 else QQi(0, 1)
            out.append({i: coef * v[i] for i in range(rk) if v[i]})
    seen = set()
    for ia, ica in enumerate(conj.c_index):
        if ia not in seen:
            seen.update((ia, ica))
            z = {rk + ia: QQi(1)}
            out.extend([z] if ica == ia else real_pair(conj, z))
    return out
