"""Exact linear-algebra and real-form constructions used only by the tests:
the Euclidean realisation of the simple roots (Bourbaki) with its inner
product and pairing, simple reflections and the reflection closure of the
simple roots, root strings, supports and tuple addition of roots,
the `Fraction` form of the Chevalley recursion, the one Gauss-Jordan
elimination `rref` with `rank` and `kernel`, basis elements, adjoint
matrices, the Killing form as an explicit adjoint trace, the root classes
and root images of a conjugation, and the anti-linear involution sigma of
a real form with a basis of its fixed points, the completed sign table,
and canonical JSON dumps of a root system and of a structure constant
table.

`classify` decides everything in integers from root-index tables and never
forms these objects; the tests use them as independent references (the
Euclidean Gram matrix behind `RootSystem.twice_gram`, the Killing trace,
the Fraction recursion, sigma on the Cartan for the exact span in
`span_oracle.py`, the Killing character of the real form).
"""

from __future__ import annotations

import json
from enum import Enum
from functools import cache
from fractions import Fraction
from typing import Iterable, Sequence

from gaussq import I_POW, QQi, ZERO
from minorbit.chevalley import StructureConstants, standard_constants
from minorbit.realform import Conjugation
from minorbit.rootsys import Root, RootSystem, SimpleType, neg


def _simple_root_vectors(st: SimpleType) -> list[tuple[Fraction, ...]]:
    """Standard Euclidean realization (Bourbaki) of the simple roots."""
    l, F = st.rank, Fraction

    def e(i, n, c=1):
        v = [F(0)] * n
        v[i] = F(c)
        return v

    def diff(i, n):
        v = [F(0)] * n
        v[i], v[i + 1] = F(1), F(-1)
        return v

    if st.family == "A":
        return [tuple(diff(i, l + 1)) for i in range(l)]
    if st.family == "B":
        out = [diff(i, l) for i in range(l - 1)] + [e(l - 1, l)]
        return [tuple(v) for v in out]
    if st.family == "C":
        out = [diff(i, l) for i in range(l - 1)] + [e(l - 1, l, 2)]
        return [tuple(v) for v in out]
    if st.family == "D":
        last = [F(0)] * l
        last[l - 2], last[l - 1] = F(1), F(1)
        out = [diff(i, l) for i in range(l - 1)] + [last]
        return [tuple(v) for v in out]
    if st.family == "E":
        # Bourbaki E8 coordinates; E6/E7 are the leading subsets.
        a1 = [F(1, 2), F(-1, 2), F(-1, 2), F(-1, 2),
              F(-1, 2), F(-1, 2), F(-1, 2), F(1, 2)]
        a2 = [F(1), F(1)] + [F(0)] * 6
        rest = []
        for i in range(1, 7):  # alpha_3..alpha_8 = e_i - e_{i-1}
            v = [F(0)] * 8
            v[i], v[i - 1] = F(1), F(-1)
            rest.append(v)
        roots8 = [a1, a2] + rest
        return [tuple(v) for v in roots8[:l]]
    if st.family == "F":
        a1 = [F(0), F(1), F(-1), F(0)]
        a2 = [F(0), F(0), F(1), F(-1)]
        a3 = [F(0), F(0), F(0), F(1)]
        a4 = [F(1, 2), F(-1, 2), F(-1, 2), F(-1, 2)]
        return [tuple(a1), tuple(a2), tuple(a3), tuple(a4)]
    if st.family == "G":
        # alpha_1 short, alpha_2 long, in the sum-zero plane of R^3
        a1 = [F(1), F(-1), F(0)]
        a2 = [F(-2), F(1), F(1)]
        return [tuple(a1), tuple(a2)]
    raise AssertionError


def ambient(rs: RootSystem) -> list[tuple[Fraction, ...]]:
    """The simple roots of rs in the Euclidean realisation, each type in its
    own block of coordinates."""
    per_type = [_simple_root_vectors(t) for t in rs.types]
    total = sum(len(tv[0]) for tv in per_type)
    out, offset = [], 0
    for tv in per_type:
        d = len(tv[0])
        for v in tv:
            full = [Fraction(0)] * total
            full[offset:offset + d] = v
            out.append(tuple(full))
        offset += d
    return out


@cache
def gram(rs: RootSystem) -> tuple[tuple[Fraction, ...], ...]:
    """(alpha_i|alpha_j) of the Euclidean realisation."""
    amb = ambient(rs)
    return tuple(tuple(sum(a * b for a, b in zip(u, v)) for v in amb)
                 for u in amb)


def inner(rs: RootSystem, x: Sequence[int], y: Sequence[int]) -> Fraction:
    """(x|y) for coefficient vectors over the simple roots, from the Gram
    matrix of the Euclidean realisation."""
    n = rs.rank
    g = gram(rs)
    tot = Fraction(0)
    for i in range(n):
        if x[i]:
            tot += x[i] * sum(g[i][j] * y[j] for j in range(n) if y[j])
    return tot


def pairing(rs: RootSystem, alpha: Sequence[int], beta: Sequence[int]) -> int:
    """2(alpha|beta)/(alpha|alpha); integer whenever alpha is a root."""
    v = 2 * inner(rs, alpha, beta) / inner(rs, alpha, alpha)
    if v.denominator != 1:
        raise ValueError(f"pairing of {tuple(alpha)} with {tuple(beta)} "
                         f"is {v}; alpha must be a root")
    return int(v)


def is_root(rs: RootSystem, v: Iterable[int]) -> bool:
    return tuple(v) in rs.index


def idx(rs: RootSystem, v: Iterable[int]) -> int:
    """The index of the root v in rs.roots."""
    return rs.index[tuple(v)]


def add(a: Root, b: Root) -> Root:
    return tuple(x + y for x, y in zip(a, b))


def support(alpha: Root) -> frozenset[int]:
    """Indices (1-based) of the simple roots appearing in alpha."""
    return frozenset(j + 1 for j, c in enumerate(alpha) if c != 0)


def reflect(rs: RootSystem, i: int, v: Root) -> Root:
    """s_i(v) = v - <v, alpha_i^vee> alpha_i, i 0-based."""
    c = sum(rs.cartan[i][j] * v[j] for j in range(rs.rank))
    w = list(v)
    w[i] -= c
    return tuple(w)


def roots_by_reflection(rs: RootSystem) -> list[Root]:
    """Every root of rs, in (height, lexicographic) order, as the closure of
    the simple roots under the simple reflections, negatives included: the
    construction `RootSystem` used before it built the positive roots by
    height."""
    seen = {tuple(1 if k == i else 0 for k in range(rs.rank))
            for i in range(rs.rank)}
    frontier = sorted(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(rs.rank):
                w = reflect(rs, i, v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(seen, key=lambda r: (sum(r), r))


def root_string(rs: RootSystem, alpha: Root, beta: Root) -> tuple[int, int]:
    """(p, q) with p = max{k : beta - k*alpha in R}, q likewise upward."""
    a, b = tuple(alpha), tuple(beta)
    if a == b or a == neg(b):
        raise ValueError("root_string needs non-proportional roots")
    p = 0
    cur = tuple(x - y for x, y in zip(b, a))
    while cur in rs.index:
        p += 1
        cur = tuple(x - y for x, y in zip(cur, a))
    q = 0
    cur = add(b, a)
    while cur in rs.index:
        q += 1
        cur = add(cur, a)
    return p, q


def build_chevalley_fraction(rs: RootSystem) -> StructureConstants:
    """The extraspecial-pair recursion of `chevalley.build_chevalley` with
    the squared lengths taken as `Fraction` inner products and every
    quotient formed in `Fraction`: a differential oracle for the integer
    build, which must give the same `ntable` (entries and order)."""
    roots, row = rs.roots, rs.sum_row
    half = len(roots) // 2
    negi = [idx(rs, neg(r)) for r in roots]
    nn = [inner(rs, r, r) for r in roots]
    npos: dict[tuple[int, int], int] = {}

    def integral(x: Fraction, what: str) -> int:
        if x.denominator != 1:
            raise ArithmeticError(f"{what} = {x} is not integral")
        return int(x)

    def n_std(a, b):
        s = row[a].get(b)
        if s is None:
            return 0
        if a >= half and b >= half:
            v = npos.get((a, b))
            return -npos[(b, a)] if v is None else v
        if a < half and b < half:
            return -n_std(negi[a], negi[b])
        c = negi[s]
        if (b >= half) == (c >= half):
            out = Fraction(n_std(b, c)) * nn[s] / nn[a]
        else:
            out = Fraction(n_std(c, a)) * nn[s] / nn[b]
        return integral(out, f"structure constant n{(roots[a], roots[b])}")

    for g in range(half, len(roots)):
        if sum(roots[g]) == 1:
            continue
        special = [(a, b) for a, b in rs.sum_pairs[g] if half <= a < b]
        a1, b1 = special[0]
        npos[(a1, b1)] = root_string(rs, roots[a1], roots[b1])[0] + 1
        npos[(b1, a1)] = -npos[(a1, b1)]
        for a, b in special[1:]:
            t2 = t3 = Fraction(0)
            d = row[b].get(negi[a1])
            if d is not None:
                t2 = Fraction(n_std(b, negi[a1]) * n_std(a, negi[b1])) / nn[d]
            d = row[a].get(negi[a1])
            if d is not None:
                t3 = Fraction(n_std(negi[a1], a) * n_std(b, negi[b1])) / nn[d]
            v = integral(nn[g] * (t2 + t3) / npos[(a1, b1)],
                         f"special pair {(roots[a], roots[b])}")
            if not v:
                raise ArithmeticError(f"special pair {(roots[a], roots[b])}: 0")
            npos[(a, b)] = v
            npos[(b, a)] = -v

    ntable = {}
    for a, sums in enumerate(row):
        for b, s in sums.items():
            sign = (1 if a >= half else -1) * (1 if b >= half else -1) * \
                (1 if s >= half else -1)
            ntable[(a, b)] = sign * n_std(a, b)
    return StructureConstants(rs, ntable)


def fraction_coroots(rs: RootSystem) -> list[tuple[int, ...]]:
    """Per root index, the coroot over the simple coroots, each coefficient
    k_i (a_i|a_i)/(a|a) formed in `Fraction` from the Euclidean Gram
    matrix: the oracle for `StructureConstants.coroots`."""
    g = gram(rs)
    out = []
    for r in rs.roots:
        m = inner(rs, r, r)
        x = [Fraction(k) * g[i][i] / m for i, k in enumerate(r)]
        if any(c.denominator != 1 for c in x):
            raise ArithmeticError(f"coroot of {r} is not integral")
        out.append(tuple(int(c) for c in x))
    return out


def ntable_per_pair(rs: RootSystem) -> dict:
    """The `ntable` of `chevalley.build_chevalley` with every pair (a, b)
    run through the integer recursion `standard_constants`, b < a included,
    instead of read off (b, a) by antisymmetry: a differential oracle for
    that fill, items in the same order."""
    n_std = standard_constants(rs)
    half = len(rs.roots) // 2
    ntable = {}
    for a, sums in enumerate(rs.sum_row):
        for b, s in sums.items():
            v = n_std(a, b, s)
            ntable[(a, b)] = -v if (a < half) ^ (b < half) ^ (s < half) else v
    return ntable


Matrix = list  # list of rows over a field


def mat(rows: Iterable[Iterable]) -> Matrix:
    return [[QQi.of(x) for x in row] for row in rows]


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns, over the field of the
    entries.  A linear system given as an augmented matrix is inconsistent
    exactly when its last column is a pivot column."""
    work = [row[:] for row in m]
    rows = len(work)
    cols = len(work[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((k for k in range(r, rows) if work[k][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        lead = work[r][c]
        work[r] = [x / lead for x in work[r]]
        for k in range(rows):
            if k != r and work[k][c]:
                f = work[k][c]
                work[k] = [x - f * y for x, y in zip(work[k], work[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return work, pivots


def rank(m: Matrix) -> int:
    if not m:
        return 0
    return len(rref(m)[1])


def kernel(m: Matrix) -> list[list]:
    """Exact basis of {x : m x = 0}, over the field of the entries."""
    if not m or not m[0]:
        return []
    red, pivots = rref(m)
    cols = len(m[0])
    zero = m[0][0] * 0
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * cols
        v[fc] = zero + 1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def h(sc: StructureConstants, i: int) -> dict:
    """The basis element H_{i+1}."""
    return {i: QQi(1)}


def z(sc: StructureConstants, root: Root) -> dict:
    """The basis element Z_root."""
    return {sc.rank + idx(sc.rs, root): QQi(1)}


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
    ineg = idx(rs, neg(rs.roots[ia]))
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


class RootClass(Enum):
    REAL = "Real"
    IMAGINARY_COMPACT = "ImaginaryCompact"
    IMAGINARY_NONCOMPACT = "ImaginaryNoncompact"
    COMPLEX = "Complex"


def classify_root(conj: Conjugation, root: Root) -> RootClass:
    """The class of a root under the conjugation c: real when c fixes it,
    compact imaginary when c negates it (the sign solve sets t = 1 there),
    complex otherwise.  IMAGINARY_NONCOMPACT is never returned; the tests
    assert that no root has it."""
    ia = idx(conj.rs, root)
    if conj.c_index[ia] == ia:
        return RootClass.REAL
    if conj.c_index[ia] == conj.rs.neg_index[ia]:
        return RootClass.IMAGINARY_COMPACT
    return RootClass.COMPLEX


def conj_image(conj: Conjugation, root: Root) -> Root:
    """c(root) under the lattice involution of the conjugation."""
    return conj.rs.roots[conj.c_index[idx(conj.rs, root)]]


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


def basis_conjugation_signs(conj: Conjugation) -> dict:
    """The completed sign table: root -> t with sigma(Z_a) = t Z_{conj(a)}."""
    return {r: I_POW[conj.t_exp[i]] for i, r in enumerate(conj.rs.roots)}


def ntable_json(sc: StructureConstants) -> str:
    """Canonical JSON dump of the bracket constant table."""
    rows = []
    for (ia, ib), v in sorted(sc.ntable.items()):
        rows.append([list(sc.rs.roots[ia]), list(sc.rs.roots[ib]), v])
    return json.dumps({"n": rows}, sort_keys=True, separators=(",", ":"))


def root_system_json(rs: RootSystem) -> str:
    """Canonical JSON dump of a root system: types, Cartan matrix, roots."""
    doc = {
        "types": [str(t) for t in rs.types],
        "cartan": [list(r) for r in rs.cartan],
        "roots": [list(r) for r in rs.roots],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
