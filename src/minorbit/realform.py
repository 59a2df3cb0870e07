"""Simple real forms via Satake diagrams: the catalog, the induced root
lattice conjugation and the Chevalley-basis sign table, solved mod 4.

Construction of the lattice involution: c = w_black o tau, where w_black is
the longest element of the Weyl group of the black (compact) subsystem and
tau permutes simple roots -- the published arrow pairing on white nodes,
extended on black nodes by the opposition involution of the black
subsystem.  Plain identity on black nodes fails the invariant battery
whenever a black component has nontrivial opposition (already for su(2,5)),
so the opposition extension is used and every entry is still validated
against the full battery (the tests add the matrix-realization oracles).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .rootsys import (RootSystem, build_doubled_system, build_root_system,
                      neg)
from .chevalley import StructureConstants


class RootClass(Enum):
    REAL = "Real"
    IMAGINARY_COMPACT = "ImaginaryCompact"
    IMAGINARY_NONCOMPACT = "ImaginaryNoncompact"
    COMPLEX = "Complex"


class ConjugationError(ValueError):
    """A catalog entry failed the conjugation invariant battery."""


@dataclass(frozen=True)
class SatakeDiagram:
    label: str               # Cartan class: AI, AIIIa, ..., compact, complex
    name: str                # concrete form: su(2,3), so*(8), EIII, ...
    family: str
    rank: int                # rank of the underlying (possibly doubled) system
    params: dict = field(default_factory=dict, compare=False)
    black: frozenset = frozenset()       # 1-based simple indices
    arrows: dict = field(default_factory=dict, compare=False)  # 1-based involution
    char: int = 0            # Killing character dim(p) - dim(k)
    doubled: bool = False    # complex-type form on R + R

    def root_system(self) -> RootSystem:
        if self.doubled:
            return build_doubled_system(self.family, self.rank // 2)
        return build_root_system(self.family, self.rank)

    @property
    def dim(self) -> int:
        """Real dimension of the form: rank + number of roots of its root
        system, without building it."""
        if self.doubled:
            return 2 * _dim(self.family, self.rank // 2)
        return _dim(self.family, self.rank)

    def to_doc(self) -> dict:
        return {
            "label": self.label,
            "name": self.name,
            "family": self.family,
            "rank": self.rank,
            "params": dict(sorted(self.params.items())),
            "black": sorted(self.black),
            "arrows": {str(k): v for k, v in sorted(self.arrows.items())},
            "char": self.char,
            "doubled": self.doubled,
        }


def _dim(family: str, l: int) -> int:
    if family == "A":
        return l * (l + 2)
    if family in "BC":
        return l * (2 * l + 1)
    if family == "D":
        return l * (2 * l - 1)
    if family == "E":
        return {6: 78, 7: 133, 8: 248}[l]
    return 52 if family == "F" else 14


def _so_char(p: int, q: int) -> int:
    return p * q - (p * (p - 1) + q * (q - 1)) // 2


@lru_cache(maxsize=None)
def catalog(max_rank: int) -> tuple[SatakeDiagram, ...]:
    """All simple real forms of rank <= max_rank, including compact, split,
    and complex-type forms.  Built once per max_rank; the tuple is shared."""
    out: list[SatakeDiagram] = []

    def emit(label, name, family, rank, params=None, black=(), arrows=None,
             char=0, doubled=False):
        out.append(SatakeDiagram(label, name, family, rank, params or {},
                                 frozenset(black), arrows or {}, char, doubled))

    def compact_and_complex(family, l, compact_name, complex_name):
        emit("compact", compact_name, family, l,
             black=range(1, l + 1), char=-_dim(family, l))
        emit("complex", complex_name, family, 2 * l,
             arrows={j: j + l for j in range(1, l + 1)} |
                    {j + l: j for j in range(1, l + 1)},
             char=0, doubled=True)

    for l in range(1, max_rank + 1):
        n = l + 1
        emit("AI", f"sl({n},R)", "A", l, {"n": n}, char=l)
        if l >= 3 and l % 2 == 1:
            m = n // 2
            emit("AII", f"su*({n})", "A", l, {"m": m},
                 black=range(1, l + 1, 2), char=-n - 1)
        for p in range(1, (n + 1) // 2):
            q = n - p
            if p == q:
                continue
            label = "AIV" if p == 1 else "AIIIa"
            if p == 1 and l < 2:
                continue
            emit(label, f"su({p},{q})", "A", l, {"p": p, "q": q},
                 black=range(p + 1, q),
                 arrows={j: n - j for j in range(1, n) if j != n - j},
                 char=1 - (q - p) ** 2)
        if n % 2 == 0 and n >= 4:
            p = n // 2
            emit("AIIIb", f"su({p},{p})", "A", l, {"p": p, "q": p},
                 arrows={j: n - j for j in range(1, n) if j != n - j}, char=1)
        compact_and_complex("A", l, f"compact-A{l}", f"sl({n},C)")

    for l in range(2, max_rank + 1):
        emit("BII", f"so(1,{2 * l})", "B", l, {"p": 1, "q": 2 * l},
             black=range(2, l + 1), char=_so_char(1, 2 * l))
        for p in range(2, l + 1):
            q = 2 * l + 1 - p
            emit("BI", f"so({p},{q})", "B", l, {"p": p, "q": q},
                 black=range(p + 1, l + 1), char=_so_char(p, q))
        compact_and_complex("B", l, f"compact-B{l}", f"so({2 * l + 1},C)")

    for l in range(3, max_rank + 1):
        emit("CI", f"sp({l},R)", "C", l, {"n": l}, char=l)
        for p in range(1, l // 2 + 1):
            q = l - p
            if p > q:
                continue
            label = "CIIb" if p == q else "CIIa"
            black = set(range(1, 2 * p, 2)) | set(range(2 * p + 1, l + 1))
            emit(label, f"sp({p},{q})", "C", l, {"p": p, "q": q},
                 black=black, char=4 * p * q - p * (2 * p + 1) - q * (2 * q + 1))
        compact_and_complex("C", l, f"compact-C{l}", f"sp({2 * l},C)")

    for l in range(3, max_rank + 1):
        emit("DII", f"so(1,{2 * l - 1})", "D", l, {"p": 1, "q": 2 * l - 1},
             black=range(2, l + 1), char=_so_char(1, 2 * l - 1))
        for p in range(2, l + 1):
            q = 2 * l - p
            black, arrows = set(), {}
            if p <= l - 2:
                black = set(range(p + 1, l + 1))
            elif p == l - 1:
                arrows = {l - 1: l, l: l - 1}
            emit("DI", f"so({p},{q})", "D", l, {"p": p, "q": q},
                 black=black, arrows=arrows, char=_so_char(p, q))
        if l % 2 == 0:
            emit("DIIIa", f"so*({2 * l})", "D", l, {"l": l},
                 black=range(1, l, 2), char=-l)
        else:
            emit("DIIIb", f"so*({2 * l})", "D", l, {"l": l},
                 black=range(1, l - 1, 2), arrows={l - 1: l, l: l - 1}, char=-l)
        compact_and_complex("D", l, f"compact-D{l}", f"so({2 * l},C)")

    if max_rank >= 6:
        emit("EI", "EI", "E", 6, char=6)
        emit("EII", "EII", "E", 6, arrows={1: 6, 6: 1, 3: 5, 5: 3}, char=2)
        emit("EIII", "EIII", "E", 6, black=(3, 4, 5), arrows={1: 6, 6: 1}, char=-14)
        emit("EIV", "EIV", "E", 6, black=(2, 3, 4, 5), char=-26)
        compact_and_complex("E", 6, "compact-E6", "e6(C)")
    if max_rank >= 7:
        emit("EV", "EV", "E", 7, char=7)
        emit("EVI", "EVI", "E", 7, black=(2, 5, 7), char=-5)
        emit("EVII", "EVII", "E", 7, black=(2, 3, 4, 5), char=-25)
        compact_and_complex("E", 7, "compact-E7", "e7(C)")
    if max_rank >= 8:
        emit("EVIII", "EVIII", "E", 8, char=8)
        emit("EIX", "EIX", "E", 8, black=(2, 3, 4, 5), char=-24)
        compact_and_complex("E", 8, "compact-E8", "e8(C)")
    if max_rank >= 4:
        emit("FI", "FI", "F", 4, char=4)
        emit("FII", "FII", "F", 4, black=(1, 2, 3), char=-20)
        compact_and_complex("F", 4, "compact-F4", "f4(C)")
    if max_rank >= 2:
        emit("GI", "GI", "G", 2, char=2)
        compact_and_complex("G", 2, "compact-G2", "g2(C)")

    out.sort(key=lambda e: (e.family, e.rank, e.label, e.name))
    return tuple(out)


def find_form(name: str, max_rank: int = 8, *, p: int | None = None,
              q: int | None = None, l: int | None = None) -> SatakeDiagram:
    """The one entry of catalog(max_rank) that `name` and the parameters
    given pick out.

    The rule: the entries with this exact name, else those with this label
    (AIIIa, DIIIa, compact, ...), keeping the ones whose `params` agree with
    every given p, q and l.  If none is left and l is given, l names the
    rank instead, for forms without an l parameter.  Raises KeyError when no
    entry is left and ValueError when several are."""
    entries = catalog(max_rank)
    named = ([e for e in entries if e.name == name]
             or [e for e in entries if e.label == name])
    want = {k: v for k, v in (("p", p), ("q", q), ("l", l)) if v is not None}

    def fits(e, keys):
        return all(e.params.get(k) == want[k] for k in keys)

    cands = [e for e in named if fits(e, want)]
    if not cands and l is not None:
        cands = [e for e in named
                 if e.rank == l and fits(e, want.keys() - {"l"})]
    if not cands:
        raise KeyError(f"unknown form {name!r} (params {want or 'none'})")
    if len(cands) > 1:
        names = ", ".join(e.name for e in cands[:8])
        raise ValueError(f"ambiguous form {name!r}; candidates: {names}")
    return cands[0]


# ---------------------------------------------------------------------------


def _mat_vec(m, v):
    n = len(v)
    return tuple(sum(m[i][j] * v[j] for j in range(n)) for i in range(n))


def root_conjugation(diag: SatakeDiagram, rs: RootSystem):
    """Integer lattice involution alpha -> conj(alpha) for the diagram.

    Returns the rank x rank matrix and c_index, where c_index[a] is the
    index of the image of the root with index a.  Each root's image is
    formed once and serves the permutation check, the positivity check and
    c_index.  Raises ConjugationError when the constructed map violates any
    structural invariant.
    """
    n = rs.rank
    black0 = sorted(b - 1 for b in diag.black)
    w_black = rs.weyl_longest_element(black0)

    tau = {}
    for j in range(n):
        if j in black0:
            img = _mat_vec(w_black, tuple(1 if k == j else 0 for k in range(n)))
            negs = neg(img)
            if negs not in rs.index or sum(negs) != 1:
                raise ConjugationError(f"{diag.name}: black subsystem opposition "
                                       f"undefined at alpha_{j + 1}")
            tau[j] = negs.index(1)
        else:
            tau[j] = diag.arrows.get(j + 1, j + 1) - 1

    # column j of the matrix is the image of alpha_j
    cols = [_mat_vec(w_black, tuple(1 if k == tau[j] else 0 for k in range(n)))
            for j in range(n)]
    cmat = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))

    def image(v):
        out = [0] * n
        for j, k in enumerate(v):
            if k:
                for i, x in enumerate(cols[j]):
                    if x:
                        out[i] += k * x
        return tuple(out)

    # ---- invariant battery ----
    for j in range(n):
        ej = tuple(1 if k == j else 0 for k in range(n))
        if image(cols[j]) != ej:
            raise ConjugationError(f"{diag.name}: c^2 != id")
    c_index = []
    half = len(rs.roots) // 2  # negatives come first
    images = [image(r) for r in rs.roots]
    for img in images:
        ic = rs.index.get(img)
        if ic is None:
            raise ConjugationError(f"{diag.name}: c does not permute the roots")
        c_index.append(ic)
    for b in diag.black:
        if cols[b - 1] != neg(tuple(1 if k == b - 1 else 0 for k in range(n))):
            raise ConjugationError(f"{diag.name}: black simple alpha_{b} "
                                   f"not sent to its negative")
    for r, img in zip(rs.roots[half:], images[half:]):
        if img != r and img != neg(r) and sum(img) < 0:
            raise ConjugationError(f"{diag.name}: complex root {r} loses "
                                   f"positivity under c")
    return cmat, tuple(c_index)


def _solve_mod4(nvars: int, rows) -> list[int] | None:
    """Solve a linear system over Z/4 with augmented rows (coeffs, rhs).

    Unit pivots first (Gauss-Jordan); the residual rows then have all
    coefficients in {0, 2} and reduce to a GF(2) stage.  Free variables are
    fixed to 0 (deterministic gauge).  Returns None when infeasible."""
    aug = [[x % 4 for x in cf] + [r % 4] for cf, r in rows]
    piv = []  # (row, col)
    pr = 0
    for col in range(nvars):
        hit = next((i for i in range(pr, len(aug)) if aug[i][col] in (1, 3)), None)
        if hit is None:
            continue
        aug[pr], aug[hit] = aug[hit], aug[pr]
        inv = 1 if aug[pr][col] == 1 else 3
        aug[pr] = [(inv * x) % 4 for x in aug[pr]]
        for i in range(len(aug)):
            if i != pr and aug[i][col]:
                f = aug[i][col]
                aug[i] = [(x - f * y) % 4 for x, y in zip(aug[i], aug[pr])]
        piv.append((pr, col))
        pr += 1
    sol = [None] * nvars
    # GF(2) stage on the residual rows (coefficients all even now)
    res = []
    for row in aug[pr:]:
        if any(x % 2 for x in row[:nvars]):
            raise AssertionError("unit survived past pivot stage")
        if row[nvars] % 2:
            return None
        cf2 = [(x // 2) % 2 for x in row[:nvars]]
        r2 = (row[nvars] // 2) % 2
        if any(cf2):
            res.append(cf2 + [r2])
        elif r2:
            return None
    pr2 = 0
    piv2 = []
    for col in range(nvars):
        hit = next((i for i in range(pr2, len(res)) if res[i][col]), None)
        if hit is None:
            continue
        res[pr2], res[hit] = res[hit], res[pr2]
        for i in range(len(res)):
            if i != pr2 and res[i][col]:
                res[i] = [(x - y) % 2 for x, y in zip(res[i], res[pr2])]
        piv2.append((pr2, col))
        pr2 += 1
    for row in res[pr2:]:
        if row[nvars]:
            return None
    piv_cols = {c for _, c in piv} | {c for _, c in piv2}
    for v in range(nvars):
        if v not in piv_cols:
            sol[v] = 0
    for r2, c2 in reversed(piv2):
        row = res[r2]
        val = row[nvars]
        for w in range(nvars):
            if w != c2 and row[w]:
                val = (val - row[w] * sol[w]) % 2
        sol[c2] = val  # determined mod 2; lift as {0, 1}
    for r1, c1 in reversed(piv):
        row = aug[r1]
        val = row[nvars]
        for w in range(nvars):
            if w != c1 and row[w]:
                val = (val - row[w] * sol[w]) % 4
        sol[c1] = val
    return sol


def _solve_sign_exponents(rs: RootSystem, sc: StructureConstants, c_idx, cls):
    """Exponents k(a) in t_a = i**k(a) for sigma(Z_a) = t_a Z_{c(a)}.

    Constraints: k = 0 on real and compact-imaginary roots, k(c a) = k(a),
    k(-a) = -k(a), and the cocycle k(a)+k(b)-k(a+b) = e(a,b) (mod 4) with
    i**e = N(a,b)/N(ca,cb).  Reduced to a small mod-4 system on the simple
    roots and solved exactly; residual freedom is a gauge fixed to 0."""
    nroots = len(rs.roots)
    nrank = rs.rank

    def e_of(ia, ib):
        n, m = sc.n(ia, ib), sc.n(c_idx[ia], c_idx[ib])
        if n and n == m:
            return 0
        if n and n == -m:
            return 2
        raise ConjugationError("structure constant ratio not a sign")

    # c_gamma: constant term of k_gamma = sum_i gamma_i k_i + c_gamma (mod 4)
    const = {}
    for r in rs.positives:
        const[rs.idx(r)] = 0
    for r in rs.positives:
        if sum(r) == 1:
            continue
        ir = rs.idx(r)
        for i in range(nrank):
            if r[i]:
                rest = list(r)
                rest[i] -= 1
                rest = tuple(rest)
                if rest in rs.index:
                    ia = rs.idx(tuple(1 if k == i else 0 for k in range(nrank)))
                    ib = rs.idx(rest)
                    const[ir] = (const[ia] + const[ib] - e_of(ia, ib)) % 4
                    break
        else:
            raise AssertionError("positive root with no simple summand")
    for r in rs.positives:
        const[rs.neg_index[rs.idx(r)]] = (-const[rs.idx(r)]) % 4

    # the cocycle k_a + k_b - k_{a+b} = e(a,b): the variable parts cancel
    # identically in the affine representation, so these are pure
    # consistency checks on the constants
    for ia, row in enumerate(rs.sum_row):
        for ib, si in row.items():
            if ib >= ia and (e_of(ia, ib) + const[si]
                             - const[ia] - const[ib]) % 4:
                raise ConjugationError("sign cocycle inconsistent; bad "
                                       "catalog data or conjugation")

    # boundary and orbit-tie conditions give a small mod-4 system on the
    # simple-root exponents
    rows = []
    for ia in range(nroots):
        ica = c_idx[ia]
        if cls[ia] is not RootClass.COMPLEX:
            rows.append(([x % 4 for x in rs.roots[ia]], (-const[ia]) % 4))
        if ica != ia:
            cf = [(x - y) % 4 for x, y in zip(rs.roots[ica], rs.roots[ia])]
            rows.append((cf, (const[ia] - const[ica]) % 4))
    sol = _solve_mod4(nrank, rows)
    if sol is None:
        raise ConjugationError("sign table system infeasible (a compact "
                               "imaginary or positive real normalization "
                               "cannot be met)")

    kexp = [0] * nroots
    for ia in range(nroots):
        kexp[ia] = (sum(rs.roots[ia][i] * sol[i] for i in range(nrank))
                    + const[ia]) % 4

    # verify everything
    for ia in range(nroots):
        if cls[ia] is not RootClass.COMPLEX and kexp[ia] % 4:
            raise ConjugationError("sign normalization failed on a real or "
                                   "imaginary root")
        if kexp[c_idx[ia]] != kexp[ia]:
            raise ConjugationError("t(c a) != t(a)")
        if (kexp[rs.neg_index[ia]] + kexp[ia]) % 4:
            raise ConjugationError("t(-a) != conj(t(a))")
    for ia, row in enumerate(rs.sum_row):
        for ib, si in row.items():
            if (kexp[ia] + kexp[ib] - kexp[si] - e_of(ia, ib)) % 4:
                raise ConjugationError("sign cocycle violated")
    return kexp


class Conjugation:
    """Validated conjugation of a catalog real form: lattice involution,
    root classes and sign table."""

    def __init__(self, diag: SatakeDiagram, rs: RootSystem,
                 sc: StructureConstants):
        self.diag = diag
        self.rs = rs
        self.sc = sc
        self.lattice, self.c_index = root_conjugation(diag, rs)
        self.classes = tuple(self._classify(i) for i in range(len(rs.roots)))
        self.t_exp = tuple(_solve_sign_exponents(rs, sc, self.c_index,
                                                 self.classes))

    def _classify(self, ia: int) -> RootClass:
        if self.c_index[ia] == ia:
            return RootClass.REAL
        if self.c_index[ia] == self.rs.neg_index[ia]:
            return RootClass.IMAGINARY_COMPACT
        return RootClass.COMPLEX


def build_conjugation(diag: SatakeDiagram, rs: RootSystem,
                      sc: StructureConstants) -> Conjugation:
    return Conjugation(diag, rs, sc)
