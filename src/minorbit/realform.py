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

from collections import namedtuple
from functools import lru_cache

from .rootsys import (ROOT_COUNT, RootSystem, build_doubled_system,
                      build_root_system, neg)
from .chevalley import StructureConstants


class ConjugationError(ValueError):
    """A catalog entry failed the conjugation invariant battery."""


class SatakeDiagram(namedtuple("SatakeDiagram", "label name family rank "
                                 "params black arrows char doubled")):
    """One catalog entry, immutable: the Cartan class `label` (AI, ...,
    compact, complex), the concrete form `name` (su(2,3), EIII, ...), the
    `rank` of the underlying (possibly doubled) system, the 1-based
    `black` nodes and `arrows` involution, the Killing character `char`
    = dim(p) - dim(k), and `doubled` for a complex-type form on R + R.
    Two entries are equal, and hash alike, when they agree on every field
    but `params` and `arrows`; an entry equals no plain tuple."""
    __slots__ = ()

    def __new__(cls, label: str, name: str, family: str, rank: int,
                params: dict | None = None, black: frozenset = frozenset(),
                arrows: dict | None = None, char: int = 0,
                doubled: bool = False):
        return super().__new__(cls, label, name, family, rank,
                               {} if params is None else params, black,
                               {} if arrows is None else arrows, char, doubled)

    def _key(self) -> tuple:
        return (self.label, self.name, self.family, self.rank, self.black,
                self.char, self.doubled)

    # tuple's __eq__ and __ne__ would compare params and arrows too
    def __eq__(self, other):
        return (other.__class__ is self.__class__
                and self._key() == other._key())

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self._key())

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
    return l + ROOT_COUNT[family](l)


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


@lru_cache(maxsize=None)
def _catalog_index(max_rank: int) -> tuple[dict, dict]:
    """The entries of catalog(max_rank) by name and by label, each a list in
    catalog order, built once per max_rank, as the catalog is."""
    by_name: dict[str, list] = {}
    by_label: dict[str, list] = {}
    for e in catalog(max_rank):
        by_name.setdefault(e.name, []).append(e)
        by_label.setdefault(e.label, []).append(e)
    return by_name, by_label


def find_form(name: str, max_rank: int = 8, *, p: int | None = None,
              q: int | None = None, l: int | None = None) -> SatakeDiagram:
    """The one entry of catalog(max_rank) that `name` and the parameters
    given pick out.

    The rule: the entries with this exact name, else those with this label
    (AIIIa, DIIIa, compact, ...), keeping the ones whose `params` agree with
    every given p, q and l.  If none is left and l is given, l names the
    rank instead, for forms without an l parameter.  Raises KeyError when no
    entry is left and ValueError when several are.  The name and the label
    are each one lookup in `_catalog_index`."""
    by_name, by_label = _catalog_index(max_rank)
    named = by_name.get(name) or by_label.get(name, ())
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

    def w_col(j):  # w_black(alpha_j)
        return tuple(row[j] for row in w_black)

    tau = {}
    for j in range(n):
        if j in black0:
            negs = neg(w_col(j))
            if negs not in rs.index or sum(negs) != 1:
                raise ConjugationError(f"{diag.name}: black subsystem opposition "
                                       f"undefined at alpha_{j + 1}")
            tau[j] = negs.index(1)
        else:
            tau[j] = diag.arrows.get(j + 1, j + 1) - 1

    # column j of the matrix is the image of alpha_j
    cols = [w_col(tau[j]) for j in range(n)]
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


def _gauss_jordan(rows, nvars: int, mod: int):
    """Gauss-Jordan elimination of augmented rows over Z/mod, mod 2 or 4,
    in place.  Each column pivots on the first remaining row with an odd
    entry; the units 1 and 3 of Z/4 are their own inverses, so multiplying
    that row by its pivot normalises it.  Returns the pivot columns: row k
    holds the pivot of the k-th, and every other row is zero there."""
    piv = []
    for col in range(nvars):
        pr = len(piv)
        hit = next((i for i in range(pr, len(rows)) if rows[i][col] % 2), None)
        if hit is None:
            continue
        rows[pr], rows[hit] = rows[hit], rows[pr]
        p = rows[pr][col]
        prow = rows[pr] = [p * x % mod for x in rows[pr]]
        for i, row in enumerate(rows):
            f = row[col]
            if i != pr and f:
                rows[i] = [(x - f * y) % mod for x, y in zip(row, prow)]
        piv.append(col)
    return piv


def _solve_mod4(nvars: int, rows) -> list[int] | None:
    """Solve a linear system over Z/4 with augmented rows (coeffs, rhs).

    Unit pivots first; the residual rows then have all coefficients in
    {0, 2}, and halved they form a GF(2) system, eliminated by the same
    routine.  Free variables are fixed to 0 (deterministic gauge), each
    GF(2) pivot takes its right-hand side (lifted as {0, 1}), and each unit
    pivot its right-hand side minus its row's dot product with the rest of
    the solution.  Returns None when infeasible."""
    aug = [[x % 4 for x in cf] + [r % 4] for cf, r in rows]
    piv = _gauss_jordan(aug, nvars, 4)
    res = []
    for row in aug[len(piv):]:
        if any(x % 2 for x in row[:nvars]):
            raise AssertionError("unit survived past pivot stage")
        if row[nvars] % 2:
            return None
        res.append([x // 2 for x in row])
    piv2 = _gauss_jordan(res, nvars, 2)
    if any(row[nvars] for row in res[len(piv2):]):
        return None
    sol = [0] * nvars
    for row, col in zip(res, piv2):
        sol[col] = row[nvars]
    for row, col in zip(aug, piv):
        sol[col] = (row[nvars] - sum(x * s for x, s in zip(row, sol))) % 4
    return sol


def _solve_sign_exponents(rs: RootSystem, sc: StructureConstants, c_idx):
    """Exponents k(a) in t_a = i**k(a) for sigma(Z_a) = t_a Z_{c(a)}.

    Constraints: k = 0 on real and compact-imaginary roots, k(c a) = k(a),
    k(-a) = -k(a), and the cocycle k(a)+k(b)-k(a+b) = e(a,b) (mod 4) with
    i**e = N(a,b)/N(ca,cb).  Write k(a) = lin(a) + const(a), where lin is
    linear in the simple-root exponents; this reduces everything to a small
    mod-4 system on the simple roots, solved exactly; residual freedom is a
    gauge fixed to 0.

    Constants: const = 0 on simple roots; a positive root g of height > 1
    takes const(a) + const(b) - e(a, b) from the first pair (a, b) of
    `sum_pairs[g]` with a simple, and const(-g) = -const(g).  The choice of
    pair does not matter.  By induction on height: once the cocycle check
    below passes for the constants of one choice, every decomposition of g
    gives const(g), so every choice yields these constants; and when the
    check fails under one choice it fails under every other (which would
    otherwise yield constants that pass it), with the same message.

    Only the constants need the cocycle check: k = lin + const with lin
    additive and odd, so k(a) + k(b) - k(a+b) = const(a) + const(b) -
    const(a+b), which the check compares with e(a, b), and k(-a) + k(a) =
    const(-a) + const(a) = 0 by construction.  So the solved table obeys
    the cocycle and k(-a) = -k(a) without a further pass.

    The mod-4 system has one row per conjugation orbit of positive roots:
    (a, -const(a)) for a positive real or imaginary a, where k(a) = 0, and
    (c(a) - a, const(a) - const(c(a))) for a positive complex a with
    c(a) > a, where k(c(a)) = k(a).  The system with both kinds of row for
    every root, which the final validation loop checks, has the same row
    module L (the Z/4 combinations of the augmented rows), because each of
    its other rows is -1 or -2 times a kept row:
    - const(-a) = -const(a) and c(-a) = -c(a), so each row of -a is -1
      times the row of the same kind of a;
    - c(c(a)) = a, and c(a) is positive for a positive complex a (the
      conjugation battery checks this), so the row of c(a) is -1 times the
      row of a, and one of the two has c(a) > a;
    - for an imaginary a, c(a) = -a, so its second row, (-2a, 2 const(a)),
      is -2 times its first.
    And `_solve_mod4` returns the same answer, or None, on any two systems
    with the same L, since each of its steps is fixed by L alone:
    - a column is a unit pivot iff L holds a vector that is zero on the
      earlier unit pivots and odd in that column;
    - the rows left after the first stage span the vectors of L that are
      zero on every unit pivot, so whether one has an odd right-hand side
      is fixed by L, and their halves span a GF(2) space fixed by L, whose
      reduced echelon form, and so the second-stage solution, is unique;
    - each unit-pivot row is fixed by L up to adding a vector of that
      residual space, which the second-stage solution satisfies, so the
      value of its pivot is fixed too."""
    nroots = len(rs.roots)
    nrank = rs.rank
    half = nroots // 2  # negatives first, then the simple roots
    negi = rs.neg_index

    def e_of(ia, ib):
        n, m = sc.n(ia, ib), sc.n(c_idx[ia], c_idx[ib])
        if n and n == m:
            return 0
        if n and n == -m:
            return 2
        raise ConjugationError("structure constant ratio not a sign")

    const = [0] * nroots
    for g in range(half + nrank, nroots):
        a, b = next(p for p in rs.sum_pairs[g] if half <= p[0] < half + nrank)
        const[g] = (const[a] + const[b] - e_of(a, b)) % 4
        const[negi[g]] = -const[g] % 4

    for ia, row in enumerate(rs.sum_row):
        for ib, si in row.items():
            if ib >= ia and (e_of(ia, ib) + const[si]
                             - const[ia] - const[ib]) % 4:
                raise ConjugationError("sign cocycle inconsistent; bad "
                                       "catalog data or conjugation")

    # boundary (real and imaginary roots) and orbit-tie conditions give a
    # small mod-4 system on the simple-root exponents, one row per orbit
    rows = []
    for ia in range(half, nroots):
        ica = c_idx[ia]
        if ica in (ia, negi[ia]):
            rows.append((rs.roots[ia], -const[ia]))
        elif ica > ia:
            cf = [x - y for x, y in zip(rs.roots[ica], rs.roots[ia])]
            rows.append((cf, const[ia] - const[ica]))
    sol = _solve_mod4(nrank, rows)
    if sol is None:
        raise ConjugationError("sign table system infeasible (a compact "
                               "imaginary or positive real normalization "
                               "cannot be met)")

    kexp = [(sum(x * s for x, s in zip(r, sol)) + const[ia]) % 4
            for ia, r in enumerate(rs.roots)]
    for ia in range(nroots):
        if c_idx[ia] in (ia, negi[ia]) and kexp[ia]:
            raise ConjugationError("sign normalization failed on a real or "
                                   "imaginary root")
        if kexp[c_idx[ia]] != kexp[ia]:
            raise ConjugationError("t(c a) != t(a)")
    return kexp


class Conjugation(namedtuple("Conjugation",
                             "diag rs sc lattice c_index t_exp")):
    """Validated conjugation of a catalog real form: lattice involution,
    root permutation and sign table.  `rs` and `sc` compare and hash by
    identity."""
    __slots__ = ()


def build_conjugation(diag: SatakeDiagram, rs: RootSystem,
                      sc: StructureConstants) -> Conjugation:
    lattice, c_index = root_conjugation(diag, rs)
    return Conjugation(diag, rs, sc, lattice, c_index,
                       tuple(_solve_sign_exponents(rs, sc, c_index)))
