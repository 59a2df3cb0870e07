"""The exact bracket-module span engine, kept as a differential oracle for
`minorbit.crflag.t_module_span`.

It builds the real bracket module of the kernel directions by exact
Gaussian-integer linear algebra, each element a pair (re, im) of sparse
integer elements on the Chevalley basis: the structure constants are
integers, sigma(Z_a) = i^{t_a} Z_{c(a)}, and sigma(H_j) has integer
coordinates.  Generators and start space are the real parts Z + sigma(Z),
i(Z - sigma(Z)) of basis elements, and every round brackets the
generators with the newly independent elements, reducing each product in
a fraction-free integer echelon.  The production span decides the same
question by a root-set closure; the two must agree on the verdict and on
every round dimension.
"""

from __future__ import annotations

import math
from functools import cache

from algebra_oracle import sigma_h
from minorbit.crflag import FormContext, ParabolicData, indices
from minorbit.realform import Conjugation

_I_POW = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i**t as (re, im), t mod 4


def _add(x: dict, y: dict, sign: int = 1) -> dict:
    """x + sign * y of sparse integer elements, zeros dropped."""
    return {k: v for k in x.keys() | y.keys()
            if (v := x.get(k, 0) + sign * y.get(k, 0))}


def bracket(sc, x: tuple, y: tuple) -> tuple[dict, dict]:
    """[x, y] of pairs (re, im) by four integer brackets of `sc.bracket`:
    [xr + i xi, yr + i yi] = [xr,yr] - [xi,yi] + i([xr,yi] + [xi,yr])."""
    (xr, xi), (yr, yi) = x, y
    b = sc.bracket
    return _add(b(xr, yr), b(xi, yi), -1), _add(b(xr, yi), b(xi, yr))


@cache
def _real_pairs(conj: Conjugation) -> tuple:
    """Per basis key k, the nonzero ones of Z + sigma(Z) and i(Z - sigma(Z))
    for Z the basis element of key k, as pairs (re, im).  sigma on the
    Cartan is `algebra_oracle.sigma_h`, read once; ArithmeticError if an
    entry is not an integer."""
    rk, sh = conj.rs.rank, sigma_h(conj)
    if any(s.denominator != 1 for row in sh for s in row):
        raise ArithmeticError(f"sigma on the Cartan is not integral: {sh}")
    out = []
    for k in range(rk + len(conj.c_index)):
        if k < rk:
            sr, si = {i: row[k].numerator for i, row in enumerate(sh)
                      if row[k]}, {}
        else:
            re, im = _I_POW[conj.t_exp[k - rk]]
            c = rk + conj.c_index[k - rk]
            sr, si = ({c: re} if re else {}), ({c: im} if im else {})
        # i(Z - sigma(Z)) = i((Z - sr) - i si) = si + i(Z - sr)
        pairs = ((_add({k: 1}, sr), si), (si, _add({k: 1}, sr, -1)))
        out.append([p for p in pairs if p[0] or p[1]])
    return tuple(out)


def _orbit_blocks(ctx: FormContext) -> list[list[int]]:
    """The basis keys split along the conjugation orbits
    {a, c(a), -a, -c(a)} (the full-torus isotypics), with the Cartan keys
    as one block."""
    rk = ctx.rs.rank
    blocks: dict[tuple, list[int]] = {}
    for r in range(len(ctx.rs.roots)):
        orb = tuple(sorted({r, ctx.c(r), ctx.negi(r), ctx.negi(ctx.c(r))}))
        blocks.setdefault(orb, [rk + rr for rr in orb])
    return [list(range(rk))] + list(blocks.values())


class _BlockEchelon:
    """Fraction-free echelon store of the real span of pairs (re, im),
    split into blocks of basis keys.  Each block keeps integer rows by
    pivot, coordinates (re, im) per key, each row divided by the gcd of its
    entries with its pivot entry positive, and reduces in pivot order.
    Along `_orbit_blocks` a reduction takes at most 8 coordinates; with
    every key in one block it is the dense elimination."""

    def __init__(self, blocks: list[list[int]]):
        self.blocks = blocks
        self.block_of_key = {k: b for b, keys in enumerate(blocks)
                             for k in keys}
        self.rows: list[dict[int, list[int]]] = [{} for _ in blocks]
        self.dim = 0

    def insert(self, x: tuple[dict, dict]) -> list[tuple[dict, dict]]:
        """Split x into block components and insert each; returns the newly
        independent components as pairs (re, im)."""
        re, im = x
        added = []
        for block in {self.block_of_key[k] for k in (*re, *im)}:
            keys = self.blocks[block]
            v = [c for k in keys for c in (re.get(k, 0), im.get(k, 0))]
            rows = self.rows[block]
            for p, row in sorted(rows.items()):
                if v[p]:
                    f, g = row[p], v[p]
                    v = [x * f - y * g for x, y in zip(v, row)]
            if any(v):
                p = next(i for i, x in enumerate(v) if x)
                gg = math.gcd(*v) if v[p] > 0 else -math.gcd(*v)
                v = rows[p] = [x // gg for x in v]
                self.dim += 1
                added.append(tuple({k: c for k, c in zip(keys, v[j::2]) if c}
                                   for j in (0, 1)))
        return added


def exact_span(ctx: FormContext, pd: ParabolicData, kphi: int,
               blocks: list[list[int]] | None = None
               ) -> tuple[bool, list[int]]:
    """Decide whether the iterated bracket module of the kernel directions
    acting on the real parts of the parabolic spans the whole real form.

    Generators: for each basis Z of the kernel subalgebra (Cartan plus Z_a,
    a in K_Phi) the real-form elements Z + sigma(Z) and i(Z - sigma(Z)).
    Start space: the same construction over the whole parabolic.  Iterate
    T(h) = [generators, T(h-1)], accumulating to a fixpoint.  The echelon
    splits along `blocks`, by default `_orbit_blocks(ctx)`."""
    sc, rk = ctx.sc, ctx.rs.rank
    pairs = _real_pairs(ctx.conj)
    gens = [p for k in [*range(rk), *(rk + a for a in indices(kphi))]
            for p in pairs[k]]
    ech = _BlockEchelon(_orbit_blocks(ctx) if blocks is None else blocks)
    worklist = [e for k in [*range(rk), *(rk + a for a in indices(pd.Q))]
                for p in pairs[k] for e in ech.insert(p)]
    full = sc.dim
    dims = [ech.dim]
    while worklist and ech.dim < full:
        produced = []
        for x in worklist:
            for g in gens:
                w = bracket(sc, g, x)
                if w[0] or w[1]:
                    produced.extend(ech.insert(w))
        worklist = produced
        dims.append(ech.dim)
    return ech.dim == full, dims
