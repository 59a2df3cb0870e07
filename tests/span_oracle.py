"""The exact bracket-module span engine, kept as a differential oracle for
`minorbit.crflag.t_module_span`.

It builds the real bracket module of the kernel directions by exact
Gaussian-rational linear algebra: generators and start space are the real
parts Z + sigma(Z), i(Z - sigma(Z)) of Chevalley basis elements, and every
round brackets the generators with the newly independent elements,
reducing each product in block-integer echelon form.  The production span
decides the same question by a root-set closure; the two must agree on the
verdict and on every round dimension.
"""

from __future__ import annotations

import math

from algebra_oracle import real_pair
from gaussq import QQi
from minorbit.crflag import FormContext, ParabolicData, indices


def _scale_integral(elt: dict) -> dict[int, tuple[int, int]]:
    den = 1
    for v in elt.values():
        den = den * v.re.denominator // math.gcd(den, v.re.denominator)
        den = den * v.im.denominator // math.gcd(den, v.im.denominator)
    return {k: (int(v.re * den), int(v.im * den)) for k, v in elt.items()}


class _BlockEchelon:
    """Echelon store for the span iteration, block-decomposed along the
    conjugation orbits {a, c(a), -a, -c(a)} (the full-torus isotypics), so
    every reduction happens in at most 8 integer coordinates."""

    def __init__(self, ctx: FormContext):
        self.ctx = ctx
        rk = ctx.rs.rank
        self.block_of_key = {}
        self.blocks: dict[tuple, list[int]] = {}
        for i in range(rk):
            self.block_of_key[i] = ("h",)
        for r in range(len(ctx.rs.roots)):
            orb = tuple(sorted({r, ctx.c(r), ctx.negi(r), ctx.negi(ctx.c(r))}))
            self.block_of_key[rk + r] = orb
            self.blocks.setdefault(orb, [rk + rr for rr in orb])
        self.blocks[("h",)] = list(range(rk))
        self.rows: dict[tuple, list[list[int]]] = {b: [] for b in self.blocks}
        self.dim = 0

    def _coords(self, block, comp: dict) -> list[int]:
        out = []
        for k in self.blocks[block]:
            a, b = comp.get(k, (0, 0))
            out.append(a)
            out.append(b)
        return out

    def insert(self, elt: dict) -> list[dict]:
        """Split into block components and insert each; returns the newly
        independent components as sparse QQi elements."""
        comps: dict[tuple, dict] = {}
        intelt = _scale_integral(elt)
        for k, ab in intelt.items():
            if ab != (0, 0):
                comps.setdefault(self.block_of_key[k], {})[k] = ab
        added = []
        for block, comp in comps.items():
            v = self._coords(block, comp)
            rows = self.rows[block]
            for row in rows:
                p = next(i for i, x in enumerate(row) if x)
                if v[p]:
                    f, g = row[p], v[p]
                    v = [x * f - y * g for x, y in zip(v, row)]
            if any(v):
                gg = 0
                for x in v:
                    gg = math.gcd(gg, x)
                v = [x // gg for x in v]
                p = next(i for i, x in enumerate(v) if x)
                if v[p] < 0:
                    v = [-x for x in v]
                rows.append(v)
                rows.sort(key=lambda r: next(i for i, x in enumerate(r) if x))
                self.dim += 1
                keys = self.blocks[block]
                added.append({keys[i // 2]: QQi(v[i], v[i + 1])
                              for i in range(0, len(v), 2)
                              if v[i] or v[i + 1]})
        return added


def exact_span(ctx: FormContext, pd: ParabolicData,
               kphi: frozenset) -> tuple[bool, list[int]]:
    """Decide whether the iterated bracket module of the kernel directions
    acting on the real parts of the parabolic spans the whole real form.

    Generators: for each basis Z of the kernel subalgebra (Cartan plus Z_a,
    a in K_Phi) the real-form elements Z + sigma(Z) and i(Z - sigma(Z)).
    Start space: the same construction over the whole parabolic.  Iterate
    T(h) = [generators, T(h-1)], accumulating to a fixpoint."""
    sc, conj, rs = ctx.sc, ctx.conj, ctx.rs
    rk = rs.rank

    gens: list[dict] = []
    for i in range(rk):
        gens.extend(real_pair(conj, {i: QQi(1)}))
    for a in indices(kphi):
        gens.extend(real_pair(conj, {rk + a: QQi(1)}))

    ech = _BlockEchelon(ctx)
    worklist: list[dict] = []
    for i in range(rk):
        for e in real_pair(conj, {i: QQi(1)}):
            worklist.extend(ech.insert(e))
    for a in indices(pd.Q):
        for e in real_pair(conj, {rk + a: QQi(1)}):
            worklist.extend(ech.insert(e))
    full = sc.dim
    dims = [ech.dim]
    while worklist and ech.dim < full:
        produced = []
        for x in worklist:
            for g in gens:
                w = sc.bracket(g, x)
                if w:
                    produced.extend(ech.insert(w))
        worklist = produced
        dims.append(ech.dim)
    return ech.dim == full, dims
