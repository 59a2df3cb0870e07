"""Chevalley basis {H_i} u {Z_a} for the complex semisimple Lie algebra of a
RootSystem: integer structure constants and brackets, all exact.  Every
root sum is read from the root system's `sum_row` and `sum_pairs` tables.
The Killing form lives with the tests (tests/algebra_oracle.py): `classify`
never needs its values.

Normalization: [H_a, Z_a] = 2 Z_a, [Z_a, Z_-a] = -H_a, and the linear map
H -> -H, Z_a -> Z_-a is an automorphism (so N(-a,-b) = N(a,b)).  Signs are
fixed by making N positive on extraspecial pairs in a standard basis and
transporting; any consistent sign gauge is equally valid and the sign_gauge
hook below re-randomizes it for robustness tests.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .gaussq import QQi, ZERO
from .rootsys import RootSystem, Root, neg

# basis keys: 0..rank-1 are H_1..H_rank, rank + r is Z_{roots[r]}


class StructureConstants:
    def __init__(self, rs: RootSystem, ntable: dict, coroots: list):
        self.rs = rs
        self.rank = rs.rank
        self.dim = rs.rank + len(rs.roots)
        self.ntable = ntable        # (ia, ib) -> int, for root pairs with a+b a root
        self.coroots = coroots      # per root index: integer vector over simple coroots

    # -- basis bracket -----------------------------------------------------
    def n(self, ia: int, ib: int) -> int:
        return self.ntable.get((ia, ib), 0)

    def bracket_basis(self, k1: int, k2: int) -> list[tuple[int, int]]:
        """[basis_k1, basis_k2] as a list of (key, integer coeff)."""
        rk, rs = self.rank, self.rs
        if k1 < rk and k2 < rk:
            return []
        if k1 < rk:  # [H_i, Z_b] = pairing(a_i, b) Z_b
            b = rs.roots[k2 - rk]
            c = sum(rs.cartan[k1][j] * b[j] for j in range(rk))
            return [(k2, c)] if c else []
        if k2 < rk:
            b = rs.roots[k1 - rk]
            c = sum(rs.cartan[k2][j] * b[j] for j in range(rk))
            return [(k1, -c)] if c else []
        ia, ib = k1 - rk, k2 - rk
        si = rs.sum_row[ia].get(ib)
        if si is not None:
            return [(rk + si, self.ntable[(ia, ib)])]
        if rs.roots[ib] == neg(rs.roots[ia]):
            # [Z_a, Z_-a] = -H_a
            return [(j, -c) for j, c in enumerate(self.coroots[ia]) if c]
        return []

    # -- elements ------------------------------------------------------------
    def bracket(self, x: dict, y: dict) -> dict:
        """Bilinear bracket of sparse elements {key: QQi}."""
        out: dict[int, QQi] = {}
        for k1, c1 in x.items():
            if not c1:
                continue
            for k2, c2 in y.items():
                if not c2:
                    continue
                for k3, m in self.bracket_basis(k1, k2):
                    v = out.get(k3, ZERO) + c1 * c2 * m
                    if v:
                        out[k3] = v
                    elif k3 in out:
                        del out[k3]
        return out

    def h(self, i: int) -> dict:
        return {i: QQi(1)}

    def z(self, root) -> dict:
        return {self.rank + self.rs.idx(root): QQi(1)}

    # -- serialization ------------------------------------------------------------
    def ntable_json(self) -> str:
        """Canonical JSON dump of the bracket constant table."""
        import json
        rows = []
        for (ia, ib), v in sorted(self.ntable.items()):
            rows.append([list(self.rs.roots[ia]), list(self.rs.roots[ib]), v])
        return json.dumps({"n": rows}, sort_keys=True, separators=(",", ":"))

    # -- gauge ------------------------------------------------------------------
    def sign_gauge(self, seed: int) -> "StructureConstants":
        """New table with Z_a -> u_a Z_a, u_a = u_-a = +-1 random; a different
        but equally valid Chevalley basis (used by robustness tests)."""
        rng = random.Random(seed)
        rs = self.rs
        u = {}
        for r in rs.positives:
            s = 1 if rng.random() < 0.5 else -1
            u[rs.idx(r)] = s
            u[rs.idx(neg(r))] = s
        nt = {}
        for (ia, ib), v in self.ntable.items():
            nt[(ia, ib)] = u[ia] * u[ib] * u[rs.sum_row[ia][ib]] * v
        return StructureConstants(rs, nt, self.coroots)


def _coroot_vector(rs: RootSystem, root: Root, nn: Fraction) -> tuple[int, ...]:
    # coroot(a) = sum_i k_i * (a_i|a_i)/(a|a) * coroot(a_i), nn = (a|a)
    out = []
    for i in range(rs.rank):
        c = Fraction(root[i]) * rs.gram[i][i] / nn
        if c.denominator != 1:
            raise ArithmeticError(f"coroot of {root} is not integral")
        out.append(int(c))
    return tuple(out)


def build_chevalley(rs: RootSystem) -> StructureConstants:
    """Structure constants via the extraspecial-pair recursion, then
    transported to the normalization [Z_a, Z_-a] = -H_a whose footprint is
    that H -> -H, Z_a -> Z_-a is an automorphism.  Roots are handled by
    index throughout, and every sum is read from `rs.sum_row`."""
    roots, row = rs.roots, rs.sum_row
    half = len(roots) // 2  # negatives come first, positives from here on
    negi = [rs.idx(neg(r)) for r in roots]
    nn = [rs.inner(r, r) for r in roots]

    npos: dict[tuple[int, int], int] = {}

    def n_std(a, b):
        """n(a,b) for arbitrary roots with a+b a root, from the positive table."""
        s = row[a].get(b)
        if s is None:
            return 0
        if a >= half and b >= half:
            v = npos.get((a, b))
            if v is None:
                v = -npos[(b, a)]
            return v
        if a < half and b < half:
            return -n_std(negi[a], negi[b])
        # mixed signs: rotate the zero-sum triple (a, b, -s) to a same-sign pair
        # using N(a,b)/|c|^2 = N(b,c)/|a|^2 = N(c,a)/|b|^2
        c = negi[s]
        if (b >= half) == (c >= half):
            out = Fraction(n_std(b, c)) * nn[s] / nn[a]
        else:
            out = Fraction(n_std(c, a)) * nn[s] / nn[b]
        if out.denominator != 1:
            raise ArithmeticError(f"structure constant n{(roots[a], roots[b])} "
                                  f"= {out} is not integral")
        return int(out)

    # extraspecial pairs, processed by height of the sum: the special pairs
    # of g are its positive pairs (a, b) with a before b, in index order,
    # and the first of them is extraspecial
    for g in range(half, len(roots)):
        if sum(roots[g]) == 1:
            continue
        special = [(a, b) for a, b in rs.sum_pairs[g] if half <= a < b]
        if not special:
            raise ArithmeticError(f"no extraspecial pair for {roots[g]}")
        a1, b1 = special[0]
        npos[(a1, b1)] = rs.root_string(roots[a1], roots[b1])[0] + 1
        npos[(b1, a1)] = -npos[(a1, b1)]
        # remaining special pairs for g via the four-root relation against (a1, b1)
        for a, b in special[1:]:
            # a + b - a1 - b1 = 0, no two opposite
            t2 = Fraction(0)
            d = row[b].get(negi[a1])
            if d is not None:
                t2 = Fraction(n_std(b, negi[a1]) * n_std(a, negi[b1])) / nn[d]
            t3 = Fraction(0)
            d = row[a].get(negi[a1])
            if d is not None:
                t3 = Fraction(n_std(negi[a1], a) * n_std(b, negi[b1])) / nn[d]
            val = nn[g] * (t2 + t3) / npos[(a1, b1)]
            if val.denominator != 1 or val == 0:
                raise ArithmeticError(f"special pair {(roots[a], roots[b])} of "
                                      f"{roots[g]}: structure constant {val}")
            v = int(val)
            npos[(a, b)] = v
            npos[(b, a)] = -v

    # full table in the target normalization: N(a,b) = e_a e_b e_{a+b} n(a,b)
    def e(i):
        return 1 if i >= half else -1

    ntable: dict[tuple[int, int], int] = {}
    for a, sums in enumerate(row):
        for b, s in sums.items():
            ntable[(a, b)] = e(a) * e(b) * e(s) * n_std(a, b)

    coroots = [_coroot_vector(rs, r, n) for r, n in zip(roots, nn)]
    return StructureConstants(rs, ntable, coroots)
