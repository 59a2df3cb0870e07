"""Chevalley basis {H_i} u {Z_a} for the complex semisimple Lie algebra of a
RootSystem: integer structure constants and brackets, all exact.  Every
root sum is read from the root system's `sum_row` and `sum_pairs` tables.
The Killing form lives with the tests (tests/algebra_oracle.py), and the
coroots, which only the bracket [Z_a, Z_-a] reads, are derived from the
root system on first read: `classify` never needs either.

Normalization: [H_a, Z_a] = 2 Z_a, [Z_a, Z_-a] = -H_a, and the linear map
H -> -H, Z_a -> Z_-a is an automorphism (so N(-a,-b) = N(a,b)).  Signs are
fixed by making N positive on extraspecial pairs in a standard basis and
transporting; any consistent sign gauge is equally valid and the sign_gauge
hook below re-randomizes it for robustness tests.
"""

from __future__ import annotations

import random
from functools import cached_property

from .rootsys import RootSystem, exact_div

# basis keys: 0..rank-1 are H_1..H_rank, rank + r is Z_{roots[r]}


class StructureConstants:
    def __init__(self, rs: RootSystem, ntable: dict):
        self.rs = rs
        self.rank = rs.rank
        self.dim = rs.rank + len(rs.roots)
        self.ntable = ntable        # (ia, ib) -> int, for root pairs with a+b a root

    @cached_property
    def coroots(self) -> list[tuple[int, ...]]:
        """Per root index, the coroot over the simple coroots:
        coroot(a) = sum_i k_i (a_i|a_i)/(a|a) coroot(a_i), each an exact
        division.  Derived on first read: only `bracket_basis` reads it."""
        g2 = self.rs.twice_gram
        return [tuple(exact_div(k * g2[i][i], m, lambda: f"coroot of {r}")
                      if k else 0 for i, k in enumerate(r))
                for r, m in zip(self.rs.roots, _twice_norms(self.rs))]

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
        if ib == rs.neg_index[ia]:
            # [Z_a, Z_-a] = -H_a
            return [(j, -c) for j, c in enumerate(self.coroots[ia]) if c]
        return []

    # -- elements ------------------------------------------------------------
    def bracket(self, x: dict, y: dict) -> dict:
        """Bilinear bracket of sparse elements {key: scalar}, over any
        scalar type that mixes with int."""
        out: dict = {}
        for k1, c1 in x.items():
            if not c1:
                continue
            for k2, c2 in y.items():
                if not c2:
                    continue
                for k3, m in self.bracket_basis(k1, k2):
                    v = out.get(k3, 0) + c1 * c2 * m
                    if v:
                        out[k3] = v
                    elif k3 in out:
                        del out[k3]
        return out

    # -- gauge ------------------------------------------------------------------
    def sign_gauge(self, seed: int) -> "StructureConstants":
        """New table with Z_a -> u_a Z_a, u_a = u_-a = +-1 random; a different
        but equally valid Chevalley basis (used by robustness tests)."""
        rng = random.Random(seed)
        rs = self.rs
        n = len(rs.roots)
        u = [0] * n
        for a in range(n // 2, n):  # the positive roots, in index order
            u[a] = u[rs.neg_index[a]] = 1 if rng.random() < 0.5 else -1
        nt = {}
        for (ia, ib), v in self.ntable.items():
            nt[(ia, ib)] = u[ia] * u[ib] * u[rs.sum_row[ia][ib]] * v
        return StructureConstants(rs, nt)


def _twice_norms(rs: RootSystem) -> list[int]:
    """Per root index, the integer 2(a|a) = sum over i, j of
    a_i a_j 2(alpha_i|alpha_j)."""
    g2, out = rs.twice_gram, []
    for r in rs.roots:
        nz = [(i, k) for i, k in enumerate(r) if k]
        out.append(sum(ki * kj * g2[i][j] for i, ki in nz for j, kj in nz))
    return out


def standard_constants(rs: RootSystem):
    """The extraspecial-pair recursion in the standard basis: returns
    n_std, where n_std(a, b, s) is the structure constant n(a, b) of roots
    a, b with a + b the root s.  Roots are handled by index throughout,
    and every sum is read from `rs.sum_row`.

    Integers only (Carter, Simple Groups of Lie Type, ch. 4): squared
    lengths enter as the integers nn[a] = 2(a|a), and every quotient of
    them (the mixed-sign rotation, the four-root relation) is an exact
    integer division that raises ArithmeticError when it leaves a
    remainder.  Each quotient is homogeneous of degree 0 in the lengths,
    so the factor 2 cancels."""
    roots, row = rs.roots, rs.sum_row
    half = len(roots) // 2  # negatives come first, positives from here on
    negi = rs.neg_index
    nn = _twice_norms(rs)

    npos: dict[tuple[int, int], int] = {}

    def n_std(a, b, s):
        """n(a,b) for arbitrary roots a, b with a + b the root s, from the
        positive table."""
        if (a >= half) == (b >= half):
            return npos[(a, b)] if a >= half else -npos[(negi[a], negi[b])]
        # mixed signs: rotate the zero-sum triple (a, b, -s) to a same-sign pair
        # using N(a,b)/|c|^2 = N(b,c)/|a|^2 = N(c,a)/|b|^2
        c = negi[s]
        if (b >= half) == (c >= half):
            num, den = n_std(b, c, negi[a]) * nn[s], nn[a]
        else:
            num, den = n_std(c, a, negi[b]) * nn[s], nn[b]
        return exact_div(num, den, lambda: f"structure constant "
                                           f"n{(roots[a], roots[b])}")

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
        # p + 1, with p the length of the a1-string below b1
        p, cur = 0, row[b1].get(negi[a1])
        while cur is not None:
            p += 1
            cur = row[cur].get(negi[a1])
        n1 = npos[(a1, b1)] = p + 1
        npos[(b1, a1)] = -n1
        # remaining special pairs for g via the four-root relation against
        # (a1, b1): n(a,b) = nn[g] (x2/nn[d2] + x3/nn[d3]) / n(a1,b1), over
        # the common denominator nn[d2] nn[d3] n(a1,b1)
        for a, b in special[1:]:
            # a + b - a1 - b1 = 0, no two opposite
            # (b - a1 = d a root makes a - b1 = -d one, likewise for a - a1)
            x2, m2 = 0, 1
            d = row[b].get(negi[a1])
            if d is not None:
                x2 = n_std(b, negi[a1], d) * n_std(a, negi[b1], negi[d])
                m2 = nn[d]
            x3, m3 = 0, 1
            d = row[a].get(negi[a1])
            if d is not None:
                x3 = n_std(negi[a1], a, d) * n_std(b, negi[b1], negi[d])
                m3 = nn[d]
            num = nn[g] * (x2 * m3 + x3 * m2)

            def what():
                return (f"special pair {(roots[a], roots[b])} of {roots[g]}: "
                        f"structure constant")
            if not num:
                raise ArithmeticError(f"{what()} 0")
            v = exact_div(num, m2 * m3 * n1, what)
            npos[(a, b)] = v
            npos[(b, a)] = -v
    return n_std


def build_chevalley(rs: RootSystem) -> StructureConstants:
    """Structure constants via the extraspecial-pair recursion
    (`standard_constants`), then transported to the normalization
    [Z_a, Z_-a] = -H_a whose footprint is that H -> -H, Z_a -> Z_-a is an
    automorphism: N(a, b) = e_a e_b e_{a+b} n(a, b) with e_a = -1 on
    negative roots.  No coroot is computed here (see
    `StructureConstants.coroots`).

    The table is filled row by row in `rs.sum_row` order, and a pair
    (a, b) with b < a takes N(a, b) = -N(b, a) from the row of b, filled
    before it, instead of running the recursion.  Proof: n is the table of
    structure constants of a Lie algebra in a basis, so n(b, a) = -n(a, b)
    by antisymmetry of the bracket, and the sign factor e_a e_b e_{a+b} is
    symmetric in a and b, so N(b, a) = -N(a, b).  So the fill no longer
    runs `n_std` on the pairs (a, b) with b < a: the exact divisions of the
    mixed-sign rotation for those pairs (one order of every mixed-sign
    pair) no longer run, while the rotation for the other order and the
    four-root relation still do.  The tests
    keep the per-pair fill as a differential oracle on every catalog root
    system, item order included."""
    n_std = standard_constants(rs)
    row = rs.sum_row
    half = len(rs.roots) // 2  # negatives come first
    ntable: dict[tuple[int, int], int] = {}
    for a, sums in enumerate(row):
        for b, s in sums.items():
            if b < a:
                ntable[(a, b)] = -ntable[(b, a)]
            else:
                v = n_std(a, b, s)
                flip = (a < half) ^ (b < half) ^ (s < half)
                ntable[(a, b)] = -v if flip else v
    return StructureConstants(rs, ntable)
