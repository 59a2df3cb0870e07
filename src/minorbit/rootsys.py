"""Abstract root systems of the simple types A-G, as integer coefficient
vectors over a fixed simple basis, plus doubled systems for the real forms
of complex type.

Roots are plain tuples of ints.  All inner products come from explicit
Euclidean realizations of the simple roots, so every pairing is exact and
convention-free.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

Root = tuple  # integer coefficient vector over the simple basis

_FAMILIES = "ABCDEFG"

ROOT_COUNT = {  # |R| for each irreducible type, keyed by family
    "A": lambda l: l * (l + 1),
    "B": lambda l: 2 * l * l,
    "C": lambda l: 2 * l * l,
    "D": lambda l: 2 * l * (l - 1),
    "E": lambda l: {6: 72, 7: 126, 8: 240}[l],
    "F": lambda l: 48,
    "G": lambda l: 12,
}


@dataclass(frozen=True)
class SimpleType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        lo_hi = {"A": (1, None), "B": (2, None), "C": (3, None),
                 "D": (3, None), "E": (6, 8), "F": (4, 4), "G": (2, 2)}
        lo, hi = lo_hi[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise ValueError(f"illegal rank {self.rank} for family {self.family}")

    def __str__(self):
        return f"{self.family}{self.rank}"


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


class RootSystem:
    """Complete root set of a (possibly doubled) simple type.

    roots are ordered by (height, lexicographic) so indices are stable
    across runs; negatives have negative height and come first.

    Root addition is answered from two tables over root indices, built on
    first use: `sum_row[a]` maps b to the index of a + b, and
    `sum_pairs[t]` lists the pairs (a, b) with a + b = t.  Both are filled
    in ascending index order, so a row iterates its b ascending and a pair
    list is sorted.
    """

    def __init__(self, types: Sequence[SimpleType]):
        self.types = tuple(types)
        self.rank = sum(t.rank for t in self.types)
        self._ambient = self._build_ambient()
        self.gram = self._build_gram()           # (alpha_i | alpha_j), Fractions
        self.cartan = self._build_cartan()       # cartan[i][j] = pairing(a_i, a_j)
        self.roots = self._generate_roots()
        self.index = {r: k for k, r in enumerate(self.roots)}
        self.positives = [r for r in self.roots if sum(r) > 0]

    # -- construction ---------------------------------------------------
    def _build_ambient(self):
        vecs: list[tuple[Fraction, ...]] = []
        offset = 0
        dims = []
        per_type = [_simple_root_vectors(t) for t in self.types]
        total = sum(len(v[0]) for v in per_type)
        for tv in per_type:
            d = len(tv[0])
            for v in tv:
                full = [Fraction(0)] * total
                for k, x in enumerate(v):
                    full[offset + k] = x
                vecs.append(tuple(full))
            offset += d
            dims.append(d)
        return vecs

    def _build_gram(self):
        n = self.rank
        g = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                g[i][j] = sum(a * b for a, b in zip(self._ambient[i], self._ambient[j]))
        return tuple(tuple(row) for row in g)

    def _build_cartan(self):
        n = self.rank
        m = []
        for i in range(n):
            row = []
            for j in range(n):
                v = 2 * self.gram[i][j] / self.gram[i][i]
                if v.denominator != 1:
                    raise ArithmeticError(f"Cartan entry ({i}, {j}) = {v} "
                                          f"is not integral")
                row.append(int(v))
            m.append(tuple(row))
        return tuple(m)

    def _reflect(self, i: int, v: Root) -> Root:
        # s_i(v) = v - pairing(a_i, v) * a_i
        c = sum(self.cartan[i][j] * v[j] for j in range(self.rank))
        w = list(v)
        w[i] -= c
        return tuple(w)

    def _generate_roots(self):
        simples = []
        for i in range(self.rank):
            v = [0] * self.rank
            v[i] = 1
            simples.append(tuple(v))
        seen = set(simples)
        frontier = list(simples)
        while frontier:
            nxt = []
            for v in frontier:
                for i in range(self.rank):
                    w = self._reflect(i, v)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return sorted(seen, key=lambda r: (sum(r), r))

    # -- queries ----------------------------------------------------------
    def is_root(self, v: Iterable[int]) -> bool:
        return tuple(v) in self.index

    def idx(self, root: Root) -> int:
        return self.index[tuple(root)]

    @cached_property
    def sum_row(self) -> list[dict[int, int]]:
        rows: list[dict[int, int]] = [{} for _ in self.roots]
        for row, ra in zip(rows, self.roots):
            for ib, rb in enumerate(self.roots):
                si = self.index.get(tuple(map(operator.add, ra, rb)))
                if si is not None:
                    row[ib] = si
        return rows

    @cached_property
    def sum_pairs(self) -> list[list[tuple[int, int]]]:
        pairs: list[list[tuple[int, int]]] = [[] for _ in self.roots]
        for ia, row in enumerate(self.sum_row):
            for ib, si in row.items():
                pairs[si].append((ia, ib))
        return pairs

    @cached_property
    def support_masks(self) -> list[int]:
        """support_masks[a] has bit j - 1 set for each j in `support` of the
        root with index a."""
        return [sum(1 << j for j, c in enumerate(r) if c) for r in self.roots]

    def root_string(self, alpha: Root, beta: Root) -> tuple[int, int]:
        """(p, q) with p = max{k : beta - k*alpha in R}, q likewise upward."""
        a, b = tuple(alpha), tuple(beta)
        if a == b or a == tuple(-x for x in b):
            raise ValueError("root_string needs non-proportional roots")
        p = 0
        cur = tuple(x - y for x, y in zip(b, a))
        while cur in self.index:
            p += 1
            cur = tuple(x - y for x, y in zip(cur, a))
        q = 0
        cur = tuple(x + y for x, y in zip(b, a))
        while cur in self.index:
            q += 1
            cur = tuple(x + y for x, y in zip(cur, a))
        return p, q

    def weyl_longest_element(self, subset: Iterable[int]) -> tuple[tuple[int, ...], ...]:
        """Lattice matrix of the longest element of the Weyl subgroup
        generated by the reflections in `subset` (0-based simple indices).

        Returned as a rank x rank integer matrix acting on coefficient
        columns; maps every subset-positive root of the subsystem to a
        negative one.
        """
        S = sorted(set(subset))
        n = self.rank
        cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]

        def apply_w(v):
            return tuple(sum(cols[j][i] * v[j] for j in range(n)) for i in range(n))

        while True:
            j_found = None
            for j in S:
                ej = tuple(1 if k == j else 0 for k in range(n))
                if sum(apply_w(ej)) > 0:
                    j_found = j
                    break
            if j_found is None:
                break
            # w <- w o s_j : new column action on e_k computed through s_j
            newcols = []
            for k in range(n):
                ek = tuple(1 if t == k else 0 for t in range(n))
                v = self._reflect(j_found, ek)
                newcols.append(list(apply_w(v)))
            cols = newcols
        return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def support(alpha: Root) -> frozenset[int]:
    """Indices (1-based) of the simple roots appearing in alpha."""
    return frozenset(j + 1 for j, c in enumerate(alpha) if c != 0)


def build_root_system(family: str, rank: int) -> RootSystem:
    return RootSystem([SimpleType(family, rank)])


def build_doubled_system(family: str, rank: int) -> RootSystem:
    """Disjoint union R + R used by the real forms of complex type."""
    st = SimpleType(family, rank)
    return RootSystem([st, st])


def neg(root: Root) -> Root:
    return tuple(-x for x in root)


def add(a: Root, b: Root) -> Root:
    return tuple(x + y for x, y in zip(a, b))
