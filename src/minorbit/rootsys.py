"""Abstract root systems of the simple types A-G, as integer coefficient
vectors over a fixed simple basis, plus doubled systems for the real forms
of complex type.

Roots are plain tuples of ints.  All inner products come from one integer
table, `twice_gram` = 2(alpha_i|alpha_j), read off the Bourbaki Dynkin
diagram and the squared lengths of the simple roots, so every pairing is an
exact integer computation.  (The Euclidean realizations of the simple roots
are a test oracle that pins the table.)
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Callable, Iterable, Sequence

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


def _twice_gram_block(st: SimpleType) -> list[list[int]]:
    """2(alpha_i|alpha_j) for the simple roots of one type, from the Dynkin
    diagram in Bourbaki's numbering (Lie VI, Plates I-IX): the squared
    lengths |alpha_i|^2 are all 2 in ADE, (2, ..., 2, 1) in B, (2, ..., 2,
    4) in C, (2, 2, 1, 1) in F4 and (2, 6) in G2; the nodes form a chain,
    except that in D node l-2 joins l and in E the edges are 1-3, 2-4 and
    3-4-...-l.  The matrix has 2|alpha_i|^2 on the diagonal,
    -max(|alpha_i|^2, |alpha_j|^2) on each edge and 0 elsewhere."""
    l, fam = st.rank, st.family
    norms = {"B": [2] * (l - 1) + [1], "C": [2] * (l - 1) + [4],
             "F": [2, 2, 1, 1], "G": [2, 6]}.get(fam, [2] * l)
    edges = [(i, i + 1) for i in range(l - 1)]
    if fam == "D":
        edges[-1] = (l - 3, l - 1)
    elif fam == "E":
        edges = [(0, 2), (1, 3)] + edges[2:]
    m = [[0] * l for _ in range(l)]
    for i, x in enumerate(norms):
        m[i][i] = 2 * x
    for i, j in edges:
        m[i][j] = m[j][i] = -max(norms[i], norms[j])
    return m


def exact_div(num: int, den: int, what: Callable[[], str]) -> int:
    """num / den for den > 0, raising ArithmeticError unless it is an
    integer; `what()` names the quotient in the message."""
    q, r = divmod(num, den)
    if r:
        g = gcd(num, den)
        raise ArithmeticError(f"{what()} = {num // g}/{den // g} is not "
                              f"integral")
    return q


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
        # twice_gram[i][j] = 2(alpha_i|alpha_j), block-diagonal over types
        g2 = [[0] * self.rank for _ in range(self.rank)]
        off = 0
        for t in self.types:
            for i, row in enumerate(_twice_gram_block(t)):
                g2[off + i][off:off + t.rank] = row
            off += t.rank
        self.twice_gram = tuple(map(tuple, g2))
        # cartan[i][j] = pairing(a_i, a_j) = 2(a_i|a_j)/(a_i|a_i)
        self.cartan = tuple(
            tuple(exact_div(2 * g, row[i],
                            lambda: f"Cartan entry ({i}, {j})")
                  for j, g in enumerate(row))
            for i, row in enumerate(self.twice_gram))
        self.roots = self._generate_roots()
        self.index = {r: k for k, r in enumerate(self.roots)}
        self.positives = [r for r in self.roots if sum(r) > 0]

    # -- construction ---------------------------------------------------
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
    def idx(self, root: Root) -> int:
        return self.index[tuple(root)]

    @cached_property
    def neg_index(self) -> tuple[int, ...]:
        """neg_index[a] is the index of -roots[a], which is N - 1 - a for
        N roots.

        Proof: R = -R, and negation reverses the sort key (height, lex):
        it negates the height, and two vectors of equal height first differ
        at the same coordinate after negation, with the order there
        flipped.  So listing -R in key order lists R backwards, that is
        roots[N - 1 - a] = -roots[a]."""
        return tuple(range(len(self.roots) - 1, -1, -1))

    @cached_property
    def sum_row(self) -> list[dict[int, int]]:
        # a + b = b + a: each unordered pair is added once and fills both
        # rows; row k gets its keys below k from the earlier passes, then
        # its keys above k, so every row iterates in ascending order
        roots, index = self.roots, self.index
        rows: list[dict[int, int]] = [{} for _ in roots]
        for ia, ra in enumerate(roots):
            row = rows[ia]
            for ib in range(ia + 1, len(roots)):
                si = index.get(tuple(map(operator.add, ra, roots[ib])))
                if si is not None:
                    row[ib] = si
                    rows[ib][ia] = si
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
        """support_masks[a] has bit j - 1 set for each simple index j
        (1-based) whose coefficient in the root with index a is nonzero."""
        return [sum(1 << j for j, c in enumerate(r) if c) for r in self.roots]

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


def build_root_system(family: str, rank: int) -> RootSystem:
    return RootSystem([SimpleType(family, rank)])


def build_doubled_system(family: str, rank: int) -> RootSystem:
    """Disjoint union R + R used by the real forms of complex type."""
    st = SimpleType(family, rank)
    return RootSystem([st, st])


def neg(root: Root) -> Root:
    return tuple(-x for x in root)

