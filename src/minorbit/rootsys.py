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
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from functools import cached_property
from math import gcd

Root = tuple  # integer coefficient vector over the simple basis

# the legal ranks of each family: (lowest, highest or None)
_RANKS = {"A": (1, None), "B": (2, None), "C": (3, None), "D": (3, None),
          "E": (6, 8), "F": (4, 4), "G": (2, 2)}
# root keys in base 32 (see RootSystem.sum_row): exact while every
# coefficient of a sum of two roots has |c| < 16
_KEY_BASE = 32

ROOT_COUNT = {  # |R| for each irreducible type, keyed by family
    "A": lambda l: l * (l + 1),
    "B": lambda l: 2 * l * l,
    "C": lambda l: 2 * l * l,
    "D": lambda l: 2 * l * (l - 1),
    "E": lambda l: {6: 72, 7: 126, 8: 240}[l],
    "F": lambda l: 48,
    "G": lambda l: 12,
}


class SimpleType(namedtuple("SimpleType", "family rank")):
    """A family letter A-G with a legal rank for it: an immutable value,
    equal and hashed by (family, rank)."""
    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        if family not in _RANKS:
            raise ValueError(f"unknown family {family!r}")
        lo, hi = _RANKS[family]
        if rank < lo or (hi is not None and rank > hi):
            raise ValueError(f"illegal rank {rank} for family {family}")
        return super().__new__(cls, family, rank)

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

    # -- construction ---------------------------------------------------
    def _generate_roots(self):
        """Every root, in (height, lexicographic) order: the positive roots
        built upward by height, then negated.

        A positive root beta of height h + 1 > 1 is gamma + alpha_i for a
        positive root gamma of height h (Humphreys, section 10.2), and the
        alpha_i-string through gamma runs from gamma - p alpha_i to
        gamma + q alpha_i with p - q = <gamma, alpha_i^vee> (section 9.4).
        So gamma + alpha_i is a root iff q = p - <gamma, alpha_i^vee> > 0,
        where p is read from the roots already found: below a positive
        gamma != alpha_i the string stays positive (another coordinate of
        gamma is positive) and so of lower height, and for gamma = alpha_i
        the rule with p = 0 gives q = -2 < 0, right as 2 alpha_i is no root.
        Each root carries its pairings <gamma, alpha_k^vee> = sum_j
        cartan[k][j] gamma_j, updated by column i of the Cartan matrix per
        step.  The negatives are the positives negated, in reverse order:
        negation reverses the sort key (see `neg_index`)."""
        n, cartan = self.rank, self.cartan
        cols = [tuple(row[i] for row in cartan) for i in range(n)]
        layer = {}
        for i in range(n):
            v = [0] * n
            v[i] = 1
            layer[tuple(v)] = cols[i]
        positive = dict(layer)
        while layer:
            nxt = {}
            for beta, pairing in layer.items():
                for i, a in enumerate(pairing):
                    if a >= 0:  # else q > 0 whatever p is
                        p, c = 0, beta[i] - 1
                        while beta[:i] + (c,) + beta[i + 1:] in positive:
                            p, c = p + 1, c - 1
                        if p <= a:
                            continue
                    up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    if up not in nxt:
                        nxt[up] = tuple(map(operator.add, pairing, cols[i]))
            positive.update(nxt)
            layer = nxt
        pos = sorted(positive, key=lambda r: (sum(r), r))
        return [tuple(-c for c in r) for r in reversed(pos)] + pos

    # -- queries ----------------------------------------------------------
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
        """sum_row[a] maps b to the index of roots[a] + roots[b], for every
        b with that sum a root, in ascending b.

        Each root is encoded as the integer sum of c_j 32^j over its
        coefficients c_j, so a sum of roots is encoded by the sum of their
        keys.  The encoding is exact: a root's coefficients have |c| <= 6
        (E8's highest root), so a sum of two roots has |c| <= 12, and two
        vectors whose coefficients all have |c| < 16 and whose keys are
        equal are equal (their difference has digits |d| < 32 and encodes 0,
        so d_0 = 0 mod 32 forces d_0 = 0, and so on upward).  Raises
        ArithmeticError if a root breaks that digit bound.

        a + b = b + a: each unordered pair is added once and fills both
        rows; row k gets its keys below k from the earlier passes, then its
        keys above k, so every row iterates in ascending order."""
        if 2 * max(abs(c) for r in self.roots for c in r) >= _KEY_BASE // 2:
            raise ArithmeticError("a root coefficient breaks the digit bound "
                                  "of the integer root keys")
        powers = [_KEY_BASE ** j for j in range(self.rank)]
        keys = [sum(map(operator.mul, r, powers)) for r in self.roots]
        find = {k: i for i, k in enumerate(keys)}.get
        rows: list[dict[int, int]] = [{} for _ in keys]
        for ia, ka in enumerate(keys):
            row = rows[ia]
            for ib in range(ia + 1, len(keys)):
                si = find(ka + keys[ib])
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
        negative one.  Starting from w = 1, it keeps the columns
        w(alpha_k) and sets w <- w s_j while some w(alpha_j), j in
        `subset`, is positive; w s_j sends alpha_k to
        w(alpha_k) - cartan[j][k] w(alpha_j).
        """
        S = sorted(set(subset))
        n = self.rank
        cols = [[1 if i == k else 0 for i in range(n)] for k in range(n)]
        while True:
            j = next((j for j in S if sum(cols[j]) > 0), None)
            if j is None:
                break
            wj = cols[j]
            cols = [[x - c * y for x, y in zip(col, wj)] if c else col
                    for col, c in zip(cols, self.cartan[j])]
        return tuple(tuple(cols[k][i] for k in range(n)) for i in range(n))


def build_root_system(family: str, rank: int) -> RootSystem:
    return RootSystem([SimpleType(family, rank)])


def build_doubled_system(family: str, rank: int) -> RootSystem:
    """Disjoint union R + R used by the real forms of complex type."""
    st = SimpleType(family, rank)
    return RootSystem([st, st])


def neg(root: Root) -> Root:
    return tuple(-x for x in root)

