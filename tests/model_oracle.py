"""Independent matrix-realization oracle for the classical real forms.

Each classical label has an explicit model (block-Hermitian or quaternionic)
whose maximally vectorial Cartan subalgebra is the diagonal one; in that
model the conjugation acts on the weight coordinates e_i by a signed
permutation.  Transporting this action to simple-root coordinates gives an
independently derived lattice involution to compare against the
catalog-derived one.  The tests compare it with
`minorbit.realform.Conjugation.lattice`.
"""

from __future__ import annotations

from fractions import Fraction

from algebra_oracle import ambient, rref
from minorbit.realform import SatakeDiagram
from minorbit.rootsys import RootSystem


def _eps_action(entry: SatakeDiagram):
    """c(e_k) = sign * e_{perm(k)} as (perm, sign) lists (0-based ambient),
    or None when no model is defined for the label."""
    lab, par = entry.label, entry.params
    l = entry.rank
    if lab == "AI":          # sl(n,R): everything fixed
        n = par["n"]
        return list(range(n)), [1] * n
    if lab == "AII":         # sl(m,H): quaternionic pair swap
        n = 2 * par["m"]
        perm = [k + 1 if k % 2 == 0 else k - 1 for k in range(n)]
        return perm, [1] * n
    if lab in ("AIIIa", "AIIIb", "AIV"):   # su(p,q), outer anti-diagonal blocks
        p, q = par["p"], par["q"]
        n = p + q
        perm, sign = [], []
        for k in range(n):
            if k < p or k >= n - p:
                perm.append(n - 1 - k)
            else:
                perm.append(k)
            sign.append(-1)
        return perm, sign
    if lab in ("BI", "BII", "DI", "DII"):  # so(p,q), split on the first p
        p = par["p"]
        return list(range(l)), [1 if k < p else -1 for k in range(l)]
    if lab == "CI":          # sp(l,R)
        return list(range(l)), [1] * l
    if lab in ("CIIa", "CIIb"):            # sp(p,q), quaternionic pairs then compact
        p = par["p"]
        perm, sign = [], []
        for k in range(l):
            if k < 2 * p:
                perm.append(k + 1 if k % 2 == 0 else k - 1)
                sign.append(1)
            else:
                perm.append(k)
                sign.append(-1)
        return perm, sign
    if lab in ("DIIIa", "DIIIb"):          # so*(2l), pairs plus odd tail
        perm, sign = [], []
        for k in range(l):
            if k < 2 * (l // 2):
                perm.append(k + 1 if k % 2 == 0 else k - 1)
                sign.append(1)
            else:
                perm.append(k)
                sign.append(-1)
        return perm, sign
    return None


def expected_lattice_conjugation(entry: SatakeDiagram, rs: RootSystem):
    """Lattice matrix of the model conjugation, or None if no model."""
    act = _eps_action(entry)
    if act is None:
        return None
    perm, sign = act
    amb = ambient(rs)  # simple roots in ambient coordinates
    m = len(amb[0])
    n = rs.rank

    def c_amb(v):
        out = [Fraction(0)] * m
        for k in range(m):
            out[k] = sign[k] * v[perm[k]]
        return out

    # solve  sum_j x_j * amb[j] = c_amb(amb[col])  for each column
    cols = []
    for col in range(n):
        target = c_amb(list(amb[col]))
        aug = [[amb[j][i] for j in range(n)] + [target[i]] for i in range(m)]
        red, piv = rref(aug)
        if n in piv:
            raise ValueError(f"{entry.name}: model image not in root lattice")
        x = [Fraction(0)] * n
        for rr, c in enumerate(piv):
            x[c] = red[rr][n]
        if any(v.denominator != 1 for v in x):
            raise ValueError(f"{entry.name}: model image not integral")
        cols.append([int(v) for v in x])
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
