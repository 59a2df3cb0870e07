"""The per-target chain search, the finite-type closure over all of s and
the subtraction-based `q_form`, kept as differential oracles for
`minorbit.crflag`.

The production code runs one breadth-first closure per cross set and reads
every root sum from per-root tables built once per context; these are the
earlier per-call versions, which the tests compare against it result for
result.
"""

from __future__ import annotations

from algebra_oracle import killing_z_pair
from levi_oracle import _entry
from minorbit.crflag import FormContext, ParabolicData
from minorbit.gaussq import QQi


def q_form(ctx: FormContext, pd: ParabolicData, target: int):
    """Levi form on the parabolic subalgebra itself: rows and columns over Q,
    entry at (x, y) iff x + conj(y) = target (a real root, either sign).
    Support-restricted; used for the kernel-set test.  A dense matrix,
    scaled by the Killing value as in `levi_oracle`."""
    rs = ctx.rs
    rows = []
    tgt = rs.roots[target]
    for x in sorted(pd.Q):
        rest = tuple(t - v for t, v in zip(tgt, rs.roots[x]))
        if rest not in rs.index:
            continue
        y = ctx.c(rs.idx(rest))
        if y in pd.Q:
            rows.append((x, y))
    index = sorted({x for x, _ in rows} | {y for _, y in rows})
    pos = {ia: k for k, ia in enumerate(index)}
    kpair = killing_z_pair(ctx.sc, target)
    n = len(index)
    m = [[QQi(0)] * n for _ in range(n)]
    for x, y in rows:
        m[pos[x]][pos[y]] = _entry(ctx, x, y, kpair)
    return index, m


def finite_type(ctx: FormContext, pd: ParabolicData) -> bool:
    """Root-addition closure of Q u conj(Q) covers all roots; stands in for
    the iterated-bracket finite type condition."""
    s = set(pd.Q) | set(pd.Qbar)
    frontier = list(s)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(s):
                t = ctx.summed(a, b)
                if t is not None and t not in s:
                    s.add(t)
                    nxt.append(t)
        frontier = nxt
    return len(s) == len(ctx.rs.roots)


def hlc_reachability(ctx: FormContext, pd: ParabolicData, kphi: frozenset,
                     gamma: int, toward_minus: bool = True) -> dict:
    """Breadth-first chain search: start at any root of conj(Q), repeatedly
    add elements of K u conj(K) staying inside the root set, reach -gamma
    (or +gamma).  Returns reached flag plus witness chain or a failure
    certificate."""
    rs = ctx.rs
    target = ctx.negi(gamma) if toward_minus else gamma
    moves = sorted(set(kphi) | {ctx.c(a) for a in kphi})
    start = sorted(pd.Qbar)
    parent: dict[int, tuple] = {a: (None, None) for a in start}
    frontier = list(start)
    while frontier and target not in parent:
        nxt = []
        for cur in frontier:
            for mv in moves:
                t = ctx.summed(cur, mv)
                if t is not None and t not in parent:
                    parent[t] = (cur, mv)
                    nxt.append(t)
        frontier = nxt
    if target in parent:
        chain = []
        cur = target
        while cur is not None:
            prev, mv = parent[cur]
            chain.append(mv if mv is not None else cur)
            cur = prev
        chain.reverse()
        return {"reached": True,
                "chain": [list(rs.roots[a]) for a in chain]}
    # certificate: a simple-root coordinate bounded below along every chain
    tgt = rs.roots[target]
    for j in range(rs.rank):
        if all(rs.roots[mv][j] >= 0 for mv in moves):
            lo = min(rs.roots[a][j] for a in start)
            if tgt[j] < lo:
                return {"reached": False,
                        "certificate": {"kind": "coefficient-bound",
                                        "coordinate": j + 1,
                                        "start_minimum": lo,
                                        "target_coefficient": tgt[j]}}
    return {"reached": False,
            "certificate": {"kind": "closure-exhausted",
                            "reachable_count": len(parent)}}
