"""The per-target chain search, the move-by-move root closure, the
sign-and-support `parabolic`, the finite-type closures (over all of s and
over sum rows), the two-closure span, the subtraction-based `q_form`, the
no-triples scan, and the per-root loops that the form tables replaced
(`parabolic`, `finite_type`, `k_phi`, the Levi classes, the complex zero
pairs and the chain bounds), kept as differential oracles for
`minorbit.crflag`.

The production code runs at most one breadth-first closure per cross set,
reads the span from it and decides finite type from simple-root supports;
these are the earlier versions, which the tests compare against it result
for result.
"""

from __future__ import annotations

from algebra_oracle import idx, killing_z_pair, support
from gaussq import QQi
from levi_oracle import _entry
from minorbit import crflag
from minorbit.crflag import FormContext, ParabolicData, indices, root_closure
from minorbit.exactla import DefinitenessClass


def mask_of(roots) -> int:
    """The mask (bit a for the root with index a) of the root indices
    `roots`, the form in which `minorbit.crflag` holds a root set."""
    return sum(1 << a for a in set(roots))


def summed(ctx: FormContext, ia: int, ib: int):
    """Index of roots[ia] + roots[ib], or None when the sum is no root."""
    return ctx.rs.sum_row[ia].get(ib)


def root_closure_by_moves(ctx: FormContext, start, moves):
    """`crflag.root_closure` trying every move, in sorted order, at each
    frontier root: (parent map, sizes).  `start` and `moves` are masks."""
    moves = indices(moves)
    frontier = indices(start)
    parent: dict[int, tuple] = {a: (None, None) for a in frontier}
    sizes = [len(parent)]
    while frontier:
        nxt = []
        for cur in frontier:
            for mv in moves:
                t = summed(ctx, cur, mv)
                if t is not None and t not in parent:
                    parent[t] = (cur, mv)
                    nxt.append(t)
        frontier = nxt
        sizes.append(len(parent))
    return parent, sizes


def parabolic(ctx: FormContext, phi) -> ParabolicData:
    """`crflag.parabolic` with the sign read from the coefficient sum and
    the support as a set of simple indices; phi is given as simple
    indices."""
    phi = frozenset(phi)
    Q, Qn = set(), set()
    for ia, r in enumerate(ctx.rs.roots):
        meets = not support(r).isdisjoint(phi)
        if sum(r) > 0:
            Q.add(ia)
            if meets:
                Qn.add(ia)
        elif not meets:
            Q.add(ia)
    return ParabolicData(sum(1 << (j - 1) for j in phi), mask_of(Q),
                         mask_of(Qn), mask_of(ctx.c(ia) for ia in Q))


def q_form(ctx: FormContext, pd: ParabolicData, target: int):
    """Levi form on the parabolic subalgebra itself: rows and columns over Q,
    entry at (x, y) iff x + conj(y) = target (a real root, either sign).
    Support-restricted; used for the kernel-set test.  A dense matrix,
    scaled by the Killing value as in `levi_oracle`."""
    rs = ctx.rs
    rows = []
    tgt = rs.roots[target]
    Q = indices(pd.Q)
    for x in Q:
        rest = tuple(t - v for t, v in zip(tgt, rs.roots[x]))
        if rest not in rs.index:
            continue
        y = ctx.c(idx(rs, rest))
        if y in Q:
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
    s = set(indices(pd.Q | pd.Qbar))
    frontier = list(s)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(s):
                t = summed(ctx, a, b)
                if t is not None and t not in s:
                    s.add(t)
                    nxt.append(t)
        frontier = nxt
    return len(s) == len(ctx.rs.roots)


def finite_type_rows(ctx: FormContext, pd: ParabolicData) -> bool:
    """Root-addition closure of Q u conj(Q) covers all roots; stands in for
    the iterated-bracket finite type condition.

    Every root of the final set s passes through exactly one frontier, and
    both roots of a pair are in s before the later one's frontier is walked,
    so every pair of s is tried and s is closed; it only ever gains sums of
    its own roots, so it is the closure.  Walking the sum row of a root
    instead of all of s therefore gives the same set."""
    s = set(indices(pd.Q | pd.Qbar))
    frontier = list(s)
    rows = ctx.rs.sum_row
    while frontier:
        nxt = []
        for a in frontier:
            for b, t in rows[a].items():
                if b in s and t not in s:
                    s.add(t)
                    nxt.append(t)
        frontier = nxt
    return len(s) == len(ctx.rs.roots)


def t_module_span(ctx: FormContext, pd: ParabolicData,
                  kphi: int) -> tuple[bool, list[int]]:
    """The span decision by its own closure of S_0 = Q u c(Q) under the
    moves M = K_Phi u c(K_Phi): (S reaches every root, rank + |S_h| per
    round), the rounds cut just after the first full entry."""
    full = len(ctx.rs.roots)
    ks = indices(kphi)
    moves = mask_of(ks + [ctx.c(a) for a in ks])
    _, sizes = root_closure(ctx, pd.Q | pd.Qbar, moves)
    if full in sizes:
        sizes = sizes[:sizes.index(full) + 1]
    rk = ctx.rs.rank
    return sizes[-1] == full, [rk + k for k in sizes]


def verify_no_triples(ctx: FormContext) -> int:
    """Exhaustive scan for triples (a, b, g) with a+conj(a), b+conj(b),
    g+conj(g) all roots, a+conj(a) != b+conj(b), a+conj(b) = g+conj(g).
    Must return 0."""
    rs = ctx.rs
    B = [a for a in range(len(rs.roots))
         if summed(ctx, a, ctx.c(a)) is not None]
    bar_sums = {}
    for g in B:
        bar_sums.setdefault(summed(ctx, g, ctx.c(g)), []).append(g)
    count = 0
    for a in B:
        sa = summed(ctx, a, ctx.c(a))
        for b in B:
            if summed(ctx, b, ctx.c(b)) == sa:
                continue
            t = summed(ctx, a, ctx.c(b))
            if t is not None and t in bar_sums:
                count += len(bar_sums[t])
    return count


def hlc_reachability(ctx: FormContext, pd: ParabolicData, kphi: int,
                     gamma: int, toward_minus: bool = True) -> dict:
    """Breadth-first chain search: start at any root of conj(Q), repeatedly
    add elements of K u conj(K) staying inside the root set, reach -gamma
    (or +gamma).  Returns reached flag plus witness chain or a failure
    certificate."""
    rs = ctx.rs
    target = ctx.negi(gamma) if toward_minus else gamma
    ks = indices(kphi)
    moves = sorted(set(ks) | {ctx.c(a) for a in ks})
    start = indices(pd.Qbar)
    parent: dict[int, tuple] = {a: (None, None) for a in start}
    frontier = list(start)
    while frontier and target not in parent:
        nxt = []
        for cur in frontier:
            for mv in moves:
                t = summed(ctx, cur, mv)
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


# -- the per-root loops that the form tables replaced ------------------------


def parabolic_by_masks(ctx: FormContext, phi) -> ParabolicData:
    """`crflag.parabolic` testing each root's support mask against phi,
    given as simple indices."""
    pm = sum(1 << (j - 1) for j in frozenset(phi))
    masks = ctx.rs.support_masks
    half = len(masks) // 2
    pos = range(half, len(masks))
    neg_q = [ia for ia in range(half) if not masks[ia] & pm]
    Qn = [ia for ia in pos if masks[ia] & pm]
    Q = neg_q + list(pos)
    return ParabolicData(pm, mask_of(Q), mask_of(Qn),
                         mask_of(ctx.c(ia) for ia in Q))


def finite_type_by_masks(ctx: FormContext, pd: ParabolicData) -> bool:
    """`crflag.finite_type` or-ing the support masks of the negative roots
    of Q u conj(Q)."""
    masks = ctx.rs.support_masks
    half = len(masks) // 2
    covered = 0
    for a in indices(pd.Q | pd.Qbar):
        if a < half:
            covered |= masks[a]
    return covered == (1 << ctx.rs.rank) - 1


def k_phi_by_roots(ctx: FormContext, pd: ParabolicData) -> int:
    """`crflag.k_phi` testing each root a of Q: a + c(a) not a root, or
    -(a + c(a)) outside Q, or the form at a + c(a) indefinite.  Each form
    is classified once, through `crflag.q_form` and `crflag.classify_levi`
    as module attributes, so that a test can count the calls."""
    cls_cache: dict[int, DefinitenessClass] = {}
    out = set()
    Q = indices(pd.Q)
    for a in Q:
        beta = summed(ctx, a, ctx.c(a))
        if beta is None or ctx.negi(beta) not in Q:
            out.add(a)
            continue
        if beta not in cls_cache:
            cls_cache[beta] = crflag.classify_levi(
                *crflag.q_form(ctx, pd, beta))[0]
        if cls_cache[beta] is DefinitenessClass.INDEFINITE:
            out.add(a)
    return mask_of(out)


def levi_classes_by_matrix(ctx: FormContext, pd: ParabolicData) -> list:
    """`crflag._levi_classes` building `levi_matrix` for each real
    characteristic root, taken as the real roots of Qn."""
    return [(g, *crflag.classify_levi(*crflag.levi_matrix(ctx, pd, g)))
            for g in indices(pd.Qn) if ctx.c(g) == g]


def complex_zero_pairs_by_roots(ctx: FormContext, pd: ParabolicData) -> list:
    """The complex targets of `crflag._mot_targets`, walking sorted(Qn)."""
    out = []
    Qn = indices(pd.Qn)
    for b in Qn:
        cb = ctx.c(b)
        if cb <= b or cb not in Qn:
            continue
        if crflag.q_form(ctx, pd, ctx.negi(b))[1]:
            continue
        out.append((b, cb))
    return out


def chain_bounds_by_roots(ctx: FormContext, pd: ParabolicData, kphi) -> list:
    """The coefficient bounds of `crflag.Chains`: [(j, minimum of
    coordinate j over conj(Q))] for each j on which no move of
    K u conj(K) is negative, read from the support masks of the moves."""
    ks = indices(kphi)
    moves = set(ks) | {ctx.c(a) for a in ks}
    masks, roots = ctx.rs.support_masks, ctx.rs.roots
    half = len(masks) // 2
    negative = 0
    for mv in moves:
        if mv < half:
            negative |= masks[mv]
    lows = map(min, zip(*[roots[a] for a in indices(pd.Qbar)]))
    return [(j, lo) for j, lo in enumerate(lows) if not negative >> j & 1]
