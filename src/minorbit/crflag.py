"""Core decision machinery for minimal orbits: parabolic root data Q_Phi,
characteristic real roots, exact Levi matrices, the common kernel set K_Phi,
finite type, the root-chain sufficient condition, and the authoritative
span decision in the real form, decided by a root-set closure that equals
the iterated bracket module (see `t_module_span`).  The chain search and
the span share one breadth-first kernel, `root_closure`, and every root sum
is read from the root system's `sum_row` and `sum_pairs` tables and
every simple-root support from its `supports` table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chevalley import StructureConstants, build_chevalley
from .exactla import DefinitenessClass, hermitian_classify
from .gaussq import QQi, I_POW
from .realform import Conjugation, SatakeDiagram, build_conjugation, find_form
from .rootsys import RootSystem


class SufficiencyViolation(RuntimeError):
    """The chain condition held but the span condition failed: impossible by
    the sufficiency theorem, so it signals an implementation bug."""


class FormContext:
    """Immutable bundle of the algebraic data of one catalog real form."""

    def __init__(self, diag: SatakeDiagram, gauge_seed: int | None = None):
        self.diag = diag
        self.rs: RootSystem = diag.root_system()
        sc = build_chevalley(self.rs)
        if gauge_seed is not None:
            sc = sc.sign_gauge(gauge_seed)
        self.sc: StructureConstants = sc
        self.conj: Conjugation = build_conjugation(diag, self.rs, sc)
        self.gauge_seed = gauge_seed
        # one-entry memo of the chain search, see _chain_closure
        self._chain_memo: tuple | None = None

    def c(self, ia: int) -> int:
        return self.conj.c_index[ia]

    def negi(self, ia: int) -> int:
        return self.conj.neg_index[ia]

    def summed(self, ia: int, ib: int):
        return self.rs.sum_row[ia].get(ib)


_CTX_CACHE: dict = {}


def get_context(name: str, gauge_seed: int | None = None,
                max_rank: int = 8) -> FormContext:
    key = (name, gauge_seed, max_rank)
    if key not in _CTX_CACHE:
        _CTX_CACHE[key] = FormContext(find_form(name, max_rank), gauge_seed)
    return _CTX_CACHE[key]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParabolicData:
    phi: frozenset          # 1-based simple indices
    Q: frozenset            # root indices
    Qn: frozenset
    Qr: frozenset
    Qbar: frozenset


def parabolic(ctx: FormContext, phi) -> ParabolicData:
    phi = frozenset(phi)
    rs = ctx.rs
    if not phi <= set(range(1, rs.rank + 1)):
        raise ValueError(f"phi {sorted(phi)} outside the simple basis")
    Q, Qn, Qr = set(), set(), set()
    for ia, (r, supp) in enumerate(zip(rs.roots, rs.supports)):
        meets = not supp.isdisjoint(phi)
        if sum(r) > 0:
            Q.add(ia)
            (Qn if meets else Qr).add(ia)
        else:
            if not meets:
                Q.add(ia)
                Qr.add(ia)
    Qbar = {ctx.c(ia) for ia in Q}
    return ParabolicData(phi, frozenset(Q), frozenset(Qn), frozenset(Qr),
                         frozenset(Qbar))


def characteristic_real_roots(ctx: FormContext, pd: ParabolicData) -> list[int]:
    """Positive real roots in Qn (automatically in conj(Qn))."""
    out = [ia for ia in sorted(pd.Qn) if ctx.c(ia) == ia]
    return out


# -- Levi matrices -----------------------------------------------------------


def _entry(ctx: FormContext, x: int, y: int, kpair: Fraction) -> QQi:
    # i * t_y * N(x, c(y)) * kappa(Z_g, Z_-g)
    nval = ctx.sc.n(x, ctx.c(y))
    return QQi(0, 1) * I_POW[ctx.conj.t_exp[y]] * nval * kpair


def levi_matrix(ctx: FormContext, pd: ParabolicData, gamma: int,
                mirrored: bool = False):
    """Hermitian Levi matrix of the real characteristic root `gamma`.

    Default convention: rows and columns indexed by conj(Q) \\ Q, entry at
    (x, y) iff x + conj(y) = -gamma.  The mirrored convention indexes
    Q \\ conj(Q) (the same covector, presented on the parabolic side); the
    two matrices are unitarily congruent and must classify identically.
    Returns (index list, matrix).
    """
    if ctx.c(gamma) != gamma:
        raise ValueError("levi_matrix needs a real root")
    if gamma not in pd.Qn:
        raise ValueError("levi_matrix needs a characteristic root")
    if mirrored:
        index = sorted(pd.Q - pd.Qbar)
    else:
        index = sorted(pd.Qbar - pd.Q)
    target = ctx.negi(gamma)
    kpair = ctx.sc.killing_z_pair(gamma)
    pos = {ia: k for k, ia in enumerate(index)}
    n = len(index)
    m = [[QQi(0)] * n for _ in range(n)]
    for x, rest in ctx.rs.sum_pairs[target]:
        if x in pos:
            y = ctx.c(rest)
            if y in pos:
                m[pos[x]][pos[y]] = _entry(ctx, x, y, kpair)
    return index, m


def q_form(ctx: FormContext, pd: ParabolicData, target: int):
    """Levi form on the parabolic subalgebra itself: rows and columns over Q,
    entry at (x, y) iff x + conj(y) = target (a real root, either sign).
    Support-restricted; used for the kernel-set test.  The pairs of
    `target` come sorted by x, so rows keep the order of sorted(Q)."""
    rows = []
    for x, rest in ctx.rs.sum_pairs[target]:
        if x in pd.Q:
            y = ctx.c(rest)
            if y in pd.Q:
                rows.append((x, y))
    index = sorted({x for x, _ in rows} | {y for _, y in rows})
    pos = {ia: k for k, ia in enumerate(index)}
    kpair = ctx.sc.killing_z_pair(target)
    n = len(index)
    m = [[QQi(0)] * n for _ in range(n)]
    for x, y in rows:
        m[pos[x]][pos[y]] = _entry(ctx, x, y, kpair)
    return index, m


def structural_category(m) -> str:
    """The proof partition of Hermitian shapes by entry pattern."""
    n = len(m)
    diag = any(m[i][i] for i in range(n))
    off = any(m[i][j] for i in range(n) for j in range(n) if i != j)
    if not diag:
        return "zero-diagonal"
    if not off:
        cls = hermitian_classify(m)
        return "diagonal-semidefinite" if cls.is_semidefinite() else \
            "diagonal-indefinite"
    return "mixed"


def classify_levi(m) -> tuple[DefinitenessClass, str]:
    return hermitian_classify(m), structural_category(m)


# -- kernel set, finite type, reachability -----------------------------------


def k_phi(ctx: FormContext, pd: ParabolicData) -> frozenset:
    """Roots a in Q with Z_a in the common kernel of all semidefinite
    characteristic Levi forms: a + conj(a) not a root (imaginary counts as
    not a root), or -(a + conj(a)) outside Q, or the form at a + conj(a)
    indefinite."""
    rs = ctx.rs
    cls_cache: dict[int, DefinitenessClass] = {}

    def form_class(target: int) -> DefinitenessClass:
        if target not in cls_cache:
            _, m = q_form(ctx, pd, target)
            cls_cache[target] = hermitian_classify(m)
        return cls_cache[target]

    out = set()
    for a in pd.Q:
        ca = ctx.c(a)
        beta = ctx.summed(a, ca)
        if beta is None:
            out.add(a)
            continue
        if ctx.negi(beta) not in pd.Q:
            out.add(a)
            continue
        if form_class(beta) is DefinitenessClass.INDEFINITE:
            out.add(a)
    return frozenset(out)


def finite_type(ctx: FormContext, pd: ParabolicData) -> bool:
    """Root-addition closure of Q u conj(Q) covers all roots; stands in for
    the iterated-bracket finite type condition.

    Every root of the final set s passes through exactly one frontier, and
    both roots of a pair are in s before the later one's frontier is walked,
    so every pair of s is tried and s is closed; it only ever gains sums of
    its own roots, so it is the closure.  Walking the sum row of a root
    instead of all of s therefore gives the same set."""
    s = set(pd.Q) | set(pd.Qbar)
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


def root_closure(ctx: FormContext, start, moves) -> tuple[dict, list[int]]:
    """Breadth-first closure of the root set `start` under adding `moves`,
    staying inside the root set.

    The first frontier is sorted(start); each round walks its frontier in
    discovery order, tries the moves in sorted order at each root, and gives
    every new root the parent (root, move) that first reaches it.  Rounds
    run until one adds nothing.  Returns the parent map (start roots map to
    (None, None)) and sizes, where sizes[h] is the number of roots reached
    after round h (sizes[0] = |start|, the last entry repeats)."""
    moves = sorted(moves)
    frontier = sorted(start)
    parent: dict[int, tuple] = {a: (None, None) for a in frontier}
    sizes = [len(parent)]
    rows = ctx.rs.sum_row
    while frontier:
        nxt = []
        for cur in frontier:
            row = rows[cur]
            for mv in moves:
                t = row.get(mv)
                if t is not None and t not in parent:
                    parent[t] = (cur, mv)
                    nxt.append(t)
        frontier = nxt
        sizes.append(len(parent))
    return parent, sizes


def _chain_closure(ctx: FormContext, pd: ParabolicData, kphi) -> tuple:
    """The chain-search data of one cross set, from a one-entry memo on the
    context: (key, parent map of the closure of conj(Q) under K u conj(K),
    [(j, minimum of coordinate j over conj(Q))] for every coordinate j on
    which no move is negative)."""
    memo = ctx._chain_memo
    if memo is None or memo[0] != (pd, kphi):
        roots = ctx.rs.roots
        moves = set(kphi) | {ctx.c(a) for a in kphi}
        parent, _ = root_closure(ctx, pd.Qbar, moves)
        bounds = [(j, min(roots[a][j] for a in pd.Qbar))
                  for j in range(ctx.rs.rank)
                  if all(roots[mv][j] >= 0 for mv in moves)]
        memo = ctx._chain_memo = ((pd, frozenset(kphi)), parent, bounds)
    return memo


def hlc_reachability(ctx: FormContext, pd: ParabolicData, kphi: frozenset,
                     gamma: int, toward_minus: bool = True) -> dict:
    """Breadth-first chain search: start at any root of conj(Q), repeatedly
    add elements of K u conj(K) staying inside the root set, reach -gamma
    (or +gamma).  Returns reached flag plus witness chain or a failure
    certificate.

    Every search of one cross set has the same start and moves, so the
    first call for (pd, kphi) runs one full `root_closure` and later calls
    only look up their target.  The answers equal those of a per-target
    search that stops once a round has reached its target:
    - that search checks its stop only between rounds and walks frontiers
      and moves in the same order as the full search, so every root it
      discovers gets the same parent, and every witness chain is the same;
    - an unreached target means that search ran to exhaustion, so its
      `reachable_count` is the size of the full closure;
    - a coefficient bound depends only on moves, start and target."""
    rs = ctx.rs
    target = ctx.negi(gamma) if toward_minus else gamma
    _, parent, bounds = _chain_closure(ctx, pd, kphi)
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
    for j, lo in bounds:
        if tgt[j] < lo:
            return {"reached": False,
                    "certificate": {"kind": "coefficient-bound",
                                    "coordinate": j + 1,
                                    "start_minimum": lo,
                                    "target_coefficient": tgt[j]}}
    return {"reached": False,
            "certificate": {"kind": "closure-exhausted",
                            "reachable_count": len(parent)}}


def verify_no_triples(ctx: FormContext) -> int:
    """Exhaustive scan for triples (a, b, g) with a+conj(a), b+conj(b),
    g+conj(g) all roots, a+conj(a) != b+conj(b), a+conj(b) = g+conj(g).
    Must return 0."""
    rs = ctx.rs
    B = [a for a in range(len(rs.roots)) if ctx.summed(a, ctx.c(a)) is not None]
    bar_sums = {}
    for g in B:
        bar_sums.setdefault(ctx.summed(g, ctx.c(g)), []).append(g)
    count = 0
    for a in B:
        sa = ctx.summed(a, ctx.c(a))
        for b in B:
            if ctx.summed(b, ctx.c(b)) == sa:
                continue
            t = ctx.summed(a, ctx.c(b))
            if t is not None and t in bar_sums:
                count += len(bar_sums[t])
    return count


# -- the span decision in the real form --------------------------------------


def t_module_span(ctx: FormContext, pd: ParabolicData,
                  kphi: frozenset) -> tuple[bool, list[int]]:
    """Decide whether the iterated bracket module of the kernel directions
    acting on the real parts of the parabolic spans the whole real form.

    The real module: generators G are the real-form elements Z + sigma(Z)
    and i(Z - sigma(Z)) for Z in the Cartan h and Z = Z_m, m in K_Phi; the
    start space T(0) is the same construction over h and Z_b, b in Q, and
    T(h) = T(h-1) + [G, T(h-1)].  It is decided by a root-set closure:
    S_0 = Q u c(Q) and S_h = S_{h-1} u ((S_{h-1} + M) n roots), with moves
    M = K_Phi u c(K_Phi), in breadth-first rounds.

    Proof that T(h) has real dimension rank + |S_h|.  Write Z_S for the span
    of Z_b, b in S.  Since sigma(Z_b) is a multiple of Z_{c(b)} and h is
    sigma-stable, G and T(0) complexify to h + Z_M and h + Z_{S_0}, and the
    complexification of T(h) is T(h-1)_C + [h + Z_M, T(h-1)_C].  By
    induction T(h)_C = h + Z_{S_h}: [h, h] = 0, [h, Z_b] lies in Z_b,
    [Z_m, h] lies in Z_m with M inside S_0, [Z_m, Z_{-m}] lies in h, and
    for m + b a root [Z_m, Z_b] = N(m, b) Z_{m+b} with N(m, b) = +-(p + 1)
    never zero (Humphreys, section 25), so every root m + b joins the
    module and no other root does.  A real subspace and its
    complexification have the same dimension, so dim T(h) = rank + |S_h|.
    Hence the verdict (S reaches every root) and every entry of
    `span_dims` coincide with the exact linear algebra, which the tests
    keep as a differential oracle.  The rounds stop as the exact iteration
    does: when a round adds nothing or the module is full, so `span_dims`
    is the `root_closure` sizes cut just after the first full entry."""
    full = len(ctx.rs.roots)
    moves = set(kphi) | {ctx.c(a) for a in kphi}
    _, sizes = root_closure(ctx, pd.Q | pd.Qbar, moves)
    if full in sizes:
        sizes = sizes[:sizes.index(full) + 1]
    rk = ctx.rs.rank
    return sizes[-1] == full, [rk + k for k in sizes]


# -- full pipeline ------------------------------------------------------------


@dataclass
class ConcavityVerdict:
    form: str
    phi: tuple
    finite_type: bool
    gammas: list            # (root, class name, structural category)
    k_phi: list             # root coefficient vectors
    mot_satisfied: bool
    mot_details: list       # per semidefinite gamma, both directions
    span_satisfied: bool
    span_dims: list
    verdict: bool
    annotation: str = ""
    gauge_seed: int | None = None

    def to_doc(self) -> dict:
        return {
            "form": self.form,
            "phi": sorted(self.phi),
            "finite_type": self.finite_type,
            "gammas": [{"root": g, "class": c, "category": cat}
                       for g, c, cat in self.gammas],
            "k_phi": self.k_phi,
            "mot_satisfied": self.mot_satisfied,
            "mot_details": self.mot_details,
            "span_satisfied": self.span_satisfied,
            "span_dims": self.span_dims,
            "verdict": self.verdict,
            "annotation": self.annotation,
            "gauge_seed": self.gauge_seed,
        }


def concavity_verdict(form: str, phi, gauge_seed: int | None = None,
                      check: str = "all", max_rank: int = 8) -> ConcavityVerdict:
    ctx = get_context(form, gauge_seed, max_rank)
    rs = ctx.rs
    pd = parabolic(ctx, phi)
    ft = finite_type(ctx, pd)
    kphi = k_phi(ctx, pd)

    gammas = []
    semidef = []
    for g in characteristic_real_roots(ctx, pd):
        _, m = levi_matrix(ctx, pd, g)
        cls, cat = classify_levi(m)
        gammas.append((list(rs.roots[g]), cls.value, cat))
        if cls.is_semidefinite():
            semidef.append(g)

    mot_details = []
    mot = True
    if check in ("mot", "all"):
        for g in semidef:
            res_minus = hlc_reachability(ctx, pd, kphi, g, toward_minus=True)
            res_plus = hlc_reachability(ctx, pd, kphi, g, toward_minus=False)
            mot_details.append({"kind": "real", "gamma": list(rs.roots[g]),
                                "toward_minus": res_minus,
                                "toward_plus": res_plus})
            if not res_minus["reached"]:
                mot = False
        # complex characteristic pairs whose Levi form vanishes identically
        # still span semidefinite (zero) covector directions; a chain must
        # reach one of the two conjugate targets for each such pair
        seen_pairs = set()
        for b in sorted(pd.Qn):
            cb = ctx.c(b)
            if cb == b or cb == ctx.negi(b) or b in seen_pairs:
                continue
            if cb not in pd.Qn:
                continue
            seen_pairs.add(b)
            seen_pairs.add(cb)
            _, mform = q_form(ctx, pd, ctx.negi(b))
            if any(x for row in mform for x in row):
                continue
            res_b = hlc_reachability(ctx, pd, kphi, b, toward_minus=True)
            res_cb = hlc_reachability(ctx, pd, kphi, cb, toward_minus=True)
            mot_details.append({"kind": "complex-zero-pair",
                                "beta": list(rs.roots[b]),
                                "toward_minus_beta": res_b,
                                "toward_minus_conj_beta": res_cb})
            if not (res_b["reached"] or res_cb["reached"]):
                mot = False
    else:
        mot = False

    span, dims = (True, [])
    if check in ("span", "all"):
        span, dims = t_module_span(ctx, pd, kphi)
    if check == "all" and mot and not span:
        raise SufficiencyViolation(f"{form} phi={sorted(set(phi))}: chain "
                                   f"condition held but span failed")

    authority = span if check in ("span", "all") else mot
    annotation = "orbit is a point (elliptic, empty cross set)" if not phi else ""
    return ConcavityVerdict(
        form=form,
        phi=tuple(sorted(set(phi))),
        finite_type=ft,
        gammas=gammas,
        k_phi=[list(rs.roots[a]) for a in sorted(kphi)],
        mot_satisfied=mot if check in ("mot", "all") else False,
        mot_details=mot_details,
        span_satisfied=span if check in ("span", "all") else False,
        span_dims=dims,
        verdict=ft and authority,
        annotation=annotation,
        gauge_seed=gauge_seed,
    )
