"""Core decision machinery for minimal orbits: parabolic root data Q_Phi,
characteristic real roots, exact Levi forms, the common kernel set K_Phi,
finite type, the root-chain sufficient condition, and the authoritative
span decision in the real form.  One root-set closure, `root_closure`, runs
at most once per cross set: the chain search reads its parent map, and the
span, which equals the iterated bracket module, is read from the same
closure and its conjugate (see `t_module_span`).  Finite type needs no
closure: by the theorem on closed root sets that contain every positive
root it is read from simple-root supports (see `finite_type`).  Every root
sum comes from the root system's `sum_row` and `sum_pairs` tables.  A Levi
form is read from the root involution: its Gaussian-integer entries come
from the pair lists, the conjugation and the Chevalley constants, and
`classify_levi` decides its class and category from their positions and
signs, with no Killing value, no dense matrix and no elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chevalley import StructureConstants, build_chevalley
# hermitian_classify is not called here, but perfbench/tracing.py wraps
# crflag.hermitian_classify by name, so it stays a module attribute
from .exactla import DefinitenessClass, hermitian_classify  # noqa: F401
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
        return self.rs.neg_index[ia]

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
    """Q holds every positive root and the negative roots whose support
    misses phi; Qn is the positive roots whose support meets phi, Qr the
    rest of Q.  The sign is read from the root index (negatives come
    first) and the support from `support_masks`."""
    phi = frozenset(phi)
    rs = ctx.rs
    if not phi <= set(range(1, rs.rank + 1)):
        raise ValueError(f"phi {sorted(phi)} outside the simple basis")
    pm = sum(1 << (j - 1) for j in phi)
    masks = rs.support_masks
    half = len(masks) // 2
    pos = range(half, len(masks))
    neg_q = [ia for ia in range(half) if not masks[ia] & pm]
    Qn = [ia for ia in pos if masks[ia] & pm]
    pos_r = [ia for ia in pos if not masks[ia] & pm]
    Q = frozenset(neg_q + list(pos))
    cidx = ctx.conj.c_index
    return ParabolicData(phi, Q, frozenset(Qn), frozenset(neg_q + pos_r),
                         frozenset(cidx[ia] for ia in Q))


def characteristic_real_roots(ctx: FormContext, pd: ParabolicData) -> list[int]:
    """Positive real roots in Qn (automatically in conj(Qn))."""
    out = [ia for ia in sorted(pd.Qn) if ctx.c(ia) == ia]
    return out


# -- Levi forms ---------------------------------------------------------------

_I_POW = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i**k as (re, im), k mod 4


def _entries(ctx: FormContext, target: int, rows, cols) -> dict:
    """The Levi form at the root `target`, restricted to rows x in `rows`
    and columns y in `cols`, up to the positive factor of `classify_levi`:
    the map (x, y) -> (re, im) of the Gaussian integers
    A(x, y) = i^(3 + t_y) N(x, c(y)) for x + c(y) = target, where t_y is
    the conjugation's sign exponent; absent positions are zero."""
    nt, cidx, texp = ctx.sc.ntable, ctx.conj.c_index, ctx.conj.t_exp
    out = {}
    for x, rest in ctx.rs.sum_pairs[target]:
        if x in rows:
            y = cidx[rest]
            if y in cols:
                n = nt[(x, rest)]
                re, im = _I_POW[(3 + texp[y]) % 4]
                out[(x, y)] = (re * n, im * n)
    return out


def levi_matrix(ctx: FormContext, pd: ParabolicData, gamma: int,
                mirrored: bool = False):
    """Hermitian Levi form of the real characteristic root `gamma`.

    Default convention: rows and columns indexed by conj(Q) \\ Q, entry at
    (x, y) iff x + conj(y) = -gamma.  The mirrored convention indexes
    Q \\ conj(Q) (the same covector, presented on the parabolic side); the
    two forms are unitarily congruent and must classify identically.
    Returns (index list, entries) as `_entries` gives them.
    """
    if ctx.c(gamma) != gamma:
        raise ValueError("levi_matrix needs a real root")
    if gamma not in pd.Qn:
        raise ValueError("levi_matrix needs a characteristic root")
    side = pd.Q - pd.Qbar if mirrored else pd.Qbar - pd.Q
    return sorted(side), _entries(ctx, ctx.negi(gamma), side, side)


def q_form(ctx: FormContext, pd: ParabolicData, target: int):
    """Levi form on the parabolic subalgebra itself: rows and columns over Q,
    entry at (x, y) iff x + conj(y) = target (a real root, either sign).
    Support-restricted to the roots that carry an entry; used for the
    kernel-set test.  Returns (index list, entries) as `_entries` gives
    them."""
    entries = _entries(ctx, target, pd.Q, pd.Q)
    return sorted({a for pair in entries for a in pair}), entries


def classify_levi(index, entries) -> tuple[DefinitenessClass, str]:
    """Definiteness class and structural category of a Levi form given as
    (index, entries), with integer arithmetic only.

    The category is the proof partition of Hermitian shapes by entry
    pattern: "zero-diagonal", "diagonal-semidefinite",
    "diagonal-indefinite" or "mixed".  Raises ValueError if a row holds
    two entries, an entry is zero or lies outside `index`, or an entry's
    mirror is not its conjugate, and ArithmeticError on a non-real
    diagonal entry.

    Why the entries of `_entries` suffice.  The Levi form of the real form
    at t is L(x, y) = i^(1 + t_y) N(x, c(y)) kappa(Z_t, Z_-t), with t_y the
    conjugation's sign exponent:
    - Scale.  From [Z_t, Z_-t] = -H_t and invariance, kappa(H_t, H_t) =
      -kappa(Z_t, [Z_-t, H_t]) = -2 kappa(Z_t, Z_-t), and kappa(H_t, H_t)
      = sum over roots b of <b, t^>^2 >= 4 (the term b = t), so
      kappa(Z_t, Z_-t) = -1/2 sum_b <b, t^>^2 < 0.  Since -i^(1 + t_y)
      = i^(3 + t_y), L = |kappa| A.  A positive multiple has the same
      inertia and the same zero pattern, so L and A share class and
      category, and no Killing value is needed.
    - Pattern.  A(x, y) != 0 iff x + c(y) = t, because N(x, c(y)) =
      +-(p + 1) never vanishes when x + c(y) is a root (Humphreys, section
      25).  So y = c(t - x) is fixed by x: each row holds at most one
      entry, and as A is Hermitian its pattern is an involution of the
      index.  Reordering rows and columns alike (a congruence) makes A
      block diagonal: a fixed point x = y is a real 1x1 block that adds
      its sign, a 2-cycle is a block [[0, a], [conj(a), 0]] with
      eigenvalues +-|a| that adds one + and one -, and every other row
      is zero.  The form is definite when the signs it adds cover the
      whole index, and semidefinite when they are all of one sign.
    The tests keep the dense Killing-scaled matrices and their
    elimination (`exactla.hermitian_classify`) as a differential oracle."""
    n_plus = n_minus = 0
    diag = off = False
    rows = set()
    for (x, y), (re, im) in entries.items():
        if x in rows:
            raise ValueError(f"two entries in the row of root {x}")
        rows.add(x)
        if not (re or im):
            raise ValueError(f"zero entry at {(x, y)}")
        if x == y:
            if im:
                raise ArithmeticError(f"non-real diagonal entry {(re, im)} "
                                      f"in a Hermitian form")
            diag = True
            if re > 0:
                n_plus += 1
            else:
                n_minus += 1
        elif entries.get((y, x)) != (re, -im):
            raise ValueError(f"entries at {(x, y)} and {(y, x)} are not "
                             f"conjugate")
        else:
            off = True
            if x < y:
                n_plus += 1
                n_minus += 1
    if not rows <= set(index):
        raise ValueError("an entry lies outside the index")
    n = len(index)
    if not rows:
        cls = DefinitenessClass.ZERO
    elif n_plus and n_minus:
        cls = DefinitenessClass.INDEFINITE
    elif n_plus:
        cls = DefinitenessClass.POSITIVE_DEFINITE if n_plus == n else \
            DefinitenessClass.POSITIVE_SEMIDEFINITE_NONZERO
    else:
        cls = DefinitenessClass.NEGATIVE_DEFINITE if n_minus == n else \
            DefinitenessClass.NEGATIVE_SEMIDEFINITE_NONZERO
    if not diag:
        cat = "zero-diagonal"
    elif not off:
        cat = "diagonal-semidefinite" if cls.is_semidefinite() else \
            "diagonal-indefinite"
    else:
        cat = "mixed"
    return cls, cat


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
            cls_cache[target] = classify_levi(*q_form(ctx, pd, target))[0]
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
    """Whether the root-addition closure C of Q u conj(Q) is every root;
    it stands in for the iterated-bracket finite type condition.  Decided
    without a closure: C is every root iff the supports of the negative
    roots of Q u conj(Q) cover every simple index.

    Brackets.  For a + b a root, [Z_a, Z_b] = N(a, b) Z_{a+b} with
    N(a, b) = +-(p + 1) never zero (Humphreys, section 25), [Z_a, Z_-a]
    lies in the Cartan h, and other brackets of root vectors vanish, so the
    subalgebra generated by h and the Z_b, b in Q u conj(Q), is h + the
    span of the Z_t, t in C.

    Proof of the support rule.  Q holds every positive root, so C is a
    closed root set containing R+.  By Bourbaki, Lie VI section 1.7
    Prop. 20, C = R+ u R_J, where R_J is the set of roots in the span of
    the simple roots alpha_j, j in J, and J = {j : -alpha_j in C}.  Let J'
    be the union of the supports of the negative roots of Q u conj(Q).
    - J' <= J: a negative root -b of Q u conj(Q) lies in C, so b lies in
      R_J and its support in J.
    - J <= J': R+ u R_J' holds Q u conj(Q) and is closed (a positive sum
      lies in R+, a sum within R_J' stays in its span, and a negative sum
      a - b of a in R+ and -b in R_J' has coefficients between those of
      -b and 0, so its support lies in J'), so it holds C.
    So C is every root iff J, that is J', is every simple index.  The tests
    keep the closure itself as a differential oracle."""
    masks = ctx.rs.support_masks
    half = len(masks) // 2  # negatives come first
    covered = 0
    for a in pd.Q | pd.Qbar:
        if a < half:
            covered |= masks[a]
    return covered == (1 << ctx.rs.rank) - 1


def root_closure(ctx: FormContext, start, moves) -> tuple[dict, list[int]]:
    """Breadth-first closure of the root set `start` under adding `moves`,
    staying inside the root set.

    The first frontier is sorted(start); each round walks its frontier in
    discovery order, tries the moves in sorted order at each root, and gives
    every new root the parent (root, move) that first reaches it.  Rounds
    run until one adds nothing.  Returns the parent map (start roots map to
    (None, None)) and sizes, where sizes[h] is the number of roots reached
    after round h (sizes[0] = |start|, the last entry repeats).

    A root's moves are tried by walking its `sum_row`, which lists every b
    with cur + b a root in ascending b, and keeping the b that are moves:
    that visits the moves m with cur + m a root in ascending order, the
    same sequence as trying every move in sorted order and skipping the
    ones without a sum.  So the order, the parent map and the sizes are
    those of the move-by-move walk, at a cost of one row per root instead
    of one lookup per move."""
    moves = frozenset(moves)
    frontier = sorted(start)
    parent: dict[int, tuple] = {a: (None, None) for a in frontier}
    sizes = [len(parent)]
    rows = ctx.rs.sum_row
    while frontier:
        nxt = []
        for cur in frontier:
            for mv, t in rows[cur].items():
                if mv in moves and t not in parent:
                    parent[t] = (cur, mv)
                    nxt.append(t)
        frontier = nxt
        sizes.append(len(parent))
    return parent, sizes


def _chain_closure(ctx: FormContext, pd: ParabolicData, kphi) -> tuple:
    """The closure data of one cross set, shared by the chain search and
    the span, from a one-entry memo on the context: (key, parent map and
    sizes of the `root_closure` of conj(Q) under K u conj(K),
    [(j, minimum of coordinate j over conj(Q))] for every coordinate j on
    which no move is negative)."""
    memo = ctx._chain_memo
    if memo is None or memo[0] != (pd, kphi):
        roots = ctx.rs.roots
        moves = set(kphi) | {ctx.c(a) for a in kphi}
        parent, sizes = root_closure(ctx, pd.Qbar, moves)
        bounds = [(j, min(roots[a][j] for a in pd.Qbar))
                  for j in range(ctx.rs.rank)
                  if all(roots[mv][j] >= 0 for mv in moves)]
        memo = ctx._chain_memo = ((pd, frozenset(kphi)), parent, sizes,
                                  bounds)
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
    _, parent, _, bounds = _chain_closure(ctx, pd, kphi)
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
    does: when a round adds nothing or the module is full.

    Proof that S_h = P_h u c(P_h), where P_h is the set of roots that the
    chain closure P of c(Q) under M (`_chain_closure`) reaches in at most
    h rounds.  A closure under adding moves is a union over its start
    roots: a root lies within h rounds of A u B iff it lies within h rounds
    of A or of B.  And c is additive, permutes the roots and has c(M) = M,
    so it carries a chain q, q + m_1, ... from Q onto the chain c(q),
    c(q) + c(m_1), ... from c(Q), with the same length, and back.  So a
    root is within h rounds of Q iff its conjugate lies in P_h, and S_h =
    P_h u c(P_h).  The parent map lists P in discovery order and its sizes
    mark the rounds, so the span reuses the chain search's closure."""
    full = len(ctx.rs.roots)
    _, parent, sizes, _ = _chain_closure(ctx, pd, kphi)
    order, cidx = list(parent), ctx.conj.c_index
    reached, dims, done = set(), [], 0
    for n in sizes:
        for a in order[done:n]:
            reached.add(a)
            reached.add(cidx[a])
        done = n
        dims.append(ctx.rs.rank + len(reached))
        if len(reached) == full or (len(dims) > 1 and dims[-2] == dims[-1]):
            break
    return len(reached) == full, dims


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
        cls, cat = classify_levi(*levi_matrix(ctx, pd, g))
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
            if q_form(ctx, pd, ctx.negi(b))[1]:
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
