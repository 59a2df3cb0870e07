"""Core decision machinery for minimal orbits: parabolic root data Q_Phi,
characteristic real roots, exact Levi forms, the common kernel set K_Phi,
finite type, the root-chain sufficient condition, and the authoritative
span decision in the real form.  The chain data of a cross set is a value,
`Chains`, that the row builds once and passes to its chain decisions and
its span.  One root-set closure, `root_closure`, runs at most once per
`Chains`, and only when something reads it: the span, which equals the
iterated bracket module, is read from the closure and its conjugate, or
holds by theorem with no closure when Q u c(Q) is every root (see
`t_module_span`), and a chain decision reads it only for a target that no
coefficient bound excludes (see `Chains.bound`, tested first).  Finite
type needs no closure: by the theorem on closed root sets that contain
every positive root it is read from simple-root supports (see
`finite_type`).  Theorems give the rows of a complex-type form and of a
compact form with no context or closure at all (see `complex_type_verdict`
and `compact_verdict`).  Every root sum comes from the root system's
`sum_row` and `sum_pairs` tables.  A Levi form is read from the root
involution: its Gaussian-integer entries come from the pair lists, the
conjugation and the Chevalley constants, and one pass over them
(`LeviPattern`) checks the invariants of `classify_levi` and keeps the
positions and signs from which the class and category follow, with no
Killing value, no dense matrix and no elimination.

Every root set of a cross set is an integer mask, bit a standing for the
root with index a: Q, Qn and conj(Q), the kernel set, the chain moves and
every table set, and so is the cross set itself, bit j - 1 for the simple
index j (`phi_mask`).  The data that no cross set changes are tables of
the `FormContext`, built with it in one pass: per simple index, the
negative roots whose support holds it, their conjugates and the positive
roots whose support holds it; the roots a with a + c(a) a root, grouped by
that sum; the positive real roots; the complex positive pairs; and the
roots grouped by the value of each coordinate.  The per-cross-set phases
(`parabolic`, `finite_type`, `k_phi`, the Levi side, the complex zero
pairs and the chain moves and bounds) are OR, AND and AND-NOT of masks and
bit counts, with no loop over the roots; the tests keep the per-root loops
as differential oracles.  The document path and the tests read the roots
of a mask through `indices`, in ascending order.  The closure alone keeps
Python sets: `root_closure` turns its start and moves into a list and a
set once per call.

Two tables fill lazily.  The Levi pattern of a real root t (`LeviPattern`)
is the entry pattern of its Levi form over every root, built and checked
once per context and t; a cross set then reads the class and category of
the form on any side S from counts of the pattern's sets in S
(`levi_class`), with no entry rebuilt.  A pattern that passes its
invariants passes them on every restriction to S x S, so no check is lost
(see `LeviPattern`).  The row labels "<coefficients>:<class>", formatted
by `levi_label` (which `cli` shares for the rows of a document), are
memoised per (root, class), for the roots that a row prints.

Two paths share these pieces, and both take a context, a cross set and a
check mode, `(ctx, phi, check)`; `get_context` is the one entry point that
looks a form up by name.  `concavity_verdict` takes phi as simple indices
and returns the full verdict document of one cross set as a plain dict,
with witness chains, certificates, the kernel set and the span
dimensions.  `verdict_fields` takes phi as a mask and computes only the
report fields of a row, as a tuple: it stops the chain condition at the
first failed target and keeps only the span verdict, with the same checks
on the way.
"""

from __future__ import annotations

from collections import namedtuple

from .chevalley import StructureConstants, build_chevalley
# hermitian_classify is not called here, but perfbench/tracing.py wraps
# crflag.hermitian_classify by name, so it stays a module attribute
from .exactla import DefinitenessClass, hermitian_classify  # noqa: F401
from .realform import Conjugation, SatakeDiagram, build_conjugation, find_form
from .rootsys import RootSystem


def indices(mask: int) -> list[int]:
    """The root indices of the root set `mask` (bit a for the root with
    index a), in ascending order.  A sparse mask is read one set bit per
    step (the lowest, mask & -mask), a dense one from its binary digits,
    lowest first, which is cheaper once a third of the bits are set."""
    if mask.bit_count() * 3 <= mask.bit_length():
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out
    return [a for a, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def _mask(roots) -> int:
    """The mask of the root indices `roots`."""
    out = 0
    for a in roots:
        out |= 1 << a
    return out


class SufficiencyViolation(RuntimeError):
    """The chain condition held but the span condition failed: impossible by
    the sufficiency theorem, so it signals an implementation bug."""


class LeviInvariantError(RuntimeError):
    """A Levi pattern of a built context broke an invariant of
    `classify_levi`.  The conjugation battery and the sign solve have
    validated the context by then, so this signals an implementation bug,
    not a data error."""


class FormContext:
    """The algebraic data of one catalog real form and the tables that no
    cross set changes, all fixed once built, so that each per-cross-set
    phase is a few mask operations over them instead of a loop over the
    roots.  Every root set is a mask, bit a for the root with index a.
    Simple indices j are 0-based here.
    - every_root: every root.
    - neg[j]: the negative roots whose support holds j; conj_neg[j]: their
      conjugates; pos[j]: the positive roots whose support holds j.
    - conj_sums: (beta, -beta, A) for each root beta = a + c(a), with A the
      roots a of that sum, in order of the smallest a of each A.  A holds
      c(a) with a, as c(a) + c(c(a)) = a + c(a).
    - positive_real: the positive roots a with c(a) = a.
    - complex_pairs: (b, c(b), {b, c(b)}) for each positive root b with
      c(b) > b (so c(b) is positive too), in ascending b.
    - levels[j]: (v, the roots whose coordinate j is v) for each value v
      of coordinate j, in ascending v; `Chains` reads the minimum of
      coordinate j over a set as the first level that meets it.
    Filled on first use:
    - levi: the `LeviPattern` of each real root read so far (`levi_class`),
      whose counts give the class of its Levi form on any side, with the
      invariants checked once on the whole pattern (proofs at
      `LeviPattern`).
    - labels: the report label "<coefficients>:<class>" of each (root,
      class) printed so far (`verdict_fields`)."""

    def __init__(self, diag: SatakeDiagram, gauge_seed: int | None = None):
        self.diag = diag
        self.rs: RootSystem = diag.root_system()
        rs = self.rs
        sc = build_chevalley(rs)
        if gauge_seed is not None:
            sc = sc.sign_gauge(gauge_seed)
        self.sc: StructureConstants = sc
        self.conj: Conjugation = build_conjugation(diag, rs, sc)
        self.gauge_seed = gauge_seed
        cidx, n, masks = self.conj.c_index, len(rs.roots), rs.support_masks
        half = n // 2  # negatives come first
        self.every_root = (1 << n) - 1
        bits = [1 << j for j in range(rs.rank)]
        self.neg = tuple(_mask(a for a in range(half) if masks[a] & bit)
                         for bit in bits)
        self.conj_neg = tuple(_mask(cidx[a] for a in range(half)
                                    if masks[a] & bit) for bit in bits)
        self.pos = tuple(_mask(a for a in range(half, n) if masks[a] & bit)
                         for bit in bits)
        sources: dict[int, int] = {}
        for a, row in enumerate(rs.sum_row):
            beta = row.get(cidx[a])
            if beta is not None:
                sources[beta] = sources.get(beta, 0) | 1 << a
        self.conj_sums = tuple((beta, rs.neg_index[beta], group)
                               for beta, group in sources.items())
        self.positive_real = _mask(a for a in range(half, n)
                                   if cidx[a] == a)
        self.complex_pairs = tuple((b, cidx[b], 1 << b | 1 << cidx[b])
                                   for b in range(half, n) if cidx[b] > b)
        levels = []
        for col in zip(*rs.roots):
            parts: dict[int, int] = {}
            for a, v in enumerate(col):
                parts[v] = parts.get(v, 0) | 1 << a
            levels.append(tuple((v, parts[v]) for v in sorted(parts)))
        self.levels = tuple(levels)
        self.levi: dict[int, LeviPattern] = {}
        self.labels: dict[tuple, str] = {}

    def c(self, ia: int) -> int:
        return self.conj.c_index[ia]

    def negi(self, ia: int) -> int:
        return self.rs.neg_index[ia]


_CTX_CACHE: dict = {}


def get_context(name: str, gauge_seed: int | None = None,
                max_rank: int = 8) -> FormContext:
    key = (name, gauge_seed, max_rank)
    if key not in _CTX_CACHE:
        _CTX_CACHE[key] = FormContext(find_form(name, max_rank), gauge_seed)
    return _CTX_CACHE[key]


# ---------------------------------------------------------------------------


def phi_mask(phi) -> int:
    """The mask of a cross set given as 1-based simple indices: bit j - 1
    for the simple index j."""
    return _mask(j - 1 for j in phi)


def phi_indices(phi: int) -> list[int]:
    """The 1-based simple indices of the cross set mask `phi`, ascending."""
    return [a + 1 for a in indices(phi)]


class ParabolicData(namedtuple("ParabolicData", "phi Q Qn Qbar")):
    """The root sets of a cross set phi (a mask, bit j - 1 for the simple
    index j) as masks, bit a for the root with index a: Q, Qn and
    Qbar = conj(Q).  An immutable value, equal and hashed by its fields."""
    __slots__ = ()


def parabolic(ctx: FormContext, phi: int) -> ParabolicData:
    """Q holds every positive root and the negative roots whose support
    misses phi; Qn is the positive roots whose support meets phi, a mask
    with bit j - 1 for the simple index j.  From the tables: Q is every
    root but the union of neg[j] over the set bits j of phi, Qn the union
    of pos[j], and conj(Q) every root but the union of conj_neg[j],
    because c is a bijection of the roots, so it carries the complement of
    a union of sets to the complement of the union of their images."""
    if phi < 0 or phi >> ctx.rs.rank:
        raise ValueError(f"cross set mask {phi:#b} outside the simple basis "
                         f"of rank {ctx.rs.rank}")
    negs = pos = conj_negs = 0
    j, rest = 0, phi
    while rest:
        if rest & 1:
            negs |= ctx.neg[j]
            pos |= ctx.pos[j]
            conj_negs |= ctx.conj_neg[j]
        j += 1
        rest >>= 1
    every = ctx.every_root
    return ParabolicData(phi, every & ~negs, pos, every & ~conj_negs)


def characteristic_real_roots(ctx: FormContext, pd: ParabolicData) -> list[int]:
    """Positive real roots in Qn (automatically in conj(Qn)), ascending."""
    return indices(pd.Qn & ctx.positive_real)


# -- Levi forms ---------------------------------------------------------------

_I_POW = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i**k as (re, im), k mod 4


def _entries(ctx: FormContext, target: int, rows, cols) -> dict:
    """The Levi form at the root `target`, restricted to rows x in the mask
    `rows` and columns y in the mask `cols`, up to the positive factor of
    `classify_levi`:
    the map (x, y) -> (re, im) of the Gaussian integers
    A(x, y) = i^(3 + t_y) N(x, c(y)) for x + c(y) = target, where t_y is
    the conjugation's sign exponent; absent positions are zero."""
    nt, cidx, texp = ctx.sc.ntable, ctx.conj.c_index, ctx.conj.t_exp
    out = {}
    for x, rest in ctx.rs.sum_pairs[target]:
        if rows >> x & 1:
            y = cidx[rest]
            if cols >> y & 1:
                n = nt[(x, rest)]
                re, im = _I_POW[(3 + texp[y]) % 4]
                out[(x, y)] = (re * n, im * n)
    return out


def levi_matrix(ctx: FormContext, pd: ParabolicData, gamma: int):
    """Hermitian Levi form of the real characteristic root `gamma`: rows
    and columns indexed by conj(Q) \\ Q, entry at (x, y) iff x + conj(y) =
    -gamma.  Returns (index list, entries) as `_entries` gives them."""
    if ctx.c(gamma) != gamma:
        raise ValueError("levi_matrix needs a real root")
    if not pd.Qn >> gamma & 1:
        raise ValueError("levi_matrix needs a characteristic root")
    side = pd.Qbar & ~pd.Q
    return indices(side), _entries(ctx, ctx.negi(gamma), side, side)


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
    (index, entries), with integer arithmetic only.  The index may be any
    collection of distinct roots.

    The category is the proof partition of Hermitian shapes by entry
    pattern: "zero-diagonal", "diagonal-semidefinite",
    "diagonal-indefinite" or "mixed".  Raises ValueError if a row holds
    two entries, an entry is zero or lies outside `index`, or an entry's
    mirror is not its conjugate, and ArithmeticError on a non-real
    diagonal entry.  The entries are read in one pass, by `LeviPattern`,
    which raises every error but the index check; the class and category
    are the pattern's on the whole index, which keeps every entry.

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
    elimination (`exactla.hermitian_classify`) as a differential oracle,
    and the loop that counts the signs block by block as a reference."""
    side = _mask(index)
    pattern = LeviPattern(entries)
    if pattern.rows & ~side:
        raise ValueError("an entry lies outside the index")
    return pattern.classify(side)


def _class_and_category(n_plus: int, n_minus: int, n: int, diag: bool,
                        off: bool) -> tuple[DefinitenessClass, str]:
    """The rules of `classify_levi`: n_plus and n_minus count the signs that
    the blocks add, n is the size of the index, and diag and off tell
    whether a diagonal or an off-diagonal entry is present.  Every entry
    adds a sign (a diagonal entry its own, a pair one of each), so n_plus
    = n_minus = 0 exactly when the form has no entry, the zero form."""
    if not (n_plus or n_minus):
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


_ZERO_FORM = (DefinitenessClass.ZERO, "zero-diagonal")


class LeviPattern:
    """The entry pattern of a Levi form given as an entry map (x, y) ->
    (re, im), as `_entries` gives it, read in one pass that checks the
    invariants of `classify_levi` and raises its errors, all but the index
    check.  The pattern is kept as masks:
    - rows: the roots x whose row holds an entry;
    - plus, minus: the x whose diagonal entry is positive, negative;
    - pairs: the mask {x, y} of each off-diagonal position (x, y), x < y.

    `classify` reads the form restricted to S x S, for a side S of roots
    given as a mask, from bit counts: its class and category are those of
    `classify_levi(indices(S), the entries at positions in S x S)`.

    Proof that the restriction passes the invariants.  Restricting keeps
    the entries (x, y) with x and y in S.  Each kept row still holds at
    most one entry and each kept entry is nonzero, and a kept diagonal
    entry is real, as in the full pattern.  A kept (x, y) has its mirror
    (y, x) in the full pattern, with the conjugate value, and as y and x
    are in S that mirror is kept too.  Every kept row lies in S, the
    index.  So checking the invariants once on the full pattern is
    stronger than checking them on every restriction.

    Proof of the counts.  By the block form of `classify_levi`, the kept
    diagonal entries are those at x in plus or minus with x in S, and each
    adds its sign; the kept off-diagonal blocks are the pairs with both x
    and y in S, and each adds one + and one -.  So n_plus = |plus n S| + k
    and n_minus = |minus n S| + k, k the number of kept pairs, and
    `_class_and_category` gives the class and category from these, |S|
    and whether a diagonal or a pair is kept.  When rows misses S nothing
    is kept, and the form is the zero form with category "zero-diagonal".

    Proof that only whether a pair is kept matters.  With k >= 1 both
    n_plus and n_minus are >= 1, so the class is indefinite for every such
    k, and the category reads only whether a diagonal entry is kept
    ("mixed" or "zero-diagonal"), as a pair is; with k = 0 the counts are
    those of the diagonal alone.  So `_class_and_category` gives the same
    class and category with k replaced by [k >= 1], and `classify` stops
    at the first kept pair instead of counting them."""

    __slots__ = ("rows", "plus", "minus", "pairs")

    def __init__(self, entries: dict):
        rows = plus = minus = 0
        pairs = []
        for (x, y), (re, im) in entries.items():
            bit = 1 << x
            if rows & bit:
                raise ValueError(f"two entries in the row of root {x}")
            rows |= bit
            if not (re or im):
                raise ValueError(f"zero entry at {(x, y)}")
            if x == y:
                if im:
                    raise ArithmeticError(f"non-real diagonal entry "
                                          f"{(re, im)} in a Hermitian form")
                if re > 0:
                    plus |= bit
                else:
                    minus |= bit
            elif entries.get((y, x)) != (re, -im):
                raise ValueError(f"entries at {(x, y)} and {(y, x)} are not "
                                 f"conjugate")
            elif x < y:
                pairs.append(bit | 1 << y)
        self.rows, self.plus, self.minus = rows, plus, minus
        self.pairs = tuple(pairs)

    def classify(self, side: int) -> tuple[DefinitenessClass, str]:
        if not self.rows & side:
            return _ZERO_FORM
        kept = any(side & pair == pair for pair in self.pairs)
        n_plus = (self.plus & side).bit_count()
        n_minus = (self.minus & side).bit_count()
        return _class_and_category(n_plus + kept, n_minus + kept,
                                   side.bit_count(), bool(n_plus or n_minus),
                                   kept)


def levi_class(ctx: FormContext, target: int,
               side: int) -> tuple[DefinitenessClass, str]:
    """Class and category of the Levi form at the real root `target` on
    the roots of the mask `side`, equal to `classify_levi(indices(side),
    _entries(ctx, target, side, side))`, read from the `LeviPattern` of
    the target's entries over every root, which is built on first use and
    kept in the context's table `levi`.  A pattern that breaks an
    invariant raises `LeviInvariantError`."""
    table = ctx.levi
    pattern = table.get(target)
    if pattern is None:
        every = ctx.every_root
        try:
            pattern = LeviPattern(_entries(ctx, target, every, every))
        except (ValueError, ArithmeticError) as e:
            raise LeviInvariantError(
                f"{ctx.diag.name}, gauge seed {ctx.gauge_seed}: the Levi "
                f"pattern at root {target} breaks an invariant: {e}") from e
        table[target] = pattern
    return pattern.classify(side)


# -- kernel set, finite type, reachability -----------------------------------


def k_phi(ctx: FormContext, pd: ParabolicData) -> int:
    """The mask of the roots a in Q with Z_a in the common kernel of all
    semidefinite
    characteristic Levi forms: a + conj(a) not a root (imaginary counts as
    not a root), or -(a + conj(a)) outside Q, or the form at a + conj(a)
    indefinite.

    So K_Phi is Q less the roots a of Q with beta = a + c(a) a root, -beta
    in Q and the form at beta not indefinite.  The table `conj_sums` lists
    each such beta once with all its roots a, so the form at beta is
    classified once, and only when -beta is in Q and some a is: the
    targets that a loop over the roots of Q classifies.  The form is
    `q_form`'s, on Q; `levi_class` reads it from the pattern of beta with
    side Q.  Its index is Q rather than the roots that carry an entry, a
    choice that moves a form only between definite and semidefinite,
    never into or out of indefinite."""
    Q, drop = pd.Q, 0
    for beta, neg_beta, sources in ctx.conj_sums:
        if Q >> neg_beta & 1 and sources & Q:
            cls = levi_class(ctx, beta, Q)[0]
            if cls is not DefinitenessClass.INDEFINITE:
                drop |= sources
    return Q & ~drop


def finite_type(ctx: FormContext, pd: ParabolicData) -> bool:
    """Whether the root-addition closure C of Q u conj(Q) is every root;
    it stands in for the iterated-bracket finite type condition.  Decided
    without a closure: C is every root iff the supports of the negative
    roots of Q u conj(Q) cover every simple index, that is, iff Q u
    conj(Q) meets the table set neg[j] of each simple index j.

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
    So C is every root iff J, that is J', is every simple index.  And J'
    holds j iff some negative root of Q u conj(Q) has j in its support,
    that is, iff Q u conj(Q) meets neg[j].  The tests keep the closure
    itself as a differential oracle."""
    both = pd.Q | pd.Qbar
    return all(both & neg for neg in ctx.neg)


_MOT_CHECKS = ("mot", "all")
_SPAN_CHECKS = ("span", "all")


def complex_type_verdict(diag: SatakeDiagram, phi: int,
                         check: str = "all") -> tuple:
    """Report fields (finite_type, levi, mot, span, verdict), as
    `verdict_fields` orders them, of the cross set mask `phi` of a
    complex-type form, from phi alone: with s the copy swap j <-> j + l (l
    the rank of a copy) and ft = [phi n s(phi) empty] (Phi_1 n Phi_2
    empty), `concavity_verdict` finds finite type, mot (under --check
    mot|all, else False), span (under --check span|all, else False) and
    verdict all ft, and `levi` empty.  On the mask, bit j - 1 + l of phi
    lands on bit j - 1 of phi >> l, and a rank-2l mask has no bit past
    2l - 1, so ft is not (phi & (phi >> l)).

    Proof.  No root of R + R meets both copies, and with no black node and
    the arrows j <-> j + l, c = s swaps them.  Q = R+ u {-b : supp(b) n phi
    empty} and Qn = {b > 0 : supp(b) n phi not empty} (`parabolic`).
    - K_Phi = Q, no real root: a + c(a) meets both copies, so it is not a
      root (`k_phi`), and a != c(a).  The moves are M = Q u c(Q).
    - Finite type: the negative roots of Q have supports covering exactly
      the complement of phi (-alpha_j is in Q iff j is not in phi), those
      of c(Q) the complement of s(phi).  By `finite_type` (Bourbaki, Lie VI
      section 1.7 Prop. 20) finite type is ft, and without ft the closure
      of M is C = R+ u R_J != R, J the complement of phi n s(phi).
    - Lemma: for roots 0 < beta <= gamma a chain of roots from beta to
      gamma adds one simple root per step.  Induct on ht(gamma - beta) > 0:
      gamma - beta = sum c_j alpha_j, c_j >= 0, has 0 < (gamma - beta,
      gamma - beta) = sum c_j (gamma - beta, alpha_j), so (gamma - beta,
      alpha_j) > 0 for some c_j > 0.  So (beta, alpha_j) < 0 and beta +
      alpha_j <= gamma is a root, or (gamma, alpha_j) > 0 and gamma -
      alpha_j >= beta is one (Humphreys, section 9.4; neither pair is
      proportional): the gap left is shorter.  Under ft every -alpha_j is
      in M: in Q, or s(j) is not in phi and -alpha_j = c(-alpha_{s(j)}).
      So the negated chain from -alpha_i to -b, i in supp(b), runs by moves.
    - Span = ft: with ft, M holds R+ and every -alpha_i, so the span
      closure of M under M reaches every -b; without ft it stays in C.
    - mot = ft: with no real root, mot asks of each complex zero pair {b,
      c(b)} in Qn that -b or -c(b) be reached from c(Q) by moves.  With ft,
      each i in supp(b) n phi has s(i) not in phi, so -alpha_i is in c(Q)
      and the chain reaches -b.  Without ft, for j in phi n s(phi) the pair
      {alpha_j, c(alpha_j)} lies in Qn and its `q_form` is empty: if x +
      c(y) = -alpha_j, one summand is p > 0 and the other -alpha_j - p, with
      j in its support, so x, or y (s(j) in its support), is not in Q.  As
      s(j) is in phi n s(phi) too, neither target is in C, which holds the
      chain closure.  So the verdict, ft and (span or mot), is ft.
    No step reads a sign; the tests keep `concavity_verdict` as the oracle."""
    ft = not (phi & (phi >> diag.rank // 2))
    return (ft, "", ft and check in _MOT_CHECKS, ft and check in _SPAN_CHECKS,
            ft)


def compact_verdict(check: str = "all") -> tuple:
    """Report fields (finite_type, levi, mot, span, verdict), as
    `verdict_fields` orders them, of every cross set of a compact form:
    finite type, `levi` empty, mot = [check is mot or all], span = [check
    is span or all] and verdict true, under any gauge.

    Proof.  Every node of a compact form is black, so its conjugation is c
    = w_0 o tau with tau the opposition involution, w_0(alpha_j) =
    -alpha_tau(j), and c(alpha_j) = -alpha_j: c(a) = -a on every root.
    - No root is real (c(a) = a would give a = 0), so there is no real
      characteristic root, no Levi class and `levi` is empty; and k_phi
      reads no Levi form, as a + c(a) = 0 is no root.
    - No positive root b has c(b) > b, as c(b) = -b is negative, so there
      is no complex zero pair either: the chain condition has no target
      (`_mot_targets`) and mot holds whenever it is checked.
    - Q holds R+ and c(Q) holds c(R+) = R-, so Q u c(Q) is every root:
      finite type holds (`finite_type`), and the span holds by the theorem
      of `t_module_span`, with no closure, whenever it is checked.
    So the sufficiency check cannot fire, and the verdict, ft and (mot
    under --check mot, else span), is true.  No step reads a sign, so the
    gauge changes nothing; the tests keep `verdict_fields` on a built
    context as the oracle."""
    return (True, "", check in _MOT_CHECKS, check in _SPAN_CHECKS, True)


def root_closure(ctx: FormContext, start: int,
                 moves: int) -> tuple[dict, list[int]]:
    """Breadth-first closure of the root set `start` under adding `moves`,
    both masks, staying inside the root set.

    The first frontier is the roots of start in ascending order; each
    round walks its frontier in discovery order, tries the moves in sorted
    order at each root, and gives every new root the parent (root, move)
    that first reaches it.  Rounds
    run until one adds nothing.  Returns the parent map (start roots map to
    (None, None)) and sizes, where sizes[h] is the number of roots reached
    after round h (sizes[0] = |start|, the last entry repeats).

    A root's moves are tried by walking its `sum_row`, which lists every b
    with cur + b a root in ascending b, and keeping the b that are moves:
    that visits the moves m with cur + m a root in ascending order, the
    same sequence as trying every move in sorted order and skipping the
    ones without a sum.  So the order, the parent map and the sizes are
    those of the move-by-move walk, at a cost of one row per root instead
    of one lookup per move.

    The masks are read once, into a sorted list and a set, and the walk
    keeps Python sets and its parent dict: it tests one move per row entry
    and one root per sum, and a set lookup is cheaper there than a shift
    and AND of a mask of a few hundred bits."""
    moves = frozenset(indices(moves))
    frontier = indices(start)
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


class Chains:
    """The chain data of one cross set (pd, kphi), for a kernel set kphi
    inside Q (a mask): its moves K u conj(K) (a mask) and coefficient
    bounds, built together, and the parent map and sizes of its
    `root_closure`, built on first read (`closure`).  A row builds one and
    passes it to its chain decisions and its span, so they share the
    closure; the span reads it only when Q u conj(Q) is not every root
    (see `t_module_span`).

    The moves are K u (conj(Q) \\ c(Q \\ K)): c is a bijection of the roots,
    so c(K) = c(Q) \\ c(Q \\ K) for K inside Q, and c runs only over the
    roots that K leaves out of Q (0.6 per cross set on average over the
    `--check mot` rows of the rank 6-8 real forms of dimension <= 80,
    against 38 in K_Phi).

    The bounds are [(j, minimum of coordinate j over conj(Q))] for every
    coordinate j on which no move is negative, in ascending j.  A root has
    all coefficients >= 0 or all <= 0, so a move is negative on j iff it
    is a negative root with j in its support: j is bound iff the moves miss
    the table set neg[j].  The minimum is taken on bound coordinates only:
    the table `levels[j]` parts the roots by their coordinate j in
    ascending value, so the minimum over the nonempty set conj(Q) is the
    value of the first part that meets it."""

    __slots__ = ("ctx", "pd", "moves", "bounds", "_closure")

    def __init__(self, ctx: FormContext, pd: ParabolicData, kphi: int):
        Qbar, cidx, levels = pd.Qbar, ctx.conj.c_index, ctx.levels
        self.ctx, self.pd = ctx, pd
        left_out = _mask(cidx[a] for a in indices(pd.Q & ~kphi))
        self.moves = moves = kphi | (Qbar & ~left_out)
        self.bounds = [(j, next(v for v, part in levels[j] if part & Qbar))
                       for j, neg in enumerate(ctx.neg) if not moves & neg]
        self._closure = None

    def closure(self) -> tuple:
        """Parent map and sizes of the `root_closure` of conj(Q) under
        K u conj(K), shared by the chain decisions and the span, built at
        most once and only when one of them reads it: a chain decision
        reads it only for a target that no coefficient bound excludes (see
        `bound`), and the span only when Q u conj(Q) is not every root."""
        if self._closure is None:
            self._closure = root_closure(self.ctx, self.pd.Qbar, self.moves)
        return self._closure

    def bound(self, target: int):
        """The first (j, lo), a coordinate j on which no move is negative
        and the coefficient of the root `target` lies below lo, the minimum
        of coordinate j over conj(Q); None when no bound excludes the
        target.

        Proof that a bound excludes the target.  A chain starts at a root
        of conj(Q), whose coordinate j is at least lo, and each step adds a
        move, whose coordinate j is >= 0; so coordinate j never falls below
        lo along any chain, and a root whose coordinate j is below lo is
        never reached.  Hence testing the bound first and the closure only
        when no bound applies gives the same answer as closure
        membership."""
        tgt = self.ctx.rs.roots[target]
        for j, lo in self.bounds:
            if tgt[j] < lo:
                return j, lo
        return None

    def reached(self, target: int) -> bool:
        """Whether a chain from conj(Q), adding moves and staying inside
        the root set, reaches the root `target`, decided bound first."""
        return self.bound(target) is None and target in self.closure()[0]


def hlc_reachability(chains: Chains, gamma: int) -> dict:
    """Breadth-first chain search: start at any root of conj(Q), repeatedly
    add elements of K u conj(K) staying inside the root set, reach -gamma.
    Returns reached flag plus witness chain or a failure certificate.

    No search runs toward +gamma: a real characteristic root gamma lies in
    Qn, inside Q, and c(gamma) = gamma, so gamma is in conj(Q), the start
    set, and such a search stops at round 0 with the chain [gamma], which
    `concavity_verdict` writes directly (the tests keep the search).

    The decision is made bound first (`Chains.bound`): a target that a
    coefficient bound excludes gets the first such bound as its
    certificate, and no closure is built for it.  Otherwise the cross set's
    one `root_closure` (`Chains.closure`) answers, and the witness chain is
    read from its parent map.  The answers equal those of a per-target
    search that stops once a round has reached its target and, on a miss,
    names the first coordinate bound or else the closure it exhausted:
    - that search checks its stop only between rounds and walks frontiers
      and moves in the same order as the full search, so every root it
      discovers gets the same parent, and every witness chain is the same;
    - a target that a bound excludes is never reached (see
      `Chains.bound`), and a bound depends only on moves, start and
      target, so testing it first gives the same certificate;
    - an unreached target with no bound means that search ran to
      exhaustion, so its `reachable_count` is the size of the full
      closure."""
    rs = chains.ctx.rs
    target = rs.neg_index[gamma]
    bound = chains.bound(target)
    if bound is not None:
        j, lo = bound
        return {"reached": False,
                "certificate": {"kind": "coefficient-bound",
                                "coordinate": j + 1,
                                "start_minimum": lo,
                                "target_coefficient": rs.roots[target][j]}}
    parent = chains.closure()[0]
    if target not in parent:
        return {"reached": False,
                "certificate": {"kind": "closure-exhausted",
                                "reachable_count": len(parent)}}
    chain = []
    cur = target
    while cur is not None:
        prev, mv = parent[cur]
        chain.append(mv if mv is not None else cur)
        cur = prev
    chain.reverse()
    return {"reached": True, "chain": [list(rs.roots[a]) for a in chain]}


# -- the span decision in the real form --------------------------------------


def t_module_span(chains: Chains) -> tuple[bool, list[int]]:
    """Decide whether the iterated bracket module of the kernel directions
    acting on the real parts of the parabolic spans the whole real form,
    for the cross set and kernel set of `chains`.

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
    chain closure P of c(Q) under M (`Chains.closure`) reaches in at most
    h rounds.  A closure under adding moves is a union over its start
    roots: a root lies within h rounds of A u B iff it lies within h rounds
    of A or of B.  And c is additive, permutes the roots and has c(M) = M,
    so it carries a chain q, q + m_1, ... from Q onto the chain c(q),
    c(q) + c(m_1), ... from c(Q), with the same length, and back.  So a
    root is within h rounds of Q iff its conjugate lies in P_h, and S_h =
    P_h u c(P_h).  The parent map lists P in discovery order and its sizes
    mark the rounds, so the span reuses the chain search's closure.

    Proof that no closure is needed when Q u c(Q) is every root.  P_0 is
    the start set c(Q), so S_0 = P_0 u c(P_0) = c(Q) u Q is every root:
    the first entry of `span_dims` is rank + |R|, the module is full, and
    the rounds stop there.  So the verdict is true and `span_dims` is
    [rank + |R|], as the closure gives.  This covers every cross set of a
    compact form, where c(a) = -a on every root, so c(Q) holds c(R+) = R-
    and Q holds R+; and the empty cross set of every form, where Q is
    every root."""
    ctx, pd = chains.ctx, chains.pd
    full = len(ctx.rs.roots)
    if pd.Q | pd.Qbar == ctx.every_root:
        return True, [ctx.rs.rank + full]
    parent, sizes = chains.closure()
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


def _mot_targets(ctx: FormContext, pd: ParabolicData, levi):
    """The targets of the chain condition in report order, each a tuple of
    roots of which a chain must reach one negative: every real
    characteristic root gamma whose class in `levi` (`_levi_classes`) is
    semidefinite, as (gamma,), then every complex characteristic pair
    {b, c(b)} in Qn whose Levi form vanishes identically, as (b, c(b))
    with b < c(b).  Such a pair still spans semidefinite (zero) covector
    directions, so a chain must reach -b or -c(b).  The pairs are listed
    lazily, so a caller that stops at the first failed target tests no
    later pair's Levi form; they are the table's `complex_pairs` in Qn.

    The form of a pair is `q_form`'s at -b, and it vanishes iff no pair
    (x, r) of `sum_pairs[-b]` has x in Q and r in conj(Q), so no entry is
    built: `q_form` has an entry at (x, y) iff x + c(y) = -b with x and y
    in Q, and y = c(r) is in Q iff r is in conj(Q), as c is an
    involution."""
    for g, cls, _ in levi:
        if cls.is_semidefinite():
            yield (g,)
    Q, Qn, Qbar = pd.Q, pd.Qn, pd.Qbar
    pairs, negi = ctx.rs.sum_pairs, ctx.rs.neg_index
    for b, cb, both in ctx.complex_pairs:
        if Qn & both == both and not any(
                Q >> x & 1 and Qbar >> r & 1 for x, r in pairs[negi[b]]):
            yield (b, cb)


def _levi_classes(ctx: FormContext, pd: ParabolicData) -> list:
    """(gamma, class, category) of every real characteristic root, each
    the class of `levi_matrix`'s default convention, over the side
    conj(Q) \\ Q, which is computed once for all of them, read from the
    pattern of -gamma (`levi_class`).  When the side is empty (c(Q) lies
    inside Q, as in every split form) each form has an empty index, so it
    is the zero form with category "zero-diagonal", as `classify_levi`
    finds for an empty index, and no pattern is read.  Of the 62,324 Levi
    forms that `k_phi` and this function classify on the `--check mot`
    rows of the rank 6-8 real forms of dimension <= 80 (ungauged and gauge
    7), 41,216 are such forms."""
    side, negi = pd.Qbar & ~pd.Q, ctx.rs.neg_index
    if not side:  # conj(Q) inside Q: each form has an empty index
        return [(g, *_ZERO_FORM) for g in characteristic_real_roots(ctx, pd)]
    return [(g, *levi_class(ctx, negi[g], side))
            for g in characteristic_real_roots(ctx, pd)]


def _check_sufficiency(ctx: FormContext, phi: int, check: str, mot: bool,
                       span: bool):
    if check == "all" and mot and not span:
        raise SufficiencyViolation(f"{ctx.diag.name} phi={phi_indices(phi)}"
                                   f": chain condition held but span failed")


def levi_label(root, cls: str) -> str:
    """The report label "<coefficients>:<class>" of a root whose Levi form
    has the class named `cls`."""
    return "%s:%s" % ("".join(map(str, root)), cls)


def _row_label(ctx: FormContext, g: int, cls: DefinitenessClass) -> str:
    """`levi_label` of the root g, memoised per (root, class) in the
    context's table `labels`.  The key holds the class's value as the
    member attribute `_value_`, read with no call: an Enum member's hash
    and `.value` are Python-level calls, which more than double the cost
    of a lookup."""
    labels, key = ctx.labels, (g, cls._value_)
    text = labels.get(key)
    if text is None:
        text = labels[key] = levi_label(ctx.rs.roots[g], key[1])
    return text


def verdict_fields(ctx: FormContext, phi: int, check: str = "all") -> tuple:
    """The report fields (finite_type, levi, mot, span, verdict), in this
    order, of the cross set mask `phi` (bit j - 1 for the simple index j)
    of the real form of `ctx`, equal to those `cli` reads from
    `concavity_verdict`'s document, with no document, witness chain,
    certificate, k_phi list or span_dims built.

    Every check of `concavity_verdict` stays: `k_phi` runs, so the
    invariants of `classify_levi` still raise, every real characteristic
    root is classified, and `SufficiencyViolation` fires under --check
    all.  The row builds one `Chains`; the chain condition is decided
    target by target with `Chains.reached`, bound first, and stops at the
    first target that fails, so a row whose first target a bound excludes
    builds no closure.  Under --check span|all the span is the verdict of
    `t_module_span`, which reads the same closure unless Q u conj(Q) is
    every root."""
    pd = parabolic(ctx, phi)
    ft = finite_type(ctx, pd)
    kphi = k_phi(ctx, pd)
    levi = _levi_classes(ctx, pd)
    chains = Chains(ctx, pd, kphi)
    mot = check in _MOT_CHECKS
    if mot:
        for choices in _mot_targets(ctx, pd, levi):
            if not any(chains.reached(ctx.negi(r)) for r in choices):
                mot = False
                break
    span = check in _SPAN_CHECKS and t_module_span(chains)[0]
    _check_sufficiency(ctx, phi, check, mot, span)
    return (ft, ";".join([_row_label(ctx, g, cls) for g, cls, _ in levi]),
            mot, span, ft and (mot if check == "mot" else span))


def concavity_verdict(ctx: FormContext, phi, check: str = "all") -> dict:
    """The full verdict document of the cross set `phi`, given as 1-based
    simple indices, of the real form of `ctx`: the form's name and the
    context's gauge seed, phi sorted, each real characteristic root as a
    {"root", "class", "category"} dict, the kernel set, the chain
    condition with a witness chain or certificate per target, and the span
    with its dimensions."""
    rs = ctx.rs
    mask = phi_mask(phi)
    pd = parabolic(ctx, mask)
    ft = finite_type(ctx, pd)
    kphi = k_phi(ctx, pd)
    levi = _levi_classes(ctx, pd)
    chains = Chains(ctx, pd, kphi)

    mot_details = []
    mot = check in _MOT_CHECKS
    if mot:
        for choices in _mot_targets(ctx, pd, levi):
            res = [hlc_reachability(chains, r) for r in choices]
            if len(choices) == 1:
                g = list(rs.roots[choices[0]])
                mot_details.append({"kind": "real", "gamma": g,
                                    "toward_minus": res[0],
                                    "toward_plus": {"reached": True,
                                                    "chain": [g]}})
            else:
                mot_details.append({"kind": "complex-zero-pair",
                                    "beta": list(rs.roots[choices[0]]),
                                    "toward_minus_beta": res[0],
                                    "toward_minus_conj_beta": res[1]})
            if not any(r["reached"] for r in res):
                mot = False

    span, dims = (t_module_span(chains) if check in _SPAN_CHECKS
                  else (False, []))
    _check_sufficiency(ctx, mask, check, mot, span)

    return {
        "form": ctx.diag.name,
        "phi": sorted(set(phi)),
        "finite_type": ft,
        "gammas": [{"root": list(rs.roots[g]), "class": cls.value,
                    "category": cat} for g, cls, cat in levi],
        "k_phi": [list(rs.roots[a]) for a in indices(kphi)],
        "mot_satisfied": mot,
        "mot_details": mot_details,
        "span_satisfied": span,
        "span_dims": dims,
        "verdict": ft and (mot if check == "mot" else span),
        "annotation": ("orbit is a point (elliptic, empty cross set)"
                       if not phi else ""),
        "gauge_seed": ctx.gauge_seed,
    }
