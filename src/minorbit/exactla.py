"""Exact Hermitian semidefiniteness classification of a dense matrix by
congruence (diagonal pivots plus 2x2 blocks for the zero-diagonal case).
The entries may be of any exact scalar type with field arithmetic, `conj`,
`is_real` and a real part `re`; the package itself imports none, and the
tests supply Gaussian rationals.

The Levi layer does not call `hermitian_classify`: `crflag.classify_levi`
reads each Levi form from its root involution.  The dense classifier is the
general one, and the tests use it as the oracle of `classify_levi`."""

from __future__ import annotations

from enum import Enum


class DefinitenessClass(Enum):
    ZERO = "Zero"
    POSITIVE_SEMIDEFINITE_NONZERO = "PositiveSemidefiniteNonzero"
    NEGATIVE_SEMIDEFINITE_NONZERO = "NegativeSemidefiniteNonzero"
    POSITIVE_DEFINITE = "PositiveDefinite"
    NEGATIVE_DEFINITE = "NegativeDefinite"
    INDEFINITE = "Indefinite"

    def flipped(self) -> "DefinitenessClass":
        f = {
            DefinitenessClass.POSITIVE_SEMIDEFINITE_NONZERO: DefinitenessClass.NEGATIVE_SEMIDEFINITE_NONZERO,
            DefinitenessClass.NEGATIVE_SEMIDEFINITE_NONZERO: DefinitenessClass.POSITIVE_SEMIDEFINITE_NONZERO,
            DefinitenessClass.POSITIVE_DEFINITE: DefinitenessClass.NEGATIVE_DEFINITE,
            DefinitenessClass.NEGATIVE_DEFINITE: DefinitenessClass.POSITIVE_DEFINITE,
        }
        return f.get(self, self)

    def is_semidefinite(self) -> bool:
        return self is not DefinitenessClass.INDEFINITE


Matrix = list  # list of rows of exact scalars


def is_hermitian(m: Matrix) -> bool:
    n = len(m)
    return all(len(r) == n for r in m) and all(
        m[i][j] == m[j][i].conj() for i in range(n) for j in range(i, n))


def inertia(m: Matrix) -> tuple[int, int, int]:
    """(n_plus, n_minus, n_zero) of a Hermitian matrix, exactly.

    Congruence elimination: a nonzero diagonal entry gives a 1x1 pivot; if
    the whole diagonal vanishes, any nonzero off-diagonal entry gives a 2x2
    block contributing one eigenvalue of each sign."""
    if not is_hermitian(m):
        raise ValueError("inertia expects a Hermitian matrix")
    work = [row[:] for row in m]
    idx = list(range(len(m)))
    n_plus = n_minus = n_zero = 0
    while idx:
        piv = next((k for k in idx if work[k][k]), None)
        if piv is not None:
            d = work[piv][piv]
            if not d.is_real():
                raise ArithmeticError(f"non-real pivot {d} in a Hermitian "
                                      f"elimination")
            if d.re > 0:
                n_plus += 1
            else:
                n_minus += 1
            idx.remove(piv)
            for r in idx:
                if work[r][piv]:
                    f = work[r][piv] / d
                    for c in idx:
                        work[r][c] = work[r][c] - f * work[piv][c]
            continue
        off = next(((r, c) for r in idx for c in idx if c > r and work[r][c]), None)
        if off is None:
            n_zero += len(idx)
            break
        r0, c0 = off
        a = work[r0][c0]
        n_plus += 1
        n_minus += 1
        idx.remove(r0)
        idx.remove(c0)
        ac = a.conj()
        for r in idx:
            xr, yr = work[r][r0], work[r][c0]
            if xr or yr:
                for c in idx:
                    # Schur complement of the block [[0, a], [conj(a), 0]]
                    work[r][c] = work[r][c] - xr * work[c0][c] / ac - yr * work[r0][c] / a
    return n_plus, n_minus, n_zero


def hermitian_classify(m: Matrix) -> DefinitenessClass:
    n = len(m)
    if n == 0 or all(not x for row in m for x in row):
        return DefinitenessClass.ZERO
    p, q, z = inertia(m)
    if p and q:
        return DefinitenessClass.INDEFINITE
    if p:
        return DefinitenessClass.POSITIVE_DEFINITE if z == 0 else \
            DefinitenessClass.POSITIVE_SEMIDEFINITE_NONZERO
    return DefinitenessClass.NEGATIVE_DEFINITE if z == 0 else \
        DefinitenessClass.NEGATIVE_SEMIDEFINITE_NONZERO
