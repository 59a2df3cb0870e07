"""Floating-point eigenvalue oracle for Hermitian matrices over Gaussian
rationals, kept with the tests as an independent cross-check of the exact
`minorbit.exactla.hermitian_classify`."""

from __future__ import annotations

import numpy as np

from minorbit.exactla import DefinitenessClass, Matrix, is_hermitian


def float_eigen_oracle(m: Matrix) -> list[float]:
    """Floating eigenvalues of a Hermitian matrix; test-side cross-check only."""
    if not is_hermitian(m):
        raise ValueError("float_eigen_oracle expects a Hermitian matrix")
    if not m:
        return []
    a = np.array([[x.to_complex() for x in row] for row in m], dtype=complex)
    return sorted(np.linalg.eigvalsh(a).tolist())


def float_classify(m: Matrix, rel_tol: float = 1e-9) -> DefinitenessClass:
    ev = float_eigen_oracle(m)
    if not ev:
        return DefinitenessClass.ZERO
    scale = max(abs(e) for e in ev)
    if scale == 0.0:
        return DefinitenessClass.ZERO
    tol = rel_tol * scale
    p = sum(1 for e in ev if e > tol)
    q = sum(1 for e in ev if e < -tol)
    z = len(ev) - p - q
    if p and q:
        return DefinitenessClass.INDEFINITE
    if p:
        return DefinitenessClass.POSITIVE_DEFINITE if z == 0 else \
            DefinitenessClass.POSITIVE_SEMIDEFINITE_NONZERO
    if q:
        return DefinitenessClass.NEGATIVE_DEFINITE if z == 0 else \
            DefinitenessClass.NEGATIVE_SEMIDEFINITE_NONZERO
    return DefinitenessClass.ZERO
