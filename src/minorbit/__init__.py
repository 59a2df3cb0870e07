"""Exact Lie-theory engine and batch classifier for the higher Levi
concavity condition on minimal orbits of real forms in complex flag
manifolds."""

from .crflag import (FormContext, SufficiencyViolation, concavity_verdict,
                     get_context)
from .golden import compare_golden, load_golden
from .realform import ConjugationError, SatakeDiagram, catalog, find_form

__version__ = "0.1.0"

__all__ = [
    "FormContext", "SufficiencyViolation",
    "concavity_verdict", "get_context", "compare_golden", "load_golden",
    "ConjugationError", "SatakeDiagram", "catalog", "find_form",
]
