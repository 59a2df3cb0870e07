"""Exact Lie-theory engine and batch classifier for the higher Levi
concavity condition on minimal orbits of real forms in complex flag
manifolds."""

from .gaussq import QQi
from .rootsys import (RootSystem, SimpleType, build_doubled_system,
                      build_root_system, support)
from .chevalley import StructureConstants, build_chevalley
from .exactla import (DefinitenessClass, hermitian_classify, kernel, rank,
                      span_closure)
from .realform import (Conjugation, ConjugationError, RootClass,
                       SatakeDiagram, basis_conjugation_signs,
                       build_conjugation, catalog, find_form)
from .crflag import (ConcavityVerdict, FormContext, characteristic_real_roots,
                     classify_levi, concavity_verdict, finite_type,
                     get_context, hlc_reachability, k_phi, levi_matrix,
                     parabolic, q_form, t_module_span, verify_no_triples)
from .golden import compare_golden, golden_table_doc, load_golden

__version__ = "0.1.0"


def __getattr__(name):
    # lazy: importing .cli here would shadow `python -m minorbit.cli`
    if name in ("emit", "enumerate_form"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(name)

__all__ = [
    "QQi", "RootSystem", "SimpleType", "build_root_system",
    "build_doubled_system", "support", "StructureConstants",
    "build_chevalley", "DefinitenessClass", "hermitian_classify", "kernel",
    "rank", "span_closure", "Conjugation",
    "ConjugationError", "RootClass", "SatakeDiagram", "build_conjugation",
    "catalog", "find_form", "ConcavityVerdict", "FormContext", "parabolic",
    "characteristic_real_roots", "levi_matrix", "q_form", "classify_levi",
    "k_phi", "finite_type", "hlc_reachability", "t_module_span",
    "verify_no_triples", "concavity_verdict", "get_context",
    "compare_golden", "golden_table_doc", "load_golden",
    "basis_conjugation_signs", "emit", "enumerate_form",
]
