"""Exact symbolic engine for the generalized quantum Euclidean group, its
Hopf dual, and their Heisenberg double, built on confluent PBW rewriting
over the field of rational functions in q.
"""

from .errors import QheisError
from .qfield import ONE, ZERO, QScalar, qpow
from .rewrite import Element, GeneratorTable, Presentation, RewriteRule, substitute
from .presets import (
    S_ORDERS,
    AlgebraParams,
    PrimedSet,
    factorize_D,
    make_Dq,
    make_Oq,
    make_quantum_torus,
    make_S,
    make_Uq,
    params,
    primed_in_D,
    recombine_D,
)
from .hopf import DualPairing, HopfStructure, check_hopf_axioms, hopf_Oq, hopf_Uq
from .morphisms import (
    Morphism,
    check_inverse,
    check_morphism,
    compose,
    embedding_Uq_into_Oq,
    family,
    iso_Uq_to_Oq,
)
from .smodules import (
    QuotientModule,
    WeightModule,
    cyclicity_probe,
    growth_exponent,
    support,
)
from .ideals import (
    SpecCatalog,
    TruncatedIdeal,
    build_spec_catalog,
    containment_probe,
    ideal_span,
    member,
    monomial_avoidance_probe,
    spec_diagram,
    torus_quotient_map,
)
from .expr import context_for, elaborate_element, parse, parse_scalar, to_text
from .suites import RunConfig, run_suites

__version__ = "0.1.0"

__all__ = [
    "AlgebraParams",
    "DualPairing",
    "Element",
    "GeneratorTable",
    "HopfStructure",
    "Morphism",
    "ONE",
    "Presentation",
    "PrimedSet",
    "QScalar",
    "QheisError",
    "QuotientModule",
    "RewriteRule",
    "RunConfig",
    "SpecCatalog",
    "S_ORDERS",
    "TruncatedIdeal",
    "WeightModule",
    "ZERO",
    "build_spec_catalog",
    "check_hopf_axioms",
    "check_inverse",
    "check_morphism",
    "compose",
    "containment_probe",
    "context_for",
    "cyclicity_probe",
    "elaborate_element",
    "embedding_Uq_into_Oq",
    "factorize_D",
    "family",
    "growth_exponent",
    "hopf_Oq",
    "hopf_Uq",
    "ideal_span",
    "iso_Uq_to_Oq",
    "make_Dq",
    "make_Oq",
    "make_S",
    "make_Uq",
    "make_quantum_torus",
    "member",
    "monomial_avoidance_probe",
    "params",
    "parse",
    "parse_scalar",
    "primed_in_D",
    "qpow",
    "recombine_D",
    "run_suites",
    "spec_diagram",
    "substitute",
    "support",
    "to_text",
    "torus_quotient_map",
]
