"""Certificates for almost automorphic affine maps on compact nilmanifolds.

The package decides, with exact rational arithmetic, whether an affine map
T = (translation by a) composed with (unipotent automorphism U) of a compact
nilmanifold N/Gamma is almost automorphic, and backs every verdict with a
machine-checkable certificate.  An orbit oracle, exact on dyadic inputs,
provides an independent empirical cross-check, and a CLI exposes the
deciders on a bundled corpus of worked systems.

Translation coordinates may be left symbolic: parameters are treated as
algebraically independent reals, so a verdict covers the generic member of a
parametric family.

Submodules are imported lazily and depend on nothing beyond the standard
library.
"""

from importlib import import_module

_EXPORTS = {
    "Poly": "poly", "ParamVector": "poly", "parse_poly": "poly",
    "QMatrix": "ratlin", "QSubspace": "ratlin", "kernel_basis": "ratlin",
    "charpoly": "ratlin", "hnf_membership": "ratlin",
    "minimal_rational_subspace": "ratlin", "cyclotomic_spectrum_test": "ratlin",
    "LieAlgebraSpec": "nilalg", "validate_algebra": "nilalg",
    "NilpotentGroup": "nilgrp",
    "LogLattice": "lattice", "validate_lattice": "lattice",
    "preserves_lattice": "lattice",
    "AffineSystem": "criteria", "make_system": "criteria",
    "Verdict": "criteria",
    "full_decide": "criteria", "torus_decide": "criteria",
    "basepoint_decide": "criteria", "translation_decide": "criteria",
    "suspended_full_decide": "criteria",
    "suspended_basepoint_decide": "criteria",
    "lie_necessary": "criteria", "minimality_check": "criteria",
    "power_unipotent": "criteria", "two_generator_analysis": "criteria",
    "WitnessSubspace": "criteria", "ObstructionBracket": "criteria",
    "NotFixed": "criteria", "CosetObstruction": "criteria",
    "SpectralObstruction": "criteria", "UnipotentPower": "criteria",
    "InvariantSubtorus": "criteria",
    "InapplicableCriterion": "criteria",
    "HypothesisViolated": "criteria", "ValidationError": "criteria",
    "suspend": "suspension", "SuspendedSystem": "suspension",
    "monodromy_adjoint_check": "suspension",
    "embedding_consistency_check": "suspension", "Mismatch": "suspension",
    "NumericAffine": "orbit", "aa_empirical_test": "orbit",
    "find_forward_sequence": "orbit",
    "iterate": "orbit", "trajectory": "orbit",
    "AATestReport": "orbit", "FalsificationWitness": "orbit",
    "parse_system": "io", "system_from_dict": "io",
    "canonical_json": "io", "parse_verdict": "io", "exit_code_for": "io",
    "serialize_certificate": "io", "parse_certificate": "io",
    "ParseError": "io", "corpus_dir": "io", "corpus_file": "io",
    "load_manifest": "io",
}

_SUBMODULES = ("poly", "ratlin", "nilalg", "nilgrp", "lattice",
               "criteria", "suspension", "orbit", "io", "cli")

__all__ = sorted(_EXPORTS) + list(_SUBMODULES)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
