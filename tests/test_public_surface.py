"""The names the package exports, stated in full.

nilaa.__all__ is the public surface.  Adding or removing an export is an
API change, so it has to show up in the diff of this file as well.
"""

import nilaa

EXPORTS = {
    # nilaa.poly
    "Poly", "ParamVector", "parse_poly",
    # nilaa.ratlin
    "QMatrix", "QSubspace", "kernel_basis", "charpoly", "hnf_membership",
    "minimal_rational_subspace", "cyclotomic_spectrum_test",
    # nilaa.nilalg, nilaa.nilgrp, nilaa.lattice
    "LieAlgebraSpec", "validate_algebra", "NilpotentGroup",
    "LogLattice", "validate_lattice", "preserves_lattice",
    # nilaa.criteria
    "AffineSystem", "make_system", "Verdict",
    "full_decide", "torus_decide", "basepoint_decide", "translation_decide",
    "suspended_full_decide", "suspended_basepoint_decide",
    "lie_necessary", "minimality_check", "power_unipotent",
    "two_generator_analysis",
    "WitnessSubspace", "ObstructionBracket", "NotFixed", "CosetObstruction",
    "SpectralObstruction", "UnipotentPower", "InvariantSubtorus",
    "InapplicableCriterion", "HypothesisViolated",
    "ValidationError",
    # nilaa.suspension
    "suspend", "SuspendedSystem", "monodromy_adjoint_check",
    "embedding_consistency_check", "Mismatch",
    # nilaa.orbit
    "NumericAffine", "aa_empirical_test", "find_forward_sequence", "iterate",
    "trajectory", "AATestReport", "FalsificationWitness",
    # nilaa.io
    "parse_system", "system_from_dict", "canonical_json", "parse_verdict",
    "exit_code_for", "serialize_certificate", "parse_certificate",
    "ParseError", "corpus_dir", "corpus_file", "load_manifest",
    # the submodules
    "poly", "ratlin", "nilalg", "nilgrp", "lattice", "criteria",
    "suspension", "orbit", "io", "cli",
}


def test_the_exports_are_exactly_the_stated_names():
    assert len(nilaa.__all__) == len(set(nilaa.__all__))
    assert set(nilaa.__all__) == EXPORTS
