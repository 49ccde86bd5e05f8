"""The functions the traced run wraps, grouped by layer, with predictions.

Each entry names a function or method of a ``nilaa`` module as
``<module>.<qualname>``.  The traced run reports, per timed pass,
``<name>.calls`` (count) and ``<name>.self_s`` (seconds spent in the
function minus the time spent in traced functions it called).

Which end-to-end metric a faster layer should move, and on which
workload, recorded before any optimisation is measured:

ratlin (charpoly, unipotency_index, QMatrix.*, rref, hnf_membership)
    op_ms.p90 and ops_per_s on scaling; little change on corpus, none on
    orbit.
lattice, nilgrp.NilpotentGroup.mult_vec, nilalg
    op_ms.p50 and ops_per_s on corpus; the make_system share
    (criteria.make_system.total_s) on scaling.
io.parse_system, io.canonical_json, criteria.make_system.calls
    ops_per_s on corpus, where 11 files are parsed 43 times per pass.
nilgrp.mult, defect_map, log_automorphism, poly.Poly.__mul__,
suspension, the criteria deciders
    op_ms.p90 on scaling.
nilgrp.bch_table, cli.main
    setup_s and cli_cold_ms.
orbit
    ops_per_s and op_ms.p50 on orbit only.
"""

from __future__ import annotations

TARGETS = {
    "ratlin": ("charpoly", "unipotency_index", "QMatrix.__matmul__",
               "QMatrix.matvec", "QMatrix.det", "QMatrix.inverse", "rref",
               "hnf_membership"),
    "lattice": ("validate_lattice", "preserves_lattice",
                "central_lattice_basis"),
    "nilgrp": ("NilpotentGroup.mult_vec", "NilpotentGroup.mult",
               "NilpotentGroup.defect_map", "NilpotentGroup.log_automorphism",
               "bch_table"),
    "nilalg": ("LieAlgebraSpec.bracket_vec", "validate_algebra",
               "is_automorphism"),
    "io": ("parse_system", "canonical_json"),
    "criteria": ("make_system", "full_decide", "basepoint_decide",
                 "torus_decide", "translation_decide", "lie_necessary",
                 "minimality_check", "power_unipotent",
                 "two_generator_analysis"),
    "poly": ("Poly.__mul__",),
    "suspension": ("suspend", "monodromy_adjoint_check",
                   "embedding_consistency_check"),
    "cli": ("main",),
    "orbit": ("aa_empirical_test", "find_forward_sequence", "iterate",
              "NumericAffine.step", "NumericAffine.distance",
              "NumericAffine.reduce"),
}

# Sizes and ratios measured alongside the spans.
EXTRA_METRICS = (
    ("nilgrp.defect_map.monomials", "count"),   # mean monomials per result
    ("criteria.make_system.total_s", "s"),      # inclusive, per pass
    ("orbit.returns_ratio", "ratio"),           # probes with returns / trials
    ("trace.overhead_frac", "ratio"),           # 1 - traced / untraced ops/s
)


def target_names() -> list[str]:
    return [f"{module}.{name}" for module, names in TARGETS.items()
            for name in names]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = []
    for name in target_names():
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
    out.extend(EXTRA_METRICS)
    return out
