"""Soundness of the `full` and `basepoint` deciders against the
horizontal torus, in the necessary direction.

A factor map sends almost automorphic points to almost automorphic
points, and N/Gamma -> N/[N, N]Gamma, the horizontal torus, is one: the
affine map T x = a U(x) induces x -> U_h x + a_h there.  On a torus a
point x of a unipotent map is AA exactly when N^2 x + N a is rational,
N = U - I.  So with g' = [g, g] and generic parameters, the generic point
is not AA when N^2 v is not in g' for some basis vector v, or N a_m is not
in g' for some nonconstant monomial m of the translation; at the base
point only the second condition applies.  No `full` AA may meet the first
obstruction and no `basepoint` AA the second.  On a torus g' = 0 and the
condition is the closed form itself.

The systems are the corpus files that load, the Heisenberg, Jordan-torus
and filiform systems that perfbench/ generates, and seeded unipotent
torus maps.  The test only reads perfbench/.
"""

import random
import sys
from fractions import Fraction as F
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from nilaa import io as nio  # noqa: E402
from nilaa.criteria import (AA, ValidationError, basepoint_decide,  # noqa: E402
                            full_decide, make_system)
from nilaa.nilalg import derived_subalgebra  # noqa: E402
from nilaa.nilgrp import ClassCapExceeded  # noqa: E402
from nilaa.poly import ParamVector, Poly  # noqa: E402
from nilaa.ratlin import QMatrix  # noqa: E402
from perfbench import systems  # noqa: E402

from conftest import abelian  # noqa: E402


def horizontal_obstructions(system) -> tuple[bool, bool]:
    """(at the generic point, at the base point): whether the map induced
    on the horizontal torus has a point that is not AA there."""
    d = system.dim
    n = system.automorphism - QMatrix.identity(d)
    derived = derived_subalgebra(system.algebra)
    monomials = {m for p in system.translation for m in p.terms if any(m)}
    moved = any(not derived.contains(n.matvec(
        [p.terms.get(m, 0) for p in system.translation])) for m in monomials)
    squared = any(not derived.contains(c) for c in (n @ n).columns())
    return squared or moved, moved


def _answers_aa(decide, system) -> bool:
    try:
        return decide(system).status == AA
    except ClassCapExceeded:  # a suspension of class above the BCH cap
        return False


def _check(system) -> tuple[bool, bool]:
    generic, base = horizontal_obstructions(system)
    full, basepoint = (_answers_aa(full_decide, system),
                       _answers_aa(basepoint_decide, system))
    assert not (full and generic), system.name
    assert not (basepoint and base), system.name
    return full, basepoint


def test_no_aa_verdict_has_a_horizontal_obstruction():
    loaded = []
    for path in sorted(nio.corpus_dir().glob("*.json")):
        if path.name != "manifest.json":
            try:
                loaded.append(nio.parse_system(path))
            except ValidationError:  # the paper's invalid 4-dim example
                continue
    assert len(loaded) == 9
    for family, sizes in (("heisenberg", (5, 9, 17)),
                          ("jordan_torus", (4, 8, 16)),
                          ("filiform", (3, 4, 5, 6))):
        for size in sizes:
            for kind in ("aa", "not"):
                for variant in range(systems.VARIANTS):
                    loaded.append(nio.system_from_dict(
                        getattr(systems, family)(size, kind, variant)))
    answered = [_check(system) for system in loaded]
    assert len(answered) == 169
    # both deciders answer AA often enough for the check to bite
    assert sum(full for full, _ in answered) >= 80
    assert sum(basepoint for _, basepoint in answered) >= 80


def _unit_triangular(rng, d, spread, upper) -> QMatrix:
    return QMatrix([[1 if i == j else rng.randint(-spread, spread)
                     if (j > i) == upper else 0 for j in range(d)]
                    for i in range(d)])


def test_no_aa_verdict_on_a_torus_contradicts_the_closed_form():
    # U = S J S^-1 with J unipotent upper triangular and S unimodular, a
    # rational translation, and a parameter in 40% of them
    rng = random.Random(17)
    params = ("t",)
    t = Poly.variable("t", params)
    full_aa = 0
    for _ in range(400):
        d = rng.randint(1, 4)
        s = (_unit_triangular(rng, d, 1, upper=False)
             @ _unit_triangular(rng, d, 1, upper=True))
        u = s @ _unit_triangular(rng, d, 2, upper=True) @ s.inverse()
        a = [F(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(d)]
        if rng.random() < 0.4:
            a = ParamVector(params, [Poly.constant(c, params)
                                     + t * Poly.constant(rng.randint(-2, 2), params)
                                     for c in a])
        full, _ = _check(make_system(abelian(d), automorphism=u, translation=a))
        full_aa += full
    assert full_aa >= 100
