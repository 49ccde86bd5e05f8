"""Metamorphic relations: a verdict must not change when the same map is
written another way.

R2, a unimodular re-basing of the lattice: the columns of L and of L W,
for W an integer matrix of determinant +-1, generate the same lattice, so
`full`, `basepoint`, `torus` and `minimality` must answer each system
with the same status and the same kind of certificate, `full` must need
a lattice shift on both or on neither, and `minimality` must print the
same bytes (its covectors are written in the Hermite basis of the
projected lattice, which does not depend on the listing).  A re-based
lattice is not its own Hermite basis, so validation takes its
`zspan_basis` path, and `full` builds its central lattice from the
integer kernel on L W.  The systems are seeded tori and maps of the
Heisenberg algebra and of its product with a line, whose centre is moved
by U so that the coset step of `full` has images to shift by.
"""

import random
from fractions import Fraction

from conftest import abelian, heisenberg, random_unimodular
from nilaa import io as nio
from nilaa.criteria import (InapplicableCriterion, basepoint_decide, full_decide,
                            make_system, minimality_check, torus_decide)
from nilaa.nilalg import LieAlgebraSpec
from nilaa.poly import ParamVector, Poly
from nilaa.ratlin import QMatrix

F = Fraction
DECIDERS = {"full": full_decide, "basepoint": basepoint_decide, "torus": torus_decide,
            "minimality": minimality_check}


def _translation(constant, slopes) -> ParamVector:
    """constant + t1 slopes[0] + t2 slopes[1] + ..."""
    params = tuple(f"t{i + 1}" for i in range(len(slopes)))
    units = [tuple(int(i == k) for i in range(len(slopes))) for k in range(len(slopes))]
    return ParamVector(params, [
        Poly(params, {(0,) * len(slopes): c, **{e: v[i] for e, v in zip(units, slopes)}})
        for i, c in enumerate(constant)])


def _slopes(rng, d, fixed=None) -> list:
    """One to d random slopes, or the one slope `fixed` half the time."""
    if fixed is not None and rng.random() < 0.5:
        return [fixed]
    return [[_rational(rng) if rng.random() < 0.7 else 0 for _ in range(d)]
            for _ in range(rng.randrange(1, d + 1))]


def _rational(rng) -> Fraction:
    return F(rng.randrange(-6, 7), rng.randrange(1, 5))


def _torus(rng) -> tuple:
    """An abelian system: L = D W0, U = L (I + N) L^-1 with N strictly
    upper triangular and integral (the identity a third of the time), a
    constant that is a lattice point plus a rational vector, and a slope
    that is fixed by U or random."""
    d = rng.randrange(2, 5)
    D = QMatrix([[F(rng.choice((1, -2, 3)), rng.choice((1, 2, 5))) if i == j else 0
                  for j in range(d)] for i in range(d)])
    L = D @ random_unimodular(d, rng)
    N = QMatrix([[rng.choice((0, 0, 1, -1, 2)) if j > i else 0 for j in range(d)]
                 for i in range(d)])
    if rng.random() < 0.33:
        N = QMatrix.zeros(d)
    U = L @ (QMatrix.identity(d) + N) @ L.inverse()
    constant = L.matvec([rng.randrange(-3, 4) + (_rational(rng) if rng.random() < 0.5 else 0)
                         for _ in range(d)])
    fixed = L.matvec([int(i == 0) for i in range(d)])  # the first lattice vector
    return abelian(d), L, U, _translation(constant, _slopes(rng, d, fixed))


def _heisenberg(rng) -> tuple:
    """A map of h_3 or of h_3 x R, on the lattice of (b x, b y, b^2 z / 2,
    w): a unipotent shear of (x, y) with z-row entries r, s in (b / 2) Z,
    and on h_3 x R a central w -> w + (j b^2 / 2) z that moves the centre
    (the identity a third of the time)."""
    product_with_line = rng.random() < 0.5
    spec = LieAlgebraSpec.from_sparse(4, [(1, 2, 3, 1)]) if product_with_line else heisenberg()
    d = spec.dim
    b = rng.choice((1, 2))
    L = QMatrix([[[b, b, F(b * b, 2), 1][i] if i == j else 0 for j in range(d)]
                 for i in range(d)])
    U = [[int(i == j) for j in range(d)] for i in range(d)]
    if rng.random() > 0.33:
        k = rng.randrange(-2, 3)
        if rng.random() < 0.5:
            U[0][1] = k
        else:
            U[1][0] = k
        U[2][0] = F(b * rng.randrange(-2, 3), 2)
        U[2][1] = F(b * rng.randrange(-2, 3), 2)
        if product_with_line:
            U[2][3] = F(b * b * rng.randrange(-2, 3), 2)
    constant = [rng.randrange(-2, 3) * L[i, i] + (_rational(rng) if rng.random() < 0.4 else 0)
                for i in range(d)]
    return spec, L, QMatrix(U), _translation(constant, _slopes(rng, d))


def _answers(spec, lattice, automorphism, translation) -> dict:
    system = make_system(spec, lattice=lattice, automorphism=automorphism,
                         translation=translation)
    out = {}
    for name, decide in DECIDERS.items():
        try:
            verdict = decide(system)
        except InapplicableCriterion:
            out[name] = "inapplicable"
            continue
        out[name] = (verdict.status, type(verdict.certificate).__name__)
        if name == "full":  # whether the constant direction needed a lattice shift
            out["full shifted"] = getattr(verdict.certificate, "shift", None) is not None
        if name == "minimality":
            out["minimality bytes"] = nio.canonical_json(nio.verdict_to_dict(verdict))
    return out


def test_r2_unimodular_rebasing_of_the_lattice_keeps_every_verdict():
    rng = random.Random(2302)
    seen = set()
    for trial in range(80):
        spec, L, U, a = (_torus if trial % 2 else _heisenberg)(rng)
        expected = _answers(spec, L, U, a)
        for _ in range(2):
            W = random_unimodular(spec.dim, rng)
            assert _answers(spec, L @ W, U, a) == expected, (trial, W)
        seen.update((name, answer) for name, answer in expected.items()
                    if name != "minimality bytes")
    assert {("full", ("AA", "WitnessSubspace")), ("full", ("NOT_AA", "NotFixed")),
            ("full", ("NOT_AA", "CosetObstruction")), ("full shifted", True)} <= seen
    assert ("torus", ("AA", "WitnessSubspace")) in seen
    assert ("minimality", ("NotMinimal", "InvariantSubtorus")) in seen
    assert ("minimality", ("Minimal", "NoneType")) in seen
