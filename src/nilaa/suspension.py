"""Suspension of a unipotent affine map into a translation on a larger group.

An affine map T = (left translation by exp a) composed with a unipotent
automorphism U of N extends to a pure translation on the semidirect product
M = R x N: adjoin one generator delta acting on the algebra of N by the
derivation D = log U, and translate by the element exp(a) exp(delta).  The
original quotient N / exp(Lambda) sits inside M as the fiber over 0 of the
circle coordinate, and T is the restriction of the big translation to that
fiber.

The discrete group downstairs is generated by exp(Lambda) together with the
automorphism itself, so it is generally not the exponential of a lattice in
the big algebra.  This module keeps the pair (D, Lambda) as the lattice
data, and its checks compare exact points before any reduction: equal
points of N reduce to the same point of the quotient.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Sequence

from ._record import record
from .lattice import LogLattice
from .nilalg import LieAlgebraSpec
from .nilgrp import NilpotentGroup
from .poly import ParamVector, Poly
from .ratlin import QMatrix, to_fraction


class Mismatch(ValueError):
    """The direct and the embedded evaluation of the map disagree."""

    def __init__(self, sample, direct, embedded):
        super().__init__(f"embedding mismatch at sample {sample}: "
                         f"direct {direct} vs embedded {embedded}")
        self.sample = sample
        self.direct = direct
        self.embedded = embedded


def build_suspension_algebra(spec: LieAlgebraSpec, derivation: QMatrix) -> LieAlgebraSpec:
    """Adjoin a generator delta with [delta, x] = D x to the algebra.

    Basis order downstairs is preserved and delta is prepended, so vectors of
    the big algebra read (phi, fiber).  The result is nilpotent whenever D is
    (which log of a unipotent automorphism always is).  The constructor of
    NilpotentGroup re-checks Jacobi and nilpotency; Jacobi on the triples
    (delta, x_i, x_j) is the derivation identity for D.
    """
    d = spec.dim
    if derivation.shape != (d, d):
        raise ValueError("derivation matrix has wrong shape")
    table: dict[tuple[int, int], list[Fraction]] = {}
    for j in range(d):
        col = derivation.column(j)
        if any(col):
            table[(0, j + 1)] = [Fraction(0), *col]
    for (i, j), vec in spec.table.items():
        table[(i + 1, j + 1)] = [Fraction(0), *vec]
    return LieAlgebraSpec(d + 1, table)


@record(eq=False)
class SuspendedSystem:
    """A unipotent affine map realized as a translation one dimension up."""

    big_algebra: LieAlgebraSpec
    big_group: NilpotentGroup
    monodromy: QMatrix                 # D = log U acting on the fiber algebra
    fiber_lattice: LogLattice          # Lambda, unchanged from downstairs
    embedded_translation: ParamVector  # w = log(exp(a) exp(delta)), length d+1
    base: object                       # the suspended affine system

    @property
    def dim(self) -> int:
        return self.big_algebra.dim

    def delta(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(int(i == 0)) for i in range(self.dim))

    def lift(self, vec: Sequence[object]) -> tuple[Fraction, ...]:
        """Embed a fiber vector with circle coordinate 0."""
        if len(vec) != self.dim - 1:
            raise ValueError("fiber vector has wrong length")
        return (Fraction(0), *map(to_fraction, vec))

    def fiber(self, vec: Sequence[object]) -> tuple[Fraction, ...]:
        """Project a big vector with vanishing circle coordinate to the fiber."""
        vec = tuple(map(to_fraction, vec))
        if vec[0] != 0:
            raise ValueError(f"vector has circle coordinate {vec[0]}, not 0")
        return vec[1:]


def suspend(system) -> SuspendedSystem:
    """Build the suspension of a validated affine system.

    Raises NotUnipotent when U is not unipotent.  make_system has checked
    that U preserves the lattice, and monodromy_adjoint_check and
    embedding_consistency_check check the result.
    """
    group: NilpotentGroup = system.group
    D = group.log_automorphism(system.automorphism)
    big_spec = build_suspension_algebra(group.spec, D)
    big_group = NilpotentGroup(big_spec)
    a = system.translation
    lifted = ParamVector(a.params, [Poly.zero(a.params), *a.entries])
    delta = ParamVector(a.params, [Poly.constant(1, a.params),
                                   *[Poly.zero(a.params)] * group.dim])
    w = big_group.mult(lifted, delta)
    return SuspendedSystem(big_spec, big_group, D, system.lattice, w, system)


def monodromy_adjoint_check(susp: SuspendedSystem) -> bool:
    """Conjugation by exp(delta) must act on the fiber exactly as U does."""
    U = susp.base.automorphism
    expected = QMatrix([[U[i - 1, j - 1] if i and j else int(i == j)
                         for j in range(susp.dim)] for i in range(susp.dim)])
    return susp.big_group.adjoint_matrix(susp.delta()) == expected


def embedding_consistency_check(susp: SuspendedSystem, samples: int) -> bool:
    """Evaluate the suspended map susp.base directly and through the
    suspension.

    Route one applies exp(x) -> exp(a) U(exp x) downstairs.  Route two
    multiplies by the embedded translation in the big group, quotients the
    circle coordinate by its lattice (here the circle coordinate of the
    product is exactly 1, so one factor of exp(-delta) clears it) and drops
    to the fiber.  Both routes must give the same point of N exactly, and
    so the same point of N / exp(Lambda).  Checks `samples` seeded
    points and parameter values.
    """
    system = susp.base
    group: NilpotentGroup = system.group
    rng = Random(2024)  # a fixed sample set keeps suspend output reproducible
    params = system.translation.params

    def rnd(lo: int, hi: int, den: int) -> Fraction:
        return Fraction(rng.randrange(lo, hi + 1), rng.randrange(1, den + 1))

    for _ in range(samples):
        values = {p: rnd(-40, 40, 8) for p in params}
        a_val = system.translation.substitute(values)
        w_val = susp.embedded_translation.substitute(values)
        point = tuple(rnd(-24, 24, 12) for _ in range(group.dim))
        sample = (point, tuple(sorted(values.items())))

        direct = group.mult_vec(a_val, system.automorphism.matvec(point))
        up = susp.big_group.mult_vec(w_val, susp.lift(point))
        k = up[0]
        if k.denominator != 1:
            raise Mismatch(sample, direct, up)
        clear = tuple(-k if i == 0 else Fraction(0) for i in range(susp.dim))
        down = susp.big_group.mult_vec(up, clear)
        embedded = susp.fiber(down)
        if embedded != direct:
            raise Mismatch(sample, direct, embedded)
    return True
