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

suspend builds the suspension on integer forms: D = log U comes from
the integer series (ratlin), the suspended algebra's integer pairs are
the fiber's plus the columns of D (nilalg.build_suspension_algebra),
its Jacobi identity is the derivation identity for D
(nilalg.check_derivation) and its class comes from one forward pass
(nilalg.lower_central_class).
monodromy_adjoint_check compares exp(ad delta) with U as integer forms.

embedding_consistency_check evaluates both routes at seeded samples, in
integer numerators with one denominator per vector, on nilgrp's one
integer evaluator: a and w as one polynomial map of the parameters
(nilgrp.integer_map), and the three products as the group law of each
group (NilpotentGroup.law).  Only a disagreement is turned into
Fractions, for its Mismatch.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from random import Random
from typing import Sequence

from ._record import record
from .lattice import LogLattice
from .nilalg import (LieAlgebraSpec, ad_int_rows, build_suspension_algebra,
                     check_derivation, lower_central_class)
from .nilgrp import NilpotentGroup, integer_map
from .poly import ParamVector, Poly
from .ratlin import QMatrix, _exp_int_rows, _reduced, to_fraction


class Mismatch(ValueError):
    """The direct and the embedded evaluation of the map disagree.

    sample is (point, ((parameter, value), ...)); direct is the point that
    route one gives, embedded the fiber point of route two, or the whole
    point of the big group when its circle coordinate is not an integer
    (the reason then says so).
    """

    def __init__(self, sample, direct, embedded, reason=None):
        point, values = sample
        at = ", ".join([f"point {_text(point)}", *(f"{p} = {v}" for p, v in values)])
        reason = reason or f"direct {_text(direct)} vs embedded {_text(embedded)}"
        super().__init__(f"embedding mismatch at {at}: {reason}")
        self.sample = sample
        self.direct = direct
        self.embedded = embedded


def _text(vec) -> str:
    return "(" + ", ".join(map(str, vec)) + ")"


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

    Everything runs on integer forms: D = log U comes with its integer
    rows, the suspended algebra is built from them and the fiber's integer
    pairs, its Jacobi identity is checked on the triples with delta only,
    where it is the derivation identity for D (every other triple is one
    of the fiber, checked when the system was loaded), and its class comes
    from one forward pass of the lower central series.
    """
    group: NilpotentGroup = system.group
    D = group.log_automorphism(system.automorphism)
    big_spec = build_suspension_algebra(group.spec, D)
    check_derivation(big_spec)
    big_group = NilpotentGroup._of_class(big_spec, lower_central_class(big_spec))
    a = system.translation
    lifted = ParamVector(a.params, [Poly.zero(a.params), *a.entries])
    delta = ParamVector(a.params, [Poly.constant(1, a.params),
                                   *[Poly.zero(a.params)] * group.dim])
    w = big_group.mult(lifted, delta)
    return SuspendedSystem(big_spec, big_group, D, system.lattice, w, system)


def monodromy_adjoint_check(susp: SuspendedSystem) -> bool:
    """Conjugation by exp(delta) must act on the fiber exactly as U does:
    exp(ad delta) = diag(1, U) on the big algebra.  Both sides are
    compared as integer forms, which are canonical: exp(ad delta) is
    summed in integers from ad delta's integer rows, and no Fraction is
    built."""
    den, rows = _reduced(*_exp_int_rows(ad_int_rows(susp.big_algebra, 0)))
    u_den, u_rows = susp.base.automorphism.int_rows()
    return den == u_den and rows[0] == ((0, den),) and all(
        row == tuple((j + 1, v) for j, v in u_row) for row, u_row in zip(rows[1:], u_rows))


def embedding_consistency_check(susp: SuspendedSystem, samples: int) -> bool:
    """Evaluate the suspended map susp.base directly and through the
    suspension.

    Route one applies exp(x) -> exp(a) U(exp x) downstairs.  Route two
    multiplies by the embedded translation in the big group, quotients the
    circle coordinate by its lattice (here the circle coordinate of the
    product is exactly 1, so one factor of exp(-delta) clears it) and drops
    to the fiber.  Both routes must give the same point of N exactly, and
    so the same point of N / exp(Lambda).  Checks `samples` seeded
    points and parameter values; raises ValueError when samples < 1.

    Each sample stays in integer numerators, one denominator per vector:
    a and w are evaluated at the parameter values as one integer
    polynomial map (nilgrp.integer_map), a, w, x and U x are brought to
    one denominator, and the three products run through each group's
    integer law (NilpotentGroup.law).  The routes are compared by
    cross-multiplication; Fractions are built only for a Mismatch.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    system = susp.base
    group: NilpotentGroup = system.group
    d = group.dim
    a = system.translation
    law, big_law = group.law(), susp.big_group.law()
    evaluate = integer_map(ParamVector(a.params, (*a.entries, *susp.embedded_translation.entries)))
    cu, rows = system.automorphism.int_rows()  # U = rows / cu
    rng = Random(2024)  # a fixed sample set keeps suspend output reproducible

    for _ in range(samples):
        drawn = [(rng.randrange(-40, 41), rng.randrange(1, 9)) for _ in a.params]
        at = lcm(*(m for _, m in drawn))  # the parameter values over at
        values = evaluate([n * (at // m) for n, m in drawn], at)  # a and w
        over = evaluate.over(at)
        drawn_point = [(rng.randrange(-24, 25), rng.randrange(1, 13)) for _ in range(d)]
        q = lcm(*(m for _, m in drawn_point))
        point = [p * (q // m) for p, m in drawn_point]  # x over q
        ux = [sum(x * point[j] for j, x in row) for row in rows]  # U x over cu q
        den = lcm(over, cu * q)
        values = [x * (den // over) for x in values]
        direct = law([*values[:d], *[x * (den // (cu * q)) for x in ux]], den)
        direct_den = law.over(den)
        up = big_law([*values[d:], 0, *[x * (den // q) for x in point]], den)
        up_den = big_law.over(den)
        k, r = divmod(up[0], up_den)
        if not r:
            down = big_law([*up, -k * up_den, *[0] * d], up_den)
            down_den = big_law.over(up_den)
            if not down[0] and all(x * down_den == y * direct_den
                                   for x, y in zip(direct, down[1:])):
                continue
        sample = (tuple(Fraction(p, m) for p, m in drawn_point),
                  tuple(sorted((name, Fraction(n, m)) for name, (n, m) in zip(a.params, drawn))))
        direct = tuple(Fraction(x, direct_den) for x in direct)
        up = tuple(Fraction(x, up_den) for x in up)
        if r:
            raise Mismatch(sample, direct, up,
                           f"circle coordinate {up[0]} of the embedded point is not an integer")
        raise Mismatch(sample, direct, susp.fiber(tuple(Fraction(x, down_den) for x in down)))
    return True
