"""Lattices in nilpotent groups, given by logarithm bases.

A cocompact discrete subgroup is specified by an invertible rational matrix
whose columns are the logarithms of its generators.  The package works with
lattices whose log coordinates form an additive lattice closed under BCH
(true of every example shipped here, e.g. the integer Heisenberg group on
the basis xi_1, xi_2, xi_3/2), which validation enforces.

Coset reduction produces canonical fundamental-domain representatives by
greedily clearing lattice coordinates in an order along which right
multiplication by a generator shifts its own coordinate by exactly one and
leaves the already-cleared coordinates alone.  Such an order exists for
every weight-graded basis; it is detected symbolically at construction.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

from .nilgrp import NilpotentGroup
from .poly import ParamVector, Poly
from .ratlin import QMatrix, dot, integer_kernel, to_fraction

COSET_DIM_CAP = 7


class LatticeClosureError(ValueError):
    """A BCH product of generators leaves the integer span; carries the pair."""

    def __init__(self, pair, coords):
        self.pair = pair
        self.coords = coords
        (i, si), (j, sj) = pair
        super().__init__(
            f"bch({'-' if si < 0 else ''}gen{i}, {'-' if sj < 0 else ''}gen{j}) "
            f"has non-integer lattice coordinates {tuple(str(c) for c in coords)}")


class LogLattice:
    """Invertible rational matrix of generator logarithms (as columns)."""

    __slots__ = ("basis", "_inverse")

    def __init__(self, basis: QMatrix):
        if not basis.is_square():
            raise ValueError("lattice basis matrix must be square")
        self.basis = basis
        try:
            self._inverse = basis.inverse()
        except ZeroDivisionError:
            raise ValueError("lattice basis is singular") from None

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[object]]) -> "LogLattice":
        return cls(QMatrix.from_columns(columns))

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def generator(self, i: int) -> tuple[Fraction, ...]:
        return self.basis.column(i)

    def to_coords(self, vec: Sequence[object]) -> tuple[Fraction, ...]:
        return self._inverse.matvec(vec)

    def from_coords(self, coords: Sequence[object]) -> tuple[Fraction, ...]:
        return self.basis.matvec(coords)

    def contains(self, vec: Sequence[object]) -> bool:
        return all(c.denominator == 1 for c in self.to_coords(vec))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogLattice):
            return NotImplemented
        return self.basis == other.basis

    def __repr__(self) -> str:
        return f"LogLattice(dim={self.dim})"


def validate_lattice(group: NilpotentGroup, lattice: LogLattice,
                     samples: int = 20, seed: int = 0) -> dict:
    """Check BCH closure of the integer span of the generators.

    All signed generator pairs are multiplied and required to land back in
    the integer span; a seeded batch of random integer combinations guards
    against non-closure that pairwise products alone could miss.  Returns the
    integer coordinate table of the signed pair products.
    """
    if lattice.dim != group.dim:
        raise ValueError("lattice dimension does not match the algebra")
    d = group.dim
    table = {}
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            for si in (1, -1):
                for sj in (1, -1):
                    v = tuple(si * x for x in lattice.generator(i))
                    w = tuple(sj * x for x in lattice.generator(j))
                    coords = lattice.to_coords(group.mult_vec(v, w))
                    if any(c.denominator != 1 for c in coords):
                        raise LatticeClosureError(((i, si), (j, sj)), coords)
                    table[(i, si, j, sj)] = tuple(int(c) for c in coords)
    rng = random.Random(seed)
    for _ in range(samples):
        z1 = [rng.randrange(-3, 4) for _ in range(d)]
        z2 = [rng.randrange(-3, 4) for _ in range(d)]
        v = lattice.from_coords(z1)
        w = lattice.from_coords(z2)
        coords = lattice.to_coords(group.mult_vec(v, w))
        if any(c.denominator != 1 for c in coords):
            raise LatticeClosureError((("combo", tuple(z1)), ("combo", tuple(z2))), coords)
    return table


def preserves_lattice(matrix: QMatrix, lattice: LogLattice
                      ) -> tuple[bool, str | None, QMatrix]:
    """Does the automorphism map the lattice onto itself?

    Requires the matrix in lattice coordinates to be integral with
    determinant +-1.  Returns (ok, reason when not ok, conjugated matrix).
    """
    conj = lattice._inverse @ matrix @ lattice.basis
    if not conj.is_integral():
        return False, "matrix is not integral in lattice coordinates", conj
    det = conj.det()
    if det not in (1, -1):
        return False, f"determinant {det} in lattice coordinates is not a unit", conj
    return True, None, conj


def central_lattice_basis(group: NilpotentGroup, lattice: LogLattice
                          ) -> list[tuple[Fraction, ...]]:
    """Basis of the group of lattice vectors lying in the center."""
    d = group.dim
    rows = []
    for i in range(d):
        unit = tuple(Fraction(int(k == i)) for k in range(d))
        rows.extend(group.spec.ad_matrix(unit).entries)
    stacked = QMatrix(rows) @ lattice.basis
    return [lattice.from_coords(n) for n in integer_kernel(stacked)]


class CosetReducer:
    """Canonical fundamental-domain representatives for N / Gamma.

    reduce() right-multiplies by integer powers of the generators until all
    lattice coordinates lie in [0, 1).
    """

    def __init__(self, group: NilpotentGroup, lattice: LogLattice):
        if lattice.dim > COSET_DIM_CAP:
            raise ValueError(f"coset reduction supports dimension <= {COSET_DIM_CAP}")
        if lattice.dim != group.dim:
            raise ValueError("lattice dimension does not match the algebra")
        self.group = group
        self.lattice = lattice
        self.ordering = self._detect_ordering()
        self._generators = [lattice.generator(i) for i in range(lattice.dim)]

    def _detect_ordering(self) -> tuple[int, ...]:
        d = self.lattice.dim
        params = ("t",) + tuple(f"y{k + 1}" for k in range(d))
        t = Poly.variable("t", params)
        y = ParamVector(params, [Poly.variable(f"y{k + 1}", params) for k in range(d)])
        x = self.lattice.basis.apply(y)
        chosen: list[int] = []
        remaining = list(range(d))
        while remaining:
            progress = False
            for i in list(remaining):  # greedy: first index that works
                gen = ParamVector.from_rationals(self.lattice.generator(i), params)
                moved = self.group.mult(x, gen.scale(t))
                coords = self.lattice._inverse.apply(moved)
                if coords[i] != y[i] + t:
                    continue
                if any(coords[j] != y[j] for j in chosen):
                    continue
                chosen.append(i)
                remaining.remove(i)
                progress = True
                break
            if not progress:
                raise ValueError(
                    f"no reduction ordering: none of {remaining} shifts cleanly "
                    f"after {chosen}")
        return tuple(chosen)

    def reduce(self, vec: Sequence[object]) -> tuple[Fraction, ...]:
        x = tuple(to_fraction(v) for v in vec)
        inverse_rows = self.lattice._inverse.sparse_rows()
        for i in self.ordering:
            k = math.floor(dot(inverse_rows[i], x))
            if k:
                step = tuple(-k * g for g in self._generators[i])
                x = self.group.mult_vec(x, step)
        coords = self.lattice.to_coords(x)  # 0 <= c < 1, as Fractions keep den > 0
        assert all(0 <= c.numerator < c.denominator for c in coords), \
            "reduction left the fundamental domain"
        return x

    def same_coset(self, u: Sequence[object], v: Sequence[object]) -> bool:
        """Do u and v represent the same point of N / Gamma?"""
        # u ~ v iff u^{-1} v is in the lattice subgroup
        diff = self.group.mult_vec(self.group.inv(u), v)
        return self.lattice.contains(diff)
