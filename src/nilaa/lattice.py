"""Lattices in nilpotent groups, given by logarithm bases.

A cocompact discrete subgroup is specified by an invertible rational matrix
whose columns are the logarithms of its generators.  The package works with
lattices whose log coordinates form an additive lattice closed under BCH
(true of every example shipped here, e.g. the lattice on the Heisenberg
basis xi_1, xi_2, xi_3/2, which contains the integer Heisenberg group
H(Z) with index 2; H(Z) is not of this form).  Validation decides this
exactly: the group law in lattice coordinates is one polynomial map on
Z^d x Z^d, and it is integer-valued there if and only if its
coefficients in the basis of products of binomial coefficients are
integers.  It is computed on the Hermite basis of the span, which is
triangular whatever basis is given; a basis that is already its own
Hermite basis is used as it is.  The whole test runs in integers: one
product of the group's integer BCH kernel on integer linear forms, and
one divisibility test per coefficient.  On an abelian algebra the law is
m + n, so closure holds by structure and no product is expanded.  The
central lattice vectors are the integer kernel of the centre equations,
built from the nonzero structure constants only; on a torus every
lattice vector is central.
The same law in lattice coordinates gives the orbit oracle's coset
reduction (orbit.CosetReducer).

Everything here reads the integer forms of its matrices
(ratlin.QMatrix.int_rows): the law, the Hermite test, basis and central
lattice, and preserves_lattice, which forms U_L = L^-1 U L as one
integer product.  A
LogLattice's inverse is solved on the integer form of its basis and keeps
only its integer form until its Fractions are read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence

from .nilalg import LieAlgebraSpec, _centre_rows
from .nilgrp import NilpotentGroup, _add_scaled_int
from .ratlin import QMatrix, _column_qmatrix, _int_product, _int_qmatrix, integer_kernel, zspan_basis


class LatticeClosureError(ValueError):
    """A BCH product of lattice points leaves the integer span.

    pair is ((i, si), (j, sj)) for the signed generators si*gen_i and
    sj*gen_j, or (("combo", m), ("combo", n)) for the lattice points with
    integer coordinate vectors m and n.
    """

    def __init__(self, pair, coords):
        self.pair = pair
        self.coords = coords
        left, right = (_describe_factor(f) for f in pair)
        super().__init__(
            f"bch({left}, {right}) "
            f"has non-integer lattice coordinates {tuple(str(c) for c in coords)}")


def _describe_factor(factor) -> str:
    """Render (1, -1) as -gen1 and ("combo", (1, 0, -2)) as gen0 - 2*gen2."""
    tag, value = factor
    if tag != "combo":
        return f"{'-' if value < 0 else ''}gen{tag}"
    text = ""
    for k, c in enumerate(value):
        if c:
            if text:
                text += " - " if c < 0 else " + "
            elif c < 0:
                text = "-"
            text += f"{'' if abs(c) == 1 else f'{abs(c)}*'}gen{k}"
    return text or "0"


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

    def __hash__(self) -> int:
        return hash(self.dim)  # consistent with __eq__, and cheap

    def __repr__(self) -> str:
        return f"LogLattice(dim={self.dim})"


@lru_cache(maxsize=None)
def _binomial_row(k: int) -> tuple[int, ...]:
    """S(k, j) * j! for j = 0..k, so that x^k = sum_j S(k, j) j! C(x, j)."""
    if k == 0:
        return (1,)
    prev = _binomial_row(k - 1) + (0,)
    return (0,) + tuple(j * (prev[j] + prev[j - 1]) for j in range(1, k + 1))


@lru_cache(maxsize=1)
def _lattice_law(group: NilpotentGroup, lattice: LogLattice
                 ) -> tuple[list[dict], int, int]:
    """P(m, n) = L^-1 bch(L m, L n), the group law in the coordinates of
    the basis L of lattice, as (laws, modulus, bits): P_k = laws[k] /
    modulus, integer polynomials packed as in _lyndon, with `bits` bits
    per exponent of z = (m, n).  L = B / D and L^-1 = A / E with B, A
    integral, so _lyndon on the linear forms B m, B n over D gives
    bch(L m, L n) over base, and A applied to it gives P over E base.
    The last law is kept, read-only, for the coset reducer of the system
    whose closure certificate expanded it, on a basis that is its own
    Hermite basis, as a positive diagonal one is."""
    d = group.dim
    bits = group.nilpotency_class.bit_length()
    units = [1 << (bits * i) for i in range(2 * d)]
    D, B = lattice.basis.int_rows()
    forms = [[{units[offset + i]: b for i, b in row} for row in B]
             for offset in (0, d)]
    out, base = group._lyndon(*forms, D)
    E, A = lattice._inverse.int_rows()
    laws = []
    for row in A:
        law: dict[int, int] = {}
        for j, a in row:
            if out[j]:
                _add_scaled_int(law, a, out[j])
        laws.append({m: c for m, c in law.items() if c})
    return laws, E * base, bits


def _non_integer_binomial_indices(group: NilpotentGroup, hermite: LogLattice
                                   ) -> set[tuple[int, ...]]:
    """Multi-indices J over z = (m, n) whose coefficient of
    prod_i C(z_i, J_i) in the law P of _lattice_law on the lower
    triangular basis H of hermite is not an integer, that is not divisible
    by the modulus; only residues are expanded, since the basis change
    has integer entries.  A J packs its 2d entries like a monomial."""
    laws, modulus, bits = _lattice_law(group, hermite)
    bad = set()
    for law in laws:
        acc: dict[int, int] = {}
        for m, c in law.items():
            c %= modulus
            if not c:
                continue
            partial = [(0, c)]
            while m:  # one variable of m at a time, by decreasing index
                shift = (m.bit_length() - 1) // bits * bits
                k = m >> shift
                m -= k << shift
                partial = [(J + (i << shift), e * t) for J, e in partial
                           for i, t in enumerate(_binomial_row(k)) if t]
            for J, e in partial:
                acc[J] = acc.get(J, 0) + e
        bad.update(J for J, e in acc.items() if e % modulus)
    mask = (1 << bits) - 1
    return {tuple(J >> (bits * i) & mask for i in range(2 * group.dim))
            for J in bad}


def validate_lattice(group: NilpotentGroup, lattice: LogLattice) -> LogLattice:
    """Check exactly that the integer span of the generators is closed
    under BCH; returns the Hermite basis of the span.

    Closure depends on the span only, so the check runs on its Hermite
    basis H (lower triangular, positive pivots, reduced entries), which
    keeps the product sparse however dense the given basis is.  A basis
    that is its own Hermite basis, such as a positive diagonal one, is
    used as given, with its inverse.  The group law in H coordinates,
    P(m, n) = H^-1 bch(H m, H n) over the integer points m, n of Z^d, is
    one polynomial map; each coordinate is written in the basis of
    products of binomials C(z_i, J_i) over z = (m, n).  A rational
    polynomial takes integer values on all of Z^2d if and only if every
    such coefficient is an integer (Polya), so this is a finite
    certificate of closure.  It is decided in integers on _lattice_law,
    one integer product, by a divisibility test per coefficient.  On an
    abelian algebra P(m, n) = m + n and no product is made.

    A failure raises LatticeClosureError, with the witness in the given
    generators.  It is the first signed generator pair whose product
    leaves the span, scanning i, j, si, sj in that order; failing any, it
    is the point H J for a non-integer coefficient J minimal in the
    product order, where P(J) is that coefficient plus an integer.
    """
    if lattice.dim != group.dim:
        raise ValueError("lattice dimension does not match the algebra")
    d = group.dim
    hermite = lattice if _is_hermite(lattice.basis) else LogLattice(zspan_basis(lattice.basis))
    if group.spec.abelian():  # the law is m + n: every additive lattice is closed
        return hermite
    bad = _non_integer_binomial_indices(group, hermite)
    if not bad:
        return hermite

    for i, j, si, sj in product(range(d), range(d), (1, -1), (1, -1)):
        if i != j:
            coords = lattice.to_coords(group.mult_vec(
                [si * g for g in lattice.generator(i)],
                [sj * g for g in lattice.generator(j)]))
            if any(c.denominator != 1 for c in coords):
                raise LatticeClosureError(((i, si), (j, sj)), coords)
    J = min(bad, key=lambda J: (sum(J), J))
    u, v = hermite.from_coords(J[:d]), hermite.from_coords(J[d:])
    raise LatticeClosureError(
        tuple(("combo", tuple(int(c) for c in lattice.to_coords(p))) for p in (u, v)),
        lattice.to_coords(group.mult_vec(u, v)))


def _is_hermite(basis: QMatrix) -> bool:
    """Is the invertible basis its own Hermite basis: lower triangular,
    with positive diagonal and each entry left of it in [0, diagonal)?
    Read from the integer form: row i's last nonzero entry is its
    diagonal one, and the others lie strictly between 0 and it."""
    return all(row and row[-1][0] == i and row[-1][1] > 0
               and all(0 < x < row[-1][1] for _, x in row[:-1])
               for i, row in enumerate(basis.int_rows()[1]))


def preserves_lattice(matrix: QMatrix, lattice: LogLattice
                      ) -> tuple[bool, str | None, QMatrix]:
    """Does the automorphism map the lattice onto itself?

    Requires the matrix in lattice coordinates to be integral with
    determinant +-1.  Returns (ok, reason when not ok, conjugated matrix).
    The conjugate U_L = L^-1 U L is one integer product of the integer
    forms, A R B over E F D for L^-1 = A / E, U = R / F and L = B / D, so
    it is integral exactly when E F D divides every entry of A R B.
    """
    E, A = lattice._inverse.int_rows()
    F, R = matrix.int_rows()
    D, B = lattice.basis.int_rows()
    conj = _int_qmatrix(matrix.ncols, E * F * D, _int_product(_int_product(A, R), B))
    if conj.int_rows()[0] != 1:
        return False, "matrix is not integral in lattice coordinates", conj
    det = conj.det()
    if det not in (1, -1):
        return False, f"determinant {det} in lattice coordinates is not a unit", conj
    return True, None, conj


def central_lattice_basis(group: NilpotentGroup, lattice: LogLattice
                          ) -> list[tuple[Fraction, ...]]:
    """Basis of the group of lattice vectors lying in the center."""
    return _central_lattice(group.spec, lattice).columns()


def _central_lattice(spec: LieAlgebraSpec, lattice: LogLattice) -> QMatrix:
    """L N, whose columns are central_lattice_basis: N has the integer
    kernel of the centre equations in lattice coordinates as columns (a
    zero equation costs the Hermite reduction no column operation, so
    they are left out).  On an abelian algebra it is L."""
    S, rows = _centre_rows(spec)
    kernel = integer_kernel(_int_qmatrix(spec.dim, S, rows) @ lattice.basis)
    return lattice.basis @ _column_qmatrix(spec.dim, 1, kernel)
