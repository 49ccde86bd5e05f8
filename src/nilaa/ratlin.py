"""Exact rational linear algebra.

Everything the deciders need from linear algebra lives here: reduced row
echelon form over the rationals, canonical subspace bases, characteristic
polynomials, Hermite normal form over the integers (for lattice membership
and integer kernels), and cyclotomic factor stripping for root-of-unity
spectra.

A matrix has one form, its integer form, made when it is built:
`QMatrix.int_rows()` is (den, rows), den the lcm of the entry
denominators and rows the nonzero entries times den as sparse (column,
integer) pairs.  It is canonical, so equality and hashing read it, and
so do products, the triangular solvers, the nilpotent series and the
integer kernels of the package: the validators of `nilalg` and
`lattice`, the group law in lattice coordinates, the suspension and the
orbit oracle.  The Fraction entries are a view of it, made when first
read, for the eliminations and for output.  `QMatrix(rows)` checks and
converts outside input and makes the integer form from it; results
built in integers (sums, products, the nilpotent series, triangular
inverses, U_L in `lattice`) are handed theirs by `_int_qmatrix(ncols,
den, rows)`, which makes it canonical, and the loader (`io`) builds its
matrices the same way from the nonzero literals it reads.

A triangular matrix needs no elimination: `QMatrix.det` is the product
of its diagonal, and `QMatrix.inverse` solves it by substitution over
the nonzero entries of its integer form.  Every diagonal or Hermite
lattice basis takes these paths, and so does a triangular U_L.  Other
matrices are eliminated by the sparse forward pass `_echelon`.  `rref`
adds a back pass to it, and `kernel_basis`, `solve_linear`, `QSubspace`,
`annihilator_basis` and `QMatrix.inverse` are built on `rref`;
`QMatrix.det` reads the signed pivot product of the forward pass alone.
Both passes touch only the nonzero entries of a pivot row and never
divide by a unit pivot, so the mostly-zero matrices of the deciders
(unipotent automorphisms) stay cheap.  Products read only the nonzero
entries of the integer form.  The one span that is computed on integer
vectors, the lower central series of `nilalg`, has a fraction-free
forward pass of its own, `_int_echelon`, over sparse integer vectors
kept primitive: on the algebras of the generated scaling systems it
takes a fifth of the time of `_echelon` on the same vectors.

The integer lattice layer (`zspan_basis`, `hnf_membership`,
`integer_kernel`) hands `column_hnf` the columns of a QMatrix's integer
form times one positive integer (`_int_columns`), which changes none of
its choices (least |entry|, floor quotients, signs), so U, the Hermite
basis and the coordinates are those of the rational columns.

The nilpotent series have one kernel too: `_nilpotent_powers` powers N
(M - I for a unipotent M) on the integer form until a power vanishes,
or finds N^n nonzero.  `unipotency_index` counts those powers, and
`matrix_log_unipotent` and `matrix_exp_nilpotent` sum them in integers
(`_power_series`) into the integer form of the result.  `charpoly`
(O(n^4)) serves only `power_unipotent`, which needs the whole spectrum.

No floating point anywhere in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from ._record import record
from .poly import ParamVector, _add_scaled, _cleaned, _vector


class NotUnipotent(ValueError):
    """The matrix has an eigenvalue other than 1."""


def to_fraction(x) -> Fraction:
    """x as a Fraction: Fractions pass through, ints and floats convert exactly."""
    return x if type(x) is Fraction else Fraction(x)


def _int_vector(vec: Iterable[object]) -> tuple[int, list[tuple[int, int]]]:
    """The nonzero entries of a rational vector over the lcm q of their
    denominators: (q, [(i, q x_i), ...]) by increasing i."""
    terms = [(i, x) for i, x in enumerate(map(to_fraction, vec)) if x]
    q = math.lcm(*(x.denominator for _, x in terms))
    return q, [(i, x.numerator * (q // x.denominator)) for i, x in terms]


_ZERO, _ONE = Fraction(0), Fraction(1)


class QMatrix:
    """Immutable matrix over the rationals, held as its integer form.

    The integer form (int_rows) is made when the matrix is built and is
    the one form it holds: equality, hashing, products and the
    triangular solvers read it.  The Fraction entries are a view of it,
    made when first read."""

    __slots__ = ("shape", "_entries", "_ints")

    def __init__(self, rows: Iterable[Iterable[object]]):
        entries = tuple(tuple(to_fraction(x) for x in row) for row in rows)
        if entries and any(len(r) != len(entries[0]) for r in entries):
            raise ValueError("ragged rows")
        self.shape = (len(entries), len(entries[0]) if entries else 0)
        self._entries = entries
        den = math.lcm(*(x.denominator for row in entries for x in row))
        self._ints = den, tuple(
            tuple((j, x.numerator * (den // x.denominator)) for j, x in enumerate(row) if x)
            for row in entries)

    # ---- constructors ----

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return _int_qmatrix(n, 1, [((i, 1),) for i in range(n)])

    @classmethod
    def zeros(cls, n: int) -> "QMatrix":
        return _int_qmatrix(n, 1, [()] * n)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[object]]) -> "QMatrix":
        if not columns:
            raise ValueError("no columns")
        if any(len(c) != len(columns[0]) for c in columns):
            raise ValueError("ragged columns")
        return cls(zip(*columns))

    # ---- shape and access ----

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows as tuples of Fractions, made from the integer form
        when first read."""
        if self._entries is None:
            den, rows = self._ints
            out = []
            for row in rows:
                full = [_ZERO] * self.shape[1]
                for j, v in row:
                    full[j] = Fraction(v, den)
                out.append(tuple(full))
            self._entries = tuple(out)
        return self._entries

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.entries[ij[0]][ij[1]]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[tuple[Fraction, ...]]:
        return [self.column(j) for j in range(self.ncols)]

    def int_rows(self) -> tuple[int, tuple]:
        """The integer form (den, rows): den the lcm of the denominators of
        the entries, and den times the nonzero entries of each row as
        (column, integer) pairs by increasing column.  It is canonical, so
        two matrices of one shape are equal exactly when their integer
        forms are."""
        return self._ints

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_integral(self) -> bool:
        return self._ints[0] == 1

    def is_zero(self) -> bool:
        return not any(self._ints[1])

    # ---- arithmetic ----

    def __add__(self, other: "QMatrix") -> "QMatrix":
        """The sum of the integer forms over the lcm of their denominators."""
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        (d1, r1), (d2, r2) = self._ints, other._ints
        den = math.lcm(d1, d2)
        rows = []
        for a, b in zip(r1, r2):
            acc = {j: v * (den // d1) for j, v in a}
            for j, v in b:
                acc[j] = acc.get(j, 0) + v * (den // d2)
            rows.append(sorted((j, v) for j, v in acc.items() if v))
        return _int_qmatrix(self.ncols, den, rows)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self + -other

    def __neg__(self) -> "QMatrix":
        den, rows = self._ints
        return _int_qmatrix(self.ncols, -den, rows)  # made canonical by a sign flip

    def scale(self, c) -> "QMatrix":
        c = to_fraction(c)
        den, rows = self._ints
        if not c:
            return _int_qmatrix(self.ncols, 1, [()] * self.nrows)
        return _int_qmatrix(self.ncols, den * c.denominator,
                            [[(j, v * c.numerator) for j, v in row] for row in rows])

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        (d1, r1), (d2, r2) = self._ints, other._ints
        return _int_qmatrix(other.ncols, d1 * d2, _int_product(r1, r2))

    def matvec(self, vec: Sequence[object]) -> tuple[Fraction, ...]:
        """Matrix times a rational vector, summed in integers: the vector
        over its common denominator q, each row over den * q."""
        vec = [to_fraction(x) for x in vec]
        if len(vec) != self.ncols:
            raise ValueError(f"shape mismatch {self.shape} times {len(vec)}")
        den, rows = self._ints
        q = math.lcm(*(x.denominator for x in vec))
        nums = [x.numerator * (q // x.denominator) for x in vec]
        return tuple(Fraction(sum(v * nums[j] for j, v in row), den * q) for row in rows)

    def apply(self, vec: ParamVector) -> ParamVector:
        """Matrix times a vector of polynomials."""
        if vec.dim != self.ncols:
            raise ValueError(f"shape mismatch {self.shape} times {vec.dim}")
        den, rows = self._ints
        out = []
        for row in rows:
            acc = {}
            for j, v in row:
                _add_scaled(acc, v if den == 1 else Fraction(v, den), vec.entries[j].terms)
            out.append(_cleaned(vec.params, acc))
        return _vector(vec.params, tuple(out))

    def __pow__(self, n: int) -> "QMatrix":
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
        if not isinstance(n, int):
            raise TypeError("integer power required")
        if n < 0:
            return self.inverse() ** (-n)
        out = QMatrix.identity(self.nrows)
        base = self
        while n:
            if n & 1:
                out = out @ base
            base = base @ base
            n >>= 1
        return out

    def trace(self) -> Fraction:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        den, rows = self._ints
        return Fraction(sum(v for i, row in enumerate(rows) for j, v in row if j == i), den)

    def _substitution_order(self) -> range | None:
        """The order in which substitution solves this square matrix row by
        row: top down when it is lower triangular, bottom up when it is
        upper triangular; None when it is neither.  Read from the columns
        of the integer form."""
        rows = self._ints[1]
        if all(not row or row[-1][0] <= i for i, row in enumerate(rows)):
            return range(len(rows))
        if all(not row or row[0][0] >= i for i, row in enumerate(rows)):
            return range(len(rows) - 1, -1, -1)
        return None

    def inverse(self) -> "QMatrix":
        """Inverse; ZeroDivisionError when the matrix is singular.

        A triangular matrix is solved by substitution on its integer form
        M = B / D: row i of the inverse X is (D e_i - sum over j != i of
        B_ij X_j) / B_ii, over the nonzero B_ij, and in the substitution
        order every X_j it reads is already known.  Each row is kept as
        integers over its own denominator, and the inverse is handed its
        integer form.  Any other matrix is reduced as [M | I] by `rref`."""
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        order = self._substitution_order()
        if order is None:
            aug = [list(row) + [_ONE if i == j else _ZERO for j in range(n)]
                   for i, row in enumerate(self.entries)]
            reduced, pivots = rref(aug)
            if pivots != list(range(n)):
                raise ZeroDivisionError("matrix is singular")
            return QMatrix(row[n:] for row in reduced)
        D, rows = self._ints
        inv: list = [None] * n  # row i as (q, {column: integer}): X_i = Y / q, q of either sign
        for i in order:
            row = rows[i]
            pivot, q = 0, 1  # B_ii, and the lcm of the denominators of the X_j read
            for j, b in row:
                if j == i:
                    pivot = b
                else:
                    q = math.lcm(q, inv[j][0])
            if not pivot:
                raise ZeroDivisionError("matrix is singular")
            acc = {i: D * q}
            for j, b in row:
                if j != i:
                    qj, y = inv[j]
                    f = b * (q // qj)
                    for k, v in y.items():
                        acc[k] = acc.get(k, 0) - f * v
            den = q * pivot
            g = math.gcd(den, *acc.values())
            inv[i] = den // g, {k: v // g for k, v in sorted(acc.items()) if v}
        E = math.lcm(*(q for q, _ in inv))
        return _int_qmatrix(n, E, tuple(tuple((k, v * (E // q)) for k, v in y.items())
                                        for q, y in inv))

    def det(self) -> Fraction:
        """Determinant: the product of the diagonal of a triangular matrix,
        otherwise the signed product of the pivots of one forward
        elimination, 0 when a column has no pivot."""
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        if self._substitution_order() is not None:  # the diagonal of the integer form
            den, rows = self._ints
            return Fraction(math.prod(dict(row).get(i, 0) for i, row in enumerate(rows)),
                            den ** self.nrows)
        mat, pivots, sign = _echelon(self.entries)
        if len(pivots) < self.nrows:
            return Fraction(0)
        return math.prod((mat[r][r] for r in range(self.nrows)),
                         start=Fraction(sign))

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.shape == other.shape and self._ints == other._ints

    def __hash__(self):
        return hash(self._ints)

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(x) for x in row) + "]"
                         for row in self.entries)

    def __repr__(self) -> str:
        return f"QMatrix({[list(map(str, row)) for row in self.entries]})"


def _int_qmatrix(ncols: int, den: int, rows: Sequence[Sequence[tuple[int, int]]]
                 ) -> QMatrix:
    """The QMatrix of integer rows over den ((column, integer) pairs of
    the nonzero entries, by increasing column), unchecked and made
    canonical by `_reduced`; its entries are made when first read."""
    m = object.__new__(QMatrix)
    m.shape = (len(rows), ncols)
    m._entries = None
    m._ints = _reduced(den, rows)
    return m


def _reduced(den: int, rows: Sequence[Sequence[tuple[int, int]]]) -> tuple[int, tuple]:
    """Integer rows over den divided by their gcd with den, signed so that
    the denominator is positive: the canonical integer form
    (QMatrix.int_rows) of the matrix they give."""
    g = math.gcd(den, *(v for row in rows for _, v in row))
    if den < 0:
        g = -g
    if g == 1:
        return den, tuple(map(tuple, rows))
    return den // g, tuple(tuple((j, v // g) for j, v in row) for row in rows)


def _int_product(rows: Sequence, other: Sequence) -> list:
    """The product of two matrices given as integer rows ((column,
    integer) pairs of the nonzero entries), as integer rows by increasing
    column."""
    out = []
    for row in rows:
        acc: dict[int, int] = {}
        for k, a in row:
            for j, b in other[k]:
                acc[j] = acc.get(j, 0) + a * b
        out.append(sorted((j, v) for j, v in acc.items() if v))
    return out


# ---- echelon forms over the rationals ----

def _echelon(rows: Iterable[Iterable[object]]
             ) -> tuple[list[list[Fraction]], list[int], int]:
    """Row echelon form by forward elimination; returns (rows, pivot
    columns, sign).

    Each column's pivot is the first nonzero row at or below its place and
    clears that column in the rows below it.  sign is (-1)^(row swaps), so
    a square matrix has determinant sign times the product of its pivots
    when every column has one.  Elimination runs over the nonzero entries
    of the pivot row only, and a unit pivot is not divided by.
    """
    mat = [[to_fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    sign = 1
    m = len(mat)
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        p = next((i for i in range(r, m) if mat[i][c]), None)
        if p is None:
            continue
        if p != r:
            mat[r], mat[p] = mat[p], mat[r]
            sign = -sign
        prow = mat[r]
        pivot = prow[c]
        nz = [j for j in range(c + 1, ncols) if prow[j]]
        for row in mat[r + 1:]:
            x = row[c]
            if x:
                f = x if pivot == 1 else x / pivot
                row[c] = _ZERO
                for j in nz:
                    row[j] -= f * prow[j]
        pivots.append(c)
    return mat, pivots, sign


def _int_echelon(vectors: Iterable[dict]) -> list[dict]:
    """Echelon rows, one per leading column, spanning the integer vectors
    ({column: integer}, nonzero entries only): each vector is reduced,
    fraction-free, by the rows whose leading column it holds, and kept
    primitive when it does not vanish."""
    rows: dict[int, dict] = {}
    for v in vectors:
        while v:
            c = min(v)
            row = rows.get(c)
            if row is None:
                g = math.gcd(*v.values())
                rows[c] = v if g == 1 else {k: x // g for k, x in v.items()}
                break
            g = math.gcd(row[c], v[c])
            a, b = row[c] // g, v[c] // g
            acc = {k: a * x for k, x in v.items()}
            for k, x in row.items():
                acc[k] = acc.get(k, 0) - b * x
            v = {k: x for k, x in acc.items() if x}
    return list(rows.values())


def rref(rows: Iterable[Iterable[object]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    _echelon, then a back pass from the last pivot up: each pivot row is
    scaled to a unit pivot (skipped when it already is one) and clears its
    column in the rows above, over its nonzero entries only.
    """
    mat, pivots, _ = _echelon(rows)
    ncols = len(mat[0]) if mat else 0
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        prow = mat[r]
        nz = [j for j in range(c + 1, ncols) if prow[j]]
        if prow[c] != 1:
            inv = 1 / prow[c]
            prow[c] = _ONE
            for j in nz:
                prow[j] *= inv
        for row in mat[:r]:
            f = row[c]
            if f:
                row[c] = _ZERO
                for j in nz:
                    row[j] -= f * prow[j]
    return mat, pivots


def kernel_basis(matrix: QMatrix) -> list[tuple[Fraction, ...]]:
    """Canonical basis of the right kernel (free variables set to 1)."""
    reduced, pivots = rref(matrix.entries)
    n = matrix.ncols
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(tuple(vec))
    return basis


def solve_linear(matrix: QMatrix, rhs: Sequence[object]) -> tuple[Fraction, ...] | None:
    """One exact solution of matrix @ x = rhs, or None if inconsistent."""
    rhs = [to_fraction(x) for x in rhs]
    if len(rhs) != matrix.nrows:
        raise ValueError("right hand side has wrong length")
    aug = [list(row) + [b] for row, b in zip(matrix.entries, rhs)]
    reduced, pivots = rref(aug)
    n = matrix.ncols
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][n]
    return tuple(x)


class QSubspace:
    """Rational subspace of Q^n with a canonical (RREF) basis."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Sequence[Sequence[object]]):
        reduced, pivots = rref(basis)
        self.ambient_dim = ambient_dim
        self.basis = tuple(tuple(reduced[r]) for r in range(len(pivots)))
        for row in self.basis:
            if len(row) != ambient_dim:
                raise ValueError("basis vector has wrong dimension")

    @classmethod
    def from_spanning(cls, vectors: Iterable[Sequence[object]], ambient_dim: int) -> "QSubspace":
        vecs = [tuple(map(to_fraction, v)) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("spanning vector has wrong dimension")
        return cls(ambient_dim, vecs)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec: Sequence[object]) -> bool:
        v = list(map(to_fraction, vec))
        if len(v) != self.ambient_dim:
            raise ValueError("vector has wrong dimension")
        for row in self.basis:
            pc = next(i for i, x in enumerate(row) if x)
            if v[pc]:
                f = v[pc]
                v = [a - f * b for a, b in zip(v, row)]
        return not any(v)

    def sum_with(self, other: "QSubspace") -> "QSubspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return QSubspace(self.ambient_dim, list(self.basis) + list(other.basis))

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSubspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"QSubspace(dim {self.dim} of Q^{self.ambient_dim})"


def annihilator_basis(vectors: Iterable[Sequence[object]], ambient_dim: int) -> list[tuple[Fraction, ...]]:
    """Covectors phi with phi . v = 0 for every given vector."""
    vecs = [tuple(map(to_fraction, v)) for v in vectors]
    if not vecs:
        return [tuple(row) for row in QMatrix.identity(ambient_dim).entries]
    return kernel_basis(QMatrix(vecs))


def minimal_rational_subspace(vec: ParamVector) -> QSubspace:
    """Smallest rational subspace containing vec for all parameter values.

    Parameters are algebraically independent reals, so this is the span of
    the per-monomial coefficient vectors.
    """
    return QSubspace.from_spanning(vec.coefficient_vectors().values(), vec.dim)


# ---- characteristic polynomial and unipotency ----

def charpoly(matrix: QMatrix) -> list[Fraction]:
    """Coefficients of det(x I - M), low degree first, monic.

    Faddeev-LeVerrier, O(n^4).  Only `power_unipotent` needs the spectrum;
    `unipotency_index` and `QMatrix.det` get their answers more cheaply.
    """
    if not matrix.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = matrix.nrows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    M = QMatrix.zeros(n)
    for k in range(1, n + 1):
        M = matrix @ M + QMatrix.identity(n).scale(coeffs[n - k + 1])
        coeffs[n - k] = -(matrix @ M).trace() / k
    return coeffs


def _nilpotent_powers(ints: tuple[int, tuple], shift: bool) -> tuple[int, list] | None:
    """The nonzero powers of N = M - I (shift) or N = M, in integers, for
    the integer form (D, rows) of a square M (QMatrix.int_rows).

    N is powered by integer sparse products until a power vanishes.
    Returns (D, powers) with powers[k - 1] the rows of (D N)^k as
    {column: int}, so that N^k = powers[k - 1] / D^k, listing every nonzero
    power; None when N^n is still nonzero, that is when N is not nilpotent.
    """
    D, rows = ints
    n = len(rows)
    base = []
    for i, row in enumerate(rows):
        scaled = dict(row)
        if shift:  # D N = D M - D I
            scaled[i] = scaled.get(i, 0) - D
        base.append({j: v for j, v in scaled.items() if v})
    powers = []
    power = base
    while any(power):
        powers.append(power)
        if len(powers) == n:
            return None
        nxt = []
        for row in power:
            acc = {}
            get = acc.get
            for k, a in row.items():
                for j, b in base[k].items():
                    acc[j] = get(j, 0) + a * b
            nxt.append({j: v for j, v in acc.items() if v})
        power = nxt
    return D, powers


def _power_series(n: int, D: int, powers: list, coeffs: Sequence[Fraction],
                  identity: bool) -> tuple[int, list]:
    """I (when identity) plus the sum of coeffs[k - 1] N^k, for the powers
    of `_nilpotent_powers`, as (L, rows): every entry is summed as an
    integer over the common denominator L = lcm(coeff denominators) * D^m,
    m the number of powers, and the rows hold the nonzero sums by column
    (not reduced: `_reduced` makes their integer form)."""
    m = len(powers)
    q = math.lcm(*(c.denominator for c in coeffs))
    L = q * D ** m
    acc = [{i: L} if identity else {} for i in range(n)]
    for k, (c, power) in enumerate(zip(coeffs, powers), 1):
        w = c.numerator * (q // c.denominator) * D ** (m - k)
        for a, row in zip(acc, power):
            get = a.get
            for j, v in row.items():
                a[j] = get(j, 0) + w * v
    return L, [sorted((j, v) for j, v in a.items() if v) for a in acc]


def unipotency_index(matrix: QMatrix) -> int | None:
    """Least k with (M - I)^k = 0, or None when M is not unipotent.

    M is unipotent exactly when N = M - I is nilpotent, that is when
    N^n = 0, so powering N up to n (`_nilpotent_powers`) decides it
    without the spectrum; k is the number of nonzero powers plus 1, and 0
    for the empty matrix.  A nilpotent N has trace 0, which rejects most
    other matrices before any power.
    """
    if not matrix.is_square():
        raise ValueError("unipotency of a non-square matrix")
    n = matrix.nrows
    den, rows = ints = matrix.int_rows()
    if sum(v for i, row in enumerate(rows) for j, v in row if j == i) != n * den:
        return None  # the trace is not n
    found = _nilpotent_powers(ints, shift=True)
    if found is None:
        return None
    return len(found[1]) + 1 if n else 0


def matrix_exp_nilpotent(matrix: QMatrix) -> QMatrix:
    """exp of a nilpotent matrix, exact: the series I + sum N^k / k!
    terminates, and is summed from the integer powers of
    `_nilpotent_powers` with one Fraction per entry."""
    if not matrix.is_square():
        raise ValueError("exp of a non-square matrix")
    return _int_qmatrix(matrix.nrows, *_exp_int_rows(matrix.int_rows()))


def _exp_int_rows(ints: tuple[int, tuple]) -> tuple[int, list]:
    """exp of the nilpotent matrix of integer form ints, as integer rows
    over one denominator, not reduced (`_power_series`); raises
    ValueError when it is not nilpotent."""
    found = _nilpotent_powers(ints, shift=False)
    if found is None:
        raise ValueError("matrix is not nilpotent")
    D, powers = found
    coeffs = [Fraction(1, math.factorial(k)) for k in range(1, len(powers) + 1)]
    return _power_series(len(ints[1]), D, powers, coeffs, identity=True)


def matrix_log_unipotent(matrix: QMatrix) -> QMatrix:
    """log of a unipotent matrix via the Mercator series
    sum (-1)^(k+1) N^k / k, N = M - I, which ends at the first vanishing
    power (M is unipotent iff N^n = 0); summed from the integer powers of
    `_nilpotent_powers` with one Fraction per entry.  Raises NotUnipotent
    otherwise."""
    n = matrix.nrows
    if not matrix.is_square():
        raise ValueError(f"shape mismatch {matrix.shape} vs {(n, n)}")
    found = _nilpotent_powers(matrix.int_rows(), shift=True)
    if found is None:
        raise NotUnipotent("the matrix has an eigenvalue other than 1")
    D, powers = found
    coeffs = [Fraction((-1) ** (k + 1), k) for k in range(1, len(powers) + 1)]
    return _int_qmatrix(n, *_power_series(n, D, powers, coeffs, identity=False))


# ---- integer lattice computations (Hermite normal form) ----

def _int_columns(matrix: QMatrix, scale: int = 1) -> list[list[int]]:
    """The dense columns of scale times the integer form: `column_hnf`'s reader."""
    rows = [dict(row) for row in matrix.int_rows()[1]]
    return [[row.get(j, 0) * scale for row in rows] for j in range(matrix.ncols)]


def column_hnf(columns: list[list[int]], n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Column Hermite normal form.

    Returns (H, U) with H = A U (columns listed as vectors of length n),
    U unimodular over the integers, H in lower staircase form with positive
    pivots and reduced entries left of each pivot.
    """
    m = len(columns)
    H = [list(c) for c in columns]
    U = [[int(i == j) for j in range(m)] for i in range(m)]  # columns of U

    def col_op(j, k, q):  # column j -= q * column k, in both H and U
        H[j] = [a - q * b for a, b in zip(H[j], H[k])]
        U[j] = [a - q * b for a, b in zip(U[j], U[k])]

    c = 0
    for i in range(n):
        if c >= m:
            break
        # euclid out row i across columns c..m-1
        while True:
            nz = [j for j in range(c, m) if H[j][i]]
            if len(nz) <= 1:
                break
            j_min = min(nz, key=lambda j: abs(H[j][i]))
            for j in nz:
                if j != j_min:
                    col_op(j, j_min, H[j][i] // H[j_min][i])
        nz = [j for j in range(c, m) if H[j][i]]
        if not nz:
            continue
        j = nz[0]
        H[c], H[j] = H[j], H[c]
        U[c], U[j] = U[j], U[c]
        if H[c][i] < 0:
            H[c] = [-x for x in H[c]]
            U[c] = [-x for x in U[c]]
        for j in range(c):  # canonical: 0 <= H[j][i] < pivot
            q = H[j][i] // H[c][i]
            if q:
                col_op(j, c, q)
        c += 1
    return H, U


def _column_qmatrix(n: int, den: int, columns: Sequence[Sequence[int]]) -> QMatrix:
    """The n-row QMatrix whose columns are the integer vectors over den."""
    return _int_qmatrix(len(columns), den, [[(j, c[i]) for j, c in enumerate(columns) if c[i]]
                                            for i in range(n)])


def zspan_basis(matrix: QMatrix) -> QMatrix:
    """The Hermite basis (n x rank) of the group generated by the columns:
    the nonzero Hermite columns of the integer form, a positive scaling,
    over its denominator.  It depends on the group only."""
    H, _ = column_hnf(_int_columns(matrix), matrix.nrows)
    return _column_qmatrix(matrix.nrows, matrix.int_rows()[0], [c for c in H if any(c)])


def hnf_membership(generators: QMatrix, target: Sequence[object]
                   ) -> tuple[bool, tuple[int, ...] | None]:
    """Is target an integer combination of the columns of generators?

    Returns (True, coefficients) with one valid integer coefficient vector,
    or (False, None).  The columns may be rationally dependent.  Both are
    scaled to integers by q = lcm(den, the target's denominators), a
    positive scaling: the coefficients are those of the rational columns.
    """
    n, m = generators.shape
    if len(target) != n:
        raise ValueError("target has wrong dimension")
    q_t, terms = _int_vector(target)
    if not terms:
        return True, (0,) * m
    den = generators.int_rows()[0]
    q = math.lcm(den, q_t)
    H, U = column_hnf(_int_columns(generators, q // den), n)
    nums = dict(terms)
    t = [nums.get(i, 0) * (q // q_t) for i in range(n)]
    coords, c = [0] * m, 0  # walk the staircase: c is the next pivot column
    for i in range(n):
        pivot = H[c][i] if c < m else 0
        if pivot:
            k, r = divmod(t[i], pivot)
            if r:
                return False, None
            t = [a - k * b for a, b in zip(t, H[c])]
            coords = [x + k * u for x, u in zip(coords, U[c])]
            c += 1
        elif t[i]:
            return False, None
    return True, tuple(coords)


def integer_kernel(matrix: QMatrix) -> list[tuple[int, ...]]:
    """Basis of the group of integer vectors x with M x = 0: the columns
    of U (`column_hnf`) whose image column vanishes.  They are read on the
    integer form, which has M's U."""
    H, U = column_hnf(_int_columns(matrix), matrix.nrows)
    return [tuple(U[j]) for j in range(matrix.ncols) if not any(H[j])]


# ---- cyclotomic spectra ----

@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    out, k, left = 1, 2, m
    while k * k <= left:
        if left % k == 0:
            out *= k - 1
            left //= k
            while left % k == 0:
                out *= k
                left //= k
        k += 1
    if left > 1:
        out *= left - 1
    return out


def _poly_divmod(num: Sequence[Fraction], den: Sequence[Fraction]):
    num = list(num)
    den = list(den)
    while den and not den[-1]:
        den.pop()
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    rem = list(num)
    dlead = den[-1]
    for k in range(len(rem) - len(den), -1, -1):
        coeff = rem[k + len(den) - 1] / dlead
        quot[k] = coeff
        if coeff:
            for i, d in enumerate(den):
                rem[k + i] -= coeff * d
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> tuple[Fraction, ...]:
    """Coefficients of the m-th cyclotomic polynomial, low degree first."""
    if m < 1:
        raise ValueError("cyclotomic index must be positive")
    if m == 1:
        return (Fraction(-1), Fraction(1))
    num = [Fraction(0)] * (m + 1)
    num[0], num[m] = Fraction(-1), Fraction(1)  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic(d)))
            if rem:
                raise ArithmeticError(f"cyclotomic({d}) does not divide x^{m} - 1")
    return tuple(num)


@record
class SpectrumResult:
    """Outcome of factoring a characteristic polynomial into cyclotomics."""

    all_roots_of_unity: bool
    orders: dict  # cyclotomic index -> multiplicity, for the stripped part
    lcm_order: int | None  # least r with every root of unity an r-th root
    obstruction: tuple[Fraction, ...] | None  # leftover factor, if any


def cyclotomic_spectrum_test(coeffs: Sequence[object]) -> SpectrumResult:
    """Split a monic rational polynomial into cyclotomic factors.

    Every root of unity has a cyclotomic minimal polynomial Phi_m with
    phi(m) <= degree, and phi(m) >= sqrt(m/2) bounds the indices m that can
    possibly divide.  Whatever is left after stripping all cyclotomic factors
    witnesses an eigenvalue off the unit circle or irrational on it.
    """
    p = [Fraction(x) for x in coeffs]
    while p and not p[-1]:
        p.pop()
    if not p or p[-1] != 1:
        raise ValueError("polynomial must be monic")
    deg0 = len(p) - 1
    if deg0 == 0:
        return SpectrumResult(True, {}, 1, None)
    if not p[0]:
        # x divides: eigenvalue 0
        while p and not p[0]:
            p.pop(0)
        return SpectrumResult(False, {}, None, tuple([Fraction(0), Fraction(1)]))
    orders: dict[int, int] = {}
    bound = 2 * deg0 * deg0 + 1
    for m in range(1, bound + 1):
        if euler_phi(m) > len(p) - 1:
            continue
        phi_m = list(cyclotomic(m))
        while len(p) - 1 >= len(phi_m) - 1:
            quot, rem = _poly_divmod(p, phi_m)
            if rem:
                break
            orders[m] = orders.get(m, 0) + 1
            p = quot
        if len(p) == 1:
            break
    if len(p) == 1:
        return SpectrumResult(True, orders, math.lcm(*orders), None)
    return SpectrumResult(False, orders, None, tuple(p))
