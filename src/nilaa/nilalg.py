"""Finite-dimensional nilpotent Lie algebras over the rationals.

An algebra is specified by structure constants on an ordered basis
xi_1, ..., xi_d.  Validation checks antisymmetry (by construction), the
Jacobi identity on basis triples, and nilpotency via the lower central
series.  Brackets are bilinear over the polynomial layer, so elements whose
coordinates carry symbolic translation parameters bracket exactly.

Every loop here (brackets, Jacobi, the lower central series, ad-matrices,
the centre equations, the automorphism check) walks the nonzero structure
constants only, never all d^2 basis pairs.  On an abelian algebra every
matrix of the right shape is an automorphism.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .poly import ParamVector, _add_scaled, _align_vectors, _cleaned, _vector
from .ratlin import QMatrix, QSubspace, _qmatrix, to_fraction


_ZERO, _ONE = Fraction(0), Fraction(1)


class JacobiViolation(ValueError):
    """Structure constants fail the Jacobi identity; carries the triple."""

    def __init__(self, triple, residual):
        self.triple = triple
        self.residual = residual
        super().__init__(f"Jacobi identity fails on basis triple {triple}: residual {residual}")


class NotNilpotent(ValueError):
    """Lower central series stabilizes at a nonzero subalgebra."""


class LieAlgebraSpec:
    """Structure constants [xi_i, xi_j] = sum_k c_ijk xi_k on a d-dim space."""

    __slots__ = ("dim", "table", "_brackets")

    def __init__(self, dim: int, table: Mapping[tuple[int, int], Sequence[object]]):
        if dim < 1:
            raise ValueError("dimension must be positive")
        clean: dict[tuple[int, int], tuple[Fraction, ...]] = {}
        for (i, j), vec in table.items():
            if not (0 <= i < dim and 0 <= j < dim) or i == j:
                raise ValueError(f"bad basis index pair ({i}, {j}) for dimension {dim}")
            vec = tuple(map(to_fraction, vec))
            if len(vec) != dim:
                raise ValueError(f"structure vector for ({i}, {j}) has wrong length")
            key, val = ((i, j), vec) if i < j else ((j, i), tuple(-x for x in vec))
            if key in clean:
                if clean[key] != val:
                    raise ValueError(f"conflicting declarations for bracket {key}")
                continue
            clean[key] = val
        self.dim = dim
        self.table = {k: v for k, v in clean.items() if any(v)}
        # _brackets[i][j] = ((k, c_ijk), ...) over the nonzero c_ijk, for
        # both orders of each pair
        self._brackets = [{} for _ in range(dim)]
        for (i, j), vec in self.table.items():
            terms = tuple((k, x) for k, x in enumerate(vec) if x)
            self._brackets[i][j] = terms
            self._brackets[j][i] = tuple((k, -x) for k, x in terms)

    @classmethod
    def from_sparse(cls, dim: int, entries: Iterable[tuple[int, int, int, object]]
                    ) -> "LieAlgebraSpec":
        """Build from one-based (i, j, k, coeff) quadruples meaning
        [xi_i, xi_j] has coefficient coeff on xi_k."""
        table: dict[tuple[int, int], list[Fraction]] = {}
        for i, j, k, coeff in entries:
            if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
                raise ValueError(f"index out of range in structure constant ({i}, {j}, {k})")
            vec = table.setdefault((i - 1, j - 1), [_ZERO] * dim)
            vec[k - 1] += to_fraction(coeff)
        return cls(dim, table)

    def abelian(self) -> bool:
        return not self.table

    def structure_vector(self, i: int, j: int) -> tuple[Fraction, ...]:
        if (i, j) in self.table:
            return self.table[(i, j)]
        if (j, i) in self.table:
            return tuple(-x for x in self.table[(j, i)])
        return (_ZERO,) * self.dim

    # ---- brackets ----

    def bracket_vec(self, v: Sequence[object], w: Sequence[object]) -> tuple[Fraction, ...]:
        """Bracket of two rational coordinate vectors."""
        if len(v) != self.dim or len(w) != self.dim:
            raise ValueError("vector has wrong dimension")
        w_nz = [(j, to_fraction(y)) for j, y in enumerate(w) if y]
        out = [Fraction(0)] * self.dim
        for i, x in enumerate(v):
            if not x:
                continue
            row = self._brackets[i]
            x = to_fraction(x)
            for j, y in w_nz:
                terms = row.get(j)
                if terms:
                    c = x * y
                    for k, a in terms:
                        out[k] += c * a
        return tuple(out)

    def bracket(self, v: ParamVector, w: ParamVector) -> ParamVector:
        """Bracket of two polynomial coordinate vectors."""
        if v.dim != self.dim or w.dim != self.dim:
            raise ValueError("vector has wrong dimension")
        v, w = _align_vectors(v, w)
        w_nz = [(j, y) for j, y in enumerate(w.entries) if y.terms]
        out = [{} for _ in range(self.dim)]
        for i, x in enumerate(v.entries):
            if not x.terms:
                continue
            row = self._brackets[i]
            for j, y in w_nz:
                terms = row.get(j)
                if terms:
                    prod = (x * y).terms
                    for k, a in terms:
                        _add_scaled(out[k], a, prod)
        return _vector(v.params, tuple(_cleaned(v.params, acc) for acc in out))

    def ad_matrix(self, v: Sequence[object]) -> QMatrix:
        """Matrix of ad_v = [v, .] on the basis (rational v): entry (k, j)
        is the sum of v_i c_ijk over the nonzero structure constants."""
        if len(v) != self.dim:
            raise ValueError("vector has wrong dimension")
        rows = [[_ZERO] * self.dim for _ in range(self.dim)]
        for i, x in enumerate(v):
            if x:
                x = to_fraction(x)
                for j, terms in self._brackets[i].items():
                    for k, c in terms:
                        rows[k][j] += x * c
        return _qmatrix(tuple(map(tuple, rows)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieAlgebraSpec):
            return NotImplemented
        return self.dim == other.dim and self.table == other.table

    def __repr__(self) -> str:
        return f"LieAlgebraSpec(dim={self.dim}, {len(self.table)} nonzero brackets)"


def validate_algebra(spec: LieAlgebraSpec) -> tuple[int, list[QSubspace]]:
    """Check Jacobi and nilpotency.

    Returns (nilpotency class, lower central series [g = g_1, g_2, ...])
    where g_{k+1} = [g, g_k] and the last listed term is the final nonzero
    one.  Raises JacobiViolation or NotNilpotent.
    """
    d = spec.dim
    for triple in _jacobi_candidates(spec):
        residual = _jacobi_residual(spec, *triple)
        if any(residual):
            raise JacobiViolation(triple, residual)

    series = [QSubspace.full(d)]
    gens = list(spec.table.values())  # the structure vectors span [g, g]
    while True:
        nxt = QSubspace.from_spanning(gens, d)
        if nxt.dim == 0:
            break
        if nxt.dim == series[-1].dim:
            raise NotNilpotent(f"lower central series stabilizes at dimension {nxt.dim}")
        series.append(nxt)
        gens = [w for b in nxt.basis for w in _ad_images(spec, b)]
    return len(series), series


def _ad_images(spec: LieAlgebraSpec, b: Sequence[Fraction]) -> list[list[Fraction]]:
    """The nonzero brackets [xi_a, b] in the order of a, each summed over
    the nonzero structure constants [xi_a, xi_j] with b_j nonzero."""
    brackets = spec._brackets
    images: dict[int, list[Fraction]] = {}
    for j, y in enumerate(b):
        if y:
            for a in brackets[j]:
                acc = images.setdefault(a, [_ZERO] * spec.dim)
                for k, c in brackets[a][j]:
                    acc[k] += y * c
    return [images[a] for a in sorted(images) if any(images[a])]


def _centre_rows(spec: LieAlgebraSpec) -> list[tuple[Fraction, ...]]:
    """The nonzero rows of ad xi_1, ..., ad xi_d stacked in that order:
    row (i, k) holds c_ijk over j, so v is central exactly when every row
    has zero dot product with v.  Empty on an abelian algebra."""
    rows = []
    for row in spec._brackets:
        by_k: dict[int, list[Fraction]] = {}
        for j, terms in row.items():
            for k, c in terms:
                by_k.setdefault(k, [_ZERO] * spec.dim)[j] = c
        rows.extend(tuple(by_k[k]) for k in sorted(by_k))
    return rows


def _jacobi_candidates(spec: LieAlgebraSpec) -> list[tuple[int, int, int]]:
    """The basis triples i < j < k, sorted, where some term [xi_a, [xi_b,
    xi_c]] of the Jacobi sum can be nonzero: (b, c) is a bracketing pair
    and xi_a brackets with a basis vector of its support.  Every other
    triple has zero residual."""
    brackets = spec._brackets
    triples = set()
    for (b, c), vec in spec.table.items():
        for l, x in enumerate(vec):
            if x:
                for a in brackets[l]:
                    if a != b and a != c:
                        triples.add(tuple(sorted((a, b, c))))
    return sorted(triples)


def _jacobi_residual(spec: LieAlgebraSpec, i: int, j: int, k: int
                     ) -> tuple[Fraction, ...]:
    """[xi_i, [xi_j, xi_k]] + [xi_j, [xi_k, xi_i]] + [xi_k, [xi_i, xi_j]]."""
    brackets = spec._brackets
    acc = [Fraction(0)] * spec.dim
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        row = brackets[a]
        for l, x in brackets[b].get(c, ()):
            for m, y in row.get(l, ()):
                acc[m] += x * y
    return tuple(acc)


def is_abelian_family(spec: LieAlgebraSpec, vectors: Sequence[Sequence[object]]
                      ) -> tuple[bool, tuple[int, int] | None]:
    """Do the vectors pairwise commute?  Returns the first failing index pair
    in lexicographic order, if any.

    Every pair of the given vectors is bracketed and nothing is eliminated.
    By bilinearity a family commutes exactly when a basis of its span does,
    so a caller holding many vectors passes such a basis first.
    """
    if not spec.abelian():
        for i, v in enumerate(vectors):
            for j in range(i + 1, len(vectors)):
                if any(spec.bracket_vec(v, vectors[j])):
                    return False, (i, j)
    return True, None


def derived_subalgebra(spec: LieAlgebraSpec) -> QSubspace:
    return QSubspace.from_spanning([vec for vec in spec.table.values()], spec.dim)


def is_ideal(spec: LieAlgebraSpec, subspace: QSubspace) -> bool:
    """Is [g, W] contained in W?"""
    return all(subspace.contains(w) for b in subspace.basis
               for w in _ad_images(spec, b))


def is_automorphism(spec: LieAlgebraSpec, matrix: QMatrix
                    ) -> tuple[bool, tuple[int, int] | None, tuple[Fraction, ...] | None]:
    """Does the matrix preserve brackets: [M xi_i, M xi_j] = M [xi_i, xi_j]?

    On failure returns the first basis pair (i, j), i < j, in lexicographic
    order together with the residual [M xi_i, M xi_j] - M [xi_i, xi_j].

    Both sides are summed over the nonzero structure constants only:
    [M xi_i, M xi_j] = sum c_ab M_ai M_bj over the bracketing pairs (a, b)
    and the nonzero entries of rows a and b of M.  Every matrix preserves
    the zero bracket of an abelian algebra.
    """
    if matrix.shape != (spec.dim, spec.dim):
        raise ValueError("matrix has wrong shape for this algebra")
    if spec.abelian():
        return True, None, None
    d = spec.dim
    # the nonzero entries of M by row (its sparse rows, a unit for None)
    # and by column
    sparse = [[(i, _ONE if x is None else x) for i, x in row]
              for row in matrix.sparse_rows()]
    columns = [[] for _ in range(d)]
    for k, row in enumerate(sparse):
        for l, x in row:
            columns[l].append((k, x))
    residuals: dict[tuple[int, int], list[Fraction]] = {}
    for a, row in enumerate(spec._brackets):
        for b, terms in row.items():
            for i, x in sparse[a]:
                for j, y in sparse[b]:
                    if i < j:
                        acc = residuals.setdefault((i, j), [_ZERO] * d)
                        xy = x * y
                        for k, c in terms:
                            acc[k] += xy * c
    for pair, vec in spec.table.items():
        acc = residuals.setdefault(pair, [_ZERO] * d)
        for l, c in enumerate(vec):
            if c:
                for k, x in columns[l]:
                    acc[k] -= x * c
    failing = [pair for pair, acc in residuals.items() if any(acc)]
    if not failing:
        return True, None, None
    pair = min(failing)
    return False, pair, tuple(residuals[pair])
