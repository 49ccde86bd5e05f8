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

An algebra also has one integer form, made once when it is built: the
structure constants times the lcm S of their denominators, per bracketing
pair (LieAlgebraSpec._ints).  The validators run on it and on the integer
form of a matrix (ratlin.QMatrix.int_rows): Jacobi, the lower central
series, the automorphism check, and for the suspension the derivation
identity and the adjoined algebra (build_suspension_algebra), whose
integer form is the fiber's plus D.  A Fraction is built only for a
failure's residual.
The group law (nilgrp) reads the same integer pairs.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .poly import ParamVector, _add_scaled, _cleaned, _shared, _vector
from .ratlin import QMatrix, QSubspace, _int_echelon, to_fraction


_ZERO = Fraction(0)


class JacobiViolation(ValueError):
    """Structure constants fail the Jacobi identity; carries the triple."""

    def __init__(self, triple, residual):
        self.triple = triple
        self.residual = residual
        super().__init__(f"Jacobi identity fails on basis triple {triple}: residual {residual}")


class NotNilpotent(ValueError):
    """Lower central series stabilizes at a nonzero subalgebra."""


class LieAlgebraSpec:
    """Structure constants [xi_i, xi_j] = sum_k c_ijk xi_k on a d-dim space.

    table maps each bracketing pair (i, j), i < j, to its dense structure
    vector, and _brackets[i][j] holds ((k, c_ijk), ...) over the nonzero
    c_ijk for both orders of each pair.  The integer form is _ints = (S,
    pairs), S the lcm of the denominators of the structure constants and
    pairs the bracketing pairs in table order as (i, j, ((k, S c_ijk),
    ...)); _int_brackets is to it what _brackets is to the table.
    """

    __slots__ = ("dim", "table", "_brackets", "_ints", "_int_brackets")

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
        _fill(self, dim, {key: [(k, x) for k, x in enumerate(val) if x]
                          for key, val in clean.items()})

    @classmethod
    def from_sparse(cls, dim: int, entries: Iterable[tuple[int, int, int, object]]
                    ) -> "LieAlgebraSpec":
        """Build from one-based (i, j, k, coeff) quadruples meaning
        [xi_i, xi_j] has coefficient coeff on xi_k; the coefficients of
        repeated quadruples add up.  Checked as the constructor checks a
        table, on the nonzero coefficients only."""
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for i, j, k, coeff in entries:
            if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
                raise ValueError(f"index out of range in structure constant ({i}, {j}, {k})")
            terms = table.setdefault((i - 1, j - 1), {})
            c = to_fraction(coeff)
            terms[k - 1] = terms[k - 1] + c if k - 1 in terms else c
        if dim < 1:
            raise ValueError("dimension must be positive")
        clean: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), terms in table.items():
            if i == j:
                raise ValueError(f"bad basis index pair ({i}, {j}) for dimension {dim}")
            terms = {k: x for k, x in terms.items() if x}
            key, val = ((i, j), terms) if i < j else ((j, i), {k: -x for k, x in terms.items()})
            if clean.setdefault(key, val) != val:
                raise ValueError(f"conflicting declarations for bracket {key}")
        spec = object.__new__(cls)
        _fill(spec, dim, {key: sorted(val.items()) for key, val in clean.items()})
        return spec

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
        params = _shared(v, w)
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
        return _vector(params, tuple(_cleaned(params, acc) for acc in out))

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
        return QMatrix(rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieAlgebraSpec):
            return NotImplemented
        return self.dim == other.dim and self.table == other.table

    def __repr__(self) -> str:
        return f"LieAlgebraSpec(dim={self.dim}, {len(self.table)} nonzero brackets)"


def _fill(spec: LieAlgebraSpec, dim: int, sparse: Mapping[tuple[int, int], list]) -> None:
    """Set every field of spec, its integer form included, from its
    nonzero structure constants, sparse[(i, j)] = [(k, c_ijk), ...] for
    i < j by increasing k; a pair with none is dropped."""
    spec.dim = dim
    spec.table = {}
    spec._brackets = brackets = [{} for _ in range(dim)]
    for (i, j), terms in sparse.items():
        if terms:
            vec = [_ZERO] * dim
            for k, x in terms:
                vec[k] = x
            spec.table[(i, j)] = tuple(vec)
            brackets[i][j] = tuple(terms)
            brackets[j][i] = tuple((k, -x) for k, x in terms)
    S = lcm(*(x.denominator for terms in sparse.values() for _, x in terms))
    spec._ints = S, tuple((i, j, tuple((k, x.numerator * (S // x.denominator)) for k, x in brackets[i][j]))
                          for i, j in spec.table)
    spec._int_brackets = int_brackets = [{} for _ in range(dim)]
    for i, j, terms in spec._ints[1]:
        int_brackets[i][j] = terms
        int_brackets[j][i] = tuple((k, -c) for k, c in terms)


def validate_algebra(spec: LieAlgebraSpec) -> int:
    """Check Jacobi and nilpotency; returns the nilpotency class.

    Runs on the integer form of the algebra: the Jacobi sums of the
    candidate triples are integers over S^2, and a Fraction is built only
    for a violation's residual.  The class is that of
    `lower_central_class`.  Raises JacobiViolation or NotNilpotent.
    """
    _check_jacobi(spec, _jacobi_candidates(spec))
    return lower_central_class(spec)


def check_derivation(spec: LieAlgebraSpec) -> None:
    """Jacobi on the triples (delta, x_j, x_k) of an algebra built by
    build_suspension_algebra, delta = xi_0: the derivation identity
    D [x_j, x_k] = [D x_j, x_k] + [x_j, D x_k].  Every other triple is one
    of the fiber, whose Jacobi identity holds, so this raises the
    JacobiViolation that validate_algebra raises on spec."""
    _check_jacobi(spec, [t for t in _jacobi_candidates(spec) if t[0] == 0])


def _check_jacobi(spec: LieAlgebraSpec, triples: Iterable[tuple[int, int, int]]) -> None:
    """Raise JacobiViolation for the first of the triples whose Jacobi sum
    is nonzero, summed in integers over S^2; only its residual becomes
    Fractions."""
    S = spec._ints[0]
    for triple in triples:
        residual = _jacobi_residual(spec._int_brackets, spec.dim, *triple)
        if any(residual):
            raise JacobiViolation(triple, tuple(Fraction(x, S * S) for x in residual))


def lower_central_class(spec: LieAlgebraSpec) -> int:
    """The nilpotency class: the number of nonzero terms g = g_1, g_2, ...
    of the lower central series, g_{k+1} = [g, g_k], by one forward pass
    on the integer form (ratlin._int_echelon).  [g, g] is spanned by the
    structure vectors, and each later term by the brackets [xi_a, b] of
    the echelon rows b of the term before; the rows are integer vectors,
    kept primitive.  Raises NotNilpotent when a term equals the one
    before."""
    nil_class, dim = 1, spec.dim
    gens = [dict(terms) for _, _, terms in spec._ints[1]]
    while gens:
        rows = _int_echelon(gens)
        if not rows:
            break
        if len(rows) == dim:
            raise NotNilpotent(f"lower central series stabilizes at dimension {dim}")
        nil_class, dim = nil_class + 1, len(rows)
        gens = [w for b in rows for w in _ad_images(spec._int_brackets, b)]
    return nil_class


def _ad_images(brackets: list, b: Mapping[int, object]) -> list[dict]:
    """The nonzero brackets [xi_a, b] in the order of a, as {column:
    value}, for a vector b given the same way: each is summed over the
    nonzero structure constants [xi_a, xi_j] with b_j nonzero, from the
    integer brackets of an algebra for an integer b, or from its
    Fraction brackets."""
    images: dict[int, dict] = {}
    for j, y in b.items():
        for a in brackets[j]:
            acc = images.setdefault(a, {})
            for k, c in brackets[a][j]:
                acc[k] = acc.get(k, 0) + y * c
    out = []
    for a in sorted(images):
        image = {k: x for k, x in images[a].items() if x}
        if image:
            out.append(image)
    return out


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
    brackets = spec._int_brackets
    triples = set()
    for b, c, terms in spec._ints[1]:
        for l, _ in terms:
            for a in brackets[l]:
                if a != b and a != c:
                    triples.add(tuple(sorted((a, b, c))))
    return sorted(triples)


def _jacobi_residual(brackets: list, dim: int, i: int, j: int, k: int) -> list[int]:
    """[xi_i, [xi_j, xi_k]] + [xi_j, [xi_k, xi_i]] + [xi_k, [xi_i, xi_j]]
    on integer brackets: S^2 times the residual."""
    acc = [0] * dim
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        row = brackets[a]
        for l, x in brackets[b].get(c, ()):
            for m, y in row.get(l, ()):
                acc[m] += x * y
    return acc


def build_suspension_algebra(spec: LieAlgebraSpec, derivation: QMatrix) -> LieAlgebraSpec:
    """Adjoin a generator delta with [delta, x] = D x to the algebra.

    Basis order downstairs is preserved and delta is prepended, so vectors of
    the big algebra read (phi, fiber).  The result is nilpotent whenever D is
    (which log of a unipotent automorphism always is).  Nothing is checked
    here but D's shape: Jacobi on the triples (delta, x_i, x_j) is the
    derivation identity for D (check_derivation), and every other triple
    is one of spec.  Its pairs are (delta, x_a) for each nonzero column a
    of D, read from D's integer form (QMatrix.int_rows, the one form a
    matrix holds; D's Fraction entries are a view of it and are not
    built here), then the pairs of spec, and the integer form of the
    result is made from them.
    """
    d = spec.dim
    if derivation.shape != (d, d):
        raise ValueError("derivation matrix has wrong shape")
    den, rows = derivation.int_rows()
    columns = [[] for _ in range(d)]
    for l, row in enumerate(rows):
        for a, v in row:
            columns[a].append((l + 1, Fraction(v, den)))
    sparse = {(0, a + 1): column for a, column in enumerate(columns) if column}
    for i, j in spec.table:
        sparse[(i + 1, j + 1)] = [(k + 1, x) for k, x in spec._brackets[i][j]]
    big = object.__new__(LieAlgebraSpec)
    _fill(big, d + 1, sparse)
    return big


def ad_int_rows(spec: LieAlgebraSpec, i: int) -> tuple[int, tuple]:
    """ad xi_i as integer rows over S, in the layout of
    QMatrix.int_rows (not reduced): row k holds (j, S c_ijk)."""
    d = spec.dim
    S = spec._ints[0]
    rows = [[] for _ in range(d)]
    for j, terms in sorted(spec._int_brackets[i].items()):
        for k, c in terms:
            rows[k].append((j, c))
    return S, tuple(map(tuple, rows))


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
    return all(subspace.contains([image.get(k, 0) for k in range(spec.dim)])
               for b in subspace.basis
               for image in _ad_images(spec._brackets, {j: x for j, x in enumerate(b) if x}))


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
    # on the integer forms c = C / S and M = R / E, the residual is
    # (sum C_ab R_ai R_bj - E sum R_kl C_ij,l) / (S E^2)
    S, pairs = spec._ints
    E, rows = matrix.int_rows()
    columns = [[] for _ in range(d)]
    for k, row in enumerate(rows):
        for l, x in row:
            columns[l].append((k, x))
    residuals: dict[tuple[int, int], list[int]] = {}
    for a, row in enumerate(spec._int_brackets):
        for b, terms in row.items():
            for i, x in rows[a]:
                for j, y in rows[b]:
                    if i < j:
                        acc = residuals.setdefault((i, j), [0] * d)
                        xy = x * y
                        for k, c in terms:
                            acc[k] += xy * c
    for i, j, terms in pairs:
        acc = residuals.setdefault((i, j), [0] * d)
        for l, c in terms:
            c *= E
            for k, x in columns[l]:
                acc[k] -= x * c
    failing = [pair for pair, acc in residuals.items() if any(acc)]
    if not failing:
        return True, None, None
    pair = min(failing)
    den = S * E * E
    return False, pair, tuple(Fraction(x, den) for x in residuals[pair])
