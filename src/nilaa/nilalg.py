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

An algebra holds one form, made when it is built: its structure
constants times the lcm S of their denominators, per bracketing pair in
sorted order (LieAlgebraSpec._ints).  It is canonical, so equal algebras
have equal forms whatever the constructor or the order of its input.
Everything here reads it, with the integer form of a matrix
(ratlin.QMatrix.int_rows), and so does the group law (nilgrp); the
adjoined algebra of the suspension (build_suspension_algebra) is made as
one.  A Fraction is built only for a result or a failure's residual, and
the dense Fraction table is a view, made when first read.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .poly import ParamVector, _add_scaled, _cleaned, _shared, _vector
from .ratlin import (_ZERO, QMatrix, QSubspace, _int_echelon, _int_qmatrix, _int_vector,
                     to_fraction)


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

    The integer form is _ints = (S, pairs): S the lcm of the denominators
    of the nonzero structure constants, and pairs the bracketing pairs i <
    j, sorted, as (i, j, ((k, S c_ijk), ...)) over the nonzero c_ijk by
    increasing k.  _int_brackets[i][j] holds the same terms for both
    orders of each pair.  table is the Fraction view of the integer form.
    """

    __slots__ = ("dim", "_ints", "_int_brackets", "_table")

    def __init__(self, dim: int, table: Mapping[tuple[int, int], Sequence[object]]):
        def declared():
            for (i, j), vec in table.items():
                if not (0 <= i < dim and 0 <= j < dim) or i == j:
                    raise ValueError(f"bad basis index pair ({i}, {j}) for dimension {dim}")
                vec = tuple(map(to_fraction, vec))
                if len(vec) != dim:
                    raise ValueError(f"structure vector for ({i}, {j}) has wrong length")
                yield (i, j), dict(enumerate(vec))

        _normalize(self, dim, declared())

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
        return _normalize(object.__new__(cls), dim, table.items())

    @property
    def table(self) -> dict[tuple[int, int], tuple[Fraction, ...]]:
        """Each bracketing pair (i, j), i < j, mapped to its dense
        structure vector of Fractions, made from the integer form when
        first read."""
        if self._table is None:
            S, pairs = self._ints
            self._table = {(i, j): _fractions(self.dim, S, terms) for i, j, terms in pairs}
        return self._table

    def abelian(self) -> bool:
        return not self._ints[1]

    def structure_vector(self, i: int, j: int) -> tuple[Fraction, ...]:
        """[xi_i, xi_j] as Fractions; ValueError for an index out of range."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise ValueError(f"bad basis index pair ({i}, {j}) for dimension {self.dim}")
        return _fractions(self.dim, self._ints[0], self._int_brackets[i].get(j, ()))

    # ---- brackets ----

    def bracket_vec(self, v: Sequence[object], w: Sequence[object]) -> tuple[Fraction, ...]:
        """Bracket of two rational coordinate vectors, summed in integers
        over S and the common denominators of v and w."""
        if len(v) != self.dim or len(w) != self.dim:
            raise ValueError("vector has wrong dimension")
        (p, v_nz), (q, w_nz) = _int_vector(v), _int_vector(w)
        den = self._ints[0] * p * q
        return tuple(Fraction(c, den) if c else _ZERO for c in self._int_bracket(v_nz, w_nz))

    def _int_bracket(self, v_nz: Sequence[tuple], w_nz: Sequence[tuple]) -> list[int]:
        """S p q [v, w], dense, from the integer pairs of p v and q w (_int_vector)."""
        out = [0] * self.dim
        for i, x in v_nz:
            row = self._int_brackets[i]
            for j, y in w_nz:
                terms = row.get(j)
                if terms:
                    c = x * y
                    for k, a in terms:
                        out[k] += c * a
        return out

    def bracket(self, v: ParamVector, w: ParamVector) -> ParamVector:
        """Bracket of two polynomial coordinate vectors."""
        if v.dim != self.dim or w.dim != self.dim:
            raise ValueError("vector has wrong dimension")
        params = _shared(v, w)
        S, brackets = self._ints[0], self._int_brackets
        w_nz = [(j, y) for j, y in enumerate(w.entries) if y.terms]
        out = [{} for _ in range(self.dim)]
        for i, x in enumerate(v.entries):
            if not x.terms:
                continue
            row = brackets[i]
            for j, y in w_nz:
                terms = row.get(j)
                if terms:
                    prod = (x * y).terms
                    for k, a in terms:
                        _add_scaled(out[k], a if S == 1 else Fraction(a, S), prod)
        return _vector(params, tuple(_cleaned(params, acc) for acc in out))

    def ad_matrix(self, v: Sequence[object]) -> QMatrix:
        """Matrix of ad_v = [v, .] on the basis (rational v): entry (k, j)
        is the sum of v_i c_ijk over the nonzero structure constants."""
        if len(v) != self.dim:
            raise ValueError("vector has wrong dimension")
        q, v_nz = _int_vector(v)
        rows = [{} for _ in range(self.dim)]
        for i, x in v_nz:
            for j, terms in self._int_brackets[i].items():
                for k, c in terms:
                    rows[k][j] = rows[k].get(j, 0) + x * c
        return _int_qmatrix(self.dim, self._ints[0] * q,
                            [sorted((j, a) for j, a in row.items() if a) for row in rows])

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieAlgebraSpec):
            return NotImplemented
        return self.dim == other.dim and self._ints == other._ints

    def __repr__(self) -> str:
        return f"LieAlgebraSpec(dim={self.dim}, {len(self._ints[1])} nonzero brackets)"


def _normalize(spec: LieAlgebraSpec, dim: int, declared: Iterable[tuple]) -> LieAlgebraSpec:
    """Set spec to the canonical integer form of the declared brackets
    ((i, j), {k: c_ijk}), Fractions on basis indices in range, and return
    it: each pair is turned to i < j over its nonzero constants, a pair
    declared twice must agree, and a pair with none is dropped."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    clean: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j), terms in declared:
        if i == j:
            raise ValueError(f"bad basis index pair ({i}, {j}) for dimension {dim}")
        terms = {k: x for k, x in terms.items() if x}
        key, val = ((i, j), terms) if i < j else ((j, i), {k: -x for k, x in terms.items()})
        if clean.setdefault(key, val) != val:
            raise ValueError(f"conflicting declarations for bracket {key}")
    S = lcm(*(x.denominator for terms in clean.values() for x in terms.values()))
    return _set_ints(spec, dim, S, [(i, j, tuple((k, x.numerator * (S // x.denominator))
                                                 for k, x in sorted(terms.items())))
                                    for (i, j), terms in sorted(clean.items()) if terms])


def _set_ints(spec: LieAlgebraSpec, dim: int, S: int, pairs: Sequence[tuple]
              ) -> LieAlgebraSpec:
    """Set every field of spec from a canonical integer form (S, pairs),
    which is not checked, and return it."""
    spec.dim = dim
    spec._ints = S, tuple(pairs)
    spec._table = None
    spec._int_brackets = brackets = [{} for _ in range(dim)]
    for i, j, terms in pairs:
        brackets[i][j] = terms
        brackets[j][i] = tuple((k, -c) for k, c in terms)
    return spec


def _fractions(dim: int, S: int, terms: Iterable[tuple[int, int]]) -> tuple[Fraction, ...]:
    """The dense Fraction vector of integer terms ((k, integer), ...) over S."""
    vec = [_ZERO] * dim
    for k, c in terms:
        vec[k] = Fraction(c, S)
    return tuple(vec)


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
    integer brackets of an algebra: S times the brackets of b."""
    images: dict[int, dict] = {}
    for j, y in b.items():
        for a in brackets[j]:
            acc = images.setdefault(a, {})
            for k, c in brackets[a][j]:
                acc[k] = acc.get(k, 0) + y * c
    return [image for a in sorted(images)
            if (image := {k: x for k, x in images[a].items() if x})]


def _centre_rows(spec: LieAlgebraSpec) -> tuple[int, list[tuple]]:
    """The centre equations over S: the nonzero rows of every ad_int_rows
    stacked, so v is central exactly when each has zero dot product with v."""
    return spec._ints[0], [row for i in range(spec.dim) for row in ad_int_rows(spec, i)[1] if row]


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
    is one of spec.  Its integer form is made directly, over the lcm of
    D's denominator and S: the pairs (delta, x_a) for each nonzero column
    a of D's integer form, then the pairs of spec, which sort after them.
    """
    d = spec.dim
    if derivation.shape != (d, d):
        raise ValueError("derivation matrix has wrong shape")
    den, rows = derivation.int_rows()
    S, pairs = spec._ints
    big_S = lcm(den, S)
    columns = [[] for _ in range(d)]
    for l, row in enumerate(rows):
        for a, v in row:
            columns[a].append((l + 1, v * (big_S // den)))
    return _set_ints(object.__new__(LieAlgebraSpec), d + 1, big_S,
                     [(0, a + 1, tuple(column)) for a, column in enumerate(columns) if column]
                     + [(i + 1, j + 1, tuple((k + 1, c * (big_S // S)) for k, c in terms))
                        for i, j, terms in pairs])


def ad_int_rows(spec: LieAlgebraSpec, i: int) -> tuple[int, tuple]:
    """ad xi_i as integer rows over S, in the layout of
    QMatrix.int_rows (not reduced): row k holds (j, S c_ijk)."""
    rows = [[] for _ in range(spec.dim)]
    for j, terms in sorted(spec._int_brackets[i].items()):
        for k, c in terms:
            rows[k].append((j, c))
    return spec._ints[0], tuple(map(tuple, rows))


def is_abelian_family(spec: LieAlgebraSpec, vectors: Sequence[Sequence[object]]
                      ) -> tuple[bool, tuple[int, int] | None]:
    """Do the vectors pairwise commute?  Returns the first failing index pair
    in lexicographic order, if any.

    Every pair is bracketed (each vector in integers, made once) and
    nothing is eliminated.  By bilinearity a family commutes exactly when a
    basis of its span does, so a caller holding many passes such a basis.
    """
    if not spec.abelian():
        if any(len(v) != spec.dim for v in vectors):
            raise ValueError("vector has wrong dimension")
        ints: list = []
        for i in range(len(vectors)):
            for j in range(i + 1, len(vectors)):
                if j >= len(ints):
                    ints += [_int_vector(v)[1] for v in vectors[len(ints):j + 1]]
                if any(spec._int_bracket(ints[i], ints[j])):
                    return False, (i, j)
    return True, None


def derived_subalgebra(spec: LieAlgebraSpec) -> QSubspace:
    """[g, g], spanned by S times the structure vectors."""
    return QSubspace.from_spanning([_fractions(spec.dim, 1, terms)
                                    for _, _, terms in spec._ints[1]], spec.dim)


def is_ideal(spec: LieAlgebraSpec, subspace: QSubspace) -> bool:
    """Is [g, W] contained in W?  Each basis vector b of W is bracketed
    as its integer form q b, so each image is S q times [xi_a, b]."""
    return all(subspace.contains([image.get(k, 0) for k in range(spec.dim)])
               for b in subspace.basis
               for image in _ad_images(spec._int_brackets, dict(_int_vector(b)[1])))


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
