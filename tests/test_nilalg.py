"""Lie algebra layer: brackets, validation, automorphisms."""

import math
import random
from fractions import Fraction

import pytest

from conftest import (abelian, change_of_basis, coprime_scaling, filiform,
                      free_nilpotent_2_3, heisenberg, q6, random_basis_matrix)
from nilaa.poly import ParamVector, Poly, parse_poly
from nilaa.nilalg import (
    JacobiViolation, LieAlgebraSpec, NotNilpotent, _centre_rows,
    build_suspension_algebra, derived_subalgebra, is_abelian_family,
    is_automorphism, is_ideal, validate_algebra,
)
from nilaa.ratlin import (QMatrix, QSubspace, _echelon, matrix_exp_nilpotent,
                          matrix_log_unipotent)

F = Fraction


def test_structure_normalization():
    a = LieAlgebraSpec(3, {(0, 1): (0, 0, 1)})
    b = LieAlgebraSpec(3, {(1, 0): (0, 0, -1)})
    assert a == b
    assert a.structure_vector(1, 0) == (F(0), F(0), F(-1))
    assert a.structure_vector(0, 0) == (F(0), F(0), F(0))
    # consistent double declaration is fine, conflicting is not
    LieAlgebraSpec(3, {(0, 1): (0, 0, 1), (1, 0): (0, 0, -1)})
    with pytest.raises(ValueError):
        LieAlgebraSpec(3, {(0, 1): (0, 0, 1), (1, 0): (0, 0, 1)})
    with pytest.raises(ValueError):
        LieAlgebraSpec(3, {(0, 0): (0, 0, 1)})
    with pytest.raises(ValueError):
        LieAlgebraSpec(2, {(0, 1): (1, 0, 0)})


def test_structure_vector_rejects_an_index_out_of_range(heis):
    for i, j in ((5, 0), (-1, 0), (0, 3)):
        with pytest.raises(ValueError, match="bad basis index pair"):
            heis.structure_vector(i, j)


def test_from_sparse_accumulates():
    spec = LieAlgebraSpec.from_sparse(3, [(1, 2, 3, "1/2"), (1, 2, 3, "1/2")])
    assert spec.structure_vector(0, 1) == (F(0), F(0), F(1))


def test_bracket_vec_heisenberg(heis):
    assert heis.bracket_vec((1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    assert heis.bracket_vec((0, 1, 0), (1, 0, 0)) == (0, 0, -1)
    assert heis.bracket_vec((1, 0, 0), (0, 0, 1)) == (0, 0, 0)
    # bilinearity spot check
    assert heis.bracket_vec((2, 3, 0), (1, 1, 5)) == (0, 0, 2 * 1 - 3 * 1)


def test_bracket_parametric_matches_substitution(heis):
    params = ("t",)
    v = ParamVector(params, [parse_poly("t", params), Poly.constant(1, params),
                             Poly.zero(params)])
    w = ParamVector(params, [Poly.constant(2, params), parse_poly("t", params),
                             Poly.zero(params)])
    bracket = heis.bracket(v, w)
    for t in (F(0), F(1), F("-2/3")):
        expect = heis.bracket_vec(v.substitute({"t": t}), w.substitute({"t": t}))
        assert bracket.substitute({"t": t}) == expect
    # [v, w] = t^2 - 2 on the third coordinate
    assert bracket[2] == parse_poly("t^2 - 2", params)


def test_bracket_across_parameter_tuples_raises(heis):
    v = ParamVector(("t",), [parse_poly("t", ("t",)), Poly.constant(1, ("t",)),
                             Poly.zero(("t",))])
    w = ParamVector(("s",), [Poly.constant(2, ("s",)), parse_poly("s", ("s",)),
                             Poly.zero(("s",))])
    with pytest.raises(ValueError, match=r"\('t',\) and \('s',\)"):
        heis.bracket(v, w)
    # re-expressed over one tuple by the constructor, they bracket
    params = ("t", "s")
    got = heis.bracket(ParamVector(params, v.entries), ParamVector(params, w.entries))
    assert got == ParamVector(params, [0, 0, parse_poly("t*s - 2", params)])


def test_ad_matrix(heis):
    ad1 = heis.ad_matrix((1, 0, 0))
    assert ad1.matvec((0, 1, 0)) == (0, 0, 1)
    assert ad1.matvec((1, 0, 0)) == (0, 0, 0)
    assert (ad1 @ ad1).is_zero()


def test_ad_poly_matrix_and_exp(heis):
    params = ("t",)
    v = ParamVector(params, [parse_poly("t", params), Poly.zero(params), Poly.zero(params)])
    cols = [heis.bracket(v, ParamVector.from_rationals(e, params))
            for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    # ad_v has the single entry t at (2, 1) ...
    assert cols[1] == ParamVector(params, [Poly.zero(params), Poly.zero(params),
                                           parse_poly("t", params)])
    assert cols[0].is_zero() and cols[2].is_zero()
    # ... and squares to 0, so exp(ad_v) = I + ad_v
    assert heis.bracket(v, cols[1]).is_zero()


def test_validate_heisenberg(heis):
    assert validate_algebra(heis) == 2
    assert [s.dim for s in _dense_lower_central_series(heis)] == [3, 1]


def test_validate_free_nilpotent(free23):
    assert validate_algebra(free23) == 3
    assert [s.dim for s in _dense_lower_central_series(free23)] == [5, 3, 2]


def test_validate_abelian():
    assert validate_algebra(abelian(4)) == 1
    assert validate_algebra(LieAlgebraSpec(1, {})) == 1


def test_jacobi_violation_detected():
    bad = LieAlgebraSpec.from_sparse(3, [(1, 2, 3, 1), (1, 3, 1, 1)])
    with pytest.raises(JacobiViolation) as err:
        validate_algebra(bad)
    assert err.value.triple == (0, 1, 2)
    assert any(err.value.residual)


def test_not_nilpotent_detected():
    # [x1,x2]=x3, [x1,x3]=x2 satisfies Jacobi but is not nilpotent
    swing = LieAlgebraSpec.from_sparse(3, [(1, 2, 3, 1), (1, 3, 2, 1)])
    with pytest.raises(NotNilpotent) as err:
        validate_algebra(swing)
    assert str(err.value) == "lower central series stabilizes at dimension 2"
    sl2 = LieAlgebraSpec.from_sparse(3, [(1, 2, 2, 2), (1, 3, 3, -2), (2, 3, 1, 1)])
    with pytest.raises(NotNilpotent) as err:
        validate_algebra(sl2)
    assert str(err.value) == "lower central series stabilizes at dimension 3"


def test_derived_subalgebra(heis, free23):
    assert derived_subalgebra(heis).basis == ((F(0), F(0), F(1)),)
    d = derived_subalgebra(free23)
    assert d.dim == 3 and d.contains((0, 0, 1, 0, 0))


def test_is_abelian_family(heis):
    ok, pair = is_abelian_family(heis, [(1, 0, 0), (0, 0, 1)])
    assert ok and pair is None
    ok, pair = is_abelian_family(heis, [(0, 0, 1), (1, 0, 0), (0, 1, 0)])
    assert not ok and pair == (1, 2)  # first failing pair in lex order


def _first_noncommuting_pair(spec, vectors):
    """The lexicographic scan over every pair of the family."""
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            if any(spec.bracket_vec(vectors[i], vectors[j])):
                return i, j
    return None


def test_is_abelian_family_matches_the_pair_scan_in_random_bases():
    # each algebra with an abelian subspace in its own basis; the family
    # mixes vectors of it (abelian) or of the whole space (mostly not)
    # with repeats, zeros and combinations of earlier members
    rng = random.Random(61)
    cases = ((heisenberg(), [(1, 0, 0), (0, 0, 1)]),
             (free_nilpotent_2_3(), [(0, 0, 1, 0, 0), (0, 0, 0, 1, 0),
                                     (0, 0, 0, 0, 1)]),
             (filiform(6), [tuple(int(i == k) for i in range(6))
                            for k in range(1, 6)]))
    pool = (F(0), F(1), F(-1), F(2), F(1, 3))
    outcomes = set()
    for spec, abelian_part in cases:
        d = spec.dim
        for _ in range(12):
            p = random_basis_matrix(d, rng)
            base = change_of_basis(spec, p)
            p_inv = p.inverse()
            whole = [tuple(int(i == k) for i in range(d)) for k in range(d)]
            gens = rng.choice((abelian_part, whole))
            family = []
            for _ in range(rng.randrange(1, 9)):
                roll = rng.random()
                if family and roll < 0.25:
                    family.append(rng.choice(family))
                elif family and roll < 0.5:
                    a, b = rng.choice(family), rng.choice(family)
                    x, y = rng.choice(pool), rng.choice(pool)
                    family.append(tuple(x * s + y * t for s, t in zip(a, b)))
                else:
                    v = [F(0)] * d
                    for g in gens:
                        c = rng.choice(pool)
                        v = [s + c * t for s, t in zip(v, g)]
                    family.append(p_inv.matvec(v))
            expect = _first_noncommuting_pair(base, family)
            assert is_abelian_family(base, family) == (expect is None, expect)
            # the deciders bracket a basis of the span in place of the family
            basis = QSubspace.from_spanning(family, d).basis
            assert is_abelian_family(base, basis)[0] == (expect is None)
            outcomes.add(expect is None)
    assert outcomes == {True, False}


def test_is_ideal(heis):
    assert is_ideal(heis, QSubspace.from_spanning([(0, 0, 1)], 3))
    assert not is_ideal(heis, QSubspace.from_spanning([(1, 0, 0)], 3))
    assert is_ideal(heis, QSubspace.from_spanning(QMatrix.identity(3).entries, 3))


def test_is_automorphism(heis):
    shear = QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    ok, pair, residual = is_automorphism(heis, shear)
    assert ok and pair is None and residual is None

    scale_center = QMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    ok, pair, residual = is_automorphism(heis, scale_center)
    assert not ok and pair == (0, 1)
    assert residual == (F(0), F(0), F(-1))  # [Mx1, Mx2] - M[x1, x2] = x3 - 2 x3


def test_automorphisms_preserve_brackets_random(heis, free23):
    rng = random.Random(23)
    for spec in (heis, free23):
        d = spec.dim
        for _ in range(10):
            # exp(ad_v) is always an automorphism of a nilpotent algebra
            v = [F(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(d)]
            m = matrix_exp_nilpotent(spec.ad_matrix(v))
            ok, _, _ = is_automorphism(spec, m)
            assert ok


def test_bracket_vec_against_the_dense_table_formula():
    # random antisymmetric tables; bracket_vec does not need Jacobi
    rng = random.Random(29)
    pool = [F(0)] * 6 + [F(1), F(-1), F(2), F(-1, 3)]
    for _ in range(25):
        d = rng.randrange(1, 7)
        table = {(i, j): [rng.choice(pool) for _ in range(d)]
                 for i in range(d) for j in range(i + 1, d)
                 if rng.random() < 0.5}
        spec = LieAlgebraSpec(d, table)
        for _ in range(8):
            v = [rng.choice(pool) for _ in range(d)]
            w = [rng.choice(pool) for _ in range(d)]
            expect = [F(0)] * d
            for (i, j), vec in table.items():
                c = v[i] * w[j] - v[j] * w[i]
                for k in range(d):
                    expect[k] += c * vec[k]
            got = spec.bracket_vec(v, w)
            assert got == tuple(expect)
            assert all(type(x) is F for x in got)
            constant = spec.bracket(ParamVector.from_rationals(v),
                                    ParamVector.from_rationals(w))
            assert constant == ParamVector.from_rationals(got)
    with pytest.raises(ValueError):
        LieAlgebraSpec(3, {}).bracket_vec((1, 0), (0, 1, 0))


def _dense_jacobi(spec):
    """First basis triple i < j < k with a nonzero Jacobi sum, and the sum,
    by the table formula over every triple; None if there is none."""
    d = spec.dim
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                acc = [F(0)] * d
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, x in enumerate(spec.structure_vector(b, c)):
                        if x:
                            outer = spec.structure_vector(a, l)
                            acc = [s + x * y for s, y in zip(acc, outer)]
                if any(acc):
                    return (i, j, k), tuple(acc)
    return None


# The Fraction routines that validate_algebra and is_automorphism ran
# before they read the integer form of the algebra, kept as references.

def _fraction_ad_images(brackets, b):
    """The nonzero brackets [xi_a, b] in the order of a, on Fractions."""
    images = {}
    for j, y in enumerate(b):
        if y:
            for a in brackets[j]:
                acc = images.setdefault(a, [F(0)] * len(b))
                for k, c in brackets[a][j]:
                    acc[k] += y * c
    return [images[a] for a in sorted(images) if any(images[a])]


def fraction_validate_algebra(spec):
    """Jacobi on the candidate triples, then the lower central series by
    one _echelon pass per term, all on Fractions."""
    brackets = FractionAlgebra(spec.dim, spec.table).brackets
    triples = set()
    for (b, c), vec in spec.table.items():
        for l, x in enumerate(vec):
            if x:
                triples.update(tuple(sorted((a, b, c))) for a in brackets[l]
                               if a != b and a != c)
    for i, j, k in sorted(triples):
        acc = [F(0)] * spec.dim
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for l, x in brackets[b].get(c, ()):
                for m, y in brackets[a].get(l, ()):
                    acc[m] += x * y
        if any(acc):
            raise JacobiViolation((i, j, k), tuple(acc))
    nil_class, dim = 1, spec.dim
    gens = list(spec.table.values())
    while gens:
        rows, pivots, _ = _echelon(gens)
        if not pivots:
            break
        if len(pivots) == dim:
            raise NotNilpotent(f"lower central series stabilizes at dimension {dim}")
        nil_class, dim = nil_class + 1, len(pivots)
        gens = [w for b in rows[:dim] for w in _fraction_ad_images(brackets, b)]
    return nil_class


def fraction_is_automorphism(spec, matrix):
    """[M xi_i, M xi_j] - M [xi_i, xi_j] over the nonzero structure
    constants and the nonzero entries of M, on Fractions."""
    if spec.abelian():
        return True, None, None
    d = spec.dim
    sparse = [[(i, x) for i, x in enumerate(row) if x] for row in matrix.entries]
    columns = [[] for _ in range(d)]
    for k, row in enumerate(sparse):
        for l, x in row:
            columns[l].append((k, x))
    residuals = {}
    for a, row in enumerate(FractionAlgebra(spec.dim, spec.table).brackets):
        for b, terms in row.items():
            for i, x in sparse[a]:
                for j, y in sparse[b]:
                    if i < j:
                        acc = residuals.setdefault((i, j), [F(0)] * d)
                        for k, c in terms:
                            acc[k] += x * y * c
    for pair, vec in spec.table.items():
        acc = residuals.setdefault(pair, [F(0)] * d)
        for l, c in enumerate(vec):
            if c:
                for k, x in columns[l]:
                    acc[k] -= x * c
    failing = [pair for pair, acc in residuals.items() if any(acc)]
    if not failing:
        return True, None, None
    return False, min(failing), tuple(residuals[min(failing)])


def _outcome(check, *args):
    """What a validation returns or raises, comparably."""
    try:
        return check(*args)
    except JacobiViolation as exc:
        return "JacobiViolation", exc.triple, exc.residual, str(exc)
    except NotNilpotent as exc:
        return "NotNilpotent", str(exc)


def _random_basis(spec, rng, shears):
    """spec in a random basis; every third one also scaled by
    pairwise-coprime denominators near 2^40."""
    p = random_basis_matrix(spec.dim, rng, shears)
    if rng.randrange(3) == 0:
        p = p @ coprime_scaling(spec.dim, rng)
    return change_of_basis(spec, p), p


def test_sparse_jacobi_matches_the_dense_formula_on_perturbed_tables():
    rng = random.Random(61)
    pool = [F(1), F(-1), F(2), F(1, 3)]
    bases = (heisenberg(), free_nilpotent_2_3(), filiform(5), filiform(6),
             LieAlgebraSpec.from_sparse(5, [(1, 3, 5, 1), (2, 4, 5, 1)]))
    violations = big = 0
    for _ in range(60):
        spec, p = _random_basis(rng.choice(bases), rng, rng.randrange(5))
        big += p.int_rows()[0] > 2 ** 40
        d = spec.dim
        table = {key: list(vec) for key, vec in spec.table.items()}
        for _ in range(rng.randrange(1, 3)):
            i, j = sorted(rng.sample(range(d), 2))
            vec = table.setdefault((i, j), [F(0)] * d)
            vec[rng.randrange(d)] += rng.choice(pool)
        perturbed = LieAlgebraSpec(d, table)
        expected = _dense_jacobi(perturbed)
        outcome = _outcome(validate_algebra, perturbed)
        assert outcome == _outcome(fraction_validate_algebra, perturbed)
        if expected is None:
            assert not isinstance(outcome, tuple) or outcome[0] == "NotNilpotent"
            continue
        violations += 1
        assert outcome[:3] == ("JacobiViolation", *expected)
    assert violations >= 30 and big >= 10


def _heisenberg5():
    return LieAlgebraSpec.from_sparse(5, [(1, 3, 5, 1), (2, 4, 5, 1)])


def _graded_scaling(spec, rng):
    """A diagonal automorphism of a table whose brackets [x_i, x_j] = x_k
    each have one term: free weights on the generators, products above."""
    values = {}
    for (i, j), vec in sorted(spec.table.items(), key=lambda t: max(
            k for k, x in enumerate(t[1]) if x)):
        (k,) = [k for k, x in enumerate(vec) if x]
        for a in (i, j):
            values.setdefault(a, F(rng.choice((1, -1, 2, -3)), rng.choice((1, 2))))
        if k in values:  # x5 of heisenberg5: choose the other generator
            values[j] = values[k] / values[i]
        values[k] = values[i] * values[j]
    d = spec.dim
    return QMatrix([[values.get(i, F(1)) if i == j else F(0) for j in range(d)]
                    for i in range(d)])


def _dense_ad(spec, v):
    d = spec.dim
    return QMatrix.from_columns([spec.bracket_vec(v, [F(int(i == j)) for i in range(d)])
                                 for j in range(d)])


def _random_automorphisms(rng):
    """(algebra, automorphism) pairs.  The algebra is a standard table in
    a random 2-shear basis P, built as random_change_of_basis does but
    keeping P, and in the fifth of each base also scaled by
    pairwise-coprime denominators near 2^40; the automorphism is a graded
    scaling of the table conjugated by P, times an inner automorphism
    exp(ad v)."""
    for base in (heisenberg(), _heisenberg5(), free_nilpotent_2_3(),
                 filiform(4), filiform(5), filiform(6), filiform(7)):
        for n in range(5):
            p = random_basis_matrix(base.dim, rng, 2)
            if n == 4:
                p = p @ coprime_scaling(base.dim, rng)
            spec = change_of_basis(base, p)
            scaling = p.inverse() @ _graded_scaling(base, rng) @ p
            v = [F(rng.randrange(-2, 3), rng.randrange(1, 3)) for _ in range(spec.dim)]
            yield spec, scaling @ matrix_exp_nilpotent(_dense_ad(spec, v))


def _dense_is_automorphism(spec, m):
    """is_automorphism by the table formula over every basis pair."""
    d = spec.dim
    for i in range(d):
        for j in range(i + 1, d):
            lhs = [F(0)] * d
            for a in range(d):
                for b in range(d):
                    x = m[a, i] * m[b, j]
                    if x:
                        lhs = [s + x * c for s, c in zip(lhs, spec.structure_vector(a, b))]
            rhs = [sum((m[k, l] * c for l, c in enumerate(spec.structure_vector(i, j))), F(0))
                   for k in range(d)]
            if lhs != rhs:
                return False, (i, j), tuple(x - y for x, y in zip(lhs, rhs))
    return True, None, None


def test_sparse_is_automorphism_matches_the_dense_formula():
    rng = random.Random(67)
    pool = [F(1), F(-1), F(2), F(1, 3)]
    failures = 0
    for spec, m in _random_automorphisms(rng):
        assert is_automorphism(spec, m) == fraction_is_automorphism(spec, m) \
            == _dense_is_automorphism(spec, m) == (True, None, None)
        for _ in range(3):
            rows = [list(row) for row in m.entries]
            for _ in range(rng.randrange(1, 3)):
                rows[rng.randrange(spec.dim)][rng.randrange(spec.dim)] += rng.choice(pool)
            perturbed = QMatrix(rows)
            expected = _dense_is_automorphism(spec, perturbed)
            failures += not expected[0]
            assert is_automorphism(spec, perturbed) == fraction_is_automorphism(spec, perturbed) \
                == expected
    assert failures >= 60


def test_is_automorphism_accepts_every_matrix_of_an_abelian_algebra():
    spec = abelian(3)
    for m in (QMatrix.zeros(3), QMatrix([[1, 2, 0], [0, 1, 0], [0, 0, "1/2"]])):
        assert is_automorphism(spec, m) == (True, None, None)
    with pytest.raises(ValueError):
        is_automorphism(spec, QMatrix.identity(2))


def _dense_lower_central_series(spec):
    """g = g_1, g_2, ... to the last nonzero term by the dense brackets:
    g_{k+1} spanned by [xi_i, b] over the unit vectors xi_i and the basis
    of g_k."""
    d = spec.dim
    units = QMatrix.identity(d).entries
    series = [QSubspace.from_spanning(units, d)]
    while True:
        nxt = QSubspace.from_spanning(
            [spec.bracket_vec(u, b) for b in series[-1].basis for u in units], d)
        if nxt.dim == 0:
            return series
        series.append(nxt)


def test_sparse_lower_central_series_matches_the_dense_brackets():
    rng = random.Random(71)
    classes = set()
    for spec, _ in _random_automorphisms(rng):
        nil_class = validate_algebra(spec)
        assert nil_class == fraction_validate_algebra(spec) == len(_dense_lower_central_series(spec))
        classes.add(nil_class)
    assert len(classes) > 1


def test_sparse_ad_matrix_and_is_ideal_match_the_dense_brackets():
    rng = random.Random(73)
    for spec, m in _random_automorphisms(rng):
        d = spec.dim
        v = [F(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(d)]
        assert spec.ad_matrix(v) == _dense_ad(spec, v)
        units = [tuple(F(int(i == j)) for j in range(d)) for i in range(d)]
        for space in (QSubspace.from_spanning(m.columns()[:2], d),
                      _dense_lower_central_series(spec)[-1]):
            dense = all(space.contains(spec.bracket_vec(u, b))
                        for u in units for b in space.basis)
            assert is_ideal(spec, space) == dense


# ---- the one integer form against the Fraction algebra ----

class FractionAlgebra:
    """The algebra as it was held before its integer form was its only
    form: the dense Fraction table of the pairs i < j with a nonzero
    constant, and brackets[i][j] = ((k, c_ijk), ...) over the nonzero
    c_ijk for both orders of each pair, with its brackets, ad-matrices,
    centre equations, ideal test and derived algebra on Fractions.  It is
    built from a table as LieAlgebraSpec takes one, consistent and in
    range."""

    def __init__(self, dim, table):
        self.dim = dim
        self.table = {}
        self.brackets = [{} for _ in range(dim)]
        for (i, j), vec in table.items():
            vec = tuple(map(F, vec))
            if i > j:
                i, j, vec = j, i, tuple(-x for x in vec)
            if any(vec):
                terms = tuple((k, x) for k, x in enumerate(vec) if x)
                self.table[(i, j)] = vec
                self.brackets[i][j] = terms
                self.brackets[j][i] = tuple((k, -x) for k, x in terms)

    def structure_vector(self, i, j):
        if (i, j) in self.table:
            return self.table[(i, j)]
        if (j, i) in self.table:
            return tuple(-x for x in self.table[(j, i)])
        return (F(0),) * self.dim

    def bracket_vec(self, v, w):
        w_nz = [(j, F(y)) for j, y in enumerate(w) if y]
        out = [F(0)] * self.dim
        for i, x in enumerate(v):
            if x:
                for j, y in w_nz:
                    for k, a in self.brackets[i].get(j, ()):
                        out[k] += F(x) * y * a
        return tuple(out)

    def bracket(self, v, w):
        params = v.params
        out = [Poly.zero(params) for _ in range(self.dim)]
        for i, x in enumerate(v.entries):
            for j, y in enumerate(w.entries):
                for k, a in self.brackets[i].get(j, ()):
                    out[k] = out[k] + x * y * Poly.constant(a, params)
        return ParamVector(params, out)

    def ad_matrix(self, v):
        rows = [[F(0)] * self.dim for _ in range(self.dim)]
        for i, x in enumerate(v):
            if x:
                for j, terms in self.brackets[i].items():
                    for k, c in terms:
                        rows[k][j] += F(x) * c
        return QMatrix(rows)

    def centre_rows(self):
        rows = []
        for row in self.brackets:
            by_k = {}
            for j, terms in row.items():
                for k, c in terms:
                    by_k.setdefault(k, [F(0)] * self.dim)[j] = c
            rows.extend(tuple(by_k[k]) for k in sorted(by_k))
        return rows

    def is_ideal(self, subspace):
        units = [[int(i == j) for j in range(self.dim)] for i in range(self.dim)]
        return all(subspace.contains(self.bracket_vec(u, b))
                   for b in subspace.basis for u in units)

    def derived_subalgebra(self):
        return QSubspace.from_spanning(list(self.table.values()), self.dim)


def _canonical_form(algebra):
    """The integer form the algebra must hold: S the lcm of the
    denominators of its nonzero constants, and the pairs i < j sorted,
    each with (k, S c_ijk) over the nonzero constants by increasing k."""
    S = math.lcm(*(x.denominator for vec in algebra.table.values() for x in vec if x))
    return S, tuple((i, j, tuple((k, int(x * S)) for k, x in enumerate(vec) if x))
                    for (i, j), vec in sorted(algebra.table.items()))


def _sparse_entries(table, rng):
    """One-based quadruples that from_sparse reads as the table: each
    pair in a random order, some constants split in two summands and
    some zero summands added, all shuffled."""
    out = []
    for (i, j), vec in table.items():
        sign = 1
        if rng.random() < 0.5:
            i, j, sign = j, i, -1
        for k, x in enumerate(vec):
            x = sign * F(x)
            if x and rng.random() < 0.3:
                part = F(rng.randrange(-3, 4), rng.choice((1, 2, 7)))
                out += [(i + 1, j + 1, k + 1, part), (i + 1, j + 1, k + 1, x - part)]
            elif x or rng.random() < 0.1:
                out.append((i + 1, j + 1, k + 1, x))
    rng.shuffle(out)
    return out


def _suspension_table(table, dim, derivation):
    """The table of the algebra with delta adjoined, [delta, x] = D x,
    delta first, as dense Fraction columns of D."""
    big = {(0, j + 1): (F(0), *derivation.column(j)) for j in range(dim)
           if any(derivation.column(j))}
    for (i, j), vec in table.items():
        big[(i + 1, j + 1)] = (F(0), *vec)
    return big


def _one_form_cases(rng):
    """(dim, table, built) triples: each conftest algebra in its own basis
    and in random bases, some scaled by pairwise-coprime denominators
    near 2^40, with a third of its pairs declared in the other order; and
    the algebra made from each by adjoining the log D of a unipotent
    automorphism, as a table and as build_suspension_algebra builds it
    (built, None for the others)."""
    bases = (abelian(1), abelian(3), heisenberg(), _heisenberg5(), free_nilpotent_2_3(),
             filiform(4), filiform(6), q6())
    for base in bases:
        for n in range(4):
            p = QMatrix.identity(base.dim) if n == 0 else random_basis_matrix(base.dim, rng)
            if n == 3:
                p = p @ coprime_scaling(base.dim, rng)
            spec = change_of_basis(base, p)
            d = spec.dim
            table = {}
            for (i, j), vec in spec.table.items():
                if rng.random() < 0.33:
                    table[(j, i)] = [-x for x in vec]
                else:
                    table[(i, j)] = list(vec)
            yield d, table, None
            if spec.abelian():
                unipotent = QMatrix([[F(rng.randrange(-2, 3), rng.choice((1, 3))) if c > r
                                      else int(c == r) for c in range(d)] for r in range(d)])
            else:
                v = [F(rng.randrange(-2, 3), rng.choice((1, 2))) for _ in range(d)]
                unipotent = matrix_exp_nilpotent(spec.ad_matrix(v))
            D = matrix_log_unipotent(unipotent)
            yield d + 1, _suspension_table(table, d, D), build_suspension_algebra(spec, D)


def _check_views(spec, reference, rng):
    """The Fraction views and every reader of the integer form against
    the Fraction algebra, on random rational and polynomial vectors."""
    d = spec.dim
    assert spec.table == reference.table
    assert all(type(x) is F for vec in spec.table.values() for x in vec)
    for i in range(d):
        for j in range(d):
            assert spec.structure_vector(i, j) == reference.structure_vector(i, j)
    pool = (F(0), F(0), F(1), F(-1), F(2, 3), F(-5, 7))
    params = ("t", "s")
    for _ in range(4):
        v = [rng.choice(pool) for _ in range(d)]
        w = [rng.choice(pool) for _ in range(d)]
        assert spec.bracket_vec(v, w) == reference.bracket_vec(v, w)
        assert spec.ad_matrix(v) == reference.ad_matrix(v)
        pv = ParamVector(params, [parse_poly(f"{x} + {y}*t", params) for x, y in zip(v, w)])
        pw = ParamVector(params, [parse_poly(f"{y}*s - {x}", params) for x, y in zip(v, w)])
        assert spec.bracket(pv, pw) == reference.bracket(pv, pw)
    S, rows = _centre_rows(spec)
    assert [tuple(F(x, S) for x in _dense(d, row)) for row in rows] == reference.centre_rows()
    derived = derived_subalgebra(spec)
    assert derived == reference.derived_subalgebra()
    spaces = [derived, QSubspace.from_spanning(QMatrix.identity(d).entries, d)]
    for _ in range(3):
        spaces.append(QSubspace.from_spanning(
            [[rng.choice(pool) for _ in range(d)] for _ in range(rng.randrange(1, d + 1))], d))
    for space in spaces:
        assert is_ideal(spec, space) == reference.is_ideal(space)


def _dense(d, row):
    vec = [0] * d
    for j, x in row:
        vec[j] = x
    return vec


def test_equal_algebras_hold_one_canonical_integer_form():
    rng = random.Random(1031)
    heis5 = LieAlgebraSpec.from_sparse(5, [(1, 3, 5, 1), (2, 4, 5, 1)])
    assert heis5._ints == LieAlgebraSpec.from_sparse(5, [(2, 4, 5, 1), (1, 3, 5, 1)])._ints
    suspensions = big = 0
    for dim, table, built in _one_form_cases(rng):
        reference = FractionAlgebra(dim, table)
        form = _canonical_form(reference)
        spec = LieAlgebraSpec(dim, table)
        sparse = LieAlgebraSpec.from_sparse(dim, _sparse_entries(table, rng))
        reordered = LieAlgebraSpec(dim, dict(rng.sample(sorted(table.items()), len(table))))
        for other in (spec, sparse, reordered) + ((built,) if built else ()):
            assert other._ints == form and other == spec
            assert other._int_brackets == [
                {j: tuple((k, int(x * form[0])) for k, x in terms)
                 for j, terms in row.items()} for row in reference.brackets]
            _check_views(other, reference, rng)
        suspensions += built is not None
        big += form[0] > 2 ** 40
    assert suspensions == 32 and big >= 8
