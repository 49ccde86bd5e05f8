"""Lie algebra layer: brackets, validation, automorphisms."""

import random
from fractions import Fraction

import pytest

from conftest import (abelian, change_of_basis, filiform, free_nilpotent_2_3,
                      heisenberg, random_basis_matrix, random_change_of_basis)
from nilaa.poly import ParamVector, Poly, parse_poly
from nilaa.nilalg import (
    JacobiViolation, LieAlgebraSpec, NotNilpotent, derived_subalgebra,
    is_abelian_family, is_automorphism, is_ideal, validate_algebra,
)
from nilaa.ratlin import QMatrix, QSubspace, matrix_exp_nilpotent

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


def test_sparse_jacobi_matches_the_dense_formula_on_perturbed_tables():
    rng = random.Random(61)
    pool = [F(1), F(-1), F(2), F(1, 3)]
    bases = (heisenberg(), free_nilpotent_2_3(), filiform(5), filiform(6),
             LieAlgebraSpec.from_sparse(5, [(1, 3, 5, 1), (2, 4, 5, 1)]))
    violations = 0
    for _ in range(60):
        spec = random_change_of_basis(rng.choice(bases), rng, rng.randrange(5))
        d = spec.dim
        table = {key: list(vec) for key, vec in spec.table.items()}
        for _ in range(rng.randrange(1, 3)):
            i, j = sorted(rng.sample(range(d), 2))
            vec = table.setdefault((i, j), [F(0)] * d)
            vec[rng.randrange(d)] += rng.choice(pool)
        perturbed = LieAlgebraSpec(d, table)
        expected = _dense_jacobi(perturbed)
        if expected is None:
            try:
                validate_algebra(perturbed)
            except NotNilpotent:
                pass
            continue
        violations += 1
        with pytest.raises(JacobiViolation) as err:
            validate_algebra(perturbed)
        assert (err.value.triple, err.value.residual) == expected
    assert violations >= 30


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
    keeping P; the automorphism is a graded scaling of the table
    conjugated by P, times an inner automorphism exp(ad v)."""
    for base in (heisenberg(), _heisenberg5(), free_nilpotent_2_3(),
                 filiform(4), filiform(5), filiform(6), filiform(7)):
        for _ in range(4):
            p = random_basis_matrix(base.dim, rng, 2)
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
        assert is_automorphism(spec, m) == _dense_is_automorphism(spec, m) == (True, None, None)
        for _ in range(3):
            rows = [list(row) for row in m.entries]
            for _ in range(rng.randrange(1, 3)):
                rows[rng.randrange(spec.dim)][rng.randrange(spec.dim)] += rng.choice(pool)
            perturbed = QMatrix(rows)
            expected = _dense_is_automorphism(spec, perturbed)
            failures += not expected[0]
            assert is_automorphism(spec, perturbed) == expected
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
        assert nil_class == len(_dense_lower_central_series(spec))
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
