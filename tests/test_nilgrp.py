"""Group layer: BCH multiplication, adjoint action, affine defect.

The BCH implementation is cross-checked against an independent matrix
realization: filiform algebras embed into strictly upper triangular
matrices, where exp and log are plain terminating matrix series and the
group law is honest matrix multiplication.
"""

import gc
import json
import random
import weakref
from fractions import Fraction

import pytest

from conftest import (abelian, change_of_basis, filiform, free_nilpotent_2_3,
                      heisenberg, random_change_of_basis)
from nilaa import io as nio
from nilaa.nilalg import JacobiViolation, LieAlgebraSpec, build_suspension_algebra
from nilaa.nilgrp import (BCH_CLASS_CAP, ClassCapExceeded, NilpotentGroup, _fa_mul,
                          bch_table)
from nilaa.poly import ParamVector, Poly, parse_poly
from nilaa.ratlin import QMatrix, matrix_exp_nilpotent, matrix_log_unipotent

F = Fraction


def filiform_matrix(vec) -> QMatrix:
    """Faithful representation: (c, u) -> [[c*shift, u], [0, 0]] where the
    shift moves e_i to e_{i+1} (subdiagonal), matching [delta, v_i] = v_{i+1}."""
    c = Fraction(vec[0])
    u = [Fraction(x) for x in vec[1:]]
    n = len(u)
    rows = []
    for i in range(n):
        row = [Fraction(0)] * (n + 1)
        if i > 0:
            row[i - 1] = c
        row[n] = u[i]
        rows.append(row)
    rows.append([Fraction(0)] * (n + 1))
    return QMatrix(rows)


def heisenberg_matrix(vec) -> QMatrix:
    a, b, c = (Fraction(x) for x in vec)
    return QMatrix([[0, a, c], [0, 0, b], [0, 0, 0]])


def heisenberg_coords(m: QMatrix):
    return (m[0, 1], m[1, 2], m[0, 2])


def filiform_coords(m: QMatrix):
    n = m.nrows - 1
    c = m[1, 0]
    for i in range(1, n):
        assert m[i, i - 1] == c, "image must stay inside the embedded subalgebra"
    return (c,) + tuple(m[i, n] for i in range(n))


def test_bch_table_low_degrees():
    # X + Y + [X,Y]/2 + [X,[X,Y]]/12 + [[X,Y],Y]/12 + [X,[[X,Y],Y]]/24
    assert bch_table(4) == (((0,), 1), ((1,), 1), ((0, 1), F(1, 2)),
                            ((0, 0, 1), F(1, 12)), ((0, 1, 1), F(1, 12)),
                            ((0, 0, 1, 1), F(1, 24)))
    assert bch_table(2) == bch_table(4)[:3]
    with pytest.raises(ClassCapExceeded):
        bch_table(0)
    with pytest.raises(ClassCapExceeded):
        bch_table(BCH_CLASS_CAP + 1)


def _fa_sum(terms):
    """sum of coeff * series over (coeff, series) pairs, zeros dropped."""
    out = {}
    for coeff, series in terms:
        for word, c in series.items():
            out[word] = out.get(word, F(0)) + coeff * c
    return {word: c for word, c in out.items() if c}


def _bch_series(cap):
    """log(e^X e^Y) in the free associative algebra on X = 0, Y = 1,
    truncated at word length cap."""
    one = {(): F(1)}

    def exp(letter):
        term, terms = one, [(F(1), one)]
        for k in range(1, cap + 1):
            term = _fa_mul(term, {(letter,): F(1, k)}, cap)
            terms.append((F(1), term))
        return _fa_sum(terms)

    u = _fa_sum([(F(1), _fa_mul(exp(0), exp(1), cap)), (F(-1), one)])
    power, terms = one, []
    for k in range(1, cap + 1):
        power = _fa_mul(power, u, cap)
        terms.append((F((-1) ** (k + 1), k), power))
    return _fa_sum(terms)


def _is_lyndon_by_rotation(word):
    return all(word < word[i:] + word[:i] for i in range(1, len(word)))


def _standard_bracketing(word, cap):
    """P_w = [P_u, P_v] in the free associative algebra, v the longest
    proper Lyndon suffix of w = uv."""
    if len(word) == 1:
        return {word: F(1)}
    split = min(i for i in range(1, len(word)) if _is_lyndon_by_rotation(word[i:]))
    pu = _standard_bracketing(word[:split], cap)
    pv = _standard_bracketing(word[split:], cap)
    return _fa_sum([(F(1), _fa_mul(pu, pv, cap)), (F(-1), _fa_mul(pv, pu, cap))])


def test_bch_table_is_the_lyndon_expansion_of_the_series():
    for cap in range(1, BCH_CLASS_CAP + 1):
        table = bch_table(cap)
        assert all(_is_lyndon_by_rotation(word) and len(word) <= cap
                   for word, _ in table)
        assert len({word for word, _ in table}) == len(table)
        bracketings = [_standard_bracketing(word, cap) for word, _ in table]
        series = _bch_series(cap)
        assert _fa_sum(zip((c for _, c in table), bracketings)) == series
        for k in range(len(table)):
            coeffs = [c + (i == k) for i, (_, c) in enumerate(table)]
            assert _fa_sum(zip(coeffs, bracketings)) != series


def test_bch_hall_basis_coefficients():
    # log(exp x1 exp x2) = x1 + x2 + x3/2 + x4/12 - x5/12 on the Hall basis
    group = NilpotentGroup(free_nilpotent_2_3())
    z = group.mult_vec((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))
    assert z == (F(1), F(1), F(1, 2), F(1, 12), F(-1, 12))


def test_heisenberg_closed_form():
    group = NilpotentGroup(heisenberg())
    rng = random.Random(3)
    for _ in range(30):
        v = tuple(F(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(3))
        w = tuple(F(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(3))
        half = F(1, 2)
        comm = group.spec.bracket_vec(v, w)
        expect = tuple(a + b + half * c for a, b, c in zip(v, w, comm))
        assert group.mult_vec(v, w) == expect
    for v, w in (((1, 2, 3, 4), (1, 2)), ((1, 2), (1, 2, 3, 4))):
        with pytest.raises(ValueError, match="length 3"):
            group.mult_vec(v, w)


def test_bch_against_matrix_realization():
    rng = random.Random(5)
    # class 4 and class 6 filiform algebras, plus heisenberg
    cases = [(filiform(5), filiform_matrix, filiform_coords),
             (filiform(7), filiform_matrix, filiform_coords),
             (heisenberg(), heisenberg_matrix, heisenberg_coords)]
    for spec, embed, coords in cases:
        group = NilpotentGroup(spec)
        for _ in range(12):
            v = tuple(F(rng.randrange(-3, 4), rng.randrange(1, 3))
                      for _ in range(spec.dim))
            w = tuple(F(rng.randrange(-3, 4), rng.randrange(1, 3))
                      for _ in range(spec.dim))
            product = matrix_exp_nilpotent(embed(v)) @ matrix_exp_nilpotent(embed(w))
            eye = QMatrix.identity(product.nrows)
            expected = coords(matrix_log_unipotent(product))
            assert group.mult_vec(v, w) == expected


def test_group_axioms_random():
    group = NilpotentGroup(free_nilpotent_2_3())
    rng = random.Random(9)
    zero = (F(0),) * 5

    def rand_vec():
        return tuple(F(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(5))

    for _ in range(15):
        u, v, w = rand_vec(), rand_vec(), rand_vec()
        assert group.mult_vec(group.mult_vec(u, v), w) == group.mult_vec(u, group.mult_vec(v, w))
        assert group.mult_vec(v, group.inv(v)) == zero
        assert group.mult_vec(v, zero) == v
        assert group.mult_vec(zero, v) == v


def test_adjoint_matches_conjugation():
    group = NilpotentGroup(free_nilpotent_2_3())
    rng = random.Random(31)
    for _ in range(10):
        v = tuple(F(rng.randrange(-2, 3), rng.randrange(1, 3)) for _ in range(5))
        w = tuple(F(rng.randrange(-2, 3), rng.randrange(1, 3)) for _ in range(5))
        conj = group.mult_vec(v, group.mult_vec(w, group.inv(v)))
        assert group.adjoint_matrix(v).matvec(w) == conj


def test_polynomial_and_rational_paths_agree():
    group = NilpotentGroup(free_nilpotent_2_3())
    params = ("t",)
    t = parse_poly("t", params)
    v = ParamVector(params, [t, Poly.constant(F(1, 2), params), Poly.zero(params),
                             Poly.zero(params), Poly.zero(params)])
    w = ParamVector(params, [Poly.constant(1, params), t * t, Poly.zero(params),
                             Poly.zero(params), t])
    product = group.mult(v, w)
    for tv in (F(0), F(1), F("2/7")):
        lhs = product.substitute({"t": tv})
        rhs = group.mult_vec(v.substitute({"t": tv}), w.substitute({"t": tv}))
        assert lhs == rhs


def test_automorphisms_commute_with_bch():
    spec = heisenberg()
    group = NilpotentGroup(spec)
    shear = QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    rng = random.Random(41)
    for _ in range(15):
        v = tuple(F(rng.randrange(-3, 4)) for _ in range(3))
        w = tuple(F(rng.randrange(-3, 4)) for _ in range(3))
        assert shear.matvec(group.mult_vec(v, w)) == \
            group.mult_vec(shear.matvec(v), shear.matvec(w))


def test_log_automorphism():
    group = NilpotentGroup(heisenberg())
    shear = QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    d = group.log_automorphism(shear)
    assert d == shear - QMatrix.identity(3)  # square of the off-diagonal part is 0
    # unipotent but not an automorphism: its log is not a derivation, which
    # the Jacobi identity on a triple (delta, x_i, x_j) of the suspension
    # algebra detects
    bad = QMatrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    spec = build_suspension_algebra(group.spec, group.log_automorphism(bad))
    with pytest.raises(JacobiViolation) as info:
        NilpotentGroup(spec)
    assert 0 in info.value.triple


def test_log_automorphism_rejects_a_matrix_of_another_size():
    group = NilpotentGroup(heisenberg())
    for matrix in (QMatrix([[1, 1], [0, 1]]), QMatrix.identity(4),
                   QMatrix([[1, 0, 0], [0, 1, 0]])):
        with pytest.raises(ValueError, match="wrong shape"):
            group.log_automorphism(matrix)


def test_mult_across_parameter_tuples_raises():
    group = NilpotentGroup(heisenberg())
    v = ParamVector(("t",), [parse_poly("t", ("t",)), 0, 0])
    w = ParamVector(("s",), [0, parse_poly("s", ("s",)), 0])
    with pytest.raises(ValueError, match=r"\('t',\) and \('s',\)"):
        group.mult(v, w)
    # re-expressed over one tuple by the constructor, they multiply
    params = ("t", "s")
    got = group.mult(ParamVector(params, v.entries), ParamVector(params, w.entries))
    assert got == ParamVector(params, [parse_poly("t", params), parse_poly("s", params),
                                       parse_poly("1/2*t*s", params)])


def test_defect_translation_only():
    group = NilpotentGroup(heisenberg())
    a = ParamVector.from_rationals([F(1, 3), F(1, 5), F(0)])
    c = group.defect_map(a, QMatrix.identity(3))
    # c(X) = a + [a, X] in class 2
    assert c[0] == Poly.constant(F(1, 3), c.params)
    assert c[1] == Poly.constant(F(1, 5), c.params)
    assert c[2] == parse_poly("1/3*X2 - 1/5*X1", c.params)


def test_defect_pure_automorphism():
    group = NilpotentGroup(heisenberg())
    shear = QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    zero = ParamVector.from_rationals([0, 0, 0])
    c = group.defect_map(zero, shear)
    # c(X) = (X2, 0, X2^2/2 ...) for the shear
    assert c[0] == parse_poly("X2", c.params)
    assert c[1].is_zero()
    assert c[2] == parse_poly("1/2*X2^2", c.params)
    vectors = c.coefficient_vectors()
    assert vectors[(0, 1, 0)] == (F(1), F(0), F(0))
    assert vectors[(0, 2, 0)] == (F(0), F(0), F(1, 2))


def test_defect_substitution_consistency():
    group = NilpotentGroup(free_nilpotent_2_3())
    params = ("t",)
    a = ParamVector(params, [parse_poly("t", params)] + [Poly.zero(params)] * 4)
    shear = QMatrix([[1, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 1, 1, 0, 0],
                     [0, 0, 1, 1, 0], [0, 0, 0, 0, 1]])
    # (not necessarily an automorphism; the defect map is defined regardless)
    c = group.defect_map(a, shear)
    rng = random.Random(51)
    for _ in range(5):
        tv = F(rng.randrange(-3, 4), rng.randrange(1, 4))
        xv = [F(rng.randrange(-2, 3), rng.randrange(1, 3)) for _ in range(5)]
        values = {"t": tv, **{f"X{i + 1}": xv[i] for i in range(5)}}
        direct = group.mult_vec(
            group.inv(xv), group.mult_vec(a.substitute({"t": tv}), shear.matvec(xv)))
        assert c.substitute(values) == direct


def test_defect_name_collision():
    # the point coordinates take a longer prefix until no parameter collides
    group = NilpotentGroup(heisenberg())
    for params, names in ((("X1",), ("XX1", "XX2", "XX3")),
                          (("XX2", "X3"), ("XXX1", "XXX2", "XXX3")),
                          (("X4", "Y1"), ("X1", "X2", "X3"))):
        a = ParamVector(params, [parse_poly(params[0], params), Poly.zero(params),
                                 Poly.zero(params)])
        c = group.defect_map(a, QMatrix.identity(3))
        assert c.params == params + names
        # c(X) = a + [a, X] in class 2, as in test_defect_translation_only
        assert c[2] == parse_poly(f"{params[0]}*{names[1]}", c.params)


def test_class_cap_enforced():
    with pytest.raises(ClassCapExceeded):
        NilpotentGroup(filiform(8))  # class 7
    NilpotentGroup(filiform(7))  # class 6 is fine


def _generated_groups(rng):
    """Groups of class 1, 2, 5 and 6 in random bases."""
    specs = (abelian(4), LieAlgebraSpec.from_sparse(5, [(1, 3, 5, 1), (2, 4, 5, 1)]),
             filiform(6), filiform(7))
    return [NilpotentGroup(random_change_of_basis(spec, rng)) for spec in specs]


def _corpus_groups():
    specs = []
    for path in sorted(nio.corpus_dir().glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if "dim" in data:
            spec = LieAlgebraSpec.from_sparse(data["dim"], data["structure_constants"])
            if spec not in specs:
                specs.append(spec)
    return [NilpotentGroup(spec) for spec in specs]


def test_integer_mult_vec_matches_per_monomial_evaluation():
    rng = random.Random(53)
    groups = _generated_groups(rng)
    assert [g.nilpotency_class for g in groups] == [1, 2, 5, 6]
    groups += _corpus_groups()
    dens = (1, 2, 3, 7, 12, 2 ** 61 - 1, 10 ** 12 + 39, 2 ** 53)
    for group in groups:
        d = group.dim
        names = tuple(f"v{i + 1}" for i in range(d)) + tuple(f"w{i + 1}" for i in range(d))
        z = [Poly.variable(n, names) for n in names]
        law = group.mult(ParamVector(names, z[:d]), ParamVector(names, z[d:]))
        for _ in range(6):
            v = tuple(F(rng.randrange(-10 ** 6, 10 ** 6), rng.choice(dens)) for _ in range(d))
            w = tuple(F(rng.randrange(-10 ** 6, 10 ** 6), rng.choice(dens)) for _ in range(d))
            got = group.mult_vec(v, w)
            assert got == law.substitute(dict(zip(names, v + w)))
            assert all(type(x) is F for x in got)
        assert group.mult_vec((1,) * d, (0,) * d) == (F(1),) * d  # plain ints
        with pytest.raises(ValueError, match=f"length {d}"):
            group.mult_vec((0,) * (d + 1), (0,) * d)


def _dense_bracket(spec, v, w):
    """The bracket by the table formula over all declared pairs."""
    out = [Poly.zero(v.params)] * spec.dim
    for (i, j), vec in spec.table.items():
        c = v[i] * w[j] - v[j] * w[i]
        out = [p + c * x for p, x in zip(out, vec)]
    return ParamVector(v.params, out)


def _left_normed_mult(group, v, w):
    """BCH by the Dynkin projection: a degree-n Lie element is 1/n times the
    sum of the left-normed bracketings of its words, each built from
    scratch."""
    out = ParamVector(v.params, [Poly.zero(v.params)] * group.dim)
    for word, coeff in _bch_series(group.nilpotency_class).items():
        acc = (v, w)[word[0]]
        for letter in word[1:]:
            acc = _dense_bracket(group.spec, acc, (v, w)[letter])
        out = out + acc.scale(coeff / len(word))
    return out


def test_lyndon_mult_matches_left_normed_dynkin_evaluation():
    rng = random.Random(59)
    specs = (abelian(3), heisenberg(), free_nilpotent_2_3(), filiform(5),
             filiform(6), filiform(7))
    params = ("t", "s")
    t, s = Poly.variable("t", params), Poly.variable("s", params)
    pool = [Poly.zero(params), Poly.constant(F(1, 2), params), t, s, t * s - 1,
            t * F(-2, 3) + s * s, t * F(5, 2 ** 61 - 1) - F(1, 10 ** 12 + 39),
            s * s * F(-7, 10 ** 12 + 39) + F(3, 2 ** 61 - 1)]
    for cls, spec in enumerate(specs, start=1):
        # the last basis rescales e_i by i + 1 and the central e_d by 3,
        # so its structure constants have denominators
        scaled = change_of_basis(spec, QMatrix(
            [[(i + 1 if i < spec.dim - 1 else 3) * (i == j)
              for j in range(spec.dim)] for i in range(spec.dim)]))
        assert cls == 1 or any(x.denominator > 1
                               for vec in scaled.table.values() for x in vec)
        for base in (spec, random_change_of_basis(spec, rng), scaled):
            group = NilpotentGroup(base)
            assert group.nilpotency_class == cls
            for _ in range(3):
                v = ParamVector(params, [rng.choice(pool) for _ in range(base.dim)])
                w = ParamVector(params, [rng.choice(pool) for _ in range(base.dim)])
                product = group.mult(v, w)
                assert product == _left_normed_mult(group, v, w)
                for p in product:
                    assert p == Poly(p.params, p.terms) and all(p.terms.values())


def test_a_dropped_group_is_collected():
    # whatever a group keeps for its products lives on the group, so
    # dropping the group frees it
    group = NilpotentGroup(free_nilpotent_2_3())
    x = ParamVector(("t",), [parse_poly("t", ("t",)), F(1, 3), 0, 0, 2])
    assert group.mult(x, x) == x.scale(2)
    assert group.mult_vec((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))[2] == F(1, 2)
    group.defect_map(x, QMatrix.identity(5))
    ref = weakref.ref(group)
    del group
    gc.collect()
    assert ref() is None
