"""Deciders, reports and certificates on hand-worked systems.

Expected values are frozen from independent hand computations: defect
families expanded by hand from the group law, coset memberships checked
against explicit lattice combinations, and the two-generator coefficients
against both the curve expansion and the matrix realization.
"""

import math
import random
from fractions import Fraction

import pytest

from conftest import (abelian, change_of_basis, filiform, free_nilpotent_2_3,
                      heisenberg, q6, random_basis_matrix, random_unimodular)
from nilaa import io as nio
from nilaa import ratlin
from nilaa.criteria import (AA, FAIL, INCONCLUSIVE, MINIMAL, NOT_AA,
                            NOT_MINIMAL, PASS, AffineSystem, CosetObstruction,
                            HypothesisViolated, InapplicableCriterion,
                            InvariantSubtorus, LieNecessaryReport,
                            NotFixed, ObstructionBracket,
                            SpectralObstruction, UnipotentPower,
                            ValidationError, Verdict, WitnessSubspace,
                            _two_generator_matrix_coefficients,
                            basepoint_decide, full_decide,
                            lie_necessary, make_system, minimality_check,
                            power_unipotent, suspended_basepoint_decide,
                            suspended_full_decide, torus_decide,
                            translation_decide, two_generator_analysis)
from nilaa.nilalg import LieAlgebraSpec, derived_subalgebra, \
    is_automorphism, is_ideal
from nilaa.nilgrp import ClassCapExceeded, NilpotentGroup
from nilaa.poly import ParamVector, Poly, parse_poly
from nilaa.ratlin import NotUnipotent, QMatrix, QSubspace, rref, \
    unipotency_index

F = Fraction
HALF = F(1, 2)
HEIS_LATTICE = QMatrix([[1, 0, 0], [0, 1, 0], [0, 0, HALF]])
FREE_LATTICE = QMatrix([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0],
                        [0, 0, HALF, 0, 0],
                        [0, 0, 0, F(1, 12), 0],
                        [0, 0, 0, 0, F(1, 12)]])
JORDAN2 = QMatrix([[1, 1], [0, 1]])
JORDAN3 = QMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])


def tp(params=("t",)):
    return Poly.variable("t", params)


def vec_t(entries):
    return ParamVector(("t",), entries)


def furstenberg():
    return make_system(abelian(2), automorphism=JORDAN2,
                       translation=vec_t([Poly.zero(("t",)), tp()]))


def rotation_1d():
    return make_system(abelian(1), translation=vec_t([tp()]))


def skew_rational():
    return make_system(abelian(2), automorphism=JORDAN2,
                       translation=[F(1, 3), 0])


def jordan3_system():
    return make_system(abelian(3), automorphism=JORDAN3)


def heis_shear():
    return make_system(heisenberg(), lattice=HEIS_LATTICE,
                       automorphism=QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))


def heis_translation():
    a = vec_t([tp(), Poly.zero(("t",)), Poly.zero(("t",))])
    return make_system(heisenberg(), lattice=HEIS_LATTICE, translation=a)


def free23_lift():
    U = QMatrix([[1, 0, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                 [0, 0, 0, 1, 0], [0, 0, 0, 1, 1]])
    return make_system(free_nilpotent_2_3(), lattice=FREE_LATTICE,
                       automorphism=U,
                       designated_generators=[(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)])


def free23_central():
    zero = Poly.zero(("t",))
    a = vec_t([zero, zero, zero, tp(), zero])
    return make_system(free_nilpotent_2_3(), lattice=FREE_LATTICE,
                       translation=a)


# ---- system construction and validation order ----

def test_validation_rejects_bad_jacobi_first():
    bad = LieAlgebraSpec.from_sparse(
        4, [(1, 2, 3, 1), (1, 3, 4, 1), (2, 3, 1, 1)])
    with pytest.raises(ValidationError) as info:
        make_system(bad)
    assert info.value.check == "validate_algebra"


def test_a_class_above_the_bch_cap_is_out_of_scope_not_invalid():
    # filiform(8) satisfies Jacobi and is nilpotent of class 7
    with pytest.raises(ClassCapExceeded) as info:
        make_system(filiform(8))
    assert not isinstance(info.value, ValidationError)


def test_validation_rejects_non_closed_lattice():
    with pytest.raises(ValidationError) as info:
        make_system(heisenberg())  # identity lattice is not closed under bch
    assert info.value.check == "validate_lattice"


def test_validation_rejects_non_automorphism():
    with pytest.raises(ValidationError) as info:
        make_system(heisenberg(), lattice=HEIS_LATTICE,
                    automorphism=QMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
    assert info.value.check == "is_automorphism"
    assert info.value.witness[0] == (0, 1)


def test_validation_rejects_lattice_breaking_automorphism():
    scale = QMatrix([[HALF, 0, 0], [0, 1, 0], [0, 0, HALF]])
    with pytest.raises(ValidationError) as info:
        make_system(heisenberg(), lattice=HEIS_LATTICE, automorphism=scale)
    assert info.value.check == "preserves_lattice"


def test_defect_family_is_ordered_constant_first():
    # the deciders scan the coefficient vectors of the defect map from the
    # smallest monomial up, so a constant term leads
    system = skew_rational()
    c = system.group.defect_map(system.translation, system.automorphism)
    assert c.params == ("X1", "X2")
    coeffs = c.coefficient_vectors()
    assert [(m, coeffs[m]) for m in reversed(c.monomials())] == [
        ((0, 0), (F(1, 3), F(0))), ((0, 1), (F(1), F(0)))]


# ---- full_decide ----

def test_full_identity_map_is_aa_with_zero_witness():
    system = make_system(abelian(2))
    verdict = full_decide(system)
    assert verdict.status == AA
    assert verdict.certificate.subspace == QSubspace(2, ())


def test_full_rotation_is_aa():
    assert full_decide(rotation_1d()).status == AA


def test_full_skew_is_aa_and_skew_translation_is_not():
    skew = make_system(abelian(2), automorphism=JORDAN2)
    assert full_decide(skew).status == AA
    verdict = full_decide(furstenberg())
    assert verdict.status == NOT_AA
    assert verdict.certificate == NotFixed((F(0), F(1)), (F(1), F(0)), "t")


def test_full_rational_skew_is_aa_without_shift():
    verdict = full_decide(skew_rational())
    assert verdict.status == AA and verdict.certificate.shift is None


def test_full_jordan3_is_not_aa():
    assert full_decide(jordan3_system()).status == NOT_AA


def test_full_lattice_translate_needs_a_central_shift():
    system = make_system(abelian(2), automorphism=JORDAN2, translation=[0, 1])
    verdict = full_decide(system)
    assert verdict.status == AA
    assert verdict.certificate.shift == (F(0), F(-1))


def test_full_torsion_translate_is_coset_obstructed():
    system = make_system(abelian(2), automorphism=JORDAN2,
                         translation=[0, HALF])
    verdict = full_decide(system)
    assert verdict.status == NOT_AA
    assert isinstance(verdict.certificate, CosetObstruction)


def test_full_heisenberg_shear_witness():
    verdict = full_decide(heis_shear())
    assert verdict.status == AA
    assert verdict.certificate.subspace.basis == ((1, 0, 0), (0, 0, 1))


def test_full_free23_obstruction_pair_is_eta_and_bracket():
    verdict = full_decide(free23_lift())
    assert verdict.status == NOT_AA
    assert verdict.certificate == ObstructionBracket(
        (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1))


def test_full_free23_central_translation_is_aa():
    verdict = full_decide(free23_central())
    assert verdict.status == AA
    assert verdict.certificate.subspace.basis == ((0, 0, 0, 1, 0),)


def test_full_rejects_non_unipotent():
    system = make_system(abelian(2), automorphism=QMatrix([[2, 1], [1, 1]]))
    with pytest.raises(NotUnipotent):
        full_decide(system)


def test_full_aa_witness_contains_all_defect_values():
    rng = random.Random(7)
    for system in (heis_shear(), heis_translation(), free23_central(),
                   skew_rational()):
        verdict = full_decide(system)
        assert verdict.status == AA
        cert = verdict.certificate
        c = system.group.defect_map(system.translation, system.automorphism)
        for _ in range(20):
            values = {p: F(rng.randrange(-30, 31), rng.randrange(1, 9))
                      for p in c.params}
            point = c.substitute(values)
            if cert.shift is not None:
                point = tuple(x + s for x, s in zip(point, cert.shift))
            assert cert.subspace.contains(point)


# ---- torus_decide ----

def test_torus_matches_full_on_the_abelian_corpus():
    for builder in (rotation_1d, furstenberg, skew_rational, jordan3_system):
        system = builder()
        assert torus_decide(system).status == full_decide(system).status


def test_torus_jordan3_certificate_is_an_unkilled_direction():
    verdict = torus_decide(jordan3_system())
    assert verdict.status == NOT_AA
    assert verdict.certificate == NotFixed((0, 1, 0), (1, 0, 0), "X3")


def test_torus_skew_translation_coset_certificate():
    verdict = torus_decide(furstenberg())
    assert verdict.status == NOT_AA
    cert = verdict.certificate
    assert isinstance(cert, CosetObstruction)
    assert str(cert.vector) == "(t, 0)"
    assert cert.generators == ((F(0), F(0)), (F(1), F(0)))


def test_torus_witness_is_the_fixed_subspace():
    verdict = torus_decide(skew_rational())
    assert verdict.certificate.subspace.basis == ((1, 0),)


def test_torus_shift_agrees_with_full():
    system = make_system(abelian(2), automorphism=JORDAN2, translation=[0, 1])
    assert torus_decide(system).certificate.shift == \
        full_decide(system).certificate.shift == (F(0), F(-1))
    # seeded tori whose constant translation needs a lattice shift: a
    # lattice L = D W (D rational diagonal, W unimodular), U = L (I + N) L^-1
    # with N = [[0, B], [0, 0]] integral, so (U - I)^2 = 0, and a = L (m + k)
    # with m integral, N m != 0, and k rational in ker N
    rng = random.Random(2651)
    for _ in range(40):
        d = rng.randrange(2, 6)
        r = rng.randrange(1, d)
        N = QMatrix([[rng.randrange(-2, 3) if i < r <= j else 0 for j in range(d)]
                     for i in range(d)])
        if N.is_zero():
            N = QMatrix([[int((i, j) == (0, d - 1)) for j in range(d)] for i in range(d)])
        m = [rng.randrange(-3, 4) for _ in range(d)]
        while not any(N.matvec(m)):
            m = [rng.randrange(-3, 4) for _ in range(d)]
        k = [F(rng.randrange(-5, 6), rng.randrange(1, 7)) if i < r else 0 for i in range(d)]
        D = QMatrix([[F(rng.choice((1, -2, 3)), rng.choice((1, 2, 5))) if i == j else 0
                      for j in range(d)] for i in range(d)])
        L = D @ random_unimodular(d, rng)
        U = L @ (QMatrix.identity(d) + N) @ L.inverse()
        a = L.matvec([x + y for x, y in zip(m, k)])
        system = make_system(abelian(d), lattice=L, automorphism=U, translation=list(a))
        torus, full = torus_decide(system), full_decide(system)
        assert torus.status == full.status == AA
        shift = torus.certificate.shift
        assert shift is not None and shift == full.certificate.shift
        assert system.lattice.contains(shift)
        fixed = [x + s for x, s in zip(a, shift)]
        assert not any((U - QMatrix.identity(d)).matvec(fixed))


def test_torus_rejects_nonabelian():
    with pytest.raises(InapplicableCriterion,
                       match="^the torus criterion requires an abelian "
                             "algebra$"):
        torus_decide(heis_shear())


def test_torus_and_full_agree_on_seeded_random_systems():
    rng = random.Random(11)
    for _ in range(40):
        d = rng.randrange(2, 5)
        upper = QMatrix([[1 if i == j else
                          (rng.randrange(-2, 3) if j > i else 0)
                          for j in range(d)] for i in range(d)])
        P = QMatrix([[1 if i == j else
                      (rng.randrange(-1, 2) if j > i else 0)
                      for j in range(d)] for i in range(d)])
        U = P @ upper @ P.inverse()
        a = [F(rng.randrange(-8, 9), rng.randrange(1, 9)) for _ in range(d)]
        system = make_system(abelian(d), automorphism=U, translation=a)
        assert torus_decide(system).status == full_decide(system).status


# ---- basepoint_decide ----

def test_basepoint_identity_translation_is_fixed():
    verdict = basepoint_decide(make_system(abelian(2), automorphism=JORDAN2))
    assert verdict.status == AA
    assert verdict.certificate.subspace == QSubspace(2, ())


def test_basepoint_identity_map_answers_through_its_first_stage():
    system = make_system(heisenberg(), lattice=HEIS_LATTICE)
    assert basepoint_decide(system) == Verdict(
        AA, "basepoint", WitnessSubspace(QSubspace(3, ()), None), ())


@pytest.mark.parametrize("decide", [full_decide, basepoint_decide])
@pytest.mark.parametrize("name", ["heisenberg.json",
                                  "heisenberg_translation.json",
                                  "free_nilpotent_2_3_central.json"])
def test_aa_deciders_eliminate_the_defect_span_once(monkeypatch, name,
                                                    decide):
    # the span's one elimination settles the abelian test and is the
    # witness; is_abelian_family brackets that basis without eliminating
    system = nio.parse_system(nio.corpus_file(name))
    calls = []

    def counted(rows):
        calls.append(rows)
        return rref(rows)

    monkeypatch.setattr(ratlin, "rref", counted)
    verdict = decide(system)
    assert verdict.status == AA and verdict.certificate.shift is None
    assert len(calls) == 1


def test_basepoint_skew_translation_matches_the_fixed_failure():
    verdict = basepoint_decide(furstenberg())
    assert verdict.status == NOT_AA
    assert verdict.certificate == NotFixed((F(0), F(1)), (F(1), F(0)), None)


def test_basepoint_heisenberg_translation_is_aa():
    verdict = basepoint_decide(heis_translation())
    assert verdict.status == AA
    assert verdict.certificate.subspace.basis == ((1, 0, 0),)


def test_basepoint_recovers_aa_through_the_suspension_stage():
    # a = (0, 1) is a lattice translate: the base point is fixed by a
    # conjugated representative even though span{a} is moved by U.
    system = make_system(abelian(2), automorphism=JORDAN2, translation=[0, 1])
    verdict = basepoint_decide(system)
    assert verdict.status == AA
    assert "one dimension up" in verdict.notes[0]


def test_basepoint_free23_lift_is_aa_but_action_is_not():
    system = free23_lift()
    assert basepoint_decide(system).status == AA
    assert full_decide(system).status == NOT_AA


# ---- translation_decide ----

def test_translation_requires_identity_automorphism():
    with pytest.raises(InapplicableCriterion):
        translation_decide(heis_shear())


def test_translation_heisenberg_witness_is_a_normal_ideal():
    verdict = translation_decide(heis_translation())
    assert verdict.status == AA
    assert verdict.certificate.subspace.basis == ((1, 0, 0), (0, 0, 1))
    assert verdict.notes[0].endswith("yes")


def test_translation_status_is_power_invariant():
    base = heis_translation()
    for n in (2, 3):
        an = ParamVector(("t",), [e * n for e in base.translation.entries])
        system = make_system(heisenberg(), lattice=HEIS_LATTICE, translation=an)
        assert translation_decide(system).status == \
            translation_decide(base).status == AA


# ---- suspension-side deciders ----

def test_suspended_full_matches_full_on_worked_systems():
    for builder in (rotation_1d, furstenberg, skew_rational, jordan3_system,
                    heis_shear, heis_translation, free23_lift, free23_central):
        system = builder()
        assert suspended_full_decide(system).status == \
            full_decide(system).status, builder.__name__


def test_suspended_basepoint_matches_basepoint_on_worked_systems():
    for builder in (rotation_1d, furstenberg, skew_rational, jordan3_system,
                    heis_shear, heis_translation, free23_lift, free23_central):
        system = builder()
        assert suspended_basepoint_decide(system).status == \
            basepoint_decide(system).status, builder.__name__


def test_suspended_furstenberg_obstruction_mixes_circle_and_fiber():
    verdict = suspended_full_decide(furstenberg())
    assert verdict.status == NOT_AA
    assert verdict.certificate == ObstructionBracket(
        (1, 0, 0), (0, 1, -2), (0, -2, 0))


# ---- lie_necessary ----

def test_lie_passes_on_free23_although_the_action_is_not_aa():
    report = lie_necessary(free23_lift())
    assert report.passed and report.failed_condition is None
    assert full_decide(free23_lift()).status == NOT_AA


def test_lie_fails_condition_one_on_jordan3():
    report = lie_necessary(jordan3_system())
    assert not report.passed
    assert report.failed_condition == "composite"
    assert report.witness == ("composite", 0, 2, "1")


def test_lie_passes_on_shear_and_translations():
    for builder in (heis_shear, heis_translation, furstenberg):
        assert lie_necessary(builder()).passed


def lie_oracle(system) -> LieNecessaryReport:
    """The report built from B = Ad_a U - I, with Ad_a read off group-law
    conjugation rather than a bracket series: for a fresh parameter sigma,
    log(exp a exp(sigma v) exp(-a)) = sigma Ad_a(v)."""
    spec, group, a = system.algebra, system.group, system.translation
    U, params, d = system.automorphism, a.params, spec.dim
    assert "sigma" not in params
    up = params + ("sigma",)
    sigma = Poly.variable("sigma", up)
    a_up = ParamVector(up, [p.with_params(up) for p in a.entries])
    B = []  # B[j][i] = entry i of column j
    for j in range(d):
        v = ParamVector(up, [sigma * x for x in U.column(j)])
        conj = group.mult(group.mult(a_up, v), -a_up)
        B.append([Poly(params, {e[:-1]: c for e, c in p.terms.items() if e[-1] == 1})
                  - int(i == j) for i, p in enumerate(conj.entries)])
    for i in range(d):
        for j in range(d):
            entry = Poly.zero(params)
            for k in range(d):
                entry = entry + B[j][k] * (U[i, k] - int(i == k))
            if not entry.is_zero():
                return LieNecessaryReport(False, False, True, "composite",
                                          ("composite", i, j, str(entry)))
    cols = [ParamVector(params, col) for col in B]
    for i in range(d):
        for j in range(i + 1, d):
            br = spec.bracket(cols[i], cols[j])
            if not br.is_zero():
                return LieNecessaryReport(False, True, False, "image_bracket",
                                          ("image_bracket", i, j, str(br)))
    return LieNecessaryReport(True, True, True, None, None)


Q6 = q6()
Q6_LATTICE = QMatrix([[F(1, 60 ** max(i - 1, 0)) if i == j else 0
                       for j in range(6)] for i in range(6)])


def test_lie_necessary_matches_the_conjugation_oracle_on_worked_systems():
    lifted = free23_lift()
    # a = t x1: the class-3 term ad_a^2 / 2 alone makes composite[4, 0]
    moved = make_system(lifted.algebra, lattice=FREE_LATTICE,
                        automorphism=lifted.automorphism,
                        translation=vec_t([tp()] + [Poly.zero(("t",))] * 4))
    systems = [furstenberg(), rotation_1d(), skew_rational(), jordan3_system(),
               heis_shear(), heis_translation(), lifted, free23_central(),
               moved]
    for system in systems:
        assert lie_necessary(system) == lie_oracle(system)
    assert lie_necessary(moved).witness == ("composite", 4, 0, "1/2*t^2")


def test_lie_necessary_matches_the_conjugation_oracle_in_random_bases():
    rng = random.Random(61)
    params = ("t", "s")
    pool = [parse_poly(text, params) for text in
            ("0", "0", "1/3", "-2", "t", "s", "t + 1/2", "2*s - t")]
    shear = QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    bases = [(abelian(3), QMatrix.identity(3), [JORDAN3, shear]),
             (heisenberg(), HEIS_LATTICE, [shear]),
             (free_nilpotent_2_3(), FREE_LATTICE,
              [free23_lift().automorphism]),
             (Q6, Q6_LATTICE, [])]
    kinds = set()
    for _ in range(24):
        spec, lattice, outer = rng.choice(bases)
        d = spec.dim
        inner = NilpotentGroup(spec).adjoint_matrix(lattice.column(0))
        U = rng.choice([QMatrix.identity(d), inner] + outer)
        a = ParamVector(params, [rng.choice(pool) for _ in range(d)])
        P = random_basis_matrix(d, rng, 2)
        P_inv = P.inverse()
        system = make_system(change_of_basis(spec, P), lattice=P_inv @ lattice,
                             automorphism=P_inv @ U @ P,
                             translation=P_inv.apply(a))
        report = lie_necessary(system)
        assert report == lie_oracle(system)
        kinds.add(report.failed_condition)
    assert kinds == {None, "composite", "image_bracket"}


# ---- minimality_check ----

def test_minimality_of_irrational_rotation():
    assert minimality_check(rotation_1d()).status == MINIMAL


def test_minimality_rational_rotation_fails():
    system = make_system(abelian(1), translation=[HALF])
    report = minimality_check(system)
    assert report.status == NOT_MINIMAL
    assert report.certificate == InvariantSubtorus(((1,),))


def test_minimality_heisenberg_translation_degenerate_coordinate():
    report = minimality_check(heis_translation())
    assert report.status == NOT_MINIMAL
    assert report.certificate == InvariantSubtorus(((0, 1),))


def test_minimality_diagonal_resonance():
    a = ParamVector(("t",), [tp(), tp()])
    system = make_system(abelian(2), translation=a)
    report = minimality_check(system)
    assert report.status == NOT_MINIMAL
    assert report.certificate == InvariantSubtorus(((1, -1),))


def test_minimality_two_free_parameters_is_minimal():
    params = ("s", "t")
    a = ParamVector(params, [Poly.variable("s", params),
                             Poly.variable("t", params)])
    assert minimality_check(make_system(abelian(2), translation=a)).status \
        == MINIMAL


def test_minimality_central_translation_is_never_minimal():
    assert minimality_check(free23_central()).status == NOT_MINIMAL


def test_minimality_inconclusive_for_automorphisms():
    assert minimality_check(heis_shear()).status == INCONCLUSIVE


# ---- power_unipotent ----

def test_power_unipotent_goldens():
    assert power_unipotent(QMatrix.identity(2)) == Verdict(
        PASS, "power-unipotent", UnipotentPower(1), ("U^1 is unipotent",))
    assert power_unipotent(QMatrix([[0, -1], [1, 0]])) == Verdict(
        PASS, "power-unipotent", UnipotentPower(4), ("U^4 is unipotent",))
    assert power_unipotent(QMatrix([[2, 1], [1, 1]])) == Verdict(
        FAIL, "power-unipotent", SpectralObstruction((F(1), F(-3), F(1))),
        ("a non-cyclotomic factor obstructs every power",))


def test_power_unipotent_verdict_serializes_as_the_cli_prints_it():
    # the certificate is the least power or the spectral obstruction, and
    # verdict_to_dict writes the dict that the power-unipotent criterion
    # prints
    cases = [(QMatrix([[0, 1], [-1, -1]]), PASS, UnipotentPower(3),
              "U^3 is unipotent"),
             (QMatrix([[3, 1], [2, 1]]), FAIL,
              SpectralObstruction((F(1), F(-4), F(1))),
              "a non-cyclotomic factor obstructs every power")]
    for matrix, status, certificate, note in cases:
        verdict = power_unipotent(matrix)
        assert isinstance(verdict, Verdict)
        assert verdict.certificate == certificate
        assert nio.verdict_to_dict(verdict) == {
            "status": status, "criterion": "power-unipotent",
            "certificate": nio.serialize_certificate(certificate),
            "notes": [note]}


def test_power_unipotent_rejects_bad_input():
    with pytest.raises(ValueError):
        power_unipotent(QMatrix([[HALF, 0], [0, 2]]))
    with pytest.raises(ValueError):
        power_unipotent(QMatrix([[2, 0], [0, 1]]))


def test_power_unipotent_block_lcm():
    # companion of x^2+x+1 (order 3) plus a 2x2 shear (order 1)
    A = QMatrix([[0, -1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 3], [0, 0, 0, 1]])
    result = power_unipotent(A)
    assert result.status == PASS
    assert result.certificate == UnipotentPower(3)
    # minimality by divisor exhaustion
    for r in (1, 2):
        assert unipotency_index(A ** r) is None
    assert unipotency_index(A ** 3) is not None


# ---- two_generator_analysis ----

def test_two_generator_free23():
    report = two_generator_analysis(free23_lift())
    assert report.n == 3
    assert report.coefficients == (F(1), F(-1, 2), F(1, 6))
    assert report.matrix_coefficients == report.coefficients
    assert report.basis == ((0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0))
    assert report.m_subspace.dim == 4
    assert not report.abelian_m
    assert report.inverse_factorial_match and not report.plain_factorial_match
    assert all(c != 0 for c in report.coefficients)


def test_two_generator_abelian_chain_of_length_one():
    system = make_system(abelian(2), automorphism=QMatrix([[1, 0], [1, 1]]),
                         designated_generators=[(1, 0), (0, 1)])
    report = two_generator_analysis(system)
    assert report.n == 1
    assert report.coefficients == (F(1),)
    assert report.matrix_coefficients == (F(1),)
    assert report.abelian_m and report.fixed_m


def test_two_generator_heisenberg_class_two():
    system = make_system(heisenberg(), lattice=HEIS_LATTICE,
                         automorphism=QMatrix([[1, 0, 0], [1, 1, 0], [0, 0, 1]]),
                         designated_generators=[(1, 0, 0), (0, 1, 0)])
    report = two_generator_analysis(system)
    assert report.n == 2
    assert report.coefficients == (F(1), F(-1, 2))
    assert report.matrix_coefficients == report.coefficients


def test_two_generator_matrix_oracle_reads_inverse_factorials():
    for n in range(1, 9):
        assert _two_generator_matrix_coefficients(n) == tuple(
            F((-1) ** k, math.factorial(k + 1)) for k in range(n))


def test_two_generator_hypothesis_failures():
    with pytest.raises(HypothesisViolated):
        two_generator_analysis(heis_shear())  # no designated generators
    with pytest.raises(HypothesisViolated) as info:
        two_generator_analysis(make_system(
            abelian(2), automorphism=QMatrix([[1, 0], [1, 1]]),
            designated_generators=[(1, 0), (2, 0)]))
    assert "generate" in info.value.which
    with pytest.raises(HypothesisViolated) as info:
        two_generator_analysis(make_system(
            abelian(2), automorphism=QMatrix([[1, 0], [0, 1]]),
            designated_generators=[(1, 0), (0, 1)]))
    assert "xi + eta" in info.value.which
    # x and z span a subalgebra of the Heisenberg algebra, not all of it
    with pytest.raises(HypothesisViolated) as info:
        two_generator_analysis(make_system(
            heisenberg(), lattice=HEIS_LATTICE,
            designated_generators=[(1, 0, 0), (0, 0, 1)]))
    assert "generate" in info.value.which
    # on a line U = 1, so eta = 0 and M = [M, M] = 0
    with pytest.raises(HypothesisViolated) as info:
        two_generator_analysis(make_system(
            abelian(1), designated_generators=[(1,), (0,)]))
    assert info.value.which == "eta already lies in [M, M]"


def _closure(spec, vectors):
    """The subalgebra generated by vectors: bracket until the span stops
    growing."""
    span = QSubspace.from_spanning(vectors, spec.dim)
    while True:
        grown = span.sum_with(QSubspace.from_spanning(
            [spec.bracket_vec(u, v) for u in span.basis for v in span.basis],
            spec.dim))
        if grown.dim == span.dim:
            return span
        span = grown


def _lower_derivations(spec):
    """A basis of the derivations of spec that are strictly lower
    triangular, hence nilpotent, as matrices."""
    d = spec.dim
    unknowns = [(p, q) for q in range(d) for p in range(q + 1, d)]
    unit = [tuple(F(int(i == j)) for i in range(d)) for j in range(d)]
    rows = []
    for i in range(d):
        for j in range(i + 1, d):
            # D [e_i, e_j] - [D e_i, e_j] - [e_i, D e_j], one row per
            # coordinate; the unknown (p, q) is the e_p entry of D e_q
            b = spec.bracket_vec(unit[i], unit[j])
            cols = []
            for p, q in unknowns:
                col = [b[q] * unit[p][k] for k in range(d)]
                if q == i:
                    col = [x - y for x, y in
                           zip(col, spec.bracket_vec(unit[p], unit[j]))]
                if q == j:
                    col = [x - y for x, y in
                           zip(col, spec.bracket_vec(unit[i], unit[p]))]
                cols.append(col)
            rows += [[col[k] for col in cols] for k in range(d)]
    basis = ratlin.kernel_basis(QMatrix(rows)) if rows else []
    return [dict(zip(unknowns, vec)) for vec in basis]


def test_two_generator_hypotheses_follow_from_the_span_test():
    """Generation is a span test modulo [N, N], and once xi, eta generate
    with U xi = xi + eta for a unipotent U, M = span{eta} + [N, N] is a
    U-invariant ideal of codimension one (checked here, not assumed)."""
    rng = random.Random(18)
    algebras = [abelian(1), abelian(2), abelian(3), heisenberg(),
                free_nilpotent_2_3(), filiform(4), filiform(5), Q6]
    generated = 0
    for spec in algebras:
        d = spec.dim
        derivations = _lower_derivations(spec)
        for _ in range(6):
            D = [[F(0)] * d for _ in range(d)]
            for der in derivations:
                c = rng.choice((0, 0, 1, -1, 2))
                for (p, q), x in der.items():
                    D[p][q] += c * x
            P = random_basis_matrix(d, rng)
            moved = change_of_basis(spec, P)
            U = P.inverse() @ ratlin.matrix_exp_nilpotent(QMatrix(D)) @ P
            assert is_automorphism(moved, U)[0]
            xi = tuple(F(rng.choice((0, 0, 1, -1, 2))) for _ in range(d))
            eta = tuple(x - y for x, y in zip(U.matvec(xi), xi))
            derived = derived_subalgebra(moved)
            spans = derived.sum_with(
                QSubspace.from_spanning([xi, eta], d)).dim == d
            generates = _closure(moved, [xi, eta]).dim == d
            assert spans == generates
            system = AffineSystem(moved, NilpotentGroup(moved), None, U, None,
                                  ParamVector.from_rationals([0] * d),
                                  designated_generators=(xi, eta))
            try:
                report = two_generator_analysis(system)
            except HypothesisViolated as exc:
                assert ("generate" in exc.which) == (not generates)
                report = None
            if not generates:
                continue
            generated += 1
            M = derived.sum_with(QSubspace.from_spanning([eta], d))
            assert M.dim == d - 1
            assert all(M.contains(U.matvec(b)) for b in M.basis)
            assert is_ideal(moved, M)
            if report is not None:
                assert report.m_subspace == M
    assert generated >= 10


# ---- cross-cutting invariants ----

def test_full_aa_implies_basepoint_aa_and_lie_pass():
    for builder in (rotation_1d, skew_rational, heis_shear, heis_translation,
                    free23_central):
        system = builder()
        assert full_decide(system).status == AA
        assert basepoint_decide(system).status == AA
        assert lie_necessary(system).passed


def test_aa_pure_automorphisms_have_nilrank_at_most_two():
    for builder in (heis_shear, jordan3_system):
        system = builder()
        if full_decide(system).status == AA:
            assert unipotency_index(system.automorphism) <= 2
    # the least k with (U - I)^k = 0: 1 for the identity
    assert unipotency_index(heis_shear().automorphism) == 2
    assert unipotency_index(QMatrix.identity(3)) == 1


def test_verdict_shape_is_enforced():
    with pytest.raises(ValueError):
        Verdict(AA, "full", None)
    with pytest.raises(ValueError):
        Verdict(NOT_AA, "full", None)
