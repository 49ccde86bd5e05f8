"""Acceptance gate: nine headline checks, one pass/fail line each.

Run `pytest -v tests/test_acceptance.py`; the verbose report shows one
line per criterion.  Every tolerance and time budget is pinned in the
assertions themselves, so a budget regression fails the gate rather than
merely slowing it down.
"""

import math
import random
import time
from fractions import Fraction as F

from nilaa import io as nio
from nilaa.cli import _simulate_result, _validate_result
from nilaa.criteria import (ObstructionBracket, SpectralObstruction,
                            UnipotentPower, basepoint_decide, full_decide,
                            lie_necessary, make_system, power_unipotent,
                            suspended_basepoint_decide, suspended_full_decide,
                            torus_decide, translation_decide,
                            two_generator_analysis)
from nilaa.nilalg import LieAlgebraSpec
from nilaa.nilgrp import NilpotentGroup
from nilaa.orbit import CONSISTENT, NumericAffine, aa_empirical_test
from nilaa.poly import ParamVector
from nilaa.ratlin import (QMatrix, charpoly, matrix_exp_nilpotent,
                          unipotency_index)
from nilaa.suspension import embedding_consistency_check, suspend

from conftest import abelian, free_nilpotent_2_3, heisenberg

VALID_CORPUS = (
    "torus_rotation_1d.json", "torus_skew.json", "torus_skew_translation.json",
    "torus_jordan3.json", "torus_skew_rational.json", "heisenberg.json",
    "heisenberg_translation.json", "free_nilpotent_2_3.json",
    "free_nilpotent_2_3_central.json",
)


def _system(name):
    return nio.parse_system(nio.corpus_file(name))


def _unit_triangular(rng, d, spread, upper=True):
    return QMatrix([[1 if i == j else
                     (rng.randint(-spread, spread)
                      if (j > i) == upper else 0)
                     for j in range(d)] for i in range(d)])


def _random_unimodular(rng, d, spread=1):
    return _unit_triangular(rng, d, spread, upper=False) @ \
        _unit_triangular(rng, d, spread, upper=True)


def test_criterion_1_exact_deciders_agree_on_random_tori():
    started = time.monotonic()
    rng = random.Random(20260815)
    mismatches = 0
    for _ in range(200):
        d = rng.randint(1, 4)
        P = _random_unimodular(rng, d)
        U = P @ _unit_triangular(rng, d, 2) @ P.inverse()
        a = [F(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(d)]
        system = make_system(abelian(d), automorphism=U, translation=a)
        if torus_decide(system).status != full_decide(system).status:
            mismatches += 1
    elapsed = time.monotonic() - started
    assert mismatches == 0
    assert elapsed < 30.0


def test_criterion_2_orbit_oracle_falsifies_and_respects():
    started = time.monotonic()
    result = _simulate_result(nio.corpus_file("torus_jordan3.json"))
    assert result["status"] == "Falsified"
    witness = result["certificate"]
    assert witness["kind"] == "falsification_witness"
    assert witness["forward_distance"] < 1e-3
    assert witness["backward_distance"] > 0.2

    rng = random.Random(3)
    circle, plane = make_system(abelian(1)), make_system(abelian(2))
    for i in range(10):
        affine = NumericAffine(circle, [rng.random()])
        report = aa_empirical_test(affine, 2, 1e-3, 10 ** 5, seed=i)
        assert report.verdict == CONSISTENT, f"1d translation {i}"
    for i in range(10):
        a = [F(rng.randint(1, 15), rng.randint(2, 16)) for _ in range(2)]
        affine = NumericAffine(plane, a)
        report = aa_empirical_test(affine, 2, 1e-3, 5000, seed=i)
        assert report.verdict == CONSISTENT, f"2d rational translation {i}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0


def test_criterion_3_lie_necessity_is_not_sufficient():
    started = time.monotonic()
    system = _system("free_nilpotent_2_3.json")
    report = lie_necessary(system)
    assert report.passed and report.composite_zero and report.image_abelian
    verdict = full_decide(system)
    assert verdict.status == "NOT_AA"
    assert verdict.certificate == ObstructionBracket(
        (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1))
    assert time.monotonic() - started < 5.0


def test_criterion_4_validator_reports_the_failing_bracket():
    result = _validate_result(nio.corpus_file("paper_example_4d.json"))
    assert result["status"] == "INVALID"
    assert nio.exit_code_for(result["status"]) == 1
    cert = result["certificate"]
    assert cert["kind"] == "validation_failure"
    assert cert["check"] == "is_automorphism"
    assert cert["witness"] == "pair (1, 3); residual (0, 0, 0, 1)"
    notes = result["notes"]
    assert any("reports the bracket check faithfully" in n for n in notes)
    assert any(n == "first failing check: is_automorphism; "
                    "pair (1, 3); residual (0, 0, 0, 1)" for n in notes)


def test_criterion_5_commutation_curve_matches_matrix_oracle():
    for name, n in (("heisenberg.json", 2), ("free_nilpotent_2_3.json", 3)):
        report = two_generator_analysis(_system(name))
        assert report.n == n
        assert report.coefficients == report.matrix_coefficients
        assert all(c != 0 for c in report.coefficients)
        assert report.coefficients[1] == F(-1, 2)
        expected = tuple(F((-1) ** k, math.factorial(k + 1))
                         for k in range(n))
        assert report.coefficients == expected
        assert report.inverse_factorial_match
        assert not report.plain_factorial_match


def test_criterion_6_suspension_is_a_faithful_embedding():
    for name in VALID_CORPUS:
        system = _system(name)
        assert embedding_consistency_check(suspend(system),
                                           samples=50) is True, name
        assert suspended_full_decide(system).status == \
            full_decide(system).status, name
        assert suspended_basepoint_decide(system).status == \
            basepoint_decide(system).status, name


BLOCKS = {
    1: [QMatrix([[1]]), QMatrix([[1, 1], [0, 1]])],
    2: [QMatrix([[-1]])],
    3: [QMatrix([[0, -1], [1, -1]])],
    4: [QMatrix([[0, -1], [1, 0]])],
    6: [QMatrix([[0, -1], [1, 1]])],
}


def _block_diagonal(blocks):
    d = sum(b.nrows for b in blocks)
    M = [[F(0)] * d for _ in range(d)]
    offset = 0
    for b in blocks:
        for i in range(b.nrows):
            for j in range(b.nrows):
                M[offset + i][offset + j] = b.entries[i][j]
        offset += b.nrows
    return QMatrix(M)


def _least_power(matrix):
    return power_unipotent(matrix).certificate


def test_criterion_7_quasi_unipotent_powers_are_minimal():
    assert _least_power(QMatrix.identity(3)) == UnipotentPower(1)
    assert _least_power(QMatrix([[1, 5], [0, 1]])) == UnipotentPower(1)
    assert _least_power(QMatrix.identity(2).scale(-1)) == UnipotentPower(2)
    assert _least_power(BLOCKS[3][0]) == UnipotentPower(3)
    assert _least_power(BLOCKS[4][0]) == UnipotentPower(4)
    assert _least_power(BLOCKS[6][0]) == UnipotentPower(6)
    cycle = QMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert _least_power(cycle) == UnipotentPower(3)
    assert _least_power(QMatrix([[2, 1], [1, 1]])) == \
        SpectralObstruction((F(1), F(-3), F(1)))

    rng = random.Random(1729)
    for _ in range(100):
        orders = [rng.choice((1, 1, 2, 3, 4, 6))
                  for _ in range(rng.randint(1, 3))]
        blocks = [rng.choice(BLOCKS[k]) for k in orders]
        A = _block_diagonal(blocks)
        P = _random_unimodular(rng, A.nrows)
        U = P @ A @ P.inverse()
        r = math.lcm(*orders)
        assert _least_power(U) == UnipotentPower(r)
        # minimality by divisor exhaustion
        assert unipotency_index(U ** r) is not None
        for s in range(1, r):
            if r % s == 0:
                assert unipotency_index(U ** s) is None, (orders, s)


def _random_vec(rng, d):
    return tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d))


def test_criterion_8_group_law_and_linear_algebra_self_check():
    started = time.monotonic()
    chain4 = LieAlgebraSpec.from_sparse(
        4, [(1, 2, 3, 1), (2, 3, 4, 1)])
    shear3 = QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    lift5 = QMatrix([[1, 0, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                     [0, 0, 0, 1, 0], [0, 0, 0, 1, 1]])
    shear4 = QMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0],
                      [0, 0, 0, 1]])
    cases = [(abelian(3), QMatrix([[1, 2, 0], [0, 1, 1], [0, 0, 1]])),
             (heisenberg(), shear3),
             (free_nilpotent_2_3(), lift5),
             (chain4, shear4)]
    rng = random.Random(8128)
    for spec, U in cases:
        group = NilpotentGroup(spec)
        d = spec.dim
        for _ in range(100):
            x, y, z = (_random_vec(rng, d) for _ in range(3))
            left = group.mult_vec(group.mult_vec(x, y), z)
            right = group.mult_vec(x, group.mult_vec(y, z))
            assert left == right
        for _ in range(25):
            x, y = _random_vec(rng, d), _random_vec(rng, d)
            assert U.matvec(group.mult_vec(x, y)) == \
                group.mult_vec(U.matvec(x), U.matvec(y))
        for _ in range(25):
            v = _random_vec(rng, d)
            assert group.adjoint_matrix(v) == \
                matrix_exp_nilpotent(spec.ad_matrix(v))
    for _ in range(100):
        d = rng.randint(2, 5)
        M = QMatrix([[F(rng.randint(-9, 9), rng.randint(1, 4))
                      for _ in range(d)] for _ in range(d)])
        coeffs = charpoly(M)
        total = QMatrix.zeros(d)
        power = QMatrix.identity(d)
        for c in coeffs:
            total = total + power.scale(c)
            power = power @ M
        assert total.is_zero()
    elapsed = time.monotonic() - started
    assert elapsed < 60.0


def test_criterion_9_criteria_are_mutually_consistent():
    aa_seen = 0
    for name in VALID_CORPUS:
        system = _system(name)
        if full_decide(system).status == "AA":
            aa_seen += 1
            assert basepoint_decide(system).status == "AA", name
            assert lie_necessary(system).passed, name
    assert aa_seen >= 5

    for name in ("torus_rotation_1d.json", "heisenberg_translation.json",
                 "free_nilpotent_2_3_central.json"):
        base = _system(name)
        baseline = translation_decide(base).status
        for n in (2, 3):
            scaled = ParamVector(base.translation.params,
                                 [e * n for e in base.translation.entries])
            system = make_system(
                base.algebra, lattice=QMatrix.from_columns(
                    [base.lattice.generator(i) for i in range(base.dim)]),
                automorphism=base.automorphism, translation=scaled)
            assert translation_decide(system).status == baseline, (name, n)
