"""Suspension construction and the two-route embedding consistency check."""

from fractions import Fraction

import pytest

from nilaa.criteria import make_system
from nilaa.nilalg import LieAlgebraSpec
from nilaa.nilgrp import NilpotentGroup
from nilaa.poly import ParamVector, Poly
from nilaa.ratlin import NotUnipotent, QMatrix
from nilaa.suspension import (Mismatch, SuspendedSystem, build_suspension_algebra,
                              embedding_consistency_check, monodromy_adjoint_check,
                              suspend)

from conftest import abelian, heisenberg, free_nilpotent_2_3

HALF = Fraction(1, 2)
HEIS_LATTICE = QMatrix([[1, 0, 0], [0, 1, 0], [0, 0, HALF]])
FREE_LATTICE = QMatrix([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0],
                        [0, 0, HALF, 0, 0],
                        [0, 0, 0, Fraction(1, 12), 0],
                        [0, 0, 0, 0, Fraction(1, 12)]])
JORDAN2 = QMatrix([[1, 1], [0, 1]])


def t_poly():
    return Poly.variable("t", ("t",))


def furstenberg_system():
    a = ParamVector(("t",), [Poly.zero(("t",)), t_poly()])
    return make_system(abelian(2), automorphism=JORDAN2, translation=a)


def heis_shear_system():
    shear = QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    return make_system(heisenberg(), lattice=HEIS_LATTICE, automorphism=shear)


def free23_system():
    lift = QMatrix([[1, 0, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                    [0, 0, 0, 1, 0], [0, 0, 0, 1, 1]])
    return make_system(free_nilpotent_2_3(), lattice=FREE_LATTICE,
                       automorphism=lift)


# ---- algebra construction ----

def test_identity_suspension_of_abelian_is_abelian():
    big = build_suspension_algebra(abelian(3), QMatrix.zeros(3))
    assert big.abelian() and big.dim == 4


def test_jordan2_suspension_is_three_dim_heisenberg_relabeled():
    system = furstenberg_system()
    D = system.group.log_automorphism(JORDAN2)
    assert D.entries == ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))
    big = build_suspension_algebra(abelian(2), D)
    assert big == LieAlgebraSpec(3, {(0, 2): (0, 1, 0)})


def test_heisenberg_identity_suspension_adds_a_central_line():
    big = build_suspension_algebra(heisenberg(), QMatrix.zeros(3))
    assert big.table == {(1, 2): (Fraction(0), Fraction(0), Fraction(0), Fraction(1))}


def test_shear_suspension_table():
    susp = suspend(heis_shear_system())
    assert susp.big_algebra.table == {
        (0, 2): (Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
        (1, 2): (Fraction(0), Fraction(0), Fraction(0), Fraction(1))}


def test_class_bound_holds_on_free23():
    system = free23_system()
    susp = suspend(system)
    bound = system.group.nilpotency_class + 2  # nilrank of the lift is 2
    assert susp.big_group.nilpotency_class == 5 <= bound


# ---- embedded translation ----

def test_furstenberg_embedded_translation():
    susp = suspend(furstenberg_system())
    t = t_poly()
    expected = ParamVector(("t",), [Poly.constant(1, ("t",)), t * -HALF, t])
    assert susp.embedded_translation == expected


def test_rational_and_torsion_embedded_translations():
    s_rat = make_system(abelian(2), automorphism=JORDAN2,
                        translation=[Fraction(1, 3), 0])
    assert suspend(s_rat).embedded_translation == \
        ParamVector.from_rationals([1, Fraction(1, 3), 0])
    s_tor = make_system(abelian(2), automorphism=JORDAN2,
                        translation=[0, HALF])
    assert suspend(s_tor).embedded_translation == \
        ParamVector.from_rationals([1, Fraction(-1, 4), HALF])


def test_pure_automorphism_embeds_as_delta():
    susp = suspend(heis_shear_system())
    assert susp.embedded_translation == ParamVector.from_rationals([1, 0, 0, 0])


# ---- lift / fiber plumbing ----

def test_lift_and_fiber_roundtrip():
    susp = suspend(heis_shear_system())
    vec = (Fraction(1, 3), Fraction(2), Fraction(-5, 7))
    assert susp.fiber(susp.lift(vec)) == vec
    assert susp.delta() == (1, 0, 0, 0)
    with pytest.raises(ValueError):
        susp.fiber((Fraction(1), Fraction(0), Fraction(0), Fraction(0)))
    with pytest.raises(ValueError):
        susp.lift((1, 2))


def test_monodromy_adjoint_matches_the_automorphism():
    for system in (heis_shear_system(), free23_system(), furstenberg_system()):
        assert monodromy_adjoint_check(suspend(system))


# ---- consistency of the two evaluation routes ----

@pytest.mark.parametrize("builder", [
    furstenberg_system, heis_shear_system, free23_system])
def test_embedding_consistency(builder):
    system = builder()
    assert embedding_consistency_check(suspend(system), samples=15)


def test_embedding_consistency_heisenberg_translation():
    a = ParamVector(("t",), [t_poly(), Poly.zero(("t",)), Poly.zero(("t",))])
    system = make_system(heisenberg(), lattice=HEIS_LATTICE, translation=a)
    assert embedding_consistency_check(suspend(system), samples=15)


def test_embedding_consistency_jordan3():
    U = QMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    system = make_system(abelian(3), automorphism=U)
    assert embedding_consistency_check(suspend(system), samples=15)


def test_corrupted_monodromy_trips_the_check():
    # the suspension built from 2 log U realizes U^2, not U
    system = heis_shear_system()
    D = system.group.log_automorphism(system.automorphism).scale(2)
    big_spec = build_suspension_algebra(system.group.spec, D)
    big_group = NilpotentGroup(big_spec)
    a = system.translation
    lifted = ParamVector(a.params, [Poly.zero(a.params), *a.entries])
    delta = ParamVector(a.params, [Poly.constant(1, a.params),
                                   *[Poly.zero(a.params)] * system.dim])
    corrupted = SuspendedSystem(big_spec, big_group, D, system.lattice,
                                big_group.mult(lifted, delta), system)
    with pytest.raises(Mismatch) as info:
        embedding_consistency_check(corrupted, samples=10)
    assert info.value.direct != info.value.embedded
    assert not monodromy_adjoint_check(corrupted)


def test_suspend_rejects_non_unipotent_automorphisms():
    anosov = QMatrix([[2, 1], [1, 1]])
    system = make_system(abelian(2), automorphism=anosov)
    with pytest.raises(NotUnipotent):
        suspend(system)
