"""Suspension construction and the two-route embedding consistency check."""

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nilaa import io as nio
from nilaa.criteria import AffineSystem, make_system
from nilaa.nilalg import (JacobiViolation, LieAlgebraSpec, NotNilpotent,
                          build_suspension_algebra, check_derivation, lower_central_class,
                          validate_algebra)
from nilaa.nilgrp import ClassCapExceeded, NilpotentGroup, integer_map
from nilaa.poly import ParamVector, Poly, parse_poly
from nilaa.ratlin import NotUnipotent, QMatrix
from nilaa.suspension import (Mismatch, SuspendedSystem, embedding_consistency_check,
                              monodromy_adjoint_check, suspend)

from conftest import (abelian, change_of_basis, filiform, free_nilpotent_2_3,
                      heisenberg, jordan_block, random_basis_matrix)
from test_nilalg import fraction_validate_algebra

ROOT = str(Path(__file__).resolve().parents[1])  # perfbench generates the scaling systems
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


def doubled_monodromy(system):
    """The suspension built from 2 log U, which realizes U^2, not U."""
    D = system.group.log_automorphism(system.automorphism).scale(2)
    big_spec = build_suspension_algebra(system.group.spec, D)
    big_group = NilpotentGroup(big_spec)
    a = system.translation
    lifted = ParamVector(a.params, [Poly.zero(a.params), *a.entries])
    delta = ParamVector(a.params, [Poly.constant(1, a.params),
                                   *[Poly.zero(a.params)] * system.dim])
    return SuspendedSystem(big_spec, big_group, D, system.lattice,
                           big_group.mult(lifted, delta), system)


def test_corrupted_monodromy_trips_the_check():
    corrupted = doubled_monodromy(heis_shear_system())
    with pytest.raises(Mismatch) as info:
        embedding_consistency_check(corrupted, samples=10)
    assert info.value.direct != info.value.embedded
    assert not monodromy_adjoint_check(corrupted)


def test_suspend_rejects_non_unipotent_automorphisms():
    anosov = QMatrix([[2, 1], [1, 1]])
    system = make_system(abelian(2), automorphism=anosov)
    with pytest.raises(NotUnipotent):
        suspend(system)


def test_embedding_consistency_needs_a_sample():
    susp = suspend(furstenberg_system())
    for samples in (0, -3):
        with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
            embedding_consistency_check(susp, samples)


# ---- the integer check against the Fraction route ----

def fraction_route(susp, samples):
    """The check as it ran on Fractions: NilpotentGroup.mult_vec for the
    three products and ParamVector.substitute for a and w, with the same
    seeded samples."""
    system = susp.base
    group = system.group
    rng = random.Random(2024)
    params = system.translation.params

    def rnd(lo, hi, den):
        return Fraction(rng.randrange(lo, hi + 1), rng.randrange(1, den + 1))

    for _ in range(samples):
        values = {p: rnd(-40, 40, 8) for p in params}
        a_val = system.translation.substitute(values)
        w_val = susp.embedded_translation.substitute(values)
        point = tuple(rnd(-24, 24, 12) for _ in range(group.dim))
        sample = (point, tuple(sorted(values.items())))
        direct = group.mult_vec(a_val, system.automorphism.matvec(point))
        up = susp.big_group.mult_vec(w_val, susp.lift(point))
        k = up[0]
        if k.denominator != 1:
            raise Mismatch(sample, direct, up)
        clear = tuple(-k if i == 0 else Fraction(0) for i in range(susp.dim))
        down = susp.big_group.mult_vec(up, clear)
        embedded = susp.fiber(down)
        if embedded != direct:
            raise Mismatch(sample, direct, embedded)
    return True


def outcome(check, susp, samples=10):
    try:
        return check(susp, samples)
    except Mismatch as exc:
        return exc.sample, exc.direct, exc.embedded


def shifted(susp, coordinate, by=Fraction(1, 3)):
    """susp with coordinate `coordinate` of w moved by `by`."""
    w = susp.embedded_translation
    shift = ParamVector.from_rationals(
        [by if i == coordinate else 0 for i in range(susp.dim)], w.params)
    return SuspendedSystem(susp.big_algebra, susp.big_group, susp.monodromy,
                           susp.fiber_lattice, w + shift, susp.base)


def corpus_suspensions():
    out = []
    for path in sorted(nio.corpus_file("manifest.json").parent.glob("*.json")):
        if path.name == "manifest.json":
            continue
        try:
            out.append(suspend(nio.parse_system(path)))
        except ValueError:  # invalid, out of scope or not unipotent
            pass
    return out


def generated_systems():
    """Heisenberg (d = 3, 5), filiform (classes 3, 4) and Jordan-torus
    maps in random bases, with translations in no, one or two parameters."""
    rng = random.Random(2032)
    pools = {(): ("0", "0", "1/3", "-2"),
             ("t",): ("0", "t", "t + 1/2", "-2*t"),
             ("s", "t"): ("0", "s", "2*s - t", "s*t - 5/7")}
    heis5 = LieAlgebraSpec.from_sparse(5, [(1, 3, 5, 1), (2, 4, 5, 1)])
    shear = QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    bases = [(heisenberg(), [shear]), (heis5, []), (filiform(4), []),
             (filiform(5), []), (abelian(3), [jordan_block(3)]),
             (abelian(4), [jordan_block(4)])]
    systems = []
    for spec, outer in bases:
        d = spec.dim
        group = NilpotentGroup(spec)
        for trial in range(6):
            v = [Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3))) for _ in range(d)]
            U = rng.choice([QMatrix.identity(d), group.adjoint_matrix(v)] + outer)
            if outer and trial % 2:
                U = U @ outer[0]
            params = list(pools)[trial % 3]
            a = ParamVector(params, [parse_poly(rng.choice(pools[params]), params)
                                     for _ in range(d)])
            P = random_basis_matrix(d, rng, 2)
            P_inv = P.inverse()
            moved = change_of_basis(spec, P)
            systems.append(AffineSystem(moved, NilpotentGroup(moved), None,
                                        P_inv @ U @ P, None, P_inv.apply(a)))
    return systems


def test_integer_check_matches_the_fraction_route_on_the_corpus():
    suspensions = corpus_suspensions()
    assert len(suspensions) >= 8
    for susp in suspensions:
        assert outcome(embedding_consistency_check, susp) is True
        assert outcome(fraction_route, susp) is True
        for coordinate in (0, susp.dim - 1):
            corrupted = shifted(susp, coordinate)
            found = outcome(embedding_consistency_check, corrupted)
            assert found is not True
            assert found == outcome(fraction_route, corrupted)


def test_integer_check_matches_the_fraction_route_on_generated_systems():
    rng = random.Random(2033)
    corrupted = 0
    for system in generated_systems():
        susp = suspend(system)
        assert outcome(embedding_consistency_check, susp) is True
        assert outcome(fraction_route, susp) is True
        cases = [shifted(susp, 0), shifted(susp, rng.randrange(1, susp.dim))]
        if system.automorphism != QMatrix.identity(system.dim):
            cases.append(doubled_monodromy(system))
        for case in cases:
            found = outcome(embedding_consistency_check, case)
            assert found is not True
            assert found == outcome(fraction_route, case)
            corrupted += 1
    assert corrupted >= 80


def test_integer_check_on_special_translations():
    two = ("s", "t")
    heis = make_system(heisenberg(), lattice=HEIS_LATTICE,
                       automorphism=QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
                       translation=ParamVector(two, [parse_poly(text, two) for text in
                                                     ("s", "t - 1/3", "s*t")]))
    zero = make_system(heisenberg(), lattice=HEIS_LATTICE,
                       translation=ParamVector(("t",), [Poly.zero(("t",))] * 3))
    class_one = make_system(abelian(1), translation=ParamVector(("t",), [t_poly()]))
    for system in (heis, zero, class_one, furstenberg_system()):
        susp = suspend(system)
        assert outcome(embedding_consistency_check, susp, 25) is True
        assert outcome(fraction_route, susp, 25) is True
    assert suspend(class_one).big_group.nilpotency_class == 1


# ---- corruptions of w ----

def test_a_shifted_fiber_coordinate_of_w_trips_the_check():
    susp = shifted(suspend(heis_shear_system()), 3)
    with pytest.raises(Mismatch) as info:
        embedding_consistency_check(susp, samples=10)
    exc = info.value
    assert len(exc.embedded) == len(exc.direct) == 3
    assert exc.direct != exc.embedded
    assert (exc.sample, exc.direct, exc.embedded) == outcome(fraction_route, susp)
    assert "Fraction(" not in str(exc)
    point = "(" + ", ".join(map(str, exc.sample[0])) + ")"
    assert str(exc) == (f"embedding mismatch at point {point}: direct "
                        f"({', '.join(map(str, exc.direct))}) vs embedded "
                        f"({', '.join(map(str, exc.embedded))})")


def test_a_shifted_circle_coordinate_of_w_trips_the_integrality_test():
    susp = shifted(suspend(furstenberg_system()), 0)
    with pytest.raises(Mismatch) as info:
        embedding_consistency_check(susp, samples=10)
    exc = info.value
    assert exc.embedded[0] == Fraction(4, 3) and len(exc.embedded) == susp.dim
    assert (exc.sample, exc.direct, exc.embedded) == outcome(fraction_route, susp)
    (t, value), = exc.sample[1]
    assert t == "t" and f"t = {value}" in str(exc)
    assert str(exc).endswith(
        ": circle coordinate 4/3 of the embedded point is not an integer")
    assert "Fraction(" not in str(exc)


# ---- the suspended algebra on integer forms ----

def fraction_suspension_algebra(spec, derivation):
    """build_suspension_algebra on Fractions, as it ran before it read the
    integer forms: dense columns of D and the fiber's table, delta first."""
    d = spec.dim
    table = {}
    for j in range(d):
        col = derivation.column(j)
        if any(col):
            table[(0, j + 1)] = [Fraction(0), *col]
    for (i, j), vec in spec.table.items():
        table[(i + 1, j + 1)] = [Fraction(0), *vec]
    return LieAlgebraSpec(d + 1, table)


def fraction_monodromy_adjoint_check(susp):
    """monodromy_adjoint_check on Fractions: exp(ad delta) against the
    dense matrix diag(1, U)."""
    U = susp.base.automorphism
    expected = QMatrix([[U[i - 1, j - 1] if i and j else int(i == j)
                         for j in range(susp.dim)] for i in range(susp.dim)])
    return susp.big_group.adjoint_matrix(susp.delta()) == expected


def scaling_systems():
    """Variant 0 of every scaling member of the benchmark that loads (a
    filiform algebra of class 7 is past the BCH cap)."""
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from perfbench import systems, workloads
    out = []
    for family, sizes, kinds, _ in workloads.SCALING:
        for size in sizes:
            for kind in kinds:
                try:
                    out.append(nio.system_from_dict(getattr(systems, family)(size, kind, 0)))
                except ClassCapExceeded:
                    pass
    return out


def corpus_systems():
    out = []
    for path in sorted(nio.corpus_file("manifest.json").parent.glob("*.json")):
        if path.name != "manifest.json":
            try:
                out.append(nio.parse_system(path))
            except ValueError:  # invalid or out of scope
                pass
    return out


def test_suspended_algebra_class_matches_the_full_validation():
    checked = 0
    for system in corpus_systems() + scaling_systems():
        try:
            D = system.group.log_automorphism(system.automorphism)
        except NotUnipotent:
            continue
        big = build_suspension_algebra(system.group.spec, D)
        check_derivation(big)
        reference = fraction_suspension_algebra(system.group.spec, D)
        assert big == reference and big._int_brackets == reference._int_brackets
        assert big._ints == reference._ints and big.table == reference.table
        nil_class = lower_central_class(big)
        assert nil_class == validate_algebra(reference) == fraction_validate_algebra(reference)
        try:
            susp = suspend(system)
        except ClassCapExceeded:
            assert nil_class > system.group.nilpotency_class
        else:
            assert susp.big_group.nilpotency_class == nil_class
            assert susp.big_group._pairs == reference._ints[1]
        checked += 1
    assert checked >= 25


def test_monodromy_check_matches_the_fraction_route():
    for system in corpus_systems() + [heis_shear_system(), free23_system()]:
        try:
            susp = suspend(system)
        except (NotUnipotent, ClassCapExceeded):
            continue
        assert monodromy_adjoint_check(susp) is fraction_monodromy_adjoint_check(susp) is True
        if system.automorphism != QMatrix.identity(system.dim):
            doubled = doubled_monodromy(system)
            assert monodromy_adjoint_check(doubled) is \
                fraction_monodromy_adjoint_check(doubled) is False


def test_a_non_derivation_raises_the_jacobi_violation_of_the_full_check():
    rng = random.Random(2034)
    violations = 0
    systems = [s for s in corpus_systems() + scaling_systems()[:12]
               if not s.group.spec.abelian()]
    for system in systems:
        d = system.dim
        try:
            D = system.group.log_automorphism(system.automorphism)
        except NotUnipotent:
            continue
        for _ in range(4):
            rows = [list(row) for row in D.entries]
            for _ in range(rng.randrange(1, 3)):
                rows[rng.randrange(d)][rng.randrange(d)] += Fraction(
                    rng.choice((1, -1, 2)), rng.choice((1, 3)))
            bad = QMatrix(rows)
            big = fraction_suspension_algebra(system.group.spec, bad)
            expected = None
            try:
                validate_algebra(big)
            except JacobiViolation as exc:
                expected = (exc.triple, exc.residual, str(exc))
            except NotNilpotent:
                pass
            if expected is None:
                check_derivation(big)
                continue
            violations += 1
            with pytest.raises(JacobiViolation) as info:
                check_derivation(build_suspension_algebra(system.group.spec, bad))
            assert (info.value.triple, info.value.residual, str(info.value)) == expected
            with pytest.raises(JacobiViolation) as info:
                fraction_validate_algebra(big)
            assert (info.value.triple, info.value.residual) == expected[:2]
    assert violations >= 30


def _map_value(f, values):
    """The integer polynomial map f at the rational values, from their
    numerators over their common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    out = f([v.numerator * (den // v.denominator) for v in values], den)
    return tuple(Fraction(c, f.over(den)) for c in out)


def test_a_translation_as_an_integer_map_is_its_substitution():
    # the one integer evaluator on a polynomial map with constant terms
    # (nilgrp.integer_map), as the embedding check runs a and w: it must
    # give ParamVector.substitute, with parameters and without
    rng = random.Random(3902)
    vectors = []
    for count in (0, 1, 2, 3):
        params = tuple(f"t{i + 1}" for i in range(count))
        for _ in range(12):
            vectors.append(ParamVector(params, [Poly(params, {
                tuple(rng.randrange(4) for _ in params):
                    Fraction(rng.randrange(-20, 21), rng.randrange(1, 12))
                for _ in range(rng.randrange(4))}) for _ in range(rng.randrange(1, 5))]))
    for system in corpus_systems() + scaling_systems()[:12] + [furstenberg_system()]:
        try:
            susp = suspend(system)
        except (NotUnipotent, ClassCapExceeded):
            continue
        a = system.translation
        vectors.append(ParamVector(a.params, (*a.entries, *susp.embedded_translation.entries)))
    kinds = set()
    for vec in vectors:
        f = integer_map(vec)
        for _ in range(3):
            values = [Fraction(rng.randrange(-40, 41), rng.randrange(1, 9)) for _ in vec.params]
            assert _map_value(f, values) == vec.substitute(dict(zip(vec.params, values)))
        kinds.add((bool(vec.params), any(p.terms.get((0,) * len(vec.params))
                                         for p in vec.entries)))
    assert kinds == {(False, True), (True, True), (True, False)}
    assert len(vectors) > 60
