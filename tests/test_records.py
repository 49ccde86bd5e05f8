"""Behaviour of the immutable result records.

Every certificate, report and system record is a frozen value: it is
built positionally or by keyword with defaults, prints as
``Name(field=value, ...)``, compares equal and hashes alike only to a
record of the same class with equal fields (never to a tuple or to a
record of another kind), and refuses assignment.  The two system records
compare by identity.
"""

from fractions import Fraction as F

import pytest

from nilaa.criteria import (AA, INCONCLUSIVE, NOT_AA, AffineSystem,
                            CosetObstruction, InvariantSubtorus,
                            LieNecessaryReport, NotFixed,
                            ObstructionBracket, SpectralObstruction,
                            TwoGeneratorReport, UnipotentPower, Verdict,
                            WitnessSubspace)
from nilaa.orbit import AATestReport, FalsificationWitness
from nilaa.poly import ParamVector
from nilaa.ratlin import QMatrix, QSubspace, SpectrumResult
from nilaa.suspension import SuspendedSystem

E1 = (F(1), F(0), F(0))
E2 = (F(0), F(1), F(0))
E3 = (F(0), F(0), F(1))
SUB = QSubspace(3, [E3])
NOT_FIXED = NotFixed((F(1),), (F(2),), "t")

# (class, field names, one full positional argument tuple, defaults)
VALUE_RECORDS = [
    (WitnessSubspace, ("subspace", "shift"), (SUB, (F(0), F(0), F(1, 2))),
     {"shift": None}),
    (ObstructionBracket, ("left", "right", "bracket"), (E1, E2, E3), {}),
    (NotFixed, ("vector", "image", "monomial"), (E2, (F(1), F(1), F(0)), "t"),
     {"monomial": None}),
    (CosetObstruction, ("vector", "generators"),
     (ParamVector.from_rationals([F(1, 2), 0, 0]), (E1, E2)), {}),
    (SpectralObstruction, ("factor",), ((F(-1), F(-1), F(1)),), {}),
    (UnipotentPower, ("power",), (6,), {}),
    (InvariantSubtorus, ("covectors",), (((1, 0), (0, 1)),), {}),
    (Verdict, ("status", "criterion", "certificate", "notes"),
     (NOT_AA, "full", NOT_FIXED, ("a note",)), {"notes": ()}),
    (LieNecessaryReport, ("passed", "composite_zero", "image_abelian",
                          "failed_condition", "witness"),
     (False, False, True, "composite", ("composite", 0, 1, "t")), {}),
    (Verdict, ("status", "criterion", "certificate", "notes"),
     ("NotMinimal", "minimality", InvariantSubtorus(((1, 0),)),
      ("a note",)), {"notes": ()}),
    (TwoGeneratorReport, ("n", "basis", "coefficients",
                          "matrix_coefficients", "m_subspace", "abelian_m",
                          "fixed_m", "inverse_factorial_match",
                          "plain_factorial_match", "notes"),
     (2, (E1, E2), (F(1, 2),), (F(1, 2),), SUB, True, True, True, False,
      ("a note",)), {"notes": ()}),
    (FalsificationWitness, ("probe", "target", "sequence",
                            "forward_distance", "backward_distance"),
     ((F(0),), (F(1, 2),), (3, 7), 0.001, 0.25), {}),
    (AATestReport, ("trials", "horizon", "epsilon_forward", "seed",
                    "verdict", "witness", "notes"),
     (5, 1000, 0.001, 0, "falsified", None, ("a note",)), {"notes": ()}),
    (SpectrumResult, ("all_roots_of_unity", "orders", "lcm_order",
                      "obstruction"),
     (True, {1: 2, 4: 1}, 4, None), {}),
]

IDENTITY_RECORDS = [
    (AffineSystem, ("algebra", "group", "lattice", "automorphism",
                    "lattice_automorphism", "translation", "name",
                    "designated_generators", "description", "notes",
                    "simulate"),
     ("algebra", "group", "lattice", "automorphism", "lattice_automorphism",
      "translation", "heis", (E1, E2), "a system", ("a note",),
      {"eps": 0.001}),
     {"name": "", "designated_generators": None, "description": "",
      "notes": (), "simulate": None}),
    (SuspendedSystem, ("big_algebra", "big_group", "monodromy",
                       "fiber_lattice", "embedded_translation", "base"),
     ("algebra", "group", QMatrix.identity(2), "lattice", "translation",
      "base"), {}),
]

ALL_RECORDS = VALUE_RECORDS + IDENTITY_RECORDS


def _id(spec):
    cls, _, args, _ = spec
    if cls is Verdict and args[1] == "minimality":  # minimality_check's form
        return "MinimalityVerdict"
    return cls.__name__


def _hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("spec", ALL_RECORDS, ids=_id)
def test_positional_and_keyword_construction(spec):
    cls, names, args, _ = spec
    for record in (cls(*args), cls(**dict(zip(names, args)))):
        assert tuple(getattr(record, n) for n in names) == args


@pytest.mark.parametrize("spec", ALL_RECORDS, ids=_id)
def test_defaults_fill_the_trailing_fields(spec):
    cls, names, args, defaults = spec
    required = len(names) - len(defaults)
    assert set(defaults) == set(names[required:])
    record = cls(*args[:required])
    for name, value in defaults.items():
        assert getattr(record, name) == value
    if required:
        with pytest.raises(TypeError):
            cls(*args[:required - 1])


@pytest.mark.parametrize("spec", ALL_RECORDS, ids=_id)
def test_bad_arguments_raise_type_error(spec):
    cls, names, args, _ = spec
    with pytest.raises(TypeError):
        cls(*args, "extra")
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]})


@pytest.mark.parametrize("spec", ALL_RECORDS, ids=_id)
def test_repr_names_every_field(spec):
    cls, names, args, _ = spec
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, args))
    assert repr(cls(*args)) == f"{cls.__qualname__}({fields})"


@pytest.mark.parametrize("spec", VALUE_RECORDS, ids=_id)
def test_value_equality_and_hash_within_a_class(spec):
    cls, _, args, _ = spec
    one, two = cls(*args), cls(*args)
    assert one == two and not one != two
    if _hashable(args):
        assert hash(one) == hash(two)
        assert len({one, two}) == 1
    else:
        with pytest.raises(TypeError):
            hash(one)
    other = cls(*args[:-1], "different")
    assert one != other and not one == other


@pytest.mark.parametrize("spec", VALUE_RECORDS, ids=_id)
def test_records_never_equal_tuples(spec):
    cls, _, args, _ = spec
    record = cls(*args)
    assert record != args and args != record
    assert record != list(args)
    if len(args) == 1:
        assert record != args[0]


def test_records_of_different_kinds_never_compare_equal():
    value = ((1, 2), (3, 4))
    single = [cls(value) for cls in (SpectralObstruction, UnipotentPower,
                                     InvariantSubtorus)]
    triples = [ObstructionBracket(E1, E2, E3), NotFixed(E1, E2, E3),
               LieNecessaryReport(E1, E2, E3, None, None)]
    for group in (single, triples):
        for i, left in enumerate(group):
            for j, right in enumerate(group):
                assert (left == right) == (i == j)


@pytest.mark.parametrize("spec", IDENTITY_RECORDS, ids=_id)
def test_system_records_compare_by_identity(spec):
    cls, _, args, _ = spec
    one, two = cls(*args), cls(*args)
    assert one == one and one != two
    assert hash(one) == object.__hash__(one)
    assert len({one, two}) == 2


@pytest.mark.parametrize("spec", ALL_RECORDS, ids=_id)
def test_assignment_raises_attribute_error(spec):
    cls, names, args, _ = spec
    record = cls(*args)
    with pytest.raises(AttributeError):
        setattr(record, names[0], "changed")
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    with pytest.raises(AttributeError):
        delattr(record, names[-1])
    assert getattr(record, names[0]) is args[0]


def test_verdict_checks_its_certificate():
    witness = WitnessSubspace(SUB)
    assert Verdict(AA, "full", witness).certificate is witness
    assert Verdict(NOT_AA, "full", NOT_FIXED).notes == ()
    assert Verdict(INCONCLUSIVE, "full", None).certificate is None
    with pytest.raises(ValueError, match="witness subspace"):
        Verdict(AA, "full", None)
    with pytest.raises(ValueError, match="witness subspace"):
        Verdict(AA, "full", NOT_FIXED)
    with pytest.raises(ValueError, match="obstruction"):
        Verdict(NOT_AA, "full", None)
    with pytest.raises(ValueError, match="obstruction"):
        Verdict(status=NOT_AA, criterion="full", certificate=None)
