"""Lattice layer: BCH closure, automorphism compatibility, coset reduction."""

import random
from fractions import Fraction

import pytest

from conftest import free_nilpotent_2_3, heisenberg
from nilaa.lattice import (CosetReducer, LatticeClosureError, LogLattice,
                           central_lattice_basis, preserves_lattice,
                           validate_lattice)
from nilaa.nilalg import LieAlgebraSpec
from nilaa.nilgrp import NilpotentGroup
from nilaa.ratlin import QMatrix, QSubspace

F = Fraction


def heis_lattice() -> LogLattice:
    """Integer Heisenberg group: log generators xi_1, xi_2, xi_3/2."""
    return LogLattice(QMatrix([[1, 0, 0], [0, 1, 0], [0, 0, "1/2"]]))


def free23_lattice() -> LogLattice:
    return LogLattice(QMatrix([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0],
                               [0, 0, "1/2", 0, 0], [0, 0, 0, "1/12", 0],
                               [0, 0, 0, 0, "1/12"]]))


def test_log_lattice_basics():
    lat = heis_lattice()
    assert lat.dim == 3
    assert lat.generator(2) == (F(0), F(0), F(1, 2))
    v = (F(2), F(-1), F(3, 2))
    assert lat.from_coords(lat.to_coords(v)) == v
    assert lat.to_coords(v) == (F(2), F(-1), F(3))
    assert lat.contains(v)
    assert not lat.contains((F(1, 2), F(0), F(0)))
    with pytest.raises(ValueError):
        LogLattice(QMatrix([[1, 1], [1, 1]]))
    with pytest.raises(ValueError):
        LogLattice(QMatrix([[1, 0, 0], [0, 1, 0]]))


def test_validate_heisenberg_lattice():
    group = NilpotentGroup(heisenberg())
    table = validate_lattice(group, heis_lattice())
    # bch(xi1, xi2) = xi1 + xi2 + xi3/2, which is (1, 1, 1) in lattice coordinates
    assert table[(0, 1, 1, 1)] == (1, 1, 1)
    assert table[(1, 1, 0, 1)] == (1, 1, -1)


def test_integer_basis_is_not_closed_for_heisenberg():
    group = NilpotentGroup(heisenberg())
    with pytest.raises(LatticeClosureError) as err:
        validate_lattice(group, LogLattice(QMatrix.identity(3)))
    assert err.value.pair == ((0, 1), (1, 1))


def test_validate_free23_lattice():
    group = NilpotentGroup(free_nilpotent_2_3())
    validate_lattice(group, free23_lattice())
    with pytest.raises(LatticeClosureError):
        validate_lattice(group, LogLattice(QMatrix.identity(5)))


def test_validate_dimension_mismatch():
    group = NilpotentGroup(heisenberg())
    with pytest.raises(ValueError):
        validate_lattice(group, LogLattice(QMatrix.identity(2)))


def test_preserves_lattice():
    lat = heis_lattice()
    shear = QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    ok, reason, conj = preserves_lattice(shear, lat)
    assert ok and reason is None
    assert conj == shear  # basis rescaling commutes with this shear

    stretch = QMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    ok, reason, _ = preserves_lattice(stretch, lat)
    assert not ok and "determinant" in reason

    shrink = QMatrix([[1, 0, 0], [0, "1/2", 0], [0, 0, 1]])
    ok, reason, _ = preserves_lattice(shrink, lat)
    assert not ok and "integral" in reason


def test_central_lattice_basis():
    group = NilpotentGroup(heisenberg())
    basis = central_lattice_basis(group, heis_lattice())
    assert basis == [(F(0), F(0), F(1, 2))]

    group5 = NilpotentGroup(free_nilpotent_2_3())
    basis5 = central_lattice_basis(group5, free23_lattice())
    assert len(basis5) == 2
    for v in basis5:
        assert group5.spec.ad_matrix(v).is_zero() or all(
            not any(group5.spec.bracket_vec(v, u)) for u in QMatrix.identity(5).entries)
    span = QSubspace.from_spanning(basis5, 5)
    assert span.contains((0, 0, 0, F(1, 12), 0))
    assert span.contains((0, 0, 0, 0, F(1, 12)))


def test_coset_reducer_torus():
    group = NilpotentGroup(LieAlgebraSpec(2, {}))
    reducer = CosetReducer(group, LogLattice(QMatrix.identity(2)))
    assert reducer.reduce((F(3, 2), F(-1, 4))) == (F(1, 2), F(3, 4))
    assert reducer.reduce((5, -3)) == (F(0), F(0))


def test_coset_reducer_heisenberg():
    group = NilpotentGroup(heisenberg())
    reducer = CosetReducer(group, heis_lattice())
    assert reducer.ordering == (0, 1, 2)
    assert reducer.reduce((1, 0, 0)) == (F(0), F(0), F(0))
    assert reducer.reduce((0, 0, 1)) == (F(0), F(0), F(0))

    rng = random.Random(61)
    for _ in range(25):
        v = tuple(F(rng.randrange(-12, 13), rng.randrange(1, 8)) for _ in range(3))
        red = reducer.reduce(v)
        assert all(0 <= c < 1 for c in reducer.lattice.to_coords(red))
        assert reducer.same_coset(v, red)
        assert reducer.reduce(red) == red  # idempotent
        # representatives are canonical: same coset iff same representative
        w = group.mult_vec(v, reducer.lattice.from_coords(
            [rng.randrange(-2, 3) for _ in range(3)]))
        assert reducer.reduce(w) == red


def test_coset_reducer_rejects_oversized():
    group = NilpotentGroup(LieAlgebraSpec(8, {}))
    with pytest.raises(ValueError):
        CosetReducer(group, LogLattice(QMatrix.identity(8)))
