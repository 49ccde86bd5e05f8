"""Lattice layer: BCH closure, automorphism compatibility, coset reduction."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import (abelian, filiform, free_nilpotent_2_3, heisenberg,
                      random_basis_matrix, random_change_of_basis)
from nilaa.lattice import (CosetReducer, LatticeClosureError, LogLattice,
                           _is_hermite, central_lattice_basis,
                           preserves_lattice, validate_lattice)
from nilaa.nilalg import LieAlgebraSpec
from nilaa.nilgrp import NilpotentGroup
from nilaa.poly import ParamVector, Poly
from nilaa.ratlin import QMatrix, QSubspace, integer_kernel, zspan_basis

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


def law_at(law, m, n):
    """The certificate P(m, n) at integer lattice coordinates m, n."""
    return law.substitute(dict(zip(law.params, (*m, *n))))


def test_validate_heisenberg_lattice():
    group = NilpotentGroup(heisenberg())
    hermite, law = validate_lattice(group, heis_lattice())
    assert hermite == heis_lattice()  # a positive diagonal basis is its own
    # bch(xi1, xi2) = xi1 + xi2 + xi3/2, which is (1, 1, 1) in lattice coordinates
    assert law_at(law, (1, 0, 0), (0, 1, 0)) == (1, 1, 1)
    assert law_at(law, (0, 1, 0), (1, 0, 0)) == (1, 1, -1)


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


def test_point_witness_when_every_generator_pair_closes():
    # [e1,e3]=e4, [e2,e3]=e5, [e1,e5]=[e2,e4]=e6: [x,[x,y]] vanishes on
    # every pair of basis vectors, so each bch(+-gen_i, +-gen_j) is
    # x + y + [x,y]/2 and stays in the span, while bch(gen2, gen0 + gen1)
    # picks up e6/6 (coordinate 2/3 on the generator e6/4)
    spec = LieAlgebraSpec.from_sparse(
        6, [(1, 3, 4, 1), (2, 3, 5, 1), (1, 5, 6, 1), (2, 4, 6, 1)])
    group = NilpotentGroup(spec)
    diagonal = (1, 1, 1, F(1, 2), F(1, 2), F(1, 4))
    lattice = LogLattice(QMatrix([[diagonal[i] * (i == j) for j in range(6)]
                                  for i in range(6)]))
    with pytest.raises(LatticeClosureError) as err:
        validate_lattice(group, lattice)
    (tag_m, m), (tag_n, n) = err.value.pair
    assert tag_m == tag_n == "combo"
    assert (m, n) == ((0, 0, 1, 0, 0, 0), (1, 1, 0, 0, 0, 0))
    coords = lattice.to_coords(group.mult_vec(lattice.from_coords(m),
                                              lattice.from_coords(n)))
    assert err.value.coords == coords
    assert coords[5] == F(2, 3)
    assert str(err.value) == ("bch(gen2, gen0 + gen1) has non-integer lattice "
                              "coordinates ('1', '1', '1', '-1', '-1', '2/3')")


def test_closure_error_formats_point_witnesses():
    err = LatticeClosureError((("combo", (1, 0)), ("combo", (0, 1))), ())
    assert str(err) == "bch(gen0, gen1) has non-integer lattice coordinates ()"
    err = LatticeClosureError((("combo", (-1, 0, 2)), ("combo", (0, 0, 0))),
                              (F(1, 2),))
    assert str(err) == "bch(-gen0 + 2*gen2, 0) has non-integer lattice coordinates ('1/2',)"
    err = LatticeClosureError(((0, -1), (2, 1)), (F(1, 3),))
    assert str(err) == "bch(-gen0, gen2) has non-integer lattice coordinates ('1/3',)"


DIAG = (1, 2, 3, 4, 6, 12, 24)


def _free23_basis(rng) -> QMatrix:
    """Lower-triangular lattice basis: diagonal entries 1/k, k in DIAG, with
    k in (1, 2) on the generators and (12, 24) on the center, the weights
    where closed lattices of this shape live; random entries below."""
    ks = [rng.choice((1, 1, 1, 2)), rng.choice((1, 1, 1, 2)), rng.choice(DIAG),
          rng.choice((12, 24)), rng.choice((12, 24))]
    rows = [[F(0)] * 5 for _ in range(5)]
    for i, k in enumerate(ks):
        rows[i][i] = F(1, k)
        for j in range(i):
            if rng.random() < 0.35:
                rows[i][j] = F(rng.randint(-2, 2), rng.choice(DIAG))
    return QMatrix(rows)


def _brute_force_closed(basis: QMatrix) -> bool:
    """No product of lattice points with coordinates in {-2..2}^10 leaves
    the lattice.

    Independent of nilgrp: bch on free23 is x + y + [x,y]/2 +
    ([x,[x,y]] - [y,[x,y]])/12, evaluated in integers after scaling.  The
    basis is lower triangular, so coordinates 4 and 5 move central
    directions only, which add to a product and change no lattice
    coordinate's integrality: {-2..2}^6 in the first three suffices.
    """
    inv = basis.inverse()
    D = math.lcm(*(x.denominator for row in basis.entries for x in row))
    E = math.lcm(*(x.denominator for row in inv.entries for x in row))
    M = [[int(x * E) for x in row] for row in inv.entries]
    scale = 12 * D ** 3 * E
    points = [tuple(int(c * D) for c in basis.matvec((*m, 0, 0)))
              for m in product(range(-2, 3), repeat=3)]
    for X in points:
        for Y in points:
            c3 = X[0] * Y[1] - X[1] * Y[0]
            c4 = X[0] * Y[2] - X[2] * Y[0]
            c5 = X[1] * Y[2] - X[2] * Y[1]
            z = [12 * D * D * (a + b) for a, b in zip(X, Y)]  # 12 D^3 bch
            z[2] += 6 * D * c3
            z[3] += 6 * D * c4 + (X[0] - Y[0]) * c3
            z[4] += 6 * D * c5 + (X[1] - Y[1]) * c3
            if any(sum(a * b for a, b in zip(row, z)) % scale for row in M):
                return False
    return True


def _verdict(group, lattice):
    """The Hermite basis when validate_lattice accepts, else None after
    checking that the witness product really leaves the lattice."""
    try:
        return validate_lattice(group, lattice)[0]
    except LatticeClosureError as err:
        left, right = (lattice.from_coords(f[1]) if f[0] == "combo"
                       else tuple(f[1] * x for x in lattice.generator(f[0]))
                       for f in err.pair)
        coords = lattice.to_coords(group.mult_vec(left, right))
        assert coords == err.coords
        assert any(c.denominator != 1 for c in coords)
        return None


def test_certificate_agrees_with_brute_force_on_free23():
    group = NilpotentGroup(free_nilpotent_2_3())
    rng = random.Random(23)
    verdicts = []
    for _ in range(40):
        basis = _free23_basis(rng)
        accepted = _verdict(group, LogLattice(basis)) is not None
        assert accepted == _brute_force_closed(basis), basis
        verdicts.append(accepted)
    assert 3 <= sum(verdicts) <= 37  # both outcomes are exercised


def _unimodular(rng, d) -> QMatrix:
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(4 * d):  # column j += c * column i
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in u:
            row[j] += c * row[i]
    return QMatrix(u)


def test_certificate_depends_on_the_span_only():
    # a dense basis of the same lattice gets the same verdict and the same
    # Hermite basis; a rejection's witness is in the dense generators
    group = NilpotentGroup(free_nilpotent_2_3())
    rng = random.Random(5)
    verdicts = []
    for _ in range(12):
        basis = _free23_basis(rng)
        dense = basis @ _unimodular(rng, 5)
        assert sum(x != 0 for row in dense.entries for x in row) > 15
        hermite = _verdict(group, LogLattice(basis))
        assert _verdict(group, LogLattice(dense)) == hermite
        verdicts.append(hermite is not None)
    assert 1 <= sum(verdicts) <= 11


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


def _dense_central_lattice_basis(spec, lattice):
    """The integer kernel of every ad xi_i, all d^2 rows stacked, in
    lattice coordinates."""
    d = spec.dim
    units = [tuple(F(int(i == j)) for j in range(d)) for i in range(d)]
    rows = []
    for u in units:
        rows.extend(QMatrix.from_columns([spec.bracket_vec(u, e) for e in units]).entries)
    return [lattice.from_coords(n) for n in integer_kernel(QMatrix(rows) @ lattice.basis)]


def test_sparse_central_lattice_basis_matches_the_dense_kernel():
    rng = random.Random(79)
    bases = (heisenberg(), LieAlgebraSpec.from_sparse(5, [(1, 3, 5, 1), (2, 4, 5, 1)]),
             free_nilpotent_2_3(), filiform(4), filiform(6), filiform(7),
             abelian(1), abelian(4))
    for base in bases:
        for _ in range(4):
            spec = random_change_of_basis(base, rng, 2)
            lattice = LogLattice(random_basis_matrix(spec.dim, rng, 2))
            expected = _dense_central_lattice_basis(spec, lattice)
            assert central_lattice_basis(NilpotentGroup(spec), lattice) == expected


def _hermite_of(basis):
    return QMatrix.from_columns(zspan_basis(basis.columns(), basis.nrows))


def test_abelian_lattice_law_is_the_symbolic_product():
    rng = random.Random(83)
    for d in (1, 2, 4, 6):
        group = NilpotentGroup(abelian(d))
        params = tuple(f"m{i + 1}" for i in range(d)) + tuple(f"n{i + 1}" for i in range(d))
        z = [Poly.variable(name, params) for name in params]
        dense = random_basis_matrix(d, rng, 2)
        for basis in (QMatrix.identity(d), dense, _hermite_of(dense)):
            hermite, law = validate_lattice(group, LogLattice(basis))
            expected = LogLattice(_hermite_of(basis))
            x = expected.basis.apply(ParamVector(params, z[:d]))
            y = expected.basis.apply(ParamVector(params, z[d:]))
            assert hermite == expected
            assert law == expected._inverse.apply(group.mult(x, y))


def test_is_hermite_agrees_with_the_hermite_basis_of_the_span():
    rng = random.Random(89)
    seen = [0, 0]
    for _ in range(40):
        d = rng.randrange(1, 6)
        basis = random_basis_matrix(d, rng, rng.randrange(4))
        hermite = _hermite_of(basis)
        rows = [list(row) for row in hermite.entries]
        i, j = rng.randrange(d), rng.randrange(d)
        rows[i][j] += rng.choice((1, -1, F(1, 2))) * (hermite[i, i] if j <= i else 1)
        for candidate in (basis, hermite, QMatrix(rows)):
            if candidate.det():
                own = _hermite_of(candidate) == candidate
                assert _is_hermite(candidate) == own
                seen[own] += 1
    assert min(seen) >= 30


def test_a_hermite_basis_is_reused_with_its_inverse():
    group = NilpotentGroup(free_nilpotent_2_3())
    lattice = free23_lattice()
    hermite, _ = validate_lattice(group, lattice)
    assert hermite is lattice


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
        assert reducer.lattice.contains(group.mult_vec(group.inv(v), red))
        assert reducer.reduce(red) == red  # idempotent
        # representatives are canonical: same coset iff same representative
        w = group.mult_vec(v, reducer.lattice.from_coords(
            [rng.randrange(-2, 3) for _ in range(3)]))
        assert reducer.reduce(w) == red


def test_coset_reducer_rejects_oversized():
    group = NilpotentGroup(LieAlgebraSpec(8, {}))
    with pytest.raises(ValueError):
        CosetReducer(group, LogLattice(QMatrix.identity(8)))
