"""Lattice layer: BCH closure, automorphism compatibility, coset reduction."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest

from conftest import (abelian, change_of_basis, coprime_scaling, filiform,
                      free_nilpotent_2_3, heisenberg, q6, random_basis_matrix,
                      random_change_of_basis, random_unimodular)
from nilaa.criteria import make_system
from nilaa.lattice import (LatticeClosureError, LogLattice, _binomial_row,
                           _is_hermite, _non_integer_binomial_indices,
                           central_lattice_basis, preserves_lattice,
                           validate_lattice)
from nilaa.nilalg import LieAlgebraSpec
from nilaa.nilgrp import NilpotentGroup
from nilaa.orbit import CosetReducer, NumericAffine, _reduction_order
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


# ---- the symbolic closure oracle ----

def symbolic_law(group, hermite):
    """The group law in Hermite coordinates, P(m, n) = H^-1 bch(H m, H n),
    by one symbolic product over m1..md, n1..nd."""
    d = group.dim
    params = tuple(f"m{i + 1}" for i in range(d)) + tuple(f"n{i + 1}" for i in range(d))
    z = [Poly.variable(name, params) for name in params]
    x = hermite.basis.apply(ParamVector(params, z[:d]))
    y = hermite.basis.apply(ParamVector(params, z[d:]))
    return hermite._inverse.apply(group.mult(x, y))


def fractional_binomial_indices(p: Poly) -> set:
    """Multi-indices J whose coefficient of prod_i C(z_i, J_i) in p is not
    an integer, from the fractional parts of p's Fraction coefficients."""
    acc = {}
    for exps, coeff in p.terms.items():
        frac = coeff - math.floor(coeff)
        if not frac:
            continue
        partial = [((), frac)]
        for k in exps:
            partial = [(J + (j,), c * t) for J, c in partial
                       for j, t in enumerate(_binomial_row(k)) if t]
        for J, c in partial:
            acc[J] = acc.get(J, 0) + c
    return {J for J, c in acc.items() if c.denominator != 1}


def oracle_validate(group, lattice):
    """validate_lattice through the symbolic law.

    Returns (H, law, bad, error): the Hermite basis, the law in its
    coordinates, the non-integer binomial indices of the law, and None or
    the LatticeClosureError of the witness search that validate_lattice
    documents.
    """
    d = group.dim
    hermite = LogLattice(zspan_basis(lattice.basis))
    if hermite == lattice:
        hermite = lattice
    law = symbolic_law(group, hermite)
    bad = set().union(*map(fractional_binomial_indices, law.entries))
    if not bad:
        return hermite, law, bad, None
    for i, j, si, sj in product(range(d), range(d), (1, -1), (1, -1)):
        if i != j:
            coords = lattice.to_coords(group.mult_vec(
                [si * g for g in lattice.generator(i)],
                [sj * g for g in lattice.generator(j)]))
            if any(c.denominator != 1 for c in coords):
                return hermite, law, bad, LatticeClosureError(
                    ((i, si), (j, sj)), coords)
    J = min(bad, key=lambda J: (sum(J), J))
    u, v = hermite.from_coords(J[:d]), hermite.from_coords(J[d:])
    return hermite, law, bad, LatticeClosureError(
        tuple(("combo", tuple(int(c) for c in lattice.to_coords(p))) for p in (u, v)),
        lattice.to_coords(group.mult_vec(u, v)))


def assert_matches_oracle(group, lattice) -> bool:
    """validate_lattice and the oracle agree on the verdict, the
    non-integer indices and any error's pair, coordinates and message;
    returns whether the lattice is closed."""
    hermite, _, bad, error = oracle_validate(group, lattice)
    assert _non_integer_binomial_indices(group, hermite) == bad
    if error is None:
        assert validate_lattice(group, lattice) == hermite
        return True
    with pytest.raises(LatticeClosureError) as info:
        validate_lattice(group, lattice)
    assert info.value.pair == error.pair
    assert info.value.coords == error.coords
    assert str(info.value) == str(error)
    return False


def law_at(law, m, n):
    """The law P(m, n) at integer lattice coordinates m, n."""
    return law.substitute(dict(zip(law.params, (*m, *n))))


def test_validate_heisenberg_lattice():
    group = NilpotentGroup(heisenberg())
    hermite = validate_lattice(group, heis_lattice())
    assert hermite == heis_lattice()  # a positive diagonal basis is its own
    assert assert_matches_oracle(group, heis_lattice())
    law = symbolic_law(group, hermite)
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
    assert not assert_matches_oracle(group, lattice)
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


# algebras of classes 1 to 6, each with the weights of its basis vectors
# along the lower central series
GRADED = [
    (abelian(3), (1, 1, 1)),
    (heisenberg(), (1, 1, 2)),
    (LieAlgebraSpec.from_sparse(6, [(1, 2, 4, 1), (1, 3, 5, 1), (2, 3, 6, 1)]),
     (1, 1, 1, 2, 2, 2)),  # free 3-generator class 2
    (free_nilpotent_2_3(), (1, 1, 2, 3, 3)),
    (filiform(5), (1, 1, 2, 3, 4)),
    (q6(), (1, 1, 2, 3, 4, 5)),
    (filiform(7), (1, 1, 2, 3, 4, 5, 6)),
]


def _graded_lattice(weights, scale, rng) -> QMatrix:
    """Diagonal 1 / scale^(w - 1) on a basis vector of weight w, closed for
    scale 60 up to class 6; some entries below it moved by a fraction of
    their row's diagonal entry, which may break closure."""
    d = len(weights)
    rows = [[F(0)] * d for _ in range(d)]
    for i, w in enumerate(weights):
        rows[i][i] = F(1, scale ** (w - 1))
        for j in range(i):
            if rng.random() < 0.25:
                rows[i][j] = rows[i][i] * rng.choice((1, -1, F(1, 2), F(-1, 3)))
    return QMatrix(rows)


def test_integer_certificate_matches_the_symbolic_oracle():
    rng = random.Random(20)
    verdicts = {}
    for spec, weights in GRADED:
        d = spec.dim
        for trial in range(6):
            scale = (60, 60, 60, 2, 1)[trial % 5]
            lattice = _graded_lattice(weights, scale, rng)
            P = random_basis_matrix(d, rng, trial % 5)
            group = NilpotentGroup(change_of_basis(spec, P))
            closed = assert_matches_oracle(group, LogLattice(P.inverse() @ lattice))
            verdicts.setdefault(closed, set()).add(max(weights))
    assert verdicts[True] == {1, 2, 3, 4, 5, 6}
    assert verdicts[False] >= {2, 3, 4, 5, 6}


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
        return validate_lattice(group, lattice)
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

    # the integer products against the Fraction route, on seeded bases
    # (Hermite, triangular, dense, scaled by pairwise-coprime
    # denominators near 2^40) and maps that preserve them or not
    rng = random.Random(101)
    outcomes = set()
    for _ in range(120):
        d = rng.randrange(1, 7)
        basis = random_basis_matrix(d, rng, rng.randrange(4))
        if rng.randrange(3) == 0:
            basis = basis @ coprime_scaling(d, rng)
        lattice = LogLattice(basis)
        # an integral matrix in lattice coordinates, unimodular or not
        w = random_basis_matrix(d, rng, rng.randrange(4))
        w = QMatrix([[F(x.numerator) for x in row] for row in w.entries])
        u = basis @ w @ lattice._inverse
        if rng.randrange(2):
            rows = [list(row) for row in u.entries]
            rows[rng.randrange(d)][rng.randrange(d)] += F(1, rng.choice((1, 2, 3)))
            u = QMatrix(rows)
        got = preserves_lattice(u, lattice)
        assert got == fraction_preserves_lattice(u, lattice)
        assert got[2].int_rows() == QMatrix(got[2].entries).int_rows()
        outcomes.add(got[1] and got[1].split()[0])
    assert outcomes == {None, "matrix", "determinant"}


def fraction_preserves_lattice(matrix, lattice):
    """preserves_lattice on Fractions, as it ran before it read the
    integer forms: U_L = L^-1 U L by two Fraction products."""
    conj = lattice._inverse @ matrix @ lattice.basis
    if not conj.is_integral():
        return False, "matrix is not integral in lattice coordinates", conj
    det = conj.det()
    if det not in (1, -1):
        return False, f"determinant {det} in lattice coordinates is not a unit", conj
    return True, None, conj


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


def test_a_diagonal_lattice_law_is_expanded_once_per_map(monkeypatch):
    # the certificate expands the law on the Hermite basis, which is the
    # given diagonal basis, and the map's coset reducer reads the same law
    calls = []
    lyndon = NilpotentGroup._lyndon
    monkeypatch.setattr(NilpotentGroup, "_lyndon", lambda self, *args: (
        calls.append(1) or lyndon(self, *args)))
    for spec, lattice in ((heisenberg(), heis_lattice()),
                          (free_nilpotent_2_3(), free23_lattice())):
        calls.clear()
        m = NumericAffine(make_system(spec, lattice=lattice.basis),
                          [F(1, 3)] + [0] * (spec.dim - 1))
        assert m.reduce(m.step([F(1, 2)] * spec.dim)) == \
            m.step([F(1, 2)] * spec.dim)
        assert calls == [1]
    # the cache compares lattices by their bases: equal ones hash alike
    assert heis_lattice() == heis_lattice()
    assert hash(heis_lattice()) == hash(heis_lattice())


def test_abelian_lattice_law_is_the_symbolic_product():
    # the symbolic law is m + n, so every additive lattice is closed and
    # validate_lattice makes no product
    rng = random.Random(83)
    for d in (1, 2, 4, 6):
        group = NilpotentGroup(abelian(d))
        dense = random_basis_matrix(d, rng, 2)
        for basis in (QMatrix.identity(d), dense, zspan_basis(dense)):
            hermite, law, bad, error = oracle_validate(group, LogLattice(basis))
            m = [law.params[i] for i in range(d)]
            n = [law.params[d + i] for i in range(d)]
            assert law.entries == tuple(Poly.variable(a, law.params)
                                        + Poly.variable(b, law.params)
                                        for a, b in zip(m, n))
            assert not bad and error is None
            assert validate_lattice(group, LogLattice(basis)) == hermite
            assert hermite == LogLattice(zspan_basis(basis))


def test_is_hermite_agrees_with_the_hermite_basis_of_the_span():
    rng = random.Random(89)
    seen = [0, 0]
    for _ in range(40):
        d = rng.randrange(1, 6)
        basis = random_basis_matrix(d, rng, rng.randrange(4))
        hermite = zspan_basis(basis)
        rows = [list(row) for row in hermite.entries]
        i, j = rng.randrange(d), rng.randrange(d)
        rows[i][j] += rng.choice((1, -1, F(1, 2))) * (hermite[i, i] if j <= i else 1)
        for candidate in (basis, hermite, QMatrix(rows)):
            if candidate.det():
                own = zspan_basis(candidate) == candidate
                assert _is_hermite(candidate) == own
                seen[own] += 1
    assert min(seen) >= 30


def test_a_hermite_basis_is_reused_with_its_inverse():
    group = NilpotentGroup(free_nilpotent_2_3())
    lattice = free23_lattice()
    hermite = validate_lattice(group, lattice)
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


def test_the_listing_order_of_the_generators_does_not_matter():
    # every listing of a lattice's generators gets an order and the same
    # representatives as the lattice as given: all listings of Heisenberg
    # and filiform(4), 30 seeded ones of free23 and of the 5-dim Heisenberg
    rng = random.Random(31)
    heisenberg5 = LieAlgebraSpec.from_sparse(5, [(1, 3, 5, 1), (2, 4, 5, 1)])
    cases = [(heisenberg(), heis_lattice().basis),
             (free_nilpotent_2_3(), free23_lattice().basis),
             (heisenberg5, QMatrix([[F(1, 2) if i == j == 4 else int(i == j)
                                     for j in range(5)] for i in range(5)])),
             (filiform(4), QMatrix([[1, 0, 0, 0], [0, 1, 0, 0],
                                    [0, 0, F(1, 2), 0], [0, 0, 0, F(1, 12)]]))]
    listings = 0
    for spec, basis in cases:
        group = NilpotentGroup(spec)
        d = spec.dim
        given = CosetReducer(group, LogLattice(basis))
        columns = basis.columns()
        orders = list(permutations(range(d)))
        for order in orders if len(orders) <= 24 else rng.sample(orders, 30):
            listed = LogLattice(QMatrix.from_columns([columns[i] for i in order]))
            reducer = CosetReducer(group, listed)
            for _ in range(25):
                v = tuple(F(rng.randrange(-12, 13), rng.randrange(1, 8))
                          for _ in range(d))
                assert reducer.reduce(v) == given.reduce(v)
            listings += 1
    assert listings == 90


_WRONG_ORDER_PROBE = """
from fractions import Fraction
from nilaa.lattice import LogLattice
from nilaa.nilalg import LieAlgebraSpec
from nilaa.nilgrp import NilpotentGroup
from nilaa.orbit import CosetReducer
from nilaa.ratlin import QMatrix
reducer = CosetReducer(NilpotentGroup(LieAlgebraSpec.from_sparse(3, [(1, 2, 3, 1)])),
                       LogLattice(QMatrix([[1, 0, 0], [0, 1, 0], [0, 0, "1/2"]])))
reducer.ordering = (2, 0, 1)
try:
    reducer.reduce((Fraction(5, 2), Fraction(7, 3), 0))
except ArithmeticError as exc:
    print(exc)
"""


def test_coset_reducer_checks_its_result_also_under_python_O():
    # clearing the central coordinate first lets the later shifts move it
    # again, so the result leaves the fundamental domain
    reducer = CosetReducer(NilpotentGroup(heisenberg()), heis_lattice())
    reducer.ordering = (2, 0, 1)
    with pytest.raises(ArithmeticError,
                       match="reduction left the fundamental domain"):
        reducer.reduce((F(5, 2), F(7, 3), 0))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-O", "-c", _WRONG_ORDER_PROBE],
                          env=env, capture_output=True, text=True,
                          encoding="utf-8", timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "reduction left the fundamental domain\n"


def test_coset_reducer_takes_any_dimension_and_the_neighbour_search_is_capped():
    # the reducer reduces an 8-dim torus; the dimension cap bounds only the
    # {-1,0,1}^d neighbour search of the orbit oracle on a non-abelian group
    reducer = CosetReducer(NilpotentGroup(LieAlgebraSpec(8, {})),
                           LogLattice(QMatrix.identity(8)))
    assert reducer.ordering == tuple(range(8))
    assert reducer.reduce([F(3, 2)] * 8) == (F(1, 2),) * 8
    n, d = 4, 9  # the 9-dim Heisenberg algebra, its central vector halved
    spec = LieAlgebraSpec.from_sparse(d, [(i, n + i, d, 1) for i in range(1, n + 1)])
    lattice = QMatrix([[F(1, 2) if i == j == d - 1 else int(i == j)
                        for j in range(d)] for i in range(d)])
    system = make_system(spec, lattice=lattice)
    assert CosetReducer(system.group, system.lattice).ordering == tuple(range(d))
    with pytest.raises(ValueError) as info:
        NumericAffine(system, [0] * d)
    assert str(info.value) == ("the orbit oracle's lattice neighbour search "
                               "supports dimension <= 7 on a non-abelian group")


def symbolic_shifts(group, lattice) -> list[tuple[bool, set]]:
    """For each generator i, by one symbolic product P(y, t e_i) =
    L^-1 bch(L y, t L e_i) in the d + 1 parameters t, y1..yd: whether it
    adds exactly t to coordinate i, and the other coordinates it moves."""
    d = lattice.dim
    params = ("t",) + tuple(f"y{k + 1}" for k in range(d))
    t = Poly.variable("t", params)
    y = ParamVector(params, [Poly.variable(f"y{k + 1}", params) for k in range(d)])
    x = lattice.basis.apply(y)
    shifts = []
    for i in range(d):
        gen = ParamVector.from_rationals(lattice.generator(i), params)
        coords = lattice._inverse.apply(group.mult(x, gen.scale(t)))
        shifts.append((coords[i] == y[i] + t,
                       {j for j in range(d) if j != i and coords[j] != y[j]}))
    return shifts


def clears_cleanly(shifts, order) -> bool:
    """Each generator of `order` shifts cleanly and leaves the coordinates
    cleared before it alone."""
    return all(shifts[i][0] and not shifts[i][1] & set(order[:k])
               for k, i in enumerate(order))


def stops_cleanly(shifts, prefix) -> bool:
    """`prefix` clears cleanly and no generator outside it moves the
    coordinates it cleared."""
    return clears_cleanly(shifts, prefix) and not any(
        shifts[j][1] & set(prefix) for j in range(len(shifts))
        if j not in prefix)


def _rebase(d, rng, shears, graded) -> QMatrix:
    """A random matrix of determinant +-1: `shears` random integer column
    operations on the identity, then a random permutation of the rows and
    random signs of the columns.  When graded, each operation adds a later
    column to an earlier one and the rows keep their order, so on a basis
    ordered by weight a generator gains only terms of higher weight."""
    rows = [[F(int(i == j)) for j in range(d)] for i in range(d)]
    for _ in range(shears):
        i, j = rng.sample(range(d), 2)
        if graded:
            i, j = max(i, j), min(i, j)
        c = rng.choice((1, -1, 2))
        for row in rows:
            row[j] += c * row[i]
    if not graded:
        rng.shuffle(rows)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    return QMatrix([[x * s for x, s in zip(row, signs)] for row in rows])


def test_reduction_ordering_matches_the_symbolic_search():
    # the reference tries every permutation of the generators: the reducer
    # orders a re-based lattice exactly when one of them clears cleanly,
    # takes the lexicographically first, and reduces into [0, 1)^d
    rng, points = random.Random(97), random.Random(98)
    heisenberg5 = LieAlgebraSpec.from_sparse(5, [(1, 3, 5, 1), (2, 4, 5, 1)])
    heisenberg7 = LieAlgebraSpec.from_sparse(
        7, [(1, 4, 7, 1), (2, 5, 7, 1), (3, 6, 7, 1)])
    cases = [(heisenberg(), heis_lattice().basis),
             (free_nilpotent_2_3(), free23_lattice().basis),
             (LieAlgebraSpec.from_sparse(4, [(1, 2, 3, 1), (2, 3, 4, 1)]),
              QMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, F(1, 2), 0],
                       [0, 0, 0, F(1, 12)]])),
             (heisenberg5, QMatrix.identity(5)),
             (heisenberg7, QMatrix.identity(7)),
             (q6(), _graded_lattice((1, 1, 2, 3, 4, 5), 60, rng)),
             (filiform(4), _graded_lattice((1, 1, 2, 3), 60, rng)),
             (filiform(5), _graded_lattice((1, 1, 2, 3, 4), 60, rng)),
             (filiform(6), _graded_lattice((1, 1, 2, 3, 4, 5), 60, rng))]
    found = []
    for spec, basis in cases:
        group = NilpotentGroup(spec)
        d = spec.dim
        for shears, graded in product((0, 1, 2, 3), (False, True)):
            lattice = LogLattice(basis @ _rebase(d, rng, shears, graded))
            shifts = symbolic_shifts(group, lattice)
            first = next((p for p in permutations(range(d))
                          if clears_cleanly(shifts, p)), None)
            try:
                reducer = CosetReducer(group, lattice)
            except ValueError as exc:
                # it names the generators that never shift cleanly, on
                # these bases always some, and stops after the longest
                # prefix that clears cleanly and that no other generator
                # moves, the lexicographically first
                unclean = [i for i in range(d) if not shifts[i][0]]
                done = next(p for k in range(d, -1, -1)
                            for p in permutations(range(d), k)
                            if stops_cleanly(shifts, p))
                assert first is None and unclean
                assert str(exc) == (f"no reduction ordering: none of "
                                    f"{unclean} shifts cleanly after "
                                    f"{list(done)}")
                found.append(None)
                continue
            assert reducer.ordering == first
            for _ in range(3):
                v = tuple(F(points.randrange(-12, 13), points.randrange(1, 8))
                          for _ in range(d))
                red = reducer.reduce(v)
                assert all(0 <= c < 1 for c in lattice.to_coords(red))
                assert reducer.reduce(red) == red
            found.append(reducer.ordering)
    assert sum(order is not None for order in found) == 54
    # the greedy search that came before this order ordered 37 of them, the
    # graded re-bases and one shear of Heisenberg, each as listed; the
    # order is the same
    for n in {2, *range(1, 72, 2)}:
        assert found[n] == tuple(range(len(found[n])))


def test_reduction_order_on_hand_built_laws():
    # the law P_k(y, n) = y_k + n_k + the extra terms given for k, as the
    # terms of NilpotentGroup.law: the term y_a n_b is (((a, 1), (d + b, 1)), 1)
    def order(d, extra):
        terms = [[(((k, 1),), 1), (((d + k, 1),), 1)] for k in range(d)]
        for k, a, b in extra:
            terms[k].append((((a, 1), (d + b, 1)), 1))
        return _reduction_order(terms, 1)

    def refusal(d, extra):
        with pytest.raises(ValueError) as info:
            order(d, extra)
        return str(info.value)

    assert order(3, []) == ((0, 1, 2), (True, True, True))
    # generator 2 moves coordinate 0, so the lowest free one, 1, comes first
    assert order(3, [(0, 1, 2)]) == ((1, 2, 0), (True, True, False))
    # generator 0 moves only its own coordinate
    assert refusal(2, [(0, 1, 0)]) == (
        "no reduction ordering: none of [0] shifts cleanly after [1]")
    # generators 0 and 1 shift cleanly but move each other's coordinates
    assert refusal(2, [(0, 0, 1), (1, 1, 0)]) == (
        "no reduction ordering: each of [0, 1] is moved by another's shift "
        "after []")


# ---- the one law: NilpotentGroup.law in any basis ----

def _law_value(law, m, n):
    """The law at rational (m, n), evaluated in integers on the numerators
    of (m, n) over their common denominator."""
    z = [F(x) for x in (*m, *n)]
    den = math.lcm(*(x.denominator for x in z))
    out = law([x.numerator * (den // x.denominator) for x in z], den)
    return tuple(F(c, law.over(den)) for c in out)


def _reference_reduce(symbolic, ordering, coords):
    """CosetReducer.reduce_state through the symbolic law: for each i in
    ordering, c := P(c, -floor(c_i) e_i)."""
    c, d = list(coords), len(coords)
    for i in ordering:
        k = math.floor(c[i])
        if k:
            c = list(law_at(symbolic, c, [-k * (j == i) for j in range(d)]))
    return tuple(c)


def test_the_law_in_any_basis_is_the_symbolic_law():
    # P(m, n) = L^-1 bch(L m, L n) on Hermite bases, dense bases that are
    # not their own Hermite basis, and bases with pairwise-coprime
    # denominators near 2^40, of algebras written in random bases: its
    # terms are the symbolic law's, its value at rational (m, n) and at an
    # integer n is the symbolic law's there, and the coset reducer, whose
    # every power of a generator is one evaluation at an integer n,
    # reduces as the symbolic law does
    rng = random.Random(3901)
    seen = {"hermite": 0, "dense": 0, "coprime": 0}
    for base, shears in product((heisenberg(), free_nilpotent_2_3(), filiform(4),
                                 filiform(5), abelian(3)), (0, 1, 2)):
        spec = random_change_of_basis(base, rng, shears)
        group = NilpotentGroup(spec)
        d = spec.dim
        dense = random_basis_matrix(d, rng, 3)
        bases = {"hermite": zspan_basis(dense), "dense": dense,
                 "coprime": coprime_scaling(d, rng) @ random_unimodular(d, rng)}
        for kind, basis in bases.items():
            assert _is_hermite(basis) == (kind == "hermite")
            lattice = LogLattice(basis)
            law = group.law(basis, lattice._inverse)
            # equal bases share one law
            assert group.law(QMatrix(basis.entries), basis.inverse()) is law
            symbolic = symbolic_law(group, lattice)
            assert law.count == 2 * d and len(law.terms) == d
            for terms, poly in zip(law.terms, symbolic.entries):
                full = {}
                for exps, c in terms:
                    key = [0] * (2 * d)
                    for i, e in exps:
                        key[i] = e
                    full[tuple(key)] = F(c, law.modulus)
                assert full == poly.terms
            for _ in range(4):
                m = [F(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(d)]
                n = [F(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(d)]
                k = [rng.randrange(-3, 4) for _ in range(d)]
                assert _law_value(law, m, n) == law_at(symbolic, m, n)
                assert _law_value(law, m, k) == law_at(symbolic, m, k)
            seen[kind] += 1
            try:
                reducer = CosetReducer(group, lattice)
            except ValueError:  # no reduction ordering on this basis
                continue
            for _ in range(3):
                x = [F(rng.randrange(-40, 41), rng.randrange(1, 9)) for _ in range(d)]
                u, den = reducer.reduce_state(reducer.state(x))
                assert tuple(F(a, den) for a in u) == _reference_reduce(
                    symbolic, reducer.ordering, lattice.to_coords(x))
            key = ("reduced", kind, spec.abelian())
            seen[key] = seen.get(key, 0) + 1
    # a re-based non-abelian algebra orders its generators only now and
    # then; a coprime basis of one never does here
    assert seen == {"hermite": 15, "dense": 15, "coprime": 15,
                    ("reduced", "hermite", False): 3, ("reduced", "dense", False): 3,
                    ("reduced", "hermite", True): 3, ("reduced", "dense", True): 3,
                    ("reduced", "coprime", True): 3}


def test_the_standard_law_is_the_law_without_a_basis():
    # law() is the law on the standard basis, memoized under None, and an
    # abelian law is m + n over 1 in any basis, with no product made
    rng = random.Random(3903)
    group = NilpotentGroup(random_change_of_basis(filiform(5), rng, 2))
    law = group.law()
    assert law is group.law()
    identity = QMatrix.identity(5)
    assert law.terms == group.law(identity, identity).terms
    assert law.modulus == group.law(identity, identity).modulus
    torus = NilpotentGroup(abelian(3))
    dense = random_basis_matrix(3, rng, 3)
    sum_law = torus.law(dense, dense.inverse())
    assert sum_law.modulus == 1
    assert sum_law.terms == [[(((k, 1),), 1), (((3 + k, 1),), 1)] for k in range(3)]
