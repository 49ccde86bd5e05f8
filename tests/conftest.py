"""Shared fixtures: small reference algebras and matrices."""

import math
from fractions import Fraction

import pytest

from nilaa.nilalg import LieAlgebraSpec
from nilaa.ratlin import QMatrix


def heisenberg() -> LieAlgebraSpec:
    """dim 3, [x1, x2] = x3."""
    return LieAlgebraSpec.from_sparse(3, [(1, 2, 3, 1)])


def free_nilpotent_2_3() -> LieAlgebraSpec:
    """Free 2-generator class-3 algebra on the Hall basis x1..x5:
    [x1,x2]=x3, [x1,x3]=x4, [x2,x3]=x5."""
    return LieAlgebraSpec.from_sparse(5, [(1, 2, 3, 1), (1, 3, 4, 1), (2, 3, 5, 1)])


def abelian(dim: int) -> LieAlgebraSpec:
    return LieAlgebraSpec(dim, {})


def jordan_block(n: int) -> QMatrix:
    return QMatrix([[Fraction(int(j == i or j == i + 1)) for j in range(n)]
                    for i in range(n)])


@pytest.fixture
def heis():
    return heisenberg()


@pytest.fixture
def free23():
    return free_nilpotent_2_3()


def filiform(total_dim: int) -> LieAlgebraSpec:
    """Basis delta, v1..v_n: [delta, v_i] = v_{i+1}; class total_dim - 1."""
    return LieAlgebraSpec.from_sparse(
        total_dim, [(1, i, i + 1, 1) for i in range(2, total_dim)])


def q6() -> LieAlgebraSpec:
    """Class 5 on e1..e6: filiform(6) with [e2, e5] = e6 and [e3, e4] = -e6,
    which makes the derived algebra nonabelian."""
    return LieAlgebraSpec.from_sparse(6, [(1, 2, 3, 1), (1, 3, 4, 1), (1, 4, 5, 1),
                                          (1, 5, 6, 1), (2, 5, 6, 1), (3, 4, 6, -1)])


def random_basis_matrix(d: int, rng, shears: int = 4) -> QMatrix:
    """A random permutation and nonzero scaling of the identity with
    `shears` random elementary column operations added."""
    rows = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for _ in range(shears if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        c = Fraction(rng.choice((1, -1, 2)), rng.choice((1, 3)))
        for row in rows:
            row[j] += c * row[i]
    rng.shuffle(rows)
    scale = [Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 2))) for _ in range(d)]
    return QMatrix([[x * s for x, s in zip(row, scale)] for row in rows])


def random_unimodular(d: int, rng, ops: int = 6) -> QMatrix:
    """A random integer matrix of determinant +-1: `ops` random integer
    column operations on the identity, then a row permutation."""
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(ops if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in rows:
            row[j] += c * row[i]
    rng.shuffle(rows)
    return QMatrix(rows)


def change_of_basis(spec: LieAlgebraSpec, p: QMatrix) -> LieAlgebraSpec:
    """The same algebra in the basis P e_1, ..., P e_d: a vector with
    coordinates y here has coordinates P y in spec."""
    d = spec.dim
    p_inv = p.inverse()
    cols = p.columns()
    table = {(i, j): p_inv.matvec(spec.bracket_vec(cols[i], cols[j]))
             for i in range(d) for j in range(i + 1, d)}
    return LieAlgebraSpec(d, table)


def random_change_of_basis(spec: LieAlgebraSpec, rng, shears: int = 4) -> LieAlgebraSpec:
    """The same algebra in a random_basis_matrix basis, so the table is
    denser than spec's."""
    return change_of_basis(spec, random_basis_matrix(spec.dim, rng, shears))


def coprime_scaling(d: int, rng) -> QMatrix:
    """A diagonal matrix of signed fractions n_i / m_i whose denominators
    m_i are pairwise coprime and near 2^40, so that the lcm of a few of
    them, the denominator of an integer form, has hundreds of bits."""
    dens: list = []
    m = 2 ** 40 + rng.randrange(1, 2 ** 20)
    while len(dens) < d:
        if all(math.gcd(m, x) == 1 for x in dens):
            dens.append(m)
        m += 1
    return QMatrix([[Fraction(rng.choice((1, -1)) * rng.randrange(1, 5), dens[i])
                     if i == j else 0 for j in range(d)] for i in range(d)])
