"""Exact linear algebra: echelon forms, charpoly, HNF, cyclotomic spectra.

Characteristic polynomials are cross-checked against an independent cofactor
expansion of det(xI - M) carried out in the polynomial layer, and reduced
row echelon forms against a dense Gauss-Jordan elimination.
"""

import math
import random
from fractions import Fraction

import pytest

from conftest import coprime_scaling, jordan_block, random_basis_matrix
from nilaa import io as nio
from nilaa.poly import ParamVector, Poly, parse_poly
from nilaa.ratlin import (
    QMatrix, QSubspace, annihilator_basis, charpoly, column_hnf, cyclotomic,
    cyclotomic_spectrum_test, euler_phi, hnf_membership,
    NotUnipotent, integer_kernel, kernel_basis, matrix_exp_nilpotent, matrix_log_unipotent,
    minimal_rational_subspace, rref, solve_linear, unipotency_index, zspan_basis,
    _echelon, _int_qmatrix,
)

F = Fraction


def det_cofactor(rows):
    """Independent determinant oracle: first-row cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = rows[0][j] * det_cofactor(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def charpoly_oracle(matrix: QMatrix):
    """det(xI - M) expanded symbolically, low degree first."""
    x = Poly.variable("x", ("x",))
    n = matrix.nrows
    rows = [[(x if i == j else Poly.zero(("x",))) - Poly.constant(matrix[i, j], ("x",))
             for j in range(n)] for i in range(n)]
    det = det_cofactor(rows)
    return [det.coefficient((k,)) for k in range(n + 1)]


def rand_qmatrix(rng, n, lo=-4, hi=4, den=3):
    return QMatrix([[F(rng.randrange(lo, hi + 1), rng.randrange(1, den + 1))
                     for _ in range(n)] for _ in range(n)])


def test_rref_hand_example():
    reduced, pivots = rref([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert pivots == [0, 1]
    assert reduced[0] == [F(1), F(0), F(-1)]
    assert reduced[1] == [F(0), F(1), F(2)]


def rref_dense(rows):
    """Independent RREF oracle: dense Gauss-Jordan, every pivot row scaled
    and every other row cleared across all columns."""
    mat = [[F(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r:
                mat[i] = [a - mat[i][c] * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat, pivots


def test_rref_against_dense_gauss_jordan():
    rng = random.Random(47)
    cases = [[], [[0, 0, 0]], [[0], [0]], [[F(1, 2)]]]
    for _ in range(40):
        m, n = rng.randrange(1, 7), rng.randrange(1, 8)
        rows = [list(r) for r in sparse_qmatrix(rng, m, n).entries]
        if rng.random() < 0.5:  # a zero row and a dependent row
            rows.insert(rng.randrange(m + 1), [F(0)] * n)
            rows.append([a - 2 * b for a, b in zip(rows[0], rows[-1])])
        cases.append(rows)
    for n in (2, 3, 5):
        # [A | I] as in QMatrix.inverse, on lower triangular Hermite bases
        for _ in range(4):
            lower = [[F(rng.randrange(1, 4), rng.choice((1, 2, 12))) if i == j
                      else F(rng.randrange(0, 3)) if j < i else F(0)
                      for j in range(n)] for i in range(n)]
            cases.append(lower)
            cases.append([row + [F(int(i == j)) for j in range(n)]
                          for i, row in enumerate(lower)])
        a = rand_qmatrix(rng, n)
        cases.append([list(row) + [F(int(i == j)) for j in range(n)]
                      for i, row in enumerate(a.entries)])
    ranks = set()
    for rows in cases:
        reduced, pivots = rref(rows)
        assert (reduced, pivots) == rref_dense(rows)
        assert all(type(x) is F for row in reduced for x in row)
        ranks.add(len(rows) - len(pivots))
    assert len(ranks) >= 3  # full rank, and deficiencies of one and more


def test_inverse_against_the_identity():
    rng = random.Random(53)
    for n in (1, 2, 3, 4, 6):
        for m in (rand_qmatrix(rng, n), sparse_qmatrix(rng, n, n)):
            if m.det() == 0:
                with pytest.raises(ZeroDivisionError):
                    m.inverse()
                continue
            inv = m.inverse()
            assert m @ inv == QMatrix.identity(n) == inv @ m
    lower = QMatrix([[1, 0, 0], [F(1, 2), F(1, 2), 0], [3, 1, F(1, 12)]])
    assert lower @ lower.inverse() == QMatrix.identity(3)
    for singular in (QMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]]),
                     QMatrix([[0, 0], [0, 0]]), QMatrix([[1, 0], [0, 0]])):
        with pytest.raises(ZeroDivisionError):
            singular.inverse()


def test_kernel_basis_annihilates():
    m = QMatrix([[1, 2, 3], [4, 5, 6]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    assert m.matvec(basis[0]) == (0, 0)
    assert basis[0] == (F(1), F(-2), F(1))  # canonical: free variable set to 1


def test_solve_linear():
    m = QMatrix([[1, 1], [1, -1]])
    assert solve_linear(m, [3, 1]) == (F(2), F(1))
    singular = QMatrix([[1, 1], [2, 2]])
    assert solve_linear(singular, [1, 3]) is None
    assert solve_linear(singular, [1, 2]) is not None


def test_matrix_algebra_basics():
    a = QMatrix([[1, 2], [3, 4]])
    b = QMatrix([["1/2", 0], [1, 1]])
    assert (a @ b).entries == ((F(5, 2), F(2)), (F(11, 2), F(4)))
    assert (a + b - b) == a
    assert a ** 0 == QMatrix.identity(2)
    assert a ** 3 == a @ a @ a
    inv = a.inverse()
    assert a @ inv == QMatrix.identity(2)
    assert a ** (-2) == inv @ inv
    with pytest.raises(ZeroDivisionError):
        QMatrix([[1, 2], [2, 4]]).inverse()


def test_matrix_apply_to_param_vector():
    u = QMatrix([[1, 1], [0, 1]])
    v = ParamVector(("t",), [parse_poly("t", ("t",)), Poly.constant(F("1/2"), ("t",))])
    out = u.apply(v)
    assert out[0] == parse_poly("t + 1/2", ("t",))
    assert out[1] == Poly.constant(F("1/2"), ("t",))


def test_charpoly_against_cofactor_oracle():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        for _ in range(8):
            m = rand_qmatrix(rng, n)
            assert charpoly(m) == charpoly_oracle(m)


def test_det_and_trace():
    m = QMatrix([[2, 1, 0], [0, 3, 1], [1, 0, 1]])
    assert m.det() == det_cofactor([list(r) for r in m.entries])
    assert m.trace() == 6


def test_unipotency_index():
    assert unipotency_index(QMatrix.identity(3)) == 1
    jordan2 = QMatrix([[1, 1], [0, 1]])
    assert unipotency_index(jordan2) == 2
    jordan3 = QMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert unipotency_index(jordan3) == 3
    rotation = QMatrix([[0, -1], [1, 0]])
    assert unipotency_index(rotation) is None
    assert unipotency_index(QMatrix([[1, 0], [0, 2]])) is None


def sparse_qmatrix(rng, nrows, ncols):
    """Mostly zeros and ones, like structure tables and unipotent maps."""
    pool = [F(0)] * 5 + [F(1)] * 2 + [F(-1), F(2), F(-3, 2)]
    return QMatrix([[rng.choice(pool) for _ in range(ncols)]
                    for _ in range(nrows)])


def test_det_by_elimination_against_cofactor():
    rng = random.Random(31)
    cases = []
    for n in (1, 2, 3, 4, 5):
        for _ in range(6):
            cases.append(rand_qmatrix(rng, n))
            cases.append(sparse_qmatrix(rng, n, n))
    # zero leading pivots force row swaps; repeated or zero rows are singular
    cases += [QMatrix([[0, 1], [1, 0]]), QMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]]),
              QMatrix([[0, 2, 1], [3, 0, 0], [0, 0, F(1, 2)]]),
              QMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]]),
              QMatrix([[1, 2], [0, 0]]), QMatrix([[0, 0], [0, 5]])]
    for _ in range(10):
        m = rand_qmatrix(rng, 4)
        rows = list(m.entries)
        rows[3] = tuple(a - 2 * b for a, b in zip(rows[0], rows[1]))
        cases.append(QMatrix(rng.sample(rows, 4)))
    singular = 0
    for m in cases:
        expect = det_cofactor([list(r) for r in m.entries])
        assert m.det() == expect
        singular += expect == 0
    assert singular >= 13
    assert QMatrix([]).det() == 1
    with pytest.raises(ValueError):
        QMatrix([[1, 2, 3], [4, 5, 6]]).det()


def inverse_by_rref(m: QMatrix) -> QMatrix:
    """Elimination oracle: reduce [M | I]."""
    n = m.nrows
    reduced, pivots = rref([list(row) + [F(int(i == j)) for j in range(n)]
                            for i, row in enumerate(m.entries)])
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return QMatrix([row[n:] for row in reduced])


def det_by_echelon(m: QMatrix) -> Fraction:
    """Elimination oracle: the signed pivot product of the forward pass."""
    mat, pivots, sign = _echelon(m.entries)
    if len(pivots) < m.nrows:
        return F(0)
    return math.prod((mat[r][r] for r in range(m.nrows)), start=F(sign))


def assert_clean(m: QMatrix):
    """A result built without the QMatrix checks equals the checked one:
    its entries are tuples of Fractions, and the integer form it was
    built with is the one QMatrix() makes from those entries."""
    den, rows = m.int_rows()
    assert type(den) is int and den > 0
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    assert all(v and type(v) is int for row in rows for _, v in row)
    assert all([j for j, _ in row] == sorted({j for j, _ in row}) for row in rows)
    fresh = QMatrix(m.entries)
    assert type(m.entries) is tuple
    assert all(type(row) is tuple for row in m.entries)
    assert all(type(x) is F for row in m.entries for x in row)
    assert m.entries == fresh.entries and hash(m) == hash(fresh) and m == fresh
    assert m.int_rows() == fresh.int_rows()


def fraction_substitution_inverse(m: QMatrix) -> QMatrix:
    """The inverse of a triangular matrix by substitution on Fractions, as
    QMatrix.inverse solved it before it read the integer form: row i is
    (e_i - sum over j != i of M_ij X_j) / M_ii."""
    n = m.nrows
    order = m._substitution_order()
    if not all(m.entries[i][i] for i in range(n)):
        raise ZeroDivisionError("matrix is singular")
    inv = [None] * n
    for i in order:
        acc = {i: F(1)}
        for j, a in enumerate(m.entries[i]):
            if a and j != i:
                for k, b in inv[j].items():
                    acc[k] = acc.get(k, F(0)) - a * b
        inv[i] = {k: x / m.entries[i][i] for k, x in acc.items()}
    return QMatrix([[row.get(k, F(0)) for k in range(n)] for row in inv])


def random_shaped(rng, n, shape, zero_pivot=False):
    """A random n x n matrix: lower or upper triangular, diagonal or
    general; with zero_pivot one diagonal entry is 0."""
    k = rng.randrange(n)

    def entry(i, j):
        if i == j:
            return F(0) if zero_pivot and i == k else \
                F(rng.choice((1, 1, -1, 2, -3)), rng.choice((1, 1, 2, 5)))
        below = j < i
        if shape == "diagonal" or (shape == "lower" and not below) \
                or (shape == "upper" and below) or rng.random() < 0.4:
            return F(0)
        return F(rng.randrange(-3, 4), rng.choice((1, 1, 3)))
    return QMatrix([[entry(i, j) for j in range(n)] for i in range(n)])


def test_triangular_inverse_and_det_against_elimination():
    rng = random.Random(83)
    substituted = 0
    for n in range(1, 13):
        for shape in ("lower", "upper", "diagonal", "general"):
            for zero_pivot in (False, True):
                m = random_shaped(rng, n, shape, zero_pivot)
                if n % 3 == 0:  # denominators near 2^40, pairwise coprime
                    m = m @ coprime_scaling(n, rng)
                triangular = m._substitution_order() is not None
                assert triangular or shape == "general"
                substituted += triangular
                assert m.det() == det_by_echelon(m)
                try:
                    expect = inverse_by_rref(m)
                except ZeroDivisionError:
                    assert m.det() == 0
                    with pytest.raises(ZeroDivisionError):
                        m.inverse()
                    continue
                inv = m.inverse()
                if triangular:  # solved in integers: no entry is built before it is read
                    assert inv._entries is None
                assert inv == expect
                assert m @ inv == QMatrix.identity(n)
                assert_clean(inv)
                if triangular:
                    assert inv == fraction_substitution_inverse(m)
    assert substituted >= 3 * 12 * 2


def test_integer_form_is_canonical_and_builds_the_other_forms():
    rng = random.Random(97)
    for n in (1, 2, 3, 5):
        for m in (rand_qmatrix(rng, n), sparse_qmatrix(rng, n, n),
                  rand_qmatrix(rng, n) @ coprime_scaling(n, rng), QMatrix.zeros(n)):
            den, rows = m.int_rows()
            assert den == math.lcm(*(x.denominator for row in m.entries for x in row))
            assert rows == tuple(tuple((j, int(x * den)) for j, x in enumerate(row) if x)
                                 for row in m.entries)
            # a matrix given by its integer form builds its entries only
            # when they are read, and equals the one it came from either
            # way round
            lazy = _int_qmatrix(n, den, rows)
            assert lazy == m and m == lazy and lazy._entries is None
            assert lazy.entries == m.entries
            assert_clean(_int_qmatrix(n, den, rows))
            assert lazy.det() == m.det() == det_by_echelon(m)
            doubled = _int_qmatrix(n, den, tuple(tuple((j, 2 * v) for j, v in row)
                                                for row in rows))
            assert (doubled == m) == m.is_zero()
            # integer rows over any nonzero multiple of den, of either
            # sign, are made canonical
            for c in (3, -1, -6):
                scaled = _int_qmatrix(n, c * den, tuple(tuple((j, c * v) for j, v in row)
                                                       for row in rows))
                assert scaled.int_rows() == (den, rows)
                assert scaled == m and m == scaled


def test_module_results_equal_checked_matrices():
    rng = random.Random(89)
    for n in (1, 2, 4, 7):
        a, b = sparse_qmatrix(rng, n, n), rand_qmatrix(rng, n)
        for m in (QMatrix.identity(n), QMatrix.zeros(n), a @ b, a + b, a - b,
                  -a, a.scale(F(-2, 3)), a.scale(3), a ** 3,
                  QMatrix.from_columns(b.entries),
                  matrix_exp_nilpotent(QMatrix([[F(int(j > i)) for j in range(n)]
                                                for i in range(n)]))):
            assert_clean(m)
    for n in (0, 1, 3):
        assert_clean(QMatrix.identity(n))
        assert_clean(QMatrix.zeros(n))
        assert QMatrix.identity(n).int_rows() == (1, tuple(((i, 1),) for i in range(n)))
        assert QMatrix.zeros(n).int_rows() == (1, ((),) * n)
    assert QMatrix.from_columns([[1, 2], [3, 4]]) == QMatrix([[1, 3], [2, 4]])
    with pytest.raises(ValueError):
        QMatrix.from_columns([[1, 2], [3]])


def det_dense(rows) -> Fraction:
    """Dense determinant oracle: elimination with row swaps on Fractions."""
    mat = [[F(x) for x in row] for row in rows]
    n, det = len(mat), F(1)
    for c in range(n):
        p = next((i for i in range(c, n) if mat[i][c]), None)
        if p is None:
            return F(0)
        if p != c:
            mat[c], mat[p] = mat[p], mat[c]
            det = -det
        det *= mat[c][c]
        for i in range(c + 1, n):
            f = mat[i][c] / mat[c][c]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return det


def single_form_cases(rng):
    """(rows, matrix) pairs: 0x0, identity, zero, lower, upper and general
    shapes, with small denominators or pairwise coprime ones near 2^40."""
    cases = [(rows, QMatrix(rows)) for rows in ([], [[F(1, 2)]], [[F(3), F(-1)], [F(0), F(2)]])]
    for n in (1, 2, 3, 5, 7):
        for shape in ("identity", "zero", "lower", "upper", "general"):
            for big in (False, True):
                scaling = coprime_scaling(n, rng)
                dens = [scaling[i, i].denominator for i in range(n)] if big else (1, 1, 2, 3)

                def entry(i, j):
                    if shape == "identity":
                        return F(int(i == j))
                    if shape == "zero" or (shape == "lower" and j > i) \
                            or (shape == "upper" and j < i) \
                            or (i != j or shape == "general") and rng.random() < 0.4:
                        return F(0)
                    return F(rng.choice((1, -1, 2, -3, 7)), rng.choice(dens))
                rows = [[entry(i, j) for j in range(n)] for i in range(n)]
                cases.append((rows, QMatrix(rows)))
    return cases


def test_the_single_form_against_dense_fractions():
    """Every operation of a QMatrix, read from its integer form, against
    the same operation on the dense Fraction rows it was built from."""
    rng = random.Random(1013)
    params = ("t",)
    for rows, m in single_form_cases(rng):
        n = len(rows)
        assert m.shape == (n, n) and m.entries == tuple(map(tuple, rows))
        assert_clean(m)
        other = [[F(rng.randrange(-3, 4), rng.choice((1, 2, 5))) for _ in range(n + 1)]
                 for _ in range(n)]
        product = m @ QMatrix(other)
        assert product.entries == tuple(
            tuple(sum((rows[i][k] * other[k][j] for k in range(n)), F(0))
                  for j in range(n + 1)) for i in range(n))
        assert_clean(product)
        vec = [F(rng.randrange(-9, 10), rng.choice((1, 3, 4))) for _ in range(n)]
        assert m.matvec(vec) == tuple(sum((a * x for a, x in zip(row, vec)), F(0))
                                      for row in rows)
        polys = ParamVector(params, [parse_poly(f"{rng.randrange(-3, 4)} + {x}*t", params)
                                     for x in vec])
        assert m.apply(polys) == ParamVector(params, [
            sum((p * a for a, p in zip(row, polys.entries)), Poly.zero(params))
            for row in rows])
        shifted = [[x + F(i - j, 3) for j, x in enumerate(row)] for i, row in enumerate(rows)]
        for got, expect in ((m + QMatrix(shifted), [[a + b for a, b in zip(r, t)]
                                                    for r, t in zip(rows, shifted)]),
                            (m - QMatrix(shifted), [[a - b for a, b in zip(r, t)]
                                                    for r, t in zip(rows, shifted)]),
                            (-m, [[-a for a in r] for r in rows]),
                            *((m.scale(c), [[c * a for a in r] for r in rows])
                              for c in (0, 1, F(-2, 3), 5))):
            assert got.entries == tuple(map(tuple, expect))
            assert_clean(got)
        assert m.trace() == sum((rows[i][i] for i in range(n)), F(0))
        assert m.is_zero() == all(not x for row in rows for x in row)
        assert m.is_integral() == all(x.denominator == 1 for row in rows for x in row)
        twin = QMatrix([[F(x.numerator * 3, x.denominator * 3) for x in row] for row in rows])
        assert m == twin and hash(m) == hash(twin)
        if n:
            bumped = QMatrix([[x + (i == j == n - 1) for j, x in enumerate(row)]
                              for i, row in enumerate(rows)])
            assert m != bumped
        assert m.det() == det_dense(rows)
        reduced, pivots = rref_dense([row + [F(int(i == j)) for j in range(n)]
                                      for i, row in enumerate(rows)])
        if pivots[:n] != list(range(n)):
            assert m.det() == 0
            with pytest.raises(ZeroDivisionError):
                m.inverse()
            continue
        inv = m.inverse()
        assert inv.entries == tuple(tuple(row[n:]) for row in reduced)
        assert_clean(inv)


def test_loaded_matrices_have_the_checked_integer_form():
    """io._parse_matrix builds the integer form from the literals it reads;
    it is the one QMatrix makes from the same rationals."""
    rng = random.Random(1019)
    literals = ("0", "1", "-1/2", " 3 ", "-0", "0/4", "2/4", " -7/3", "1 ", 0, 1, -5,
                "1/1099511627791", "-3/1099511627793")
    for n in (0, 1, 2, 3, 6):
        for transpose in (False, True):
            for _ in range(12):
                grid = [[rng.choice(literals) for _ in range(n)] for _ in range(n)]
                rows = [[nio.parse_rational(v, "m") for v in row] for row in grid]
                if transpose:
                    rows = [list(col) for col in zip(*rows)]
                loaded = nio._parse_matrix(grid, n, "m", transpose)
                checked = QMatrix(rows)
                assert loaded.int_rows() == checked.int_rows()
                assert loaded == checked and loaded.entries == checked.entries
                assert_clean(loaded)


def unipotency_oracle(matrix: QMatrix):
    """charpoly == (x - 1)^n, then the least k with (M - I)^k = 0."""
    n = matrix.nrows
    if charpoly(matrix) != [F((-1) ** (n - k) * math.comb(n, k))
                            for k in range(n + 1)]:
        return None
    N = [[matrix[i, j] - (i == j) for j in range(n)] for i in range(n)]
    power = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    k = 0
    while any(any(row) for row in power):
        power = [[sum((power[i][m] * N[m][j] for m in range(n)), F(0))
                  for j in range(n)] for i in range(n)]
        k += 1
    return k


def jordan_unipotent(sizes):
    n = sum(sizes)
    rows = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    start = 0
    for size in sizes:
        for i in range(start, start + size - 1):
            rows[i][i + 1] = F(1)
        start += size
    return QMatrix(rows)


def test_unipotency_index_against_charpoly_oracle():
    rng = random.Random(37)
    checked = {None: 0, "unipotent": 0}
    for _ in range(40):
        n = rng.randrange(1, 6)
        sizes = []
        while sum(sizes) < n:
            sizes.append(rng.randrange(1, n - sum(sizes) + 1))
        while True:
            p = rand_qmatrix(rng, n)
            if p.det():
                break
        u = p @ jordan_unipotent(sizes) @ p.inverse()
        assert unipotency_index(u) == unipotency_oracle(u) == max(sizes)
        checked["unipotent"] += 1
    # not unipotent: (M - I)^n != 0, with and without trace(M - I) = 0
    others = [QMatrix([[2, 0], [0, 0]]), QMatrix([[0, -1], [1, 0]]),
              QMatrix([[1, 1, 0], [0, 2, 0], [0, 0, 0]]),
              QMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]]) @ jordan_unipotent([3])]
    others += [rand_qmatrix(rng, rng.randrange(1, 6)) for _ in range(30)]
    for m in others:
        expect = unipotency_oracle(m)
        assert unipotency_index(m) == expect
        checked[None] += expect is None
    assert checked == {None: 33, "unipotent": 40}


def test_log_unipotent_roundtrip_on_conjugated_jordan_forms():
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randrange(1, 6)
        sizes = []
        while sum(sizes) < n:
            sizes.append(rng.randrange(1, n - sum(sizes) + 1))
        while True:
            p = rand_qmatrix(rng, n)
            if p.det():
                break
        u = p @ jordan_unipotent(sizes) @ p.inverse()
        assert matrix_exp_nilpotent(matrix_log_unipotent(u)) == u


def test_log_unipotent_rejects_other_matrices():
    # with and without trace(M - I) = 0
    others = [QMatrix([[2, 0], [0, 0]]), QMatrix([[0, -1], [1, 0]]),
              QMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]]) @ jordan_unipotent([3]),
              QMatrix([[1, 2]])]
    rng = random.Random(59)
    others += [m for m in (rand_qmatrix(rng, rng.randrange(1, 6))
                           for _ in range(10)) if unipotency_oracle(m) is None]
    for m in others:
        with pytest.raises(ValueError):
            matrix_log_unipotent(m)


def test_sparse_matmul_against_dense_triple_loop():
    rng = random.Random(41)
    for _ in range(60):
        n, k, m = (rng.randrange(1, 6) for _ in range(3))
        a, b = sparse_qmatrix(rng, n, k), sparse_qmatrix(rng, k, m)
        expect = [[sum((a[i, t] * b[t, j] for t in range(k)), F(0))
                   for j in range(m)] for i in range(n)]
        assert (a @ b).entries == tuple(tuple(row) for row in expect)
    a = rand_qmatrix(rng, 3)
    assert (a @ QMatrix.identity(3)) == a == (QMatrix.identity(3) @ a)
    assert (a @ QMatrix.zeros(3)).is_zero()
    with pytest.raises(ValueError):
        QMatrix([[1, 2]]) @ QMatrix([[1, 2]])


def test_exp_log_unipotent_roundtrip():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randrange(2, 5)
        nil = QMatrix([[F(rng.randrange(-3, 4)) if j > i else F(0)
                        for j in range(n)] for i in range(n)])
        u = matrix_exp_nilpotent(nil)
        assert unipotency_index(u) is not None
        assert matrix_log_unipotent(u) == nil
    with pytest.raises(ValueError):
        matrix_exp_nilpotent(QMatrix([[1, 0], [0, 1]]))
    with pytest.raises(ValueError):
        matrix_log_unipotent(QMatrix([[2, 0], [0, 1]]))


def dense_mul(a, b):
    return [[sum((x * b[t][j] for t, x in enumerate(row) if x), F(0))
             for j in range(len(b[0]))] for row in a]


def dense_eye(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def dense_series_oracles(matrix: QMatrix):
    """The dense Fraction loops the series are checked against: the least k
    with (M - I)^k = 0 (None past n), the Mercator log of M, and the exp
    series of M itself (None where the loops find no vanishing power)."""
    n = matrix.nrows
    m = [list(row) for row in matrix.entries]
    N = [[m[i][j] - (i == j) for j in range(n)] for i in range(n)]
    index, power = None, dense_eye(n)
    for k in range(n + 1):
        if not any(any(row) for row in power):
            index = k
            break
        power = dense_mul(power, N)
    log = None
    if index is not None:
        log, power = [[F(0)] * n for _ in range(n)], N
        for k in range(1, n + 1):
            c = F((-1) ** (k + 1), k)
            log = [[x + c * y for x, y in zip(r, p)] for r, p in zip(log, power)]
            power = dense_mul(power, N)
    exp, term = dense_eye(n), dense_eye(n)
    for k in range(1, n + 1):
        term = [[x / k for x in row] for row in dense_mul(term, m)]
        exp = [[x + y for x, y in zip(r, t)] for r, t in zip(exp, term)]
    if any(any(row) for row in dense_mul(term, m)):
        exp = None
    return index, log, exp


def check_series_against_oracles(matrix: QMatrix):
    index, log, exp = dense_series_oracles(matrix)
    assert unipotency_index(matrix) == index
    if index is None:
        with pytest.raises(NotUnipotent):
            matrix_log_unipotent(matrix)
    else:
        assert matrix_log_unipotent(matrix).entries == tuple(map(tuple, log))
    if exp is None:
        with pytest.raises(ValueError, match="not nilpotent"):
            matrix_exp_nilpotent(matrix)
    else:
        assert matrix_exp_nilpotent(matrix).entries == tuple(map(tuple, exp))
    return index


def strictly_upper(n, entry):
    return QMatrix([[entry() if j > i else F(0) for j in range(n)]
                    for i in range(n)])


def test_series_match_dense_oracles_in_random_bases():
    rng = random.Random(61)
    indices = set()
    for _ in range(40):
        n = rng.randrange(1, 8)
        p = random_basis_matrix(n, rng)
        nil = p @ strictly_upper(n, lambda: F(rng.choice((0, 0, 1, -1, 2)),
                                              rng.choice((1, 2, 3)))) @ p.inverse()
        check_series_against_oracles(nil)
        u = matrix_exp_nilpotent(nil)
        indices.add(check_series_against_oracles(u))
        assert matrix_log_unipotent(u) == nil
    assert {1, 2, 3, 4} <= indices


def test_series_on_jordan_blocks_zero_and_identity():
    for d in range(1, 13):
        j = jordan_block(d)
        assert check_series_against_oracles(j) == d
        shift = j - QMatrix.identity(d)
        assert check_series_against_oracles(shift) is None
        assert matrix_log_unipotent(matrix_exp_nilpotent(shift)) == shift
        assert check_series_against_oracles(QMatrix.identity(d)) == 1
        assert check_series_against_oracles(QMatrix.zeros(d)) is None
        assert matrix_exp_nilpotent(QMatrix.zeros(d)) == QMatrix.identity(d)
        assert matrix_log_unipotent(QMatrix.identity(d)).is_zero()
    empty = QMatrix([])
    assert unipotency_index(empty) == 0
    assert matrix_exp_nilpotent(empty) == empty == matrix_log_unipotent(empty)


def test_series_on_filiform_scaled_entries():
    # exp(ad e_1) of the standard filiform algebra, in a lattice basis that
    # scales e_k by 60^-(k-1): entry (i, j) picks up 60^-(i-j)
    for n in range(2, 9):
        scale = [F(1, 60 ** k) for k in range(n)]
        shift = QMatrix([[scale[i] / scale[j] if i == j + 1 else F(0)
                          for j in range(n)] for i in range(n)])
        u = matrix_exp_nilpotent(shift)
        assert u[n - 1, 0] == F(1, 60 ** (n - 1) * math.factorial(n - 1))
        assert check_series_against_oracles(u) == n
        assert matrix_log_unipotent(u) == shift


def coprime_denominators(count, start=2 ** 40):
    dens = []
    q = start
    while len(dens) < count:
        if all(math.gcd(q, r) == 1 for r in dens):
            dens.append(q)
        q += 1
    return dens


def test_series_on_large_coprime_denominators():
    dens = coprime_denominators(12)
    assert all(math.gcd(a, b) == 1 for a in dens for b in dens if a < b)
    rng = random.Random(67)
    for n in (5, 6):
        cells = sorted(((i, j) for i in range(n) for j in range(i + 1, n)),
                       key=lambda c: c[1] - c[0])   # superdiagonal first
        for _ in range(3):
            picks = iter(rng.sample(dens, len(dens)))
            rows = [[F(0)] * n for _ in range(n)]
            for i, j in cells[:12]:
                rows[i][j] = F(rng.choice((1, -1)) * rng.randrange(1, 2 ** 40),
                               next(picks))
            nil = QMatrix(rows)
            assert check_series_against_oracles(nil) is None
            u = matrix_exp_nilpotent(nil)
            assert check_series_against_oracles(u) == n
            assert matrix_log_unipotent(u) == nil


def test_series_rejections():
    for bad in (QMatrix([[1, 2]]), QMatrix([[1, 0], [0, 1], [0, 0]])):
        for series in (unipotency_index, matrix_exp_nilpotent, matrix_log_unipotent):
            with pytest.raises(ValueError):
                series(bad)
    with pytest.raises(ValueError, match=r"shape mismatch \(1, 2\) vs \(1, 1\)"):
        matrix_log_unipotent(QMatrix([[1, 2]]))
    # trace(M - I) = 0 but not unipotent, so only the powers can tell
    p = random_basis_matrix(3, random.Random(71))
    for m in (QMatrix([[2, 0], [0, 0]]), QMatrix([[1, 1], [-1, 1]]),
              p @ QMatrix([[3, 0, 0], [0, 1, 0], [0, 0, -1]]) @ p.inverse()):
        assert (m - QMatrix.identity(m.nrows)).trace() == 0
        assert unipotency_index(m) is None
        with pytest.raises(NotUnipotent, match="eigenvalue other than 1"):
            matrix_log_unipotent(m)
    for m in (QMatrix([[1, -1], [1, -1]]) + QMatrix([[0, 1], [0, 0]]),
              QMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])):
        assert m.trace() == 0
        with pytest.raises(ValueError, match="not nilpotent"):
            matrix_exp_nilpotent(m)


def test_qsubspace_membership_and_canonical_basis():
    s = QSubspace.from_spanning([(1, 2, 0), (0, 0, 3), (1, 2, 3)], 3)
    assert s.dim == 2
    assert s.basis == ((F(1), F(2), F(0)), (F(0), F(0), F(1)))
    assert s.contains((2, 4, 7))
    assert not s.contains((1, 0, 0))
    t = QSubspace.from_spanning([(1, 0, 0)], 3)
    assert s.sum_with(t).dim == 3
    u = QSubspace.from_spanning([(1, 2, 5), (0, 0, 1)], 3)
    assert s == u  # same space, different spanning sets


def test_annihilator_basis():
    cov = annihilator_basis([(1, 0, 1), (0, 1, 0)], 3)
    assert len(cov) == 1
    phi = cov[0]
    assert sum(a * b for a, b in zip(phi, (1, 0, 1))) == 0
    assert sum(a * b for a, b in zip(phi, (0, 1, 0))) == 0
    assert annihilator_basis([], 2) == [(1, 0), (0, 1)]


def test_minimal_rational_subspace():
    params = ("t", "s")
    v = ParamVector(params, [parse_poly("t", params),
                             parse_poly("2*t", params),
                             Poly.constant(F("1/2"), params)])
    span = minimal_rational_subspace(v)
    assert span.dim == 2
    assert span.contains((1, 2, 0))
    assert span.contains((0, 0, 1))
    assert not span.contains((1, 0, 0))
    # every rational specialization lands inside the span
    for t in (F(0), F(1), F("-3/7")):
        assert span.contains(v.substitute({"t": t, "s": 0}))


def test_column_hnf_properties():
    rng = random.Random(13)
    for _ in range(25):
        n, m = rng.randrange(1, 5), rng.randrange(1, 5)
        cols = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)]
        H, U = column_hnf([list(c) for c in cols], n)
        # unimodularity of U
        assert abs(det_cofactor([[F(U[j][i]) for j in range(m)] for i in range(m)])) == 1
        # H = A U column by column
        for j in range(m):
            combo = [sum(cols[k][i] * U[j][k] for k in range(m)) for i in range(n)]
            assert combo == H[j]


def test_hnf_membership_hand_examples():
    gens = [(2, 0), (0, 2), (1, 1)]
    ok, coords = hnf_membership(gens, (1, 1))
    assert ok
    assert coords is not None
    recon = [sum(c * g[i] for c, g in zip(coords, gens)) for i in range(2)]
    assert recon == [1, 1]
    assert hnf_membership(gens, (1, 0)) == (False, None)
    ok, coords = hnf_membership(gens, (3, 1))
    assert ok
    recon = [sum(c * g[i] for c, g in zip(coords, gens)) for i in range(2)]
    assert recon == [3, 1]
    # rational generators
    ok, coords = hnf_membership([("1/2", 0), (0, 1)], ("3/2", -2))
    assert ok and coords == (3, -2)
    assert hnf_membership([("1/2", 0)], ("1/3", 0)) == (False, None)
    assert hnf_membership([], (0, 0)) == (True, ())
    assert hnf_membership([], (1, 0)) == (False, None)


def test_hnf_membership_randomized_roundtrip():
    rng = random.Random(17)
    for _ in range(50):
        n, m = rng.randrange(1, 4), rng.randrange(1, 5)
        gens = [tuple(rng.randrange(-5, 6) for _ in range(n)) for _ in range(m)]
        coeffs = [rng.randrange(-4, 5) for _ in range(m)]
        target = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n))
        ok, coords = hnf_membership(gens, target)
        assert ok
        recon = tuple(sum(c * g[i] for c, g in zip(coords, gens)) for i in range(n))
        assert recon == target


def test_zspan_basis():
    basis = zspan_basis([(2, 0), (3, 0)], 2)
    assert basis == [(F(1), F(0))]
    basis = zspan_basis([("1/2", 0), (0, 1), (0, 0)], 2)
    assert basis == [(F(1, 2), F(0)), (F(0), F(1))]
    assert zspan_basis([], 2) == []


def test_integer_kernel():
    m = QMatrix([[1, 2, 3]])
    basis = integer_kernel(m)
    assert len(basis) == 2
    for v in basis:
        assert m.matvec(v) == (0,)
        assert all(isinstance(x, int) for x in v)
    # the known kernel vector (1,1,-1) must be an integer combination
    ok, _ = hnf_membership(basis, (1, 1, -1))
    assert ok
    # saturation: (0,3,-2) is in the kernel and must be reachable
    ok, _ = hnf_membership(basis, (0, 3, -2))
    assert ok
    assert integer_kernel(QMatrix.identity(2)) == []


def test_integer_kernel_rational_entries():
    m = QMatrix([["1/2", "1/3"]])
    basis = integer_kernel(m)
    assert len(basis) == 1
    assert m.matvec(basis[0]) == (0,)
    ok, _ = hnf_membership(basis, (2, -3))
    assert ok


def per_row_integer_kernel(matrix):
    """The integer kernel by clearing the denominators of each row of the
    Fraction entries on its own, then one column Hermite normal form."""
    rows = []
    for row in matrix.entries:
        d = math.lcm(*(x.denominator for x in row))
        rows.append([int(x * d) for x in row])
    m = matrix.ncols
    cols = [[rows[i][j] for i in range(len(rows))] for j in range(m)]
    H, U = column_hnf(cols, len(rows))
    return [tuple(U[j]) for j in range(m) if not any(H[j])]


def test_integer_kernel_is_the_per_row_basis():
    # the integer form scales every row by one positive denominator, the
    # per-row routine each row by its own: the bases are the same vectors
    rng = random.Random(803)
    kinds = set()
    for trial in range(60):
        n, m = rng.randrange(1, 5), rng.randrange(1, 7)
        rows = [[F(rng.randrange(-4, 5), rng.randrange(1, 7)) if rng.random() < 0.7
                 else F(0) for _ in range(m)] for _ in range(n)]
        if trial % 3 == 0:  # a repeated row: rank below n
            rows.append(list(rows[0]))
        matrix = QMatrix(rows)
        if trial % 2:  # rows scaled by denominators near 2^40
            matrix = coprime_scaling(matrix.nrows, rng) @ matrix
        basis = integer_kernel(matrix)
        assert basis == per_row_integer_kernel(matrix)
        for v in basis:
            assert not any(matrix.matvec(v))
        kinds.add((len(basis) > 0, trial % 2))
    assert integer_kernel(QMatrix.zeros(2)) == per_row_integer_kernel(
        QMatrix.zeros(2)) == [(1, 0), (0, 1)]
    assert len(kinds) == 4


def test_euler_phi():
    known = {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4, 105: 48}
    for m, val in known.items():
        assert euler_phi(m) == val


def test_cyclotomic_known_polynomials():
    assert cyclotomic(1) == (F(-1), F(1))
    assert cyclotomic(2) == (F(1), F(1))
    assert cyclotomic(4) == (F(1), F(0), F(1))
    assert cyclotomic(6) == (F(1), F(-1), F(1))
    assert cyclotomic(12) == (F(1), F(0), F(-1), F(0), F(1))
    # first index with a coefficient of magnitude 2
    assert cyclotomic(105)[7] == -2


def test_cyclotomic_product_identity():
    # prod over divisors d of m of Phi_d equals x^m - 1
    for m in (1, 2, 6, 12, 15):
        prod = Poly.constant(1, ("x",))
        for d in range(1, m + 1):
            if m % d == 0:
                phi = cyclotomic(d)
                prod = prod * Poly(("x",), {(k,): c
                                            for k, c in enumerate(phi)})
        expect = Poly(("x",), {(m,): 1}) - Poly.constant(1, ("x",))
        assert prod == expect


def test_cyclotomic_spectrum_test():
    # (x-1)^2 (x+1): all roots of unity, lcm order 2
    coeffs = charpoly(QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, -1]]))
    res = cyclotomic_spectrum_test(coeffs)
    assert res.all_roots_of_unity
    assert res.orders == {1: 2, 2: 1}
    assert res.lcm_order == 2

    res = cyclotomic_spectrum_test([1, 1, 1])  # x^2 + x + 1
    assert res.all_roots_of_unity and res.orders == {3: 1} and res.lcm_order == 3

    res = cyclotomic_spectrum_test([-1, -1, 1])  # x^2 - x - 1, golden ratio
    assert not res.all_roots_of_unity
    assert res.obstruction == (F(-1), F(-1), F(1))

    res = cyclotomic_spectrum_test([-2, 1])  # x - 2
    assert not res.all_roots_of_unity and res.obstruction == (F(-2), F(1))

    res = cyclotomic_spectrum_test([0, 1])  # x: eigenvalue 0
    assert not res.all_roots_of_unity

    # permutation 3-cycle: orders 1 and 3
    perm = QMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    res = cyclotomic_spectrum_test(charpoly(perm))
    assert res.all_roots_of_unity and res.orders == {1: 1, 3: 1} and res.lcm_order == 3

    with pytest.raises(ValueError):
        cyclotomic_spectrum_test([1, 2])  # not monic
