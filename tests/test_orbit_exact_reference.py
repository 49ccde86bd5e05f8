"""The orbit oracle's integer primitives against a Fraction reference.

NumericAffine runs reduce, step, near and distance, and iterate walks both
ways (T^-1 is the map's _inverse), on lattice states: integer numerators
over one denominator, and the group law in lattice coordinates.  The reference below is written from the
definitions alone, in Fractions: the Baker-Campbell-Hausdorff series to
degree 4 on the algebra's brackets, the coset reduction by integer powers
of the generators in the reducer's order, and the distance as the least
max-norm of x - y * gamma over the lattice element gamma nearest to y^-1 x
and its {-1,0,1}^d neighbours.  Every answer must be the reference's,
exactly: ties of the nearest translate at lattice coordinates of +-1/2
and distances equal to eps included.
"""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from conftest import filiform, free_nilpotent_2_3, heisenberg
from nilaa import io as nio
from nilaa.criteria import make_system
from nilaa.nilalg import LieAlgebraSpec
from nilaa.orbit import NumericAffine, _round, iterate
from nilaa.ratlin import QMatrix


def bch(spec, x, y):
    """log(exp x exp y) on an algebra of class <= 4: X + Y + [X,Y]/2 +
    ([X,[X,Y]] - [Y,[X,Y]])/12 - [Y,[X,[X,Y]]]/24."""
    br = spec.bracket_vec
    xy = br(x, y)
    xxy, yxy = br(x, xy), br(y, xy)
    yxxy = br(y, xxy)
    return tuple(a + b + c / 2 + (p - q) / 12 - r / 24
                 for a, b, c, p, q, r in zip(x, y, xy, xxy, yxy, yxxy))


def neg(x):
    return tuple(-a for a in x)


def ref_reduce(m, x):
    """Clear the lattice coordinates in the reducer's order by right
    multiplication with integer powers of the generators."""
    spec, lattice = m.group.spec, m.lattice
    x = tuple(F(a) for a in x)
    for i in m._reducer.ordering:
        k = math.floor(lattice.to_coords(x)[i])
        x = bch(spec, x, tuple(-k * g for g in lattice.generator(i)))
    assert all(0 <= c < 1 for c in lattice.to_coords(x))
    return x


def ref_step(m, x):
    return ref_reduce(m, bch(m.group.spec, m.translation, m.matrix.matvec(x)))


def ref_step_back(m, x):
    return ref_reduce(m, m.matrix.inverse().matvec(
        bch(m.group.spec, neg(m.translation), x)))


def ref_jump(m, x, k):
    return ref_reduce(m, bch(m.group.spec, tuple(k * a for a in m.translation), x))


def ref_distance(m, x, y):
    """min over gamma = nearest + e, e in {-1,0,1}^d (e = 0 on a torus), of
    max |x - y * gamma|; round() takes a tie at 1/2 to the even integer."""
    spec, lattice = m.group.spec, m.lattice
    nearest = [round(c) for c in lattice.to_coords(bch(spec, neg(y), x))]
    moves = [(0,) * m.dim] if spec.abelian() else \
        itertools.product((-1, 0, 1), repeat=m.dim)
    return min(max(abs(a - b) for a, b in zip(x, bch(spec, y, lattice.from_coords(
        [n + e for n, e in zip(nearest, move)])))) for move in moves)


HEIS_DIAG = QMatrix([[1, 0, 0], [0, 1, 0], [0, 0, F(1, 2)]])
# a lower triangular basis that is its own Hermite basis, not diagonal
HEIS_HERMITE = QMatrix([[1, 0, 0], [0, 1, 0], [F(1, 4), 0, F(1, 2)]])
SHEAR3 = QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
# e1 -> e1 + e2, which maps the generator e1 + e3/4 of HEIS_HERMITE to
# the sum of it and e2
LOWER_SHEAR3 = QMatrix([[1, 0, 0], [1, 1, 0], [0, 0, 1]])


def filiform_system(n, shear):
    """filiform(n), class n - 1, on the lattice that scales e_k by
    60^-(k-2) for k >= 3, with U = exp(ad e_1) or the identity."""
    lattice = QMatrix([[F(1, 60 ** (i - 1)) if i == j and i >= 2 else int(i == j)
                        for j in range(n)] for i in range(n)])
    u = None
    if shear:
        u = QMatrix([[F(1, math.factorial(i - j)) if i >= j >= 1 else int(i == j)
                      for j in range(n)] for i in range(n)])
    return make_system(filiform(n), lattice=lattice, automorphism=u)


def free23_system(shear):
    system = nio.parse_system(nio.corpus_file("free_nilpotent_2_3.json"))
    if shear:
        return system
    return make_system(free_nilpotent_2_3(), lattice=system.lattice.basis)


# (system for a translation, for a map with U != I or None, translation)
SYSTEMS = {
    "heisenberg_diag": (
        lambda u: make_system(heisenberg(), lattice=HEIS_DIAG, automorphism=u),
        SHEAR3, (F(2, 5), F(1, 7), F(1, 9))),
    "heisenberg_identity": (
        lambda u: make_system(LieAlgebraSpec.from_sparse(3, [(1, 2, 3, 2)]),
                              automorphism=u),
        SHEAR3, (0.2347, F(3, 8), F(-5, 11))),
    "heisenberg_hermite": (
        lambda u: make_system(heisenberg(), lattice=HEIS_HERMITE,
                              automorphism=u),
        LOWER_SHEAR3, (F(1, 3), F(2, 7), F(1, 10))),
    "filiform_class3": (lambda u: filiform_system(4, u is not None), True,
                        (F(3, 7), F(1, 5), F(1, 11), F(2, 9))),
    "filiform_class4": (lambda u: filiform_system(5, u is not None), True,
                        (F(1, 6), 0.2347, 0, F(1, 13), F(5, 7))),
    "free_nilpotent_2_3": (lambda u: free23_system(u is not None), True,
                           (F(1, 4), F(1, 8), F(1, 3), F(1, 12), 0.1)),
}


def maps(name):
    """The pure translation and the map with U != I of a case."""
    build, shear, a = SYSTEMS[name]
    translation = NumericAffine(build(None), a)
    sheared = NumericAffine(build(shear), a)
    assert translation.group.nilpotency_class <= 4  # the reference's bch
    assert translation.is_pure_translation() and not sheared.is_pure_translation()
    return translation, sheared


def sample_points(m, rng, count):
    """Reduced points with dyadic lattice coordinates and raw points off
    the fundamental domain."""
    den = 2 ** rng.choice((6, 12, 20))
    out = []
    for n in range(count):
        c = [F(rng.randrange(den), den) for _ in range(m.dim)]
        if n % 3 == 0:
            c = [a + rng.randrange(-3, 4) for a in c]
        out.append(m.lattice.from_coords(c))
    return out


def test_integer_rounding_is_round_half_to_even():
    # the nearest translate of the integer search and of round() on a
    # Fraction agree, ties at 1/2 included
    for den in range(1, 9):
        for n in range(-3 * den, 3 * den + 1):
            assert _round(n, den) == round(F(n, den))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_reduce_step_and_step_back_are_the_reference(name):
    # a step back is a step of T^-1, itself the reference's affine map
    # with the automorphism U^-1 and the translation U^-1(a)^-1
    rng = random.Random(name)
    for m in maps(name):
        inverse = m._inverse
        assert inverse.matrix @ m.matrix == QMatrix.identity(m.dim)
        assert inverse.translation == neg(m.matrix.inverse().matvec(
            m.translation))
        for x in sample_points(m, rng, 12):
            assert m.reduce(x) == ref_reduce(m, x)
            assert m.step(x) == ref_step(m, x)
            assert iterate(m, x, -1) == inverse.step(x) == \
                ref_step(inverse, x) == ref_step_back(m, x)
            assert iterate(m, m.step(x), -1) == ref_reduce(m, x)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_jump_is_the_reference(name):
    m, _ = maps(name)
    rng = random.Random(name)
    for x in sample_points(m, rng, 3):
        for k in range(-30, 31):
            # the product (k a) x on lattice states, and the public walk
            assert m._reducer.point(m._jump(m._reducer.state(x), k)) == \
                iterate(m, x, k) == ref_jump(m, x, k)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_distance_and_near_are_the_reference(name):
    rng = random.Random(name)
    m, _ = maps(name)
    ties = eps_ties = 0
    for n, x in enumerate(sample_points(m, rng, 18)):
        x = m.reduce(x)
        kind = n % 3
        if kind == 0:  # anywhere
            y = sample_points(m, rng, 1)[0]
        elif kind == 1:  # y^-1 x at lattice coordinates 0 or +-1/2: ties
            y = m.group.mult_vec(x, m.lattice.from_coords(
                [F(rng.randrange(-1, 2), 2) for _ in range(m.dim)]))
        else:  # close, on or off the fundamental domain
            y = [a + F(rng.randrange(-40, 41), 1024) for a in x]
        for y in (y, m.reduce(y)):
            if any(abs(c) == F(1, 2) for c in m.lattice.to_coords(
                    bch(m.group.spec, neg(y), x))):
                ties += 1
            exact = ref_distance(m, x, y)
            assert m.distance(x, y) == exact
            epsilons = [F(1, 64), F(1, 8), F(1, 2), exact + F(1, 2 ** 40)]
            if exact:
                epsilons.append(exact)  # the threshold is strict
                eps_ties += 1
            for eps in epsilons:
                assert m.near(x, y, eps) == (exact < eps)
    assert ties >= 8 and eps_ties >= 30


@pytest.mark.parametrize("a", [(0, 0, 0), (F(1, 3), F(1, 5), F(1, 7))])
def test_the_shear_walks_300_steps_as_the_reference(a):
    # heisenberg.json, U != I: every point of 300 steps forward and back
    system = nio.parse_system(nio.corpus_file("heisenberg.json"))
    m = NumericAffine(system, a)
    assert not m.is_pure_translation()
    x = ref_reduce(m, (F(1, 10), F(1, 4), F(1, 8)))
    forward = [x]
    for _ in range(300):
        forward.append(ref_step(m, forward[-1]))
    p = x
    for k in range(1, 301):
        p = m.step(p)
        assert p == forward[k]
    for k in range(299, -1, -1):
        p = m._inverse.step(p)
        assert p == forward[k]
    assert iterate(m, x, 300) == forward[300]
    assert iterate(m, forward[300], -300) == x
