"""Numeric orbit oracle: iteration, return sequences, empirical AA test.

Closed-form expectations: for unipotent U = I + N on the torus, T^k x =
U^k x + (geometric sum) a with U^k = I + kN + C(k,2) N^2, so coordinate
drift is polynomial in k; an irrational rotation is an isometry, so every
forward return is also a backward return.
"""

import csv
import io
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from conftest import (abelian, change_of_basis, heisenberg, jordan_block,
                      random_basis_matrix)
from nilaa import cli as ncli
from nilaa import io as nio
from nilaa import orbit as norbit
from nilaa.cli import _numeric_map
from nilaa.criteria import ValidationError, full_decide, make_system
from nilaa.orbit import (CONSISTENT, FALSIFIED, AATestReport, NotFound,
                         NumericAffine, _convergent_denominators,
                         _run_trial, _snap, _TorusFactor, _walk,
                         aa_empirical_test, find_forward_sequence,
                         iterate, trajectory)
from nilaa.ratlin import QMatrix

F = Fraction
JORDAN3 = QMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
SKEW = QMatrix([[1, 1], [0, 1]])
FIB = (610, 987, 1597, 2584, 4181, 6765, 10946, 17711, 28657, 46368)
HEIS_LATTICE = QMatrix([[1, 0, 0], [0, 1, 0], [0, 0, F(1, 2)]])
FREE23_LATTICE = QMatrix([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0],
                          [0, 0, F(1, 2), 0, 0], [0, 0, 0, F(1, 12), 0],
                          [0, 0, 0, 0, F(1, 12)]])


def torus(d, matrix, a):
    return NumericAffine(make_system(abelian(d), automorphism=matrix), a)


def heis(matrix, a):
    return NumericAffine(make_system(heisenberg(), lattice=HEIS_LATTICE,
                                     automorphism=matrix), a)


def rotation(alpha):
    return torus(1, None, [alpha])


def _walk_by_steps(affine, x, k, backward=False):
    """T^k x (T^-k x when backward) by k single steps, no closed form."""
    step = affine.step_back if backward else affine.step
    p = affine.reduce(x)
    for _ in range(k):
        p = step(p)
    return p


# ---- construction ----

def test_constructor_rejects_bad_inputs():
    # the oracle takes a validated system; the map checks happen there
    with pytest.raises(ValueError):
        torus(2, None, [0.1])  # length mismatch
    with pytest.raises(ValidationError) as info:
        torus(2, QMatrix([[2, 0], [0, 1]]), [0, 0])  # det 2
    assert info.value.check == "preserves_lattice"
    with pytest.raises(ValidationError) as info:
        torus(2, QMatrix([[F(1, 2), 0], [0, 2]]), [0, 0])  # non-integral
    assert info.value.check == "preserves_lattice"
    with pytest.raises(ValidationError) as info:
        heis(QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]]),
             [0, 0, 0])  # breaks the bracket
    assert info.value.check == "is_automorphism"


def test_float_inputs_become_exact_dyadic_rationals():
    m = rotation(0.3)
    assert m.translation[0] == F(0.3)
    assert m.translation[0].denominator % 2 == 0


# ---- iterate ----

def test_iterate_rotation_golden_values():
    m = rotation(0.25)
    assert iterate(m, [0], 3) == (F(3, 4),)
    assert iterate(m, [0], 4) == (F(0),)


def test_iterate_skew_closed_form():
    m = torus(2, QMatrix([[1, 1], [0, 1]]), [0, 0])
    p = iterate(m, [0, 0.3], 10)
    # first coordinate is 10*0.3 mod 1, within double rounding of 0
    assert m.distance(p, (0, F(0.3))) < 1e-9


def test_iterate_roundtrip_is_exact():
    maps = [
        torus(3, JORDAN3, [0.1, 0.2, 0.7]),
        heis(None, [0.3, 0.1, 0.05]),
    ]
    x = (F(1, 7), F(2, 7), F(3, 7))
    for m in maps:
        for k in (1, 37, 200):
            assert iterate(m, iterate(m, x, k), -k) == m.reduce(x)


def test_iterate_roundtrip_long_within_tolerance():
    m = torus(2, QMatrix([[1, 1], [0, 1]]), [0.3, 0.7])
    x = (F(1, 3), F(1, 5))
    back = iterate(m, iterate(m, x, 10 ** 4), -10 ** 4)
    assert m.distance(back, x) <= 1e-9


# T^m x for m = -60..60 from single steps; the expected reach() is the
# number of nonzero powers N^0, N^1, .. of N = U - I
LATTICE2 = QMatrix([[1, F(1, 2)], [0, F(1, 3)]])
TORUS_LATTICE = QMatrix([[2, 1], [F(1, 3), 1]])


def lattice_torus(lattice, matrix, a):
    """The map of the torus R^d / lattice Z^d that acts on lattice
    coordinates by the integer matrix."""
    return NumericAffine(make_system(
        abelian(lattice.nrows), lattice=lattice,
        automorphism=lattice @ matrix @ lattice.inverse()), a)


def torus_factor(m, eps, *points):
    """The torus factor of the map, covering the lattice states of the
    points."""
    return _TorusFactor(m, eps, [m._reducer.state(p) for p in points])


CLOSED_FORM_MAPS = {
    "jordan3": (lambda: torus(3, JORDAN3, [F(1, 3), F(2, 7), F(0.1)]), 3),
    "jordan4": (lambda: torus(4, jordan_block(4),
                              [F(1, 6), F(5, 8), 0, F(0.2347)]), 4),
    "skew": (lambda: torus(2, SKEW, [F(2, 9), F(3, 8)]), 2),
    "lattice": (lambda: lattice_torus(LATTICE2, SKEW, [F(1, 6), F(2, 9)]), 2),
    "torus_lattice": (lambda: lattice_torus(TORUS_LATTICE, SKEW,
                                            [F(1, 5), F(3, 7)]), 2),
    "translation": (lambda: torus(3, None, [F(1, 3), F(5, 8), F(0.2347)]), 1),
    "heisenberg_translation": (lambda: heis(None, [F(2, 5), F(1, 7), F(1, 9)]),
                               1),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_MAPS))
def test_closed_form_matches_single_steps(name):
    build, reach = CLOSED_FORM_MAPS[name]
    m = build()
    assert m.reach() == reach
    x = m.reduce([F(k + 1, 7 + 4 * k) for k in range(m.dim)])
    for k in range(-60, 61):
        by_steps = _walk_by_steps(m, x, abs(k), backward=k < 0)
        if m.is_pure_translation():
            assert m.jump(x, k) == by_steps
        assert iterate(m, x, k) == by_steps
    if not m.is_pure_translation():
        with pytest.raises(ValueError, match="iterate walks"):
            m.jump(x, 1)
    # one walk with gaps on both sides of reach()
    ks = (0, 1, 2, 7, 8, 30, 31, 60)
    assert _walk(m, x, ks) == [_walk_by_steps(m, x, k) for k in ks]
    assert _walk(m, x, ks, backward=True) == \
        [_walk_by_steps(m, x, k, True) for k in ks]


def test_jump_refuses_a_map_that_is_not_a_pure_translation():
    # on the shear of heisenberg.json the product (3 a) x is not T^3 x, and
    # the cat map has no closed form at all; iterate walks both
    shear = NumericAffine(
        nio.parse_system(nio.corpus_file("heisenberg.json")),
        [F(1, 3), F(1, 5), F(1, 7)])
    x = (F(1, 10), F(1, 4), F(1, 8))
    assert iterate(shear, x, 3) == _walk_by_steps(shear, x, 3) == \
        (F(9, 20), F(17, 20), F(47, 175))
    cat = torus(2, QMatrix([[2, 1], [1, 1]]), [F(1, 7), F(2, 9)])
    for m, p in ((shear, x), (cat, (F(1, 8), F(3, 8)))):
        for k in (-1, 0, 3):
            with pytest.raises(ValueError, match="pure translation"):
                m.jump(p, k)


def test_non_unipotent_torus_map_steps(monkeypatch):
    # the cat map and the quarter turn have no closed form: a walk makes one
    # step per index on the torus factor's integer state, advances forward
    # and retreats backward, and no step on points
    x = (F(1, 8), F(3, 8))
    for matrix in ([[2, 1], [1, 1]], [[0, -1], [1, 0]]):
        m = torus(2, QMatrix(matrix), [F(1, 7), F(2, 9)])
        assert m.reach() is None
        m.step = m.step_back = None
        calls = []
        for name in ("advance", "retreat"):
            monkeypatch.setattr(_TorusFactor, name, lambda self, s, _name=name,
                                _original=getattr(_TorusFactor, name): (
                calls.append(_name) or _original(self, s)))
        walked = iterate(m, x, 40), iterate(m, x, -40)
        assert calls == ["advance"] * 40 + ["retreat"] * 40
        monkeypatch.undo()
        del m.step, m.step_back
        assert walked == (_walk_by_steps(m, x, 40),
                          _walk_by_steps(m, x, 40, backward=True))
        ks = (0, 1, 5, 6, 40)
        for backward in (False, True):
            assert _walk(m, x, ks, backward) == [
                _walk_by_steps(m, x, k, backward) for k in ks]
    # a non-translation of a non-abelian group steps on points
    assert heis(QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
                [0, 0, 0]).reach() is None


def test_consecutive_indices_never_jump(monkeypatch):
    m = torus(3, JORDAN3, [F(1, 3), F(2, 7), F(0.1)])
    # a jump of the map or of its torus factor would fail
    m.jump = None
    monkeypatch.setattr(_TorusFactor, "jump", None)
    x = (F(1, 5), F(2, 5), F(3, 5))
    assert [p for _, p in trajectory(m, x, 30)] == \
        [_walk_by_steps(m, x, k) for k in range(31)]
    assert iterate(m, x, 3) == _walk_by_steps(m, x, 3)


def test_iterate_cap():
    with pytest.raises(ValueError):
        iterate(rotation(0.25), [0], 10 ** 6 + 1)


# ---- reduction and distance ----

def test_heisenberg_reduction_golden():
    h = heis(None, [0, 0, 0])
    assert h.reduce([F(7, 4), F(-1, 3), F(9, 10)]) == \
        (F(3, 4), F(2, 3), F(13, 120))


def test_heisenberg_distance_vanishes_on_the_same_coset():
    h = heis(None, [0, 0, 0])
    p = (F(1, 10), F(0), F(0))
    q = h.reduce((F(11, 10), F(0), F(0)))
    assert h.distance(p, q) == 0


def test_heisenberg_distance_is_at_most_the_27_translate_minimum():
    # the 27 translates y * gamma, gamma in {-1,0,1}^3 in lattice coordinates
    h = heis(None, [0, 0, 0])
    rng = random.Random(1618)
    den = 2 ** 10
    for n in range(300):
        x = h.reduce([F(rng.randrange(den), den) for _ in range(3)])
        near = [a + F(rng.randrange(-den // 8, den // 8), den) for a in x]
        y = h.reduce(near if n % 2 else
                     [F(rng.randrange(den), den) for _ in range(3)])
        old = min(max(abs(a - b) for a, b in
                      zip(x, h.group.mult_vec(y, h.lattice.from_coords(c))))
                  for c in itertools.product((-1, 0, 1), repeat=3))
        assert h.distance(x, y) <= old


def test_torus_reduction_is_the_lattice_floor():
    # on a torus the coset reducer's representative is x - L floor(L^-1 x)
    rng = random.Random(3141)
    for basis in [TORUS_LATTICE] + [random_basis_matrix(d, rng, 2)
                                    for d in range(1, 11)]:
        d = basis.nrows
        m = NumericAffine(make_system(abelian(d), lattice=basis), [0] * d)
        inverse = basis.inverse()
        for _ in range(10):
            x = tuple(F(rng.randrange(-64, 64), rng.randrange(1, 9))
                      for _ in range(d))
            whole = [math.floor(c) for c in inverse.matvec(x)]
            assert m.reduce(x) == tuple(
                a - b for a, b in zip(x, basis.matvec(whole)))


def test_torus_distance_is_circle_max_norm():
    m = torus(2, None, [0, 0])
    assert m.distance((F(9, 10), 0), (F(1, 10), 0)) == F(1, 5)
    assert m.distance((0, F(1, 4)), (0, F(3, 4))) == F(1, 2)


SHEARED_LATTICE = QMatrix([[1, 1, 0], [0, 1, 0], [F(1, 2), 0, F(1, 2)]])
# the Heisenberg algebra in the basis e1, e2, e1 + e2 + e3: every bracket
# touches every coordinate, so near() has no coordinate to reject on early
SHEAR = QMatrix([[1, 0, 1], [0, 1, 1], [0, 0, 1]])
NEAR_MAPS = {
    "torus": (lambda: torus(3, None, [0, 0, 0]), 3),
    "torus_lattice": (lambda: NumericAffine(make_system(
        abelian(2), lattice=TORUS_LATTICE), [0, 0]), 2),
    "heisenberg": (lambda: heis(None, [0, 0, 0]), 2),
    "heisenberg_sheared_lattice": (lambda: NumericAffine(make_system(
        heisenberg(), lattice=SHEARED_LATTICE), [0, 0, 0]), 2),
    "heisenberg_sheared": (lambda: NumericAffine(make_system(
        change_of_basis(heisenberg(), SHEAR),
        lattice=QMatrix([[1, 0, F(-1, 2)], [0, 1, F(-1, 2)],
                         [0, 0, F(1, 2)]])), [0, 0, 0]), 0),
    "free23_central": (lambda: NumericAffine(
        nio.parse_system(nio.corpus_file("free_nilpotent_2_3_central.json")),
        [0, 0, 0, F(0.2347), 0]), 2),
}
EPSILONS = [F(1, 2 ** k) for k in range(1, 13)] + [F(3, 4)]


def test_the_map_builds_no_metric_and_its_reducer_builds_it_at_first_use():
    m = heis(None, [F(1, 3), 0, 0])
    metric = {"_moves", "_shifts", "_early"}
    assert not metric & set(vars(m)) and not metric & set(vars(m._reducer))
    x, y = m.reduce((F(1, 5), F(2, 7), F(1, 9))), m.reduce((0, F(1, 2), 0))
    assert m.near(x, y, F(3, 4)) == (m.distance(x, y) < F(3, 4))
    assert metric <= set(vars(m._reducer))
    # the 8 moves off the central generator, the 2 central shifts
    assert len(m._reducer._moves) == 9 and len(m._reducer._shifts) == 2


@pytest.mark.parametrize("name", sorted(NEAR_MAPS))
def test_near_is_distance_below_eps(name):
    build, early = NEAR_MAPS[name]
    m = build()
    # the coordinates near() can reject on before the group product
    assert len(m._reducer._early) == early
    rng = random.Random(name)
    den = 2 ** 14
    answers = []
    for n in range(240):
        eps = rng.choice(EPSILONS)
        x = m.reduce([F(rng.randrange(den), den) for _ in range(m.dim)])
        if n % 2:
            # close: each coordinate within 6 eps / 5, ties at eps included
            y = [a + eps * F(rng.randrange(-12, 13), 10) for a in x]
        else:
            y = [F(rng.randrange(-den, 2 * den), den) for _ in range(m.dim)]
        if n % 4 < 2:
            y = m.reduce(y)
        answers.append(m.near(x, y, eps))
        assert answers[-1] == (m.distance(x, y) < eps)
    assert 40 < sum(answers) < 200  # both answers are common


# ---- find_forward_sequence ----

def test_returns_include_k_zero_when_target_is_start():
    seq = find_forward_sequence(rotation(0.125), [0.2], [0.2], 1e-6, 100)
    assert seq[0] == 0


def test_golden_rotation_returns_are_fibonacci_numbers():
    g = (5 ** 0.5 - 1) / 2
    seq = find_forward_sequence(rotation(g), [0], [0], 1e-3, 10 ** 5,
                                start=1)
    assert seq == FIB


def test_rational_rotation_misses_off_orbit_target():
    with pytest.raises(NotFound):
        find_forward_sequence(rotation(0.5), [0], [0.25], 1e-3, 10 ** 5)


def brute_force_sequence(affine, x, y, eps, horizon, start, limit):
    """Every step from x, no shortcut: the first `limit` hits in range."""
    x, y = affine.reduce(x), affine.reduce(y)
    hits, p = [], x
    for k in range(horizon + 1):
        if k >= start and affine.distance(p, y) < eps:
            hits.append(k)
            if len(hits) == limit:
                break
        p = affine.step(p)
    return tuple(hits)


@pytest.mark.parametrize("kind", ["skew", "heisenberg"])
def test_periodic_orbit_scan_matches_brute_force(kind, monkeypatch):
    # both maps return to x exactly after 5 steps (x1 gains 2/5 per step)
    if kind == "skew":
        m = torus(2, QMatrix([[1, 1], [0, 1]]), [F(2, 5) - F(1, 8), 0])
        x = (F(3, 16), F(1, 8))
    else:
        m = heis(None, [F(2, 5), 0, 0])
        x = (F(3, 16), F(1, 4), F(1, 32))
    x = m.reduce(x)
    assert iterate(m, x, 5) == x and iterate(m, x, 1) != x
    rng = random.Random(43)
    near = tuple(c + F(1, 64) for c in iterate(m, x, 2))
    targets = [(x, F(1, 100)), (iterate(m, x, 3), F(1, 100)),
               (near, F(1, 2)), (m.reduce([F(1, 7)] * m.dim), F(1, 100))]
    compared = 0
    for y, eps in targets:
        for _ in range(12):
            start = rng.choice((0, 1, 2, 4, 6, 11))
            limit = rng.choice((1, 2, 3, 10))
            horizon = rng.choice((0, 3, 5, 9, 23, 61))
            expect = brute_force_sequence(m, x, y, eps, horizon, start, limit)
            if expect:
                assert find_forward_sequence(m, x, y, eps, horizon,
                                             start=start,
                                             limit=limit) == expect
            else:
                with pytest.raises(NotFound):
                    find_forward_sequence(m, x, y, eps, horizon,
                                          start=start, limit=limit)
            compared += 1
    assert compared == 48
    # a long horizon costs one period of the scan, not the horizon, and no
    # Fraction step: the skew's factor is its whole torus, whose kept points
    # are its integer states, and the Heisenberg translation jumps to the
    # points its torus factor keeps; each scan stops once the window of one
    # period is complete, at the first factor period, the last k it reaches
    steps, jumps, reached = [], [], []
    step, jump = m._step, m._jump
    m._step = lambda p: steps.append(1) or step(p)
    m._jump = lambda p, k: jumps.append(1) or jump(p, k)
    scan = _TorusFactor.scan

    def recorded(factor, s, t, horizon):
        reached.append(0)
        for k, state in scan(factor, s, t, horizon):
            reached[-1] = k
            yield k, state

    monkeypatch.setattr(_TorusFactor, "scan", recorded)
    assert find_forward_sequence(m, x, x, F(1, 100), 10 ** 6, start=1,
                                 limit=4) == (5, 10, 15, 20)
    with pytest.raises(NotFound):
        find_forward_sequence(m, x, targets[3][0], F(1, 100), 10 ** 6)
    assert steps == []
    # the Heisenberg jumps are x's return at k = 5 in each scan
    assert len(jumps) == (0 if kind == "skew" else 2 * 1)
    assert reached == [5, 5]


# maps whose scan runs on the torus factor, with a probe; pure translations:
# - Heisenberg with diag(1, 1, 1/2);
# - Heisenberg with a lattice whose first basis row reads two lattice
#   coordinates, and its image HALF_LATTICE, where that row has entries
#   1/2, so the neighbour moves on it are 1/2 and 1;
# - the free class-3 quotient;
# - 2-tori whose convergent denominators 2, 3, 5 miss the period 15, with
#   the identity lattice and with one where a tie of round() changes the
#   nearest translate;
# - a Heisenberg map whose period 15 is three times its factor's;
# and torus maps, whose factor is every lattice coordinate: the skew, the
# 3 x 3 Jordan block, the cat map, the quarter turn, and a skew that acts
# on the lattice coordinates of TORUS_LATTICE.
# SHEARED_LATTICE under the automorphism diag(1/2, 1, 1/2)
HALF_LATTICE = QMatrix([[F(1, 2), F(1, 2), 0], [0, 1, 0],
                        [F(1, 4), 0, F(1, 4)]])
FACTOR_MAPS = {
    "heisenberg": (lambda: heis(None, [F(3, 8), F(1, 6), F(1, 9)]),
                   (F(1, 5), F(1, 3), F(1, 7))),
    "heisenberg_sheared_lattice": (lambda: NumericAffine(make_system(
        heisenberg(), lattice=SHEARED_LATTICE), [F(1, 4), F(2, 3), F(1, 5)]),
        (F(1, 2), F(1, 4), F(3, 8))),
    "heisenberg_half_lattice": (lambda: NumericAffine(make_system(
        heisenberg(), lattice=HALF_LATTICE), [F(1, 7), F(2, 3), F(1, 5)]),
        (F(1, 9), F(1, 4), F(3, 8))),
    "free23_central": (lambda: NumericAffine(
        nio.parse_system(nio.corpus_file("free_nilpotent_2_3_central.json")),
        [F(2, 7), F(1, 3), F(1, 5), F(1, 11), 0]),
        (F(1, 7), F(2, 7), F(3, 7), F(1, 11), F(5, 13))),
    "torus_convergents_miss": (lambda: torus(2, None, [F(1, 3), F(2, 5)]),
                               (F(1, 8), F(5, 8))),
    "torus_lattice_convergents_miss": (lambda: NumericAffine(make_system(
        abelian(2), lattice=TORUS_LATTICE),
        TORUS_LATTICE.matvec([F(1, 3), F(2, 5)])), (F(1, 8), F(5, 8))),
    "heisenberg_period_multiple": (lambda: heis(None, [F(2, 5), 0, F(1, 3)]),
                                   (F(3, 16), F(1, 4), F(1, 32))),
    "torus_skew": (lambda: torus(2, SKEW, [F(2, 9), F(3, 8)]),
                   (F(1, 8), F(5, 8))),
    "torus_jordan3": (lambda: torus(3, JORDAN3, [F(1, 3), F(2, 7), F(1, 10)]),
                      (F(1, 5), F(2, 5), F(3, 5))),
    "torus_cat_map": (lambda: torus(2, QMatrix([[2, 1], [1, 1]]),
                                    [F(1, 7), F(2, 9)]), (F(1, 8), F(3, 8))),
    "torus_quarter_turn": (lambda: torus(2, QMatrix([[0, -1], [1, 0]]),
                                         [F(1, 3), F(1, 5)]),
                           (F(1, 4), F(1, 6))),
    "torus_lattice_skew": (lambda: lattice_torus(TORUS_LATTICE, SKEW,
                                                 [F(1, 5), F(3, 7)]),
                           (F(1, 8), F(5, 8))),
}


@pytest.mark.parametrize("name", sorted(FACTOR_MAPS))
def test_factor_scan_matches_brute_force(name):
    build, x = FACTOR_MAPS[name]
    m = build()
    abelian = m.group.spec.abelian()
    assert m._reducer._early and (abelian or m.is_pure_translation())
    # the convergent-denominator tries run on pure translations of tori
    tried = abelian and m.is_pure_translation()
    x = m.reduce(x)
    if name == "heisenberg_period_multiple":
        assert iterate(m, x, 15) == x and iterate(m, x, 5) != x
        assert m.lattice.to_coords(iterate(m, x, 5))[:2] == \
            m.lattice.to_coords(x)[:2]
    if tried:
        assert iterate(m, x, 15) == x
    rng = random.Random(name)
    eps = F(1, 10)
    # a target at distance exactly eps from T^2 x, and one whose first two
    # lattice coordinates are 1/2 off those of T^4 x (a rounding tie)
    tie = m.group.mult_vec(iterate(m, x, 2), [eps] + [0] * (m.dim - 1))
    assert m.distance(iterate(m, x, 2), m.reduce(tie)) == eps
    half = m.lattice.from_coords([F(1, 2)] * 2 + [0] * (m.dim - 2))
    targets = [(x, eps), (iterate(m, x, 3), eps), (tie, eps),
               (m.group.mult_vec(iterate(m, x, 4), half), F(1, 2)),
               (m.group.mult_vec(iterate(m, x, 4), half), F(3, 4)),
               ([F(rng.randrange(64), 64) for _ in range(m.dim)], F(1, 4))]
    if tried:
        # keep the targets that every convergent-denominator try misses
        tries = {q for a in m.lattice.to_coords(m.translation)
                 for q in _convergent_denominators(a, 45)}
        assert tries == {2, 3, 5}
        targets = [(y, eps) for y, eps in targets
                   if not any(m.near(iterate(m, x, q), m.reduce(y), eps)
                              for q in tries)]
        assert (tie, F(1, 10)) in targets
    expected = [(y, eps, brute_force_sequence(m, x, y, eps, 45, 0, None))
                for y, eps in targets]
    m._step = None  # the scan must not step
    seen = set()
    for y, eps, every in expected:
        for start, limit, horizon in itertools.product(
                (0, 1, 5, 13), (1, 3, 10), (0, 4, 16, 45)):
            expect = tuple(k for k in every if start <= k <= horizon)[:limit]
            try:
                got = find_forward_sequence(m, x, y, eps, horizon,
                                            start=start, limit=limit)
            except NotFound:
                got = ()
            assert got == expect, (y, eps, start, limit, horizon)
            seen.add("none" if not got else "zero" if got[0] == 0 else "hit")
    assert seen == {"none", "zero", "hit"}


def translation_returns_reference(m, x, y, eps, horizon, start, limit):
    """The pairs (k, T^k x) of find_forward_sequence for a torus translation,
    by Fractions alone: k = 0, then each convergent denominator of the
    translation's lattice coordinates, tried as x + k a with near(); unless
    one of those hits, every k in turn."""
    x, y = m.reduce(x), m.reduce(y)

    def at(k):
        return m.reduce([c + k * a for c, a in zip(x, m.translation)])

    hits = [(0, x)] if start <= 0 and m.near(x, y, eps) else []
    lo = max(start, 1)
    tries = sorted({q for a in m.lattice.to_coords(m.translation)
                    for q in _convergent_denominators(a, horizon)})
    hits += [(k, at(k)) for k in tries
             if lo <= k <= horizon and m.near(at(k), y, eps)]
    if not (hits and hits[-1][0]):
        hits += [(k, at(k)) for k in range(lo, horizon + 1)
                 if m.near(at(k), y, eps)]
    return hits[:limit]


def test_torus_translation_returns_match_a_fraction_reference():
    # the convergent tries and the scan run on the torus factor's integer
    # state; the indices and the points are those of Fraction jumps
    rng = random.Random(2024)
    outcomes = set()
    for n in range(32):
        d = (1, 2, 3, 2)[n % 4]
        if n % 2:
            a = [F(rng.randrange(1, 60), rng.randrange(2, 61))
                 for _ in range(d)]
        else:
            a = [rng.random() for _ in range(d)]  # dyadic floats
        if n % 4 == 3:
            m = NumericAffine(make_system(abelian(2), lattice=TORUS_LATTICE),
                              TORUS_LATTICE.matvec([F(v) for v in a]))
        else:
            m = torus(d, None, a)
        x = m.reduce([F(rng.randrange(256), 256) for _ in range(d)])
        y = x if n % 3 else [F(rng.randrange(256), 256) for _ in range(d)]
        eps = rng.choice((F(1, 10), F(1, 64), F(1, 1000), 0.03))
        start, limit = rng.choice((0, 1, 7)), rng.choice((1, 3, 10))
        horizon = rng.choice((40, 300, 800))
        expect = translation_returns_reference(m, x, y, F(eps), horizon,
                                               start, limit)
        if not expect:
            with pytest.raises(NotFound):
                find_forward_sequence(m, x, y, eps, horizon, start=start,
                                      limit=limit)
            outcomes.add("none")
            continue
        # the chooser gives a torus map its factor, and the returns hold
        # the factor's states, here as their points
        x, y = m.reduce(x), m.reduce(y)
        space = norbit._space(m, F(eps), (m._reduced_state(x), m._reduced_state(y)))
        assert isinstance(space, _TorusFactor)
        assert [(k, space.point(s)) for k, s in norbit._returns(
            space, space.state(x), space.state(y), F(eps), horizon, start,
            limit)] == expect
        ks = tuple(k for k, _ in expect)
        assert find_forward_sequence(m, x, y, eps, horizon, start=start,
                                     limit=limit) == ks
        outcomes.add(len(expect))
    assert "none" in outcomes and len(outcomes) > 3


def test_heisenberg_translation_simulate_never_steps(monkeypatch):
    calls = []
    step = NumericAffine._step
    monkeypatch.setattr(NumericAffine, "_step",
                        lambda self, p: calls.append(1) or step(self, p))
    result = ncli._simulate_result(
        nio.corpus_file("heisenberg_translation.json"))
    assert result["status"] == CONSISTENT
    assert "forward returns found for 2 of 2 probes" in result["notes"]
    assert calls == []


@pytest.mark.parametrize("name", sorted(FACTOR_MAPS))
def test_factor_rejection_is_the_early_phase_of_near(name):
    build, _ = FACTOR_MAPS[name]
    m = build()
    rng = random.Random(name)
    den = 2 ** 14
    answers = []
    for n in range(240):
        eps = rng.choice(EPSILONS)
        x = m.reduce([F(rng.randrange(den), den) for _ in range(m.dim)])
        if n % 2:
            # close: each coordinate within 6 eps / 5, ties at eps included
            y = [a + eps * F(rng.randrange(-12, 13), 10) for a in x]
        elif n % 4 == 2:
            # lattice coordinates off by 0 or 1/2: ties of round()
            y = m.group.mult_vec(x, m.lattice.from_coords(
                [F(rng.randrange(-1, 2), 2) for _ in range(m.dim)]))
        else:
            y = [F(rng.randrange(den), den) for _ in range(m.dim)]
        y = m.reduce(y)
        reducer = m._reducer
        answers.append(reducer._rejects_early(reducer.state(x),
                                              reducer.state(y), eps))
        # the factor's scan from T^-1 x keeps x unless that rejects, or
        # unless T^-1 x has x's state
        factor = torus_factor(m, eps, x, y)
        s = factor.state(x)
        before = factor.retreat(s)
        assert list(factor.scan(before, factor.state(y), 1)) == (
            [(1, s)] if before == s or not answers[-1] else [])
        if m.group.spec.abelian():
            # on a torus the early phase decides near()
            assert answers[-1] == (not m.near(x, y, eps)) == \
                (m.distance(x, y) >= eps)
    assert 40 < sum(answers) < 200  # both answers are common


@pytest.mark.parametrize("name", sorted(FACTOR_MAPS))
def test_factor_retreat_inverts_advance(name):
    build, x = FACTOR_MAPS[name]
    m = build()
    x = m.reduce(x)
    for eps in (None, F(1, 12)):
        factor = torus_factor(m, eps, x)
        states = [factor.state(x)]
        for _ in range(30):
            states.append(factor.advance(states[-1]))
        assert [factor.retreat(s) for s in states[1:]] == states[:-1]
        if m.reach() is None:
            continue
        back = states[-1]
        for k in range(31):
            # jump(s, -k) is k retreats, jump(s, k) is k advances
            assert factor.jump(states[-1], -k) == back
            assert factor.jump(states[0], k) == states[k]
            back = factor.retreat(back)


def test_a_non_abelian_translation_factor_map_is_the_identity():
    # U_L of a pure translation is the identity, and so is its restriction
    # to the factor's coordinates, forward and backward
    kinds = set()
    for build, x in FACTOR_MAPS.values():
        m = build()
        if m.group.spec.abelian():
            continue
        factor = torus_factor(m, F(1, 12), m.reduce(x))
        identity = [[(j, 1)] for j in range(len(factor._coords))]
        assert factor._map == factor._backward[0] == identity
        kinds.add(len(factor._coords) < m.dim)
    assert kinds == {True}


# tori of dimension 1-5 on the identity lattice and the 2-torus of
# TORUS_LATTICE, with U_L unipotent (the Jordan blocks, the skew) and not
# (the reflection, the cat map, the quarter turn, the 5-cycle)
CYCLE5 = QMatrix([[int(j == (i + 1) % 5) for j in range(5)]
                  for i in range(5)])
INTEGER_TORI = {
    "rotation": lambda: torus(1, None, [F(2, 7)]),
    "reflection": lambda: torus(1, QMatrix([[-1]]), [F(1, 3)]),
    "skew": lambda: torus(2, SKEW, [F(2, 9), 0]),
    "cat_map": lambda: torus(2, QMatrix([[2, 1], [1, 1]]), [F(1, 7), F(2, 9)]),
    "torus_lattice_skew": lambda: lattice_torus(TORUS_LATTICE, SKEW,
                                                [F(1, 5), F(3, 7)]),
    "torus_lattice_quarter_turn": lambda: lattice_torus(
        TORUS_LATTICE, QMatrix([[0, -1], [1, 0]]), [F(1, 3), F(1, 5)]),
    "jordan3": lambda: torus(3, JORDAN3, [0, 0, 0]),
    "jordan4": lambda: torus(4, jordan_block(4), [F(1, 6), 0, 0, F(3, 8)]),
    "cycle5": lambda: torus(5, CYCLE5, [F(1, 2), 0, F(1, 3), 0, F(2, 5)]),
}


@pytest.mark.parametrize("name", sorted(INTEGER_TORI))
def test_torus_factor_distance_and_test_are_the_point_definitions(name):
    m = INTEGER_TORI[name]()
    assert m._lattice_map is not None
    rng = random.Random(name)
    d, den = m.dim, 2 ** 10
    kinds = set()
    for n in range(200):
        eps = rng.choice(EPSILONS[3:])
        x = m.reduce([F(rng.randrange(den), den) for _ in range(d)])
        signs = [rng.randrange(-1, 2) for _ in range(d)]
        if n % 4 == 0:
            y = [F(rng.randrange(den), den) for _ in range(d)]
        elif n % 4 == 1:
            # lattice coordinates off by -1/2, 0 or 1/2: ties of round()
            y = m.group.mult_vec(x, m.lattice.from_coords(
                [F(e, 2) for e in signs]))
        else:
            # coordinates eps or 10 eps off, ties of both thresholds
            size = eps if n % 4 == 2 else 10 * eps
            y = [a + size * e for a, e in zip(x, signs)]
        y = m.reduce(y)
        factor = torus_factor(m, eps, x, y)
        s, t = factor.state(x), factor.state(y)
        exact = m.distance(x, y)
        assert factor.distance(s, t) == exact
        assert factor.near(s, t, eps) == m.near(x, y, eps)
        assert factor.near(s, t, 10 * eps) == m.near(x, y, 10 * eps)
        # on a torus the reducer answers without the candidate search,
        # which stays the reference
        value, unit = m._reducer._least((s, factor.den), (t, factor.den),
                                        None)
        assert exact == F(value, unit) and m.near(x, y, eps) == (exact < eps)
        if exact in (eps, 10 * eps):
            kinds.add(exact / eps)
        if n % 4 == 1 and any(signs):
            kinds.add("tie")
        # every factor also covers every point on the snap grid: a trial's,
        # and a walk's, built with no eps
        snapped = m.reduce(_snap(y))
        for bound in (eps, None):
            trial = torus_factor(m, bound, x)
            assert trial.point(trial.state(snapped)) == snapped
            assert trial.distance(trial.state(x), trial.state(snapped)) == \
                m.distance(x, snapped)
    assert kinds == {1, 10, "tie"}


SCAN_MAPS = dict(FACTOR_MAPS, **{
    name: (build, (F(1, 5), F(2, 5), F(3, 5), F(4, 5), F(1, 10))[:d])
    for name, build, d in (("skew_fixed_fiber", INTEGER_TORI["skew"], 2),
                           ("jordan3_fixed", INTEGER_TORI["jordan3"], 3),
                           ("cycle5", INTEGER_TORI["cycle5"], 5))},
    heisenberg_translation_file=(lambda: _numeric_map(nio.parse_system(
        nio.corpus_file("heisenberg_translation.json")))[0],
        (F(0.1), F(0.25), F(0.125))))


@pytest.mark.parametrize("name", sorted(SCAN_MAPS))
def test_scan_yields_what_per_k_advance_and_rejects_keep(name):
    build, x = SCAN_MAPS[name]
    m = build()
    x = m.reduce(x)
    rng = random.Random(name)
    # the corpus translation's factor has a fixed coordinate, whose test
    # row the scan decides once
    if name == "heisenberg_translation_file":
        drift = torus_factor(m, None, x)._drift
        assert [c == 0 for c in drift] == [False, True]
    kept = set()
    # T^3 x off by a tie of round() in its first lattice coordinate, and a
    # quarter in the others, on either side; eps = 1 puts the rows that
    # read both at the bound
    third = iterate(m, x, 3)
    ties = [m.group.mult_vec(third, m.lattice.from_coords(
        [F(sign, 2)] + [F(sign, 4)] * (m.dim - 1))) for sign in (1, -1)]
    # the lattice states of T^k x: on a torus the factor's own, else the
    # reducer's of each point
    reducer = m._reducer
    torus = m.group.spec.abelian()
    orbit = None if torus else [reducer.state(p)
                                for p in _walk(m, x, range(151))]
    for eps in (F(1, 100), F(1, 10), F(1, 4), F(1)):
        for y in (x, third, *ties,
                  [F(rng.randrange(64), 64) for _ in range(m.dim)]):
            y = m.reduce(y)
            factor = torus_factor(m, eps, x, y)
            s, t = factor.state(x), factor.state(y)
            expect, state, target = [], s, reducer.state(y)
            for k in range(1, 151):
                state = factor.advance(state)
                at = (state, factor.den) if torus else orbit[k]
                if state == s or not reducer._rejects_early(at, target, eps):
                    expect.append((k, state))
            got = list(factor.scan(s, t, 150))
            assert got == expect, (eps, y)
            kept.update("return" if state == s else "near"
                        for _, state in got)
    assert "near" in kept


def test_the_chooser_gives_torus_maps_their_factor_and_others_points():
    maps = [build() for table in (CLOSED_FORM_MAPS, NEAR_MAPS, FACTOR_MAPS)
            for build, _ in table.values()]
    maps.append(heis(QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
                     [F(1, 5), F(2, 7), F(1, 3)]))
    kinds = set()
    for m in maps:
        x = m.reduce([F(k + 2, 5 + 3 * k) for k in range(m.dim)])
        state = m._reduced_state(x)
        space = norbit._space(m, F(1, 10), (state,))
        torus = m.group.spec.abelian()
        assert isinstance(space, _TorusFactor if torus else norbit._Points)
        assert space.point(space.state(x)) == x
        assert space._of(state) == space.state(x)
        kinds.add((torus, m.is_pure_translation()))
    assert len(kinds) == 4


def test_jump_of_every_pure_translation_matches_single_steps():
    maps = [build() for table in (CLOSED_FORM_MAPS, NEAR_MAPS, FACTOR_MAPS)
            for build, _ in table.values()]
    translations = [m for m in maps if m.is_pure_translation()]
    assert len(translations) == 15
    for m in translations:
        x = m.reduce([F(k + 2, 5 + 3 * k) for k in range(m.dim)])
        for k in range(-25, 26):
            assert m.jump(x, k) == _walk_by_steps(m, x, abs(k),
                                                  backward=k < 0)


def test_sequence_is_deterministic():
    m = torus(2, QMatrix([[1, 1], [0, 1]]), [0, 0.25])
    a = find_forward_sequence(m, [0, 0.1], [0, 0.1], 1e-2, 5000, start=1)
    b = find_forward_sequence(m, [0, 0.1], [0, 0.1], 1e-2, 5000, start=1)
    assert a == b and len(a) >= 1


def test_eps_must_be_positive():
    with pytest.raises(ValueError):
        find_forward_sequence(rotation(0.25), [0], [0], 0, 10)


def test_limit_must_be_at_least_one():
    # the rotation by 1/7 returns at 0, 7, 14, ..; a limit below 1 asks
    # for no index at all
    m = rotation(F(1, 7))
    assert find_forward_sequence(m, [0], [0], F(1, 100), 50, limit=1) == (0,)
    assert find_forward_sequence(m, [0], [0], F(1, 100), 50, start=1,
                                 limit=1) == (7,)
    for start, limit in ((0, 0), (0, -1), (1, 0)):
        with pytest.raises(ValueError, match="limit must be at least 1"):
            find_forward_sequence(m, [0], [0], F(1, 100), 50, start=start,
                                  limit=limit)


def test_trials_must_be_at_least_one():
    # no trial is no evidence: there is no ConsistentWithAA from 0 probes
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            aa_empirical_test(rotation(F(1, 7)), trials, F(1, 100), 50, 1)


def test_horizon_must_be_at_least_one():
    # a horizon of 0 tests no forward index, so it is no evidence either
    for horizon in (0, -3):
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            aa_empirical_test(rotation(F(1, 7)), 1, F(1, 100), horizon, 1)
    assert aa_empirical_test(rotation(F(1, 7)), 1, F(1, 100), 1, 1).verdict \
        == CONSISTENT


# ---- aa_empirical_test ----

def test_each_given_probe_is_reduced_once(monkeypatch):
    m = heis(None, [F(1, 3), F(1, 5), 0])
    calls = []
    reduce = NumericAffine._reduced_state
    monkeypatch.setattr(NumericAffine, "_reduced_state",
                        lambda self, x: calls.append(x) or reduce(self, x))
    probes = [(F(7, 4), F(1, 3), F(5, 2)), (F(1, 8), F(-2, 3), F(1, 16))]
    aa_empirical_test(m, 3, F(1, 100), 40, 5, probes=probes)
    # one reduction per trial: the two given probes, then the sampled one
    assert calls[:2] == probes and len(calls) == 3

def test_jordan3_probe_is_falsified_with_frozen_witness():
    m = torus(3, JORDAN3, [0, 0, 0])
    report = aa_empirical_test(m, 1, 1e-3, 10 ** 5, 1,
                               probes=[(0.3, 0.3, 0.3)])
    assert report.verdict == FALSIFIED
    w = report.witness
    assert w.sequence == tuple(range(20, 201, 20))
    assert w.target == (F(1229, 4096),) * 3
    assert w.forward_distance < 1e-3
    assert abs(w.backward_distance - 0.475146484375) < 1e-12
    assert w.backward_distance > 10 * report.epsilon_forward


@pytest.mark.parametrize("kind", ["skew", "heisenberg"])
def test_witness_distances_walk_once_per_orbit(kind):
    if kind == "skew":
        m = torus(2, SKEW, [F(2, 9), F(3, 8)])
    else:
        m = heis(QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
                 [F(1, 5), F(2, 7), F(1, 3)])
    rng = random.Random(kind)
    for _ in range(6):
        # off the fundamental domain: the distances take reduced points
        probe = [F(rng.randrange(-256, 512), 256) for _ in range(m.dim)]
        target = [F(rng.randrange(-256, 512), 256) for _ in range(m.dim)]
        seq = tuple(sorted(rng.sample(range(1, 80), 5)))
        rp, rt = m.reduce(probe), m.reduce(target)
        fwd = [m.distance(iterate(m, rp, k), rt) for k in seq]
        bwd = [m.distance(iterate(m, rt, -k), rp) for k in seq]
        # one walk along each orbit, from the unreduced points, as a trial
        # checks a witness
        assert [m.distance(p, rt) for p in _walk(m, probe, seq)] == fwd
        assert [m.distance(p, rp)
                for p in _walk(m, target, seq, backward=True)] == bwd


def test_falsification_witness_revalidates():
    m = torus(3, JORDAN3, [0, 0, 0])
    report = aa_empirical_test(m, 1, 1e-3, 10 ** 5, 1,
                               probes=[(0.3, 0.3, 0.3)])
    w = report.witness
    fwd = max(m.distance(iterate(m, w.probe, k), w.target)
              for k in w.sequence)
    bwd = max(m.distance(iterate(m, w.target, -k), w.probe)
              for k in w.sequence)
    assert abs(fwd - w.forward_distance) <= 1e-12
    assert abs(bwd - w.backward_distance) <= 1e-12


def test_irrational_rotation_is_consistent():
    report = aa_empirical_test(rotation(0.7548776662466927), 5, 1e-3,
                               10 ** 5, seed=2)
    assert report.verdict == CONSISTENT
    assert isinstance(report, AATestReport) and report.seed == 2


def test_pure_translations_are_never_falsified():
    rng = random.Random(99)
    for i in range(6):
        d = rng.randrange(1, 3)
        a = [rng.random() if rng.random() < 0.5
             else F(rng.randrange(64), 64) for _ in range(d)]
        report = aa_empirical_test(torus(d, None, a), 3, 1e-2,
                                   3000, seed=i)
        assert report.verdict == CONSISTENT


@pytest.mark.parametrize("probes, expected", [(None, [1, 2, 3, 4]),
                                               ([(F(1, 5), 0)], [0, 1, 2, 3])])
def test_each_probe_is_sampled_when_its_trial_starts(monkeypatch, probes,
                                                     expected):
    # memory must not grow with trials: no probe is drawn ahead of its trial
    sample, run = norbit._sample_probe, norbit._run_trial
    sampled, seen = [], []

    def counted_sample(affine, rng):
        sampled.append(None)
        return sample(affine, rng)

    def recorded_run(affine, probe, eps, horizon):
        seen.append(len(sampled))
        return run(affine, probe, eps, horizon)

    monkeypatch.setattr(norbit, "_sample_probe", counted_sample)
    monkeypatch.setattr(norbit, "_run_trial", recorded_run)
    aa_empirical_test(torus(2, SKEW, [F(1, 3), 0]), 4, 1e-2, 50, seed=3,
                      probes=probes)
    assert seen == expected


def test_skew_with_rational_fiber_coordinate_is_consistent():
    m = torus(2, QMatrix([[1, 1], [0, 1]]), [0, 0])
    report = aa_empirical_test(m, 2, 1e-2, 5000, seed=5,
                               probes=[(0.37, 0.25), (0.11, 0.5)])
    assert report.verdict == CONSISTENT


def test_heisenberg_maps_run_consistent():
    central = heis(None, [0, 0, 0.23])
    assert aa_empirical_test(central, 2, 1e-2, 2000, seed=3).verdict \
        == CONSISTENT
    shear = heis(QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]), [0, 0, 0])
    assert aa_empirical_test(shear, 2, 1e-2, 2000, seed=4).verdict \
        == CONSISTENT


def _run_trial_per_index(affine, probe, eps, horizon):
    """The trial from single steps only: the returns by brute force, and
    every T^k probe and T^-k target stepped from scratch."""
    probe = affine.reduce(probe)
    seq = brute_force_sequence(affine, probe, probe, eps, horizon, 1, 10)
    if not seq:
        return None, False
    target = _snap(_walk_by_steps(affine, probe, seq[0]))
    eps = F(eps)
    fwd = max(affine.distance(_walk_by_steps(affine, probe, k), target)
              for k in seq)
    if fwd >= eps:
        return None, True
    bwd = max(affine.distance(_walk_by_steps(affine, target, k, True), probe)
              for k in seq)
    if bwd <= 10 * eps:
        return None, True
    return (probe, target, seq, float(fwd), float(bwd)), True


def test_run_trial_walks_to_the_per_index_answer():
    maps = [torus(2, QMatrix([[1, 1], [0, 1]]), [0.1, 0.2]),
            torus(2, QMatrix([[1, 1], [0, 1]]), [0, 0.375]),
            torus(3, JORDAN3, [0, 0, 0]),
            torus(3, JORDAN3, [0.25, 0, 0.5]),
            heis(QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]), [0, 0, 0]),
            heis(QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]), [0, 0.25, 0.1]),
            heis(None, [0.5, 0.25, 0.23]),
            torus(2, None, [0.3, F(1, 8)]),
            lattice_torus(TORUS_LATTICE, SKEW, [F(1, 5), F(3, 7)]),
            torus(2, QMatrix([[2, 1], [1, 1]]), [F(1, 7), F(2, 9)]),
            # the d = 5 free class-3 quotient: a pure translation, whose
            # scan runs on its torus factor, and a shear, which steps
            FACTOR_MAPS["free23_central"][0](),
            NumericAffine(nio.parse_system(nio.corpus_file(
                "free_nilpotent_2_3.json")), [F(1, 4), F(1, 8), 0, 0, 0])]
    rng = random.Random(31)
    outcomes = set()
    for m in maps:
        trials = [((F(3, 10),) * m.dim, F(1, 1000))]
        for _ in range(3):
            probe = tuple(F(rng.randrange(1 << 10), 1 << 10) for _ in range(m.dim))
            trials.append((probe, rng.choice((F(1, 16), F(1, 64), F(1, 256)))))
        for probe, eps in trials:
            witness, had_returns = _run_trial(m, probe, eps, 200)
            if witness is not None:
                witness = (witness.probe, witness.target, witness.sequence,
                           witness.forward_distance, witness.backward_distance)
            assert (witness, had_returns) == _run_trial_per_index(m, probe, eps, 200)
            outcomes.add((witness is None, had_returns))
    # falsified, consistent with returns, and no return at all
    assert outcomes == {(False, True), (True, True), (True, False)}


def test_periodic_returns_test_each_forward_point_once(monkeypatch):
    # T^20 x = x on (1/10)Z^3, so the ten forward returns are one point
    m = torus(3, JORDAN3, [0, 0, 0])
    probe, eps = (F(3, 10), F(7, 10), F(1, 10)), F(1, 1000)
    assert find_forward_sequence(m, probe, probe, eps, 500, start=1) == \
        tuple(range(20, 201, 20))
    # the chooser gives the torus map its factor, and the trial runs on its
    # states: its integer test and distance take the calls, as the points
    # of the states they are given
    assert isinstance(norbit._space(m, eps, (m._reduced_state(probe),)),
                      _TorusFactor)
    targets = {}
    for cls, name in ((_TorusFactor, "near"), (_TorusFactor, "distance"),
                      (NumericAffine, "near"), (NumericAffine, "distance")):
        seen = targets[cls.__name__, name] = []

        def counted(self, x, y, *rest, _original=getattr(cls, name),
                    _seen=seen):
            _seen.append(self.point(y) if isinstance(self, _TorusFactor)
                         else tuple(y))
            return _original(self, x, y, *rest)
        monkeypatch.setattr(cls, name, counted)
    witness, had_returns = _run_trial(m, probe, eps, 500)
    assert had_returns and witness.sequence == tuple(range(20, 201, 20))
    # the forward cluster check and the witness's forward distance are
    # the calls against the snapped target
    assert targets["_TorusFactor", "near"].count(witness.target) == 1
    assert targets["_TorusFactor", "distance"].count(witness.target) == 1
    assert targets["NumericAffine", "near"] == []
    assert targets["NumericAffine", "distance"] == []


def test_simulate_makes_each_lattice_state_once(monkeypatch, capsys):
    # the translation's, the probe's and the snapped target's: the probe's
    # state is reduced once and handed to the orbit space
    calls = []
    original = norbit.CosetReducer.state

    def counted(self, vec):
        calls.append(tuple(vec))
        return original(self, vec)
    monkeypatch.setattr(norbit.CosetReducer, "state", counted)
    ncli.main(["simulate", str(nio.corpus_dir() / "torus_jordan3.json")])
    assert len(calls) == 3 and len(set(calls)) == 3
    assert json.loads(capsys.readouterr().out)["status"]


# ---- trajectory ----

def test_trajectory_matches_iterate():
    m = torus(2, QMatrix([[1, 1], [0, 1]]), [0.1, 0.2])
    traj = trajectory(m, (0, 0), 8)
    assert len(traj) == 9
    for k, p in traj:
        assert p == iterate(m, (0, 0), k)


# ---- any validated system ----

def test_torus_distance_matches_circle_max_norm_on_random_points():
    rng = random.Random(2718)
    for d in (1, 2, 3, 5):
        m = torus(d, None, [0] * d)
        for _ in range(40):
            # denominator 8 makes ties at distance 1/2 common
            x = tuple(F(rng.randrange(8 * 64), 8 * 64) for _ in range(d))
            y = tuple(F(rng.randrange(8), 8) for _ in range(d))
            circle = max(min((a - b) % 1, 1 - (a - b) % 1)
                         for a, b in zip(x, y))
            assert m.distance(x, y) == circle


@pytest.mark.parametrize("name", ["free_nilpotent_2_3_central.json",
                                  "free_nilpotent_2_3.json"])
def test_oracle_runs_on_the_free_class_3_quotient(name):
    system = nio.parse_system(nio.corpus_file(name))
    assert system.group.nilpotency_class == 3
    assert system.lattice.basis == FREE23_LATTICE
    m = NumericAffine(system, system.translation.substitute({"t": F(0.2347)}))
    x = (F(1, 7), F(2, 7), F(3, 7), F(1, 11), F(5, 13))
    for k in (1, 17, 60):
        assert iterate(m, iterate(m, x, k), -k) == m.reduce(x)
    report = aa_empirical_test(m, 2, 1e-2, 400, seed=11)
    if full_decide(system).status == "AA":
        assert report.verdict == CONSISTENT


def test_simulate_block_values_drive_the_free_quotient(tmp_path):
    system = nio.parse_system(nio.corpus_file(
        "free_nilpotent_2_3_central.json"))
    assert full_decide(system).status == "AA"
    raw = json.loads(nio.corpus_file(
        "free_nilpotent_2_3_central.json").read_text(encoding="utf-8"))
    raw["simulate"] = {"values": {"t": "3/7"}, "horizon": 300,
                       "trials": 2, "seed": 5, "eps": "1/50"}
    path = tmp_path / "free23_central.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    affine, _, _ = _numeric_map(nio.parse_system(path))
    assert affine.translation == (0, 0, 0, F(3, 7), 0)
    assert ncli._simulate_result(path)["status"] == CONSISTENT


# ---- closed form and dump through the CLI ----

CAT_MAP_SIMULATE = """{
  "certificate": null,
  "criterion": "simulate",
  "notes": [
    "trials = 2, horizon = 300, eps = 0.015625, seed = 4",
    "forward returns found for 1 of 2 probes",
    "a Falsified verdict is conclusive up to rounding; ConsistentWithAA is evidence, not proof"
  ],
  "status": "ConsistentWithAA"
}
"""


def test_simulate_non_unipotent_torus_map_bytes(tmp_path, capsys):
    # frozen from the stepwise oracle before the closed form existed
    raw = {"name": "cat_map", "dim": 2, "params": ["t", "s"],
           "structure_constants": [],
           "automorphism": [["2", "1"], ["1", "1"]], "translation": ["t", "s"],
           "simulate": {"values": {"t": "1/7", "s": "2/9"},
                        "probe": ["1/8", "3/8"], "eps": "1/64",
                        "horizon": 300, "trials": 2, "seed": 4}}
    path = tmp_path / "cat_map.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert ncli.main(["simulate", str(path)]) == 0
    assert capsys.readouterr().out == CAT_MAP_SIMULATE


@pytest.mark.parametrize("name", ["torus_jordan3.json", "torus_skew.json"])
def test_dump_matches_a_stepwise_trajectory(name, tmp_path):
    path = nio.corpus_file(name)
    out = tmp_path / "orbit.csv"
    ncli._simulate_result(path, dump=str(out))
    affine, probes, config = _numeric_map(nio.parse_system(path))
    expect = io.StringIO()
    writer = csv.writer(expect)
    writer.writerow(["k"] + [f"x{i + 1}" for i in range(affine.dim)])
    p = affine.reduce(probes[0])
    for k in range(config.get("dump_steps", 200) + 1):
        writer.writerow([k] + [float(v) for v in p])
        p = affine.step(p)
    assert out.read_bytes().decode("utf-8") == expect.getvalue()


def fraction_convergent_denominators(value, bound):
    """The continued fraction of value run in Fractions, as
    _convergent_denominators ran it before it worked on numerator and
    denominator."""
    value = value - math.floor(value)
    if value == 0:
        return [1]
    out = []
    h_prev, h = 0, 1
    a = value
    while True:
        q = math.floor(1 / a)
        h_prev, h = h, q * h + h_prev
        if h > bound:
            break
        out.append(h)
        a = 1 / a - q
        if a == 0:
            break
    return out


def test_convergent_denominators_match_the_fraction_route():
    rng = random.Random(2035)
    seen = set()
    for _ in range(20000):
        den = rng.choice((rng.randrange(1, 50), rng.randrange(1, 10 ** 6), 2 ** 40 + rng.randrange(99)))
        value = F(rng.randrange(-3 * den, 3 * den + 1), den)
        bound = rng.choice((0, 1, 2, rng.randrange(1, 100), rng.randrange(1, 10 ** 7)))
        got = _convergent_denominators(value, bound)
        assert got == fraction_convergent_denominators(value, bound), (value, bound)
        seen.add(len(got) if len(got) < 3 else 3)
    assert seen == {0, 1, 2, 3}
