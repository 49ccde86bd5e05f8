"""Floating-point dynamical oracle on compact nilmanifolds.

The module iterates affine maps numerically, searches for forward return
sequences, and runs an empirical version of the almost automorphy test:
find indices k_1 < ... < k_m whose forward images cluster at a point y,
then check whether the backward images of y under the same indices come
back to the start.  A failed backward return with a tight forward cluster
falsifies the property; the converse outcome is only evidence, since the
definition quantifies over all sequences.

Inputs may be floats; they are converted to exact dyadic rationals once
(`Fraction(float)` is exact) and every orbit computation afterwards is
exact rational arithmetic.  Floating error can therefore only enter
through the caller's choice of probe, never through iteration.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import count, product
from operator import add, sub
from typing import Optional, Sequence

from ._record import record
from .lattice import CosetReducer
from .ratlin import _scaled_rows, dot, to_fraction, unipotency_index

CONSISTENT = "ConsistentWithAA"
FALSIFIED = "Falsified"

ITERATE_CAP = 10 ** 6

# the largest non-abelian dimension, whose distance() searches at most
# 3^d - 1 lattice neighbours
NEIGHBOUR_DIM_CAP = 7

# Target points are snapped to this grid before the backward test.  The
# snap moves the candidate limit off the exact orbit by at most 2^-13 per
# coordinate, which a genuine isometry tolerates but polynomial orbit
# drift amplifies.
SNAP_GRID = 2 ** 12


class NotFound(Exception):
    """No forward return was found within the horizon."""


def _point(values) -> tuple:
    return tuple(to_fraction(v) for v in values)


class NumericAffine:
    """The affine map x -> a * U(x) of a validated system on N / Gamma.

    The group law, the lattice and the automorphism U come from the
    system; the translation a is given numerically and converted to exact
    rationals.  Points are logarithmic coordinates, reduced to the
    fundamental domain by the system's coset reducer, in any dimension.
    A non-abelian group needs dimension <= NEIGHBOUR_DIM_CAP, which bounds
    the lattice neighbours that distance() searches.

    A map has one of two representations.  Any map acts on points, exact
    Fraction tuples.  A torus map, and a pure translation of any group,
    also acts by an integer affine map on its torus factor: the lattice
    coordinates that near() reads before any group product, held as one
    integer state (_TorusFactor).  A torus map's factor is all of its
    lattice coordinates c = L^-1 x, on which T is c -> U_L c + c(a) mod 1,
    U_L = L^-1 U L the system's integral lattice_automorphism; there the
    factor's integer test is exactly near(), and its state gives the point
    back.  A torus map walks, jumps and scans on the factor; when U_L is
    unipotent it has a closed form (jump), a polynomial sequence in m
    (Leibman 1998).  A pure translation of any other group jumps by its
    one product (m a) x, and every other map steps on points.
    """

    def __init__(self, system, translation):
        translation = _point(translation)
        if len(translation) != system.dim:
            raise ValueError("translation length does not match dim")
        self.dim = d = system.dim
        self.group = system.group
        self.lattice = lattice = system.lattice
        self.matrix = system.automorphism
        self.translation = translation
        self._inverse = system.automorphism.inverse()
        self._neg_translation = self.group.inv(translation)
        self._pure = system.is_translation()
        spec = system.group.spec
        # distance() tries the nearest translate and, unless the group is
        # abelian, its {-1,0,1}^d lattice neighbours.  Central generators
        # only add to the difference, so only the non-central moves cost a
        # group product.  On the coordinates that no bracket or shift
        # touches, y^-1 x is x - y, so there a candidate's value is known
        # before any product, and a move is skipped when one of them is
        # already at or above the bound.  On a torus every generator is
        # central and the nearest translate is exact.
        self._shifts, moves, touched = [], [], set()
        if not spec.abelian():
            if d > NEIGHBOUR_DIM_CAP:
                raise ValueError(
                    f"the orbit oracle's lattice neighbour search supports "
                    f"dimension <= {NEIGHBOUR_DIM_CAP} on a non-abelian group")
            central = [spec.ad_matrix(lattice.generator(j)).is_zero()
                       for j in range(d)]
            steps = sorted(product((-1, 0, 1), repeat=d),
                           key=lambda e: sum(map(abs, e)))[1:]
            self._shifts = [lattice.from_coords(e) for e in steps
                            if all(c or not s for c, s in zip(central, e))]
            touched = {i for vec in (*spec.table.values(), *self._shifts)
                       for i, c in enumerate(vec) if c}
            moves = [lattice.from_coords(e) for e in steps
                     if not any(c and s for c, s in zip(central, e))]
        self._reducer = CosetReducer(system.group, lattice)
        self._bounded = bounded = [i for i in range(d) if i not in touched]
        # (move, its nonzero bounded entries); None is the nearest translate
        self._moves = [(None, [])] + [
            (move, [(i, move[i]) for i in bounded if move[i]])
            for move in moves]
        # near() rejects before the product on a bounded coordinate i whose
        # nearest-translate entry reads only bounded coordinates of x - y:
        # every basis row entry L[i][j] needs inverse row j on them.  There
        # r_i = sum_j L[i][j] (c_j - round(c_j)), and a move entry m puts
        # its candidate at |r_i - m| on coordinate i.
        basis = lattice.basis.sparse_rows()
        self._coord_rows = inverse = lattice._inverse.sparse_rows()
        readable = {j for j, row in enumerate(inverse)
                    if all(k not in touched for k, _ in row)}
        self._early = []
        for i in bounded:
            if all(j in readable for j, _ in basis[i]):
                values = sorted({m for _, fixed in self._moves
                                 for k, m in fixed if k == i})
                reads = sorted({i} | {k for j, _ in basis[i]
                                      for k, _ in inverse[j]})
                self._early.append((i, basis[i], reads, values))
        # on an abelian group: U_L and U_L^-1 as sparse integer rows
        self._lattice_map = self._lattice_inverse = None
        self._reach = 1 if self._pure else None
        if spec.abelian():
            conj = system.lattice_automorphism
            self._lattice_map = _scaled_rows(conj)[1]
            self._lattice_inverse = _scaled_rows(conj.inverse())[1]
            self._reach = unipotency_index(conj)

    # -- dynamics (exact) --

    def reduce(self, x) -> tuple:
        """Canonical representative of the coset of x."""
        return self._reducer.reduce(x)

    def step(self, x) -> tuple:
        """One forward application with reduction."""
        ux = self.matrix.matvec(x)
        return self.reduce(self.group.mult_vec(self.translation, ux))

    def step_back(self, x) -> tuple:
        """One exact backward application with reduction."""
        shifted = self.group.mult_vec(self._neg_translation, x)
        return self.reduce(self._inverse.matvec(shifted))

    def reach(self) -> Optional[int]:
        """The number of nonzero powers N^0, N^1, .. of N = U - I when
        jump() applies, else None."""
        return self._reach

    def jump(self, x, m: int) -> tuple:
        """T^m x reduced, for any integer m, in one closed-form step.

        Equals m steps (or -m backward steps) from x, since the reduction
        is a function of the coset.  Only when reach() is not None.  A
        pure translation of a non-abelian group is the one product
        (m a) x; a torus map jumps its factor's state (_TorusFactor.jump).
        """
        x = _point(x)
        if self._lattice_map is None:
            shift = [m * a for a in self.translation]
            return self.reduce(self.group.mult_vec(shift, x))
        factor = _TorusFactor(self, None, (x,))
        return factor.point(factor.jump(factor.state(x), m))

    def is_pure_translation(self) -> bool:
        return self._pure

    # -- metric --

    def distance(self, x, y) -> Fraction:
        """Distance estimate between the cosets of x and y.

        Minimum of the max-norm of x - y * gamma over the lattice element
        gamma nearest to y^-1 x in lattice coordinates and, unless the
        group is abelian, its {-1,0,1}^d lattice neighbours.  On a torus
        this is the max-norm of the coordinate-wise circle distances.
        """
        return self._least(_point(x), _point(y), None)

    def near(self, x, y, eps) -> bool:
        """distance(x, y) < eps, deciding no more than that.

        First, on the coordinates where y^-1 x is x - y and the nearest
        translate can be read from them, a coordinate that every candidate
        puts at eps or beyond rejects without a group product.  Then the
        candidates of distance() are searched with eps as the bound, up to
        the first one under it.  On a torus the first phase reads every
        coordinate of the one candidate, so it decides alone.
        """
        x, y = _point(x), _point(y)
        return not self._rejects_early(x, y, eps) and (
            self._lattice_map is not None or self._least(x, y, eps) < eps)

    def _rejects_early(self, x, y, eps) -> bool:
        """near()'s first phase: some coordinate i of _early puts every
        candidate at eps or beyond, read from x - y without a product."""
        diff, rounded = {}, {}
        for i, row, reads, values in self._early:
            for k in reads:
                if k not in diff:
                    diff[k] = x[k] - y[k]
            for j, _ in row:
                if j not in rounded:
                    rounded[j] = round(dot(self._coord_rows[j], diff))
            r = diff[i] - dot(row, rounded)
            if abs(r) >= eps and all(abs(r - m) >= eps for m in values):
                return True
        return False

    def _least(self, x, y, bound) -> Fraction:
        """The least candidate value, or with a bound the first one under
        it (the bound itself when there is none).

        A move is skipped when a bounded coordinate already puts it at or
        above the bound or the least value found so far.
        """
        diff = self.group.mult_vec(self.group.inv(y), x)
        base = self.lattice.from_coords(
            [round(c) for c in self.lattice.to_coords(diff)])
        r = ({i: x[i] - y[i] - base[i] for i in self._bounded}
             if len(self._moves) > 1 else {})
        best = bound
        for move, fixed in self._moves:
            if best is not None and not all(abs(r[i] - m) < best
                                            for i, m in fixed):
                continue
            gamma = base if move is None else tuple(map(add, base, move))
            value = self._norm_near(x, y, gamma)
            if best is None or value < best:
                best = value
                if bound is not None:
                    break
        return best

    def _norm_near(self, x, y, gamma) -> Fraction:
        """Least max-norm of x - y * gamma * z over the central shifts z."""
        if any(gamma):
            y = self.group.mult_vec(y, gamma)
        r = [a - b for a, b in zip(x, y)]
        best = max(map(abs, r))
        for shift in self._shifts:
            best = min(best, max(abs(a - s) for a, s in zip(r, shift)))
        return best


class _TorusFactor:
    """The integer state of a map's torus factor: the lattice coordinates
    that near()'s first phase reads, on which T acts by an integer matrix
    U_f.

    Those lattice coordinates c_j are read off coordinates that no bracket
    or shift touches.  On a torus that is every lattice coordinate: T acts
    on c = L^-1 x as c -> U_L c + c(a) mod 1 (U_f = U_L), with no
    neighbour moves or central shifts the integer test is exactly near(),
    and point() gives a state's point back.  On any other group only a
    pure translation has a factor: it adds c_j(a) and a reduction adds an
    integer (U_f = I).  On the orbit of a reduced point every c_j lies in
    [0, 1) and is a multiple of 1/den, den the lcm of eps's denominator
    and those of the c_j of the translation and the given points, so a
    state holds the integers den * c_j.  It holds c_j, not its class mod 1:
    round() breaks a tie at 1/2 by parity.  With eps None the factor has
    no threshold test and den leaves eps out.
    """

    def __init__(self, affine: NumericAffine, eps: Optional[Fraction],
                 points):
        coords = sorted({j for _, row, *_ in affine._early for j, _ in row})
        self._rows = [affine._coord_rows[j] for j in coords]
        self._lattice = affine.lattice
        self._reach = affine.reach()
        self.den = den = math.lcm(1 if eps is None else eps.denominator, *(
            dot(row, p).denominator for row in self._rows
            for p in (affine.translation, *points)))
        self._tests = []
        for _, row, _, values in affine._early if eps else ():
            row = [(coords.index(j), 1 if c is None else c) for j, c in row]
            scale = math.lcm(*(c.denominator for _, c in row))
            self._tests.append(([(j, int(c * scale)) for j, c in row],
                                int(eps * scale * den),
                                [int(m * scale * den) for m in values]))
        self._map, self._inverse = affine._lattice_map, affine._lattice_inverse
        if self._map is None:
            self._map = self._inverse = [[(j, 1)] for j in range(len(coords))]
        self._drift = drift = [c % den for c in self.state(affine.translation)]
        # T^-1 is s -> U_f^-1 s + back mod den, back = -U_f^-1 drift
        self._back = [-sum(u * drift[k] for k, u in row) % den
                      for row in self._inverse]

    def advance(self, s) -> list:
        """The state of T(p) from the state s of p: U_f s + drift mod den."""
        return _affine_mod(self._map, self._drift, self.den, s)

    def retreat(self, s) -> list:
        """The state of T^-1(p): U_f^-1 (s - drift) mod den."""
        return _affine_mod(self._inverse, self._back, self.den, s)

    def jump(self, s, m: int) -> list:
        """The state of T^m(p) for any integer m, in one closed form.

        Only when U_f = I + N is unipotent, N^reach = 0.  With
        C(m, j) the binomial coefficients (negative m included),
        T^m is s -> sum_j N^j (C(m, j) s + C(m, j+1) drift) mod den, a
        polynomial sequence in m, summed from the top power down.
        """
        binom = [1]  # C(m, j) for j = 0..reach
        for j in range(self._reach):
            binom.append(binom[-1] * (m - j) // (j + 1))
        acc = [0] * len(s)
        for j in reversed(range(self._reach)):
            lo, hi = binom[j], binom[j + 1]
            # acc := lo s + hi drift + N acc, with N = U_f - I
            acc = [lo * v + hi * a + sum(u * acc[k] for k, u in row) - c
                   for v, a, row, c in zip(s, self._drift, self._map, acc)]
        return [v % self.den for v in acc]

    def state(self, p) -> list:
        """den * c_j(p) for the factor's coordinates j."""
        return [int(dot(row, p) * self.den) for row in self._rows]

    def point(self, s) -> tuple:
        """The point L s / den of a state of a torus map's factor."""
        return self._lattice.from_coords([Fraction(c, self.den) for c in s])

    def rejects(self, s, t) -> bool:
        """near()'s first phase on the points of states s and t, as den
        times its value: c_j - round(c_j) of the difference is s_j - t_j
        less den where that exceeds den / 2, plus den below -den / 2."""
        den, half = self.den, self.den // 2
        gap = [e - den if e > half else e + den if e < -half else e
               for e in map(sub, s, t)]
        for row, bound, moves in self._tests:
            r = sum(c * gap[j] for j, c in row)
            if abs(r) >= bound and all(abs(r - m) >= bound for m in moves):
                return True
        return False


def iterate(affine: NumericAffine, x, k: int) -> tuple:
    """k-fold application (signed), reducing after every step.

    Where the map has a closed form (NumericAffine.jump) a k longer than
    its number of N powers is one jump, which agrees with stepwise
    reduction.
    """
    return _walk(affine, x, (abs(k),), backward=k < 0)[0]


def _walk(affine: NumericAffine, x, ks, backward: bool = False) -> list:
    """T^k x (T^-k x when backward) for each of the increasing indices ks.

    One pass along the orbit.  A gap between consecutive indices larger
    than affine.reach() is one closed-form jump from the current point;
    every other gap is walked step by step, so consecutive indices (a
    trajectory dump) cost one step each.  A torus map walks its factor's
    integer state (_TorusFactor) and builds a point only per index.  Each
    point equals the one reached by stepping from x, since a step is a
    function of the exact point.
    """
    if ks and ks[-1] > ITERATE_CAP:
        raise ValueError("|k| exceeds the iteration cap")
    state = affine.reduce(x)
    reach = affine.reach()
    jump, point = affine.jump, None
    step = affine.step_back if backward else affine.step
    if affine._lattice_map is not None:
        factor = _TorusFactor(affine, None, (state,))
        state, jump, point = factor.state(state), factor.jump, factor.point
        step = factor.retreat if backward else factor.advance
    out, at = [], 0
    for k in ks:
        if reach is not None and k - at > reach:
            state = jump(state, at - k if backward else k - at)
        else:
            for _ in range(k - at):
                state = step(state)
        at = k
        out.append(state if point is None else point(state))
    return out


def _affine_mod(rows, shift, den, s) -> list:
    """rows s + shift mod den, for sparse integer rows."""
    return [(sum(u * s[k] for k, u in row) + a) % den
            for row, a in zip(rows, shift)]


def _convergent_denominators(value: Fraction, bound: int) -> list:
    """Denominators of the continued-fraction convergents of value."""
    value = value - math.floor(value)
    if value == 0:
        return [1]
    out = []
    h_prev, h = 0, 1  # denominators q_{-1}, q_0
    a = value
    while True:
        q = math.floor(1 / a) if a else None
        if q is None:
            break
        h_prev, h = h, q * h + h_prev
        if h > bound:
            break
        out.append(h)
        a = 1 / a - q
        if a == 0:
            break
    return out


def find_forward_sequence(affine: NumericAffine, x, y, eps, horizon,
                          *, start: int = 0, limit: int = 10) -> tuple:
    """Indices k in [start, horizon] with dist(T^k x, y) < eps.

    Returns up to `limit` indices in increasing order.  For pure
    translations of an abelian group the continued-fraction convergent
    denominators of the translation's lattice coordinates are tried first,
    each by one jump and integer test of the torus factor.  Otherwise an
    incremental scan runs, and stops after one period once the exact orbit
    returns to x.  A torus map or a pure translation scans its torus
    factor in integers, one integer affine map per k, and builds T^k x
    only where the factor cannot reject or is back at x's; every other map
    steps.  Each point is tested with NumericAffine.near, which decides
    only whether the distance is under eps.  Deterministic in (map, x, y,
    eps, horizon).  Raises NotFound when nothing is found.
    """
    return tuple(k for k, _ in _returns(affine, x, y, eps, horizon,
                                        start, limit))


def _returns(affine: NumericAffine, x, y, eps, horizon, start: int,
             limit: int) -> list:
    """The pairs (k, T^k x) for the indices of find_forward_sequence.

    The points are those the scan visits (_orbit): every T^k x for a map
    that steps, and for a map with a torus factor the ones its factor
    keeps, which include every return and every T^k x equal to x, so the
    period is found as by stepping.
    """
    eps = to_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    horizon = int(horizon)
    x = affine.reduce(x)
    y = affine.reduce(y)
    hits = []  # (k, T^k x), k increasing
    if start <= 0 and affine.near(x, y, eps):
        hits.append((0, x))
        if len(hits) >= limit:
            return hits
    lo = max(start, 1)
    factor = None
    if affine._lattice_map is not None or (affine.is_pure_translation()
                                           and affine._early):
        factor = _TorusFactor(affine, eps, (x, y))
    if affine.is_pure_translation() and affine.group.spec.abelian():
        origin, target = factor.state(x), factor.state(y)
        candidates = set()
        for a in affine.lattice.to_coords(affine.translation):
            candidates.update(_convergent_denominators(a, horizon))
        for k in sorted(candidates):
            if k < lo or k > horizon:
                continue
            s = factor.jump(origin, k)
            if not factor.rejects(s, target):
                hits.append((k, factor.point(s)))
                if len(hits) >= limit:
                    return hits
        if hits and hits[-1][0]:
            return hits
    # step is a function of the exact point, so once T^period x == x the
    # orbit repeats: one scanned window of `period` indices gives the rest
    period = None
    for k, p in _orbit(affine, factor, x, y, horizon):
        if period is not None and k >= lo + period:
            break
        if k >= lo and affine.near(p, y, eps):
            hits.append((k, p))
            if len(hits) >= limit:
                return hits
        if period is None and p == x:
            period = k
    window = [(h, q) for h, q in hits if h >= lo]
    if period is not None and lo + period <= horizon and window:
        for shift in count(period, period):
            for h, q in window:
                if h + shift > horizon:
                    return hits
                hits.append((h + shift, q))
                if len(hits) >= limit:
                    return hits
    if not hits:
        raise NotFound(f"no return within horizon {horizon}")
    return hits


def _orbit(affine: NumericAffine, factor: Optional[_TorusFactor], x, y,
           horizon: int):
    """(k, T^k x) for k = 1..horizon, leaving out each k at which the torus
    factor shows that T^k x is neither within eps of y nor equal to x.

    A torus map's factor is all of its lattice coordinates, and its test is
    exactly near(); a pure translation of another group has the factor of
    the coordinates near() reads before any product.  The scan advances
    the factor by one integer affine map mod den per k, and builds the
    points left in from the state (on a torus) or by one closed-form jump
    each.  A map with no factor steps to every k.
    """
    if factor is None:
        p = x
        for k in range(1, horizon + 1):
            p = affine.step(p)
            yield k, p
        return
    torus = affine._lattice_map is not None
    start, target = factor.state(x), factor.state(y)
    s = start
    for k in range(1, horizon + 1):
        s = factor.advance(s)
        if s == start or not factor.rejects(s, target):
            yield k, factor.point(s) if torus else affine.jump(x, k)


def _snap(point) -> tuple:
    return tuple(Fraction(round(v * SNAP_GRID), SNAP_GRID) for v in point)


@record
class FalsificationWitness:
    """The data of one failed backward return (all entries exact)."""

    probe: tuple
    target: tuple
    sequence: tuple
    forward_distance: float
    backward_distance: float


@record
class AATestReport:
    trials: int
    horizon: int
    epsilon_forward: float
    seed: int
    verdict: str
    witness: Optional[FalsificationWitness]
    notes: tuple = ()


def _sample_probe(affine: NumericAffine, rng: random.Random) -> tuple:
    den = 2 ** 20
    coords = [Fraction(rng.randrange(den), den) for _ in range(affine.dim)]
    return affine.lattice.from_coords(coords)


def _run_trial(affine: NumericAffine, probe, eps, horizon):
    """One probe: forward cluster, snapped target, backward check.

    The forward points come from the scan that found the returns, each
    distinct one tested once; the backward ones from one walk from the
    target.  The two cluster checks are threshold tests; exact distances
    are computed only for a witness.
    Returns (witness or None, whether any forward return was found).
    """
    probe = affine.reduce(probe)
    try:
        returns = _returns(affine, probe, probe, eps, horizon, 1, 10)
    except NotFound:
        return None, False
    seq, forward = zip(*returns)
    target = _snap(forward[0])
    eps = to_fraction(eps)
    # a periodic orbit's returns repeat the window's point objects
    forward = {id(p): p for p in forward}.values()
    if not all(affine.near(p, target, eps) for p in forward):
        return None, True  # cluster is not tight around the snapped target
    backward = _walk(affine, target, seq, backward=True)
    # near() is strict, so only a distance of exactly 10 eps needs the
    # exact values to pass
    if all(affine.near(p, probe, 10 * eps) for p in backward):
        return None, True
    bwd = max(affine.distance(p, probe) for p in backward)
    if bwd <= 10 * eps:
        return None, True
    fwd = max(affine.distance(p, target) for p in forward)
    return FalsificationWitness(probe, target, seq, float(fwd),
                                float(bwd)), True


def aa_empirical_test(affine: NumericAffine, trials: int, eps, horizon,
                      seed: int, probes: Optional[Sequence] = None
                      ) -> AATestReport:
    """Empirical almost-automorphy test.

    Each trial takes a probe x (given, or pseudo-randomly sampled from
    the seeded generator), finds up to ten forward near-returns of x,
    snaps the first return point to the dyadic grid as the candidate
    limit y0, and measures the worst backward distance of T^-k y0 from x
    over the same indices.  A trial with forward cluster below eps and
    backward distance above 10*eps falsifies; otherwise the report stays
    ConsistentWithAA.  Trials are independent; the witness reported is
    the one with the lowest trial index.
    """
    horizon = int(horizon)
    rng = random.Random(seed)
    given = [affine.reduce(p) for p in probes or ()][:trials]
    witness = None
    found_returns = 0
    for i in range(trials):
        # sampled when its trial starts, so memory does not grow with trials
        probe = given[i] if i < len(given) else _sample_probe(affine, rng)
        result, had_returns = _run_trial(affine, probe, eps, horizon)
        if result is not None and witness is None:
            witness = result
        if had_returns:
            found_returns += 1
    notes = (f"forward returns found for {found_returns} of "
             f"{trials} probes",)
    verdict = FALSIFIED if witness is not None else CONSISTENT
    return AATestReport(trials=trials, horizon=horizon,
                        epsilon_forward=float(to_fraction(eps)), seed=seed,
                        verdict=verdict, witness=witness, notes=notes)


def trajectory(affine: NumericAffine, x, kmax: int) -> list:
    """Points (k, T^k x) for k = 0..kmax, in one walk along the orbit."""
    return list(enumerate(_walk(affine, x, range(kmax + 1))))
