"""Dynamical oracle on compact nilmanifolds, exact on dyadic inputs.

The module iterates affine maps numerically, searches for forward return
sequences, and runs an empirical version of the almost automorphy test:
find indices k_1 < ... < k_m whose forward images cluster at a point y,
then check whether the backward images of y under the same indices come
back to the start.  A failed backward return with a tight forward cluster
falsifies the property; the converse outcome is only evidence, since the
definition quantifies over all sequences.  A backward image is a forward
one of T^-1, an affine map of the same system (NumericAffine._inverse).

Inputs may be floats; they are converted to exact dyadic rationals once
(`Fraction(float)` is exact) and every orbit computation afterwards is
exact rational arithmetic, carried out in integers over one denominator.
Floating error can therefore only enter through the caller's choice of
probe, never through iteration.

N / Gamma is one class, CosetReducer, on lattice states: the lattice
coordinates of a point as integer numerators over one denominator.  Its
coset reduction produces canonical fundamental-domain representatives by
clearing lattice coordinates in an order along which right multiplication
by a generator shifts its own coordinate by exactly one and leaves the
already-cleared coordinates alone, as along a Malcev basis: a topological
order of the generators' shifts, read off the group law in lattice
coordinates (lattice._lattice_law) in any dimension, 0..d-1 on an abelian
algebra, and independent of the order in which the basis lists them.
Each floor is an integer division and each power of a generator one
evaluation of that law by the group's integer evaluator.
The coset metric is the class's too, on the same states, and the only
one: the map (NumericAffine) and a torus factor (_TorusFactor) step.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property
from itertools import count, product
from operator import add, sub
from typing import Optional, Sequence

from ._record import record
from .lattice import LogLattice, _lattice_law
from .nilgrp import NilpotentGroup, _IntegerLaw
from .ratlin import to_fraction, unipotency_index

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


def _reduction_order(laws: list[dict], modulus: int, bits: int
                     ) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """CosetReducer's order and which generators are central, read from
    the terms of the law P(y, n) of _lattice_law in n_i and no other n_k:
    generator i moves their coordinates, but for the term n_i of P_i.  It
    shifts cleanly when it does not move its own coordinate, and is central
    when it moves none.  The order is topological (Kahn, 1962): next comes
    the lowest remaining generator that no remaining one, itself included,
    moves.  Where none is left, the ValueError names the generators that
    do not shift cleanly or, if all do, those remaining."""
    d = len(laws)
    moved = [set() for _ in range(d)]
    for k, law in enumerate(laws):
        for m, c in law.items():
            n = m >> (bits * d)
            i = (n.bit_length() - 1) // bits
            if (n and not n & ((1 << (bits * i)) - 1)
                    and (k, m, c) != (i, 1 << (bits * (d + i)), modulus)):
                moved[i].add(k)
    chosen, remaining = [], list(range(d))
    while remaining:
        i = next((i for i in remaining
                  if not any(i in moved[j] for j in remaining)), None)
        if i is None:
            unclean = [i for i in remaining if i in moved[i]]
            raise ValueError(
                f"no reduction ordering: none of {unclean} shifts cleanly "
                f"after {chosen}" if unclean else
                f"no reduction ordering: each of {remaining} is moved by "
                f"another's shift after {chosen}")
        chosen.append(i)
        remaining.remove(i)
    return tuple(chosen), tuple(not m for m in moved)


def _lowest(nums, den: int) -> tuple:
    """The lattice state (nums, den) in lowest terms, den > 0."""
    g = math.gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple([n // g for n in nums]), den // g


class CosetReducer:
    """N / Gamma in integers: canonical fundamental-domain representatives
    and the coset metric, on lattice states.

    A lattice state is a point's lattice coordinates c = L^-1 x as integer
    numerators over one denominator, in lowest terms: (u, D) with c = u / D
    and D > 0.  state() and point() convert, and product() is the group
    law in lattice coordinates, P of _lattice_law (m + n on an abelian
    algebra), compiled once for nilgrp's integer evaluator.

    reduce_state() right-multiplies by integer powers of the generators,
    in `ordering`, until every lattice coordinate lies in [0, 1): each
    floor is an integer division, each power one evaluation of P.  reduce()
    is its Fraction wrapper on points.  A basis has `ordering` exactly
    when every generator shifts its own coordinate cleanly and no shifts
    move each other's coordinates in a cycle; otherwise ValueError.

    distance() and near() measure the cosets of two lattice states: the
    least max-norm of x - y gamma over the lattice element gamma nearest
    to y^-1 x in lattice coordinates and, unless the group is abelian, its
    {-1,0,1}^d lattice neighbours.  Central generators only add to the
    difference, so only the non-central moves cost a group product; the
    central ones are shifts of the norm.  The moves, shifts and the rows
    that near() reads before any product are built at their first use, so
    a reducer of any dimension builds; NumericAffine caps the dimension of
    the search.  Both also take states not in lowest terms, such as a
    torus factor's (s, den).  On a torus every row is early and there are
    no moves or shifts: the nearest translate is the only candidate, with
    lattice coordinates c - round(c) for those c of x - y, so near()'s
    first phase decides the whole test and distance() makes no product.
    """

    def __init__(self, group: NilpotentGroup, lattice: LogLattice):
        if lattice.dim != group.dim:
            raise ValueError("lattice dimension does not match the algebra")
        self.group = group
        self.lattice = lattice
        d = lattice.dim
        self._torus = group.spec.abelian()
        if self._torus:  # P(m, n) = m + n
            laws, modulus, bits = [{1 << k: 1, 1 << (d + k): 1}
                                   for k in range(d)], 1, 1
            self.ordering, self._central = tuple(range(d)), (True,) * d
        else:
            laws, modulus, bits = _lattice_law(group, lattice)
            self.ordering, self._central = _reduction_order(laws, modulus, bits)
        self._laws = laws, modulus, bits
        # L = B / unit and L^-1 = A / E, as sparse integer rows
        self._unit, self._basis = lattice.basis.int_rows()
        self._inverse_unit, self._inverse = lattice._inverse.int_rows()

    @cached_property
    def _law(self) -> _IntegerLaw:
        """P(s, t) on lattice states, compiled at its first use."""
        return _IntegerLaw(*self._laws, common=True)

    @cached_property
    def _law_integral(self) -> _IntegerLaw:
        """P(s, n) on a lattice state s and an integer vector n, compiled
        at its first use."""
        return _IntegerLaw(*self._laws, common=True, integral_w=True)

    def state(self, vec: Sequence[object]) -> tuple:
        """The lattice state of the point vec: A x / E on the numerators
        of x over their common denominator."""
        x = [v if type(v) is Fraction else Fraction(v) for v in vec]
        den = math.lcm(*[a.denominator for a in x])
        u = [a.numerator * (den // a.denominator) for a in x]
        return _lowest([sum(a * u[j] for j, a in row) for row in self._inverse],
                       self._inverse_unit * den)

    def point(self, state) -> tuple[Fraction, ...]:
        """The point L c of a lattice state c = (u, D): B u / (unit D)."""
        u, den = state
        den *= self._unit
        return tuple(Fraction(sum(b * u[j] for j, b in row), den)
                     for row in self._basis)

    def product(self, s, t) -> tuple:
        """The lattice state of P(s, t), lattice states s and t, whose
        numerators need not be in lowest terms."""
        (u, ds), (v, dt) = s, t
        if ds == dt:
            den, vals = ds, [*u, *v]
        else:
            den = math.lcm(ds, dt)
            fs, ft = den // ds, den // dt
            vals = [a * fs for a in u] + [a * ft for a in v]
        law = self._law
        return _lowest(law(vals, den), law.scale * den ** law.top)

    def reduce_state(self, state) -> tuple:
        """The lattice state of the canonical representative of the coset
        of a lattice state in lowest terms."""
        u, den = state
        d = len(u)
        law = self._law_integral
        for i in self.ordering:
            k = u[i] // den
            if k:
                vals = [*u] + [0] * d
                vals[d + i] = -k
                u, den = _lowest(law(vals, den), law.scale * den ** law.top)
        if min(u) < 0 or max(u) >= den:
            raise ArithmeticError("reduction left the fundamental domain")
        return tuple(u), den

    def reduce(self, vec: Sequence[object]) -> tuple[Fraction, ...]:
        return self.point(self.reduce_state(self.state(vec)))

    # -- metric --

    @cached_property
    def _moves(self) -> list:
        """The candidates' moves from the nearest translate: None, then the
        nonzero lattice vectors e in {-1,0,1}^d on the non-central
        generators (none on a torus, where every generator is central)."""
        return [None, *_neighbours(self.lattice.dim, [
            j for j, c in enumerate(self._central) if not c])]

    @cached_property
    def _shifts(self) -> list:
        """The central shifts of the norm: on a non-abelian group the
        points L e, times the unit of the basis rows B = unit L, of the
        nonzero e in {-1,0,1}^d on the central generators.  On a torus
        the nearest translate is exact and there are none."""
        if self._torus:
            return []
        return [_rows_times(self._basis, e) for e in _neighbours(
            self.lattice.dim, [j for j, c in enumerate(self._central) if c])]

    @cached_property
    def _early(self) -> list:
        """The rows that near() rejects on before any product: (i, the
        sparse basis row B[i], the sorted nonzero entries m of the moves'
        points B e on coordinate i).

        On a coordinate i that no bracket or shift touches, y^-1 x is
        x - y.  Where B[i] reads only lattice coordinates j whose inverse
        row reads only such coordinates, the lattice coordinates of
        y^-1 x are c_j(x) - c_j(y), so r_i = sum_j B[i][j] (c_j -
        round(c_j)) / unit on them, and a move entry m puts its candidate
        at |r_i - m / unit| on coordinate i."""
        touched = {i for vec in (*self.group.spec.table.values(), *self._shifts)
                   for i, c in enumerate(vec) if c}
        readable = {j for j, row in enumerate(self._inverse)
                    if all(k not in touched for k, _ in row)}
        points = [_rows_times(self._basis, e) for e in self._moves[1:]]
        return [(i, row, sorted({p[i] for p in points if p[i]}))
                for i, row in enumerate(self._basis)
                if i not in touched and all(j in readable for j, _ in row)]

    def distance(self, s, t) -> Fraction:
        """The distance between the cosets of the lattice states s and t:
        the least candidate value."""
        if self._torus:
            (u, du), (v, dv) = s, t
            den = math.lcm(du, dv)
            fu, fv = den // du, den // dv
            gap = [a * fu - b * fv for a, b in zip(u, v)]
            gap = [c - den * _round(c, den) for c in gap]
            return Fraction(self._norm_near(gap, den), self._unit * den)
        return Fraction(*self._least(s, t, None))

    def near(self, s, t, eps: Fraction) -> bool:
        """distance(s, t) < eps, deciding no more than that.

        First, on the rows of _early, a coordinate that every candidate
        puts at eps or beyond rejects without a group product; on a torus
        that decides.  Then the candidates are searched with eps as the
        bound, up to the first one under it.
        """
        if self._rejects_early(s, t, eps):
            return False
        if self._torus:
            return True
        value, unit = self._least(s, t, eps)
        return value * eps.denominator < eps.numerator * unit

    def _rejects_early(self, s, t, eps: Fraction) -> bool:
        """near()'s first phase on lattice states s and t: some coordinate
        i of _early puts every candidate at eps or beyond, read from the
        lattice coordinates of x - y without a product.  Values are
        integers over unit * G, G the common denominator of s and t."""
        (u, du), (v, dv) = s, t
        den = math.lcm(du, dv)
        fu, fv = den // du, den // dv
        bound = eps.numerator * self._unit * den
        q = eps.denominator
        gap = {}
        for i, row, values in self._early:
            r = 0
            for j, b in row:
                if j not in gap:
                    c = u[j] * fu - v[j] * fv
                    gap[j] = c - den * _round(c, den)
                r += b * gap[j]
            if abs(r) * q >= bound and all(abs(r - m * den) * q >= bound
                                           for m in values):
                return True
        return False

    def _least(self, s, t, eps: Optional[Fraction]) -> tuple[int, int]:
        """(value, unit): the least candidate value times unit or, with
        eps, the first one under eps (ceil(eps * unit) when there is none).

        All values are integers over unit = B's unit times W, W the common
        denominator of s and of the products y * gamma.
        """
        law = self._law
        (u, du), (v, dv) = s, t
        # the lattice element nearest to y^-1 x
        den = math.lcm(du, dv)
        fu, fv = den // du, den // dv
        diff = law([-a * fv for a in v] + [a * fu for a in u], den)
        over = law.scale * den ** law.top
        base = [_round(c, over) for c in diff]
        # the values, integers over unit: y * gamma is over wide
        law = self._law_integral
        wide = law.scale * dv ** law.top
        den = math.lcm(du, wide)
        f = den // wide
        unit = self._unit * den
        x = [a * (den // du) for a in u]
        best = None if eps is None else \
            -(-eps.numerator * unit // eps.denominator)
        for e in self._moves:
            gamma = base if e is None else list(map(add, base, e))
            if any(gamma):
                w = [a - b * f for a, b in zip(x, law([*v, *gamma], dv))]
            else:
                w = list(map(sub, x, [a * (den // dv) for a in v]))
            value = self._norm_near(w, den)
            if best is None or value < best:
                best = value
                if eps is not None:
                    break
        return best, unit

    def _norm_near(self, w, den: int) -> int:
        """Least max-norm of L (w / den - z) times unit den over the
        central shifts z, w / den the lattice coordinates of x - y gamma."""
        point = _rows_times(self._basis, w)
        best = max(map(abs, point))
        for shift in self._shifts:
            best = min(best, max(abs(a - den * z) for a, z in zip(point, shift)))
        return best


class NumericAffine:
    """The affine map x -> a * U(x) of a validated system on N / Gamma.

    The group law, the lattice and the automorphism U come from the
    system; the translation a is given numerically and converted to exact
    rationals.  Points are logarithmic coordinates, reduced to the
    fundamental domain by the system's coset reducer, in any dimension.
    A non-abelian group needs dimension <= NEIGHBOUR_DIM_CAP, which bounds
    the lattice neighbours that distance() searches.

    The map steps in integers on the lattice states of its CosetReducer,
    which also holds the metric: there T is c -> P(c(a), U_L c), with P
    the group law in lattice coordinates and U_L = L^-1 U L the system's
    integral lattice_automorphism.  The methods on points (reduce, step,
    distance, near) convert on entry, delegate, and build Fractions only
    for the point or distance they return.  The map walks one way: T^-1 is
    the affine map _inverse of the same system, which walks forward too.
    The oracle's scans, walks and trials run in the orbit space that
    _space chooses once per map: a torus map's integer torus factor
    (_TorusFactor), and for every other map its lattice states (_Points),
    which _step, _jump and the reducer serve.
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
        self._pure = system.is_translation()
        abelian = system.group.spec.abelian()
        if d > NEIGHBOUR_DIM_CAP and not abelian:
            raise ValueError(
                f"the orbit oracle's lattice neighbour search supports "
                f"dimension <= {NEIGHBOUR_DIM_CAP} on a non-abelian group")
        self._reducer = reducer = CosetReducer(system.group, lattice)
        self._shift = reducer.state(translation)  # the lattice state of a
        self._conj = conj = system.lattice_automorphism
        self._lattice_map = conj.int_rows()[1]  # U_L, integral
        self._reach = 1 if self._pure else None
        if abelian:
            self._reach = unipotency_index(conj)

    # -- dynamics (exact) --

    def reduce(self, x) -> tuple:
        """Canonical representative of the coset of x."""
        return self._reducer.reduce(x)

    def _reduced_state(self, x) -> tuple:
        """The lattice state of the canonical representative of x: what
        the reducer's state() gives on reduce(x), made without building
        that point."""
        reducer = self._reducer
        return reducer.reduce_state(reducer.state(x))

    def step(self, x) -> tuple:
        """One forward application with reduction."""
        reducer = self._reducer
        return reducer.point(self._step(reducer.state(x)))

    def _step(self, s) -> tuple:
        """step() on lattice states: P(c(a), U_L s), reduced."""
        u, den = s
        reducer = self._reducer
        return reducer.reduce_state(reducer.product(
            self._shift, (_rows_times(self._lattice_map, u), den)))

    @cached_property
    def _inverse(self) -> NumericAffine:
        """T^-1 x = U^-1(a)^-1 U^-1(x), an affine map of the same system,
        built at its first use: in lattice coordinates c -> P(-U_L^-1 c(a),
        U_L^-1 c).  It shares the reducer, so it compiles no new law, and
        T's reach, as U_L^-1 = I - U_L^-1 N is unipotent of the same index
        exactly when U_L = I + N is.

        On a torus its factor (_TorusFactor) has T's den for the same eps
        and states: the factor reads every lattice coordinate, and U_L^-1
        is unimodular, so the translation's lattice coordinates keep their
        common denominator.  The two factors therefore share their states.
        """
        inverse = object.__new__(NumericAffine)
        vars(inverse).update(vars(self), _inverse=self)
        del inverse.matrix, inverse.translation  # T's; T^-1's are below
        if not self._pure:  # else U_L is I, its own inverse
            inverse._conj = self._conj.inverse()
            inverse._lattice_map = inverse._conj.int_rows()[1]
        u, den = self._shift
        inverse._shift = _lowest(
            [-a for a in _rows_times(inverse._lattice_map, u)], den)
        return inverse

    @cached_property
    def matrix(self):
        """U, given to __init__; T^-1's U^-1 is built at its first use."""
        return self._inverse.matrix.inverse()

    @cached_property
    def translation(self) -> tuple:
        """a, given to __init__; T^-1's U^-1(a)^-1 is built at first use."""
        return self._reducer.point(self._shift)

    def reach(self) -> Optional[int]:
        """The number of nonzero powers N^0, N^1, .. of N = U - I when the
        map has a closed form, else None: a pure translation (_jump) or a
        torus map with U_L unipotent (_TorusFactor.jump)."""
        return self._reach

    def _jump(self, s, m: int) -> tuple:
        """T^m, any integer m, on the lattice state s of a pure translation
        in one product: P(m c(a), s), reduced."""
        u, den = self._shift
        reducer = self._reducer
        return reducer.reduce_state(reducer.product(
            ([m * a for a in u], den), s))

    def is_pure_translation(self) -> bool:
        return self._pure

    # -- metric --

    def distance(self, x, y) -> Fraction:
        """Distance estimate between the cosets of x and y
        (CosetReducer.distance).

        Minimum of the max-norm of x - y * gamma over the lattice element
        gamma nearest to y^-1 x in lattice coordinates and, unless the
        group is abelian, its {-1,0,1}^d lattice neighbours.  On a torus
        this is the max-norm of the coordinate-wise circle distances.
        """
        reducer = self._reducer
        return reducer.distance(reducer.state(x), reducer.state(y))

    def near(self, x, y, eps) -> bool:
        """distance(x, y) < eps, deciding no more than that
        (CosetReducer.near)."""
        reducer = self._reducer
        return reducer.near(reducer.state(x), reducer.state(y),
                            to_fraction(eps))


def _neighbours(d: int, support: list) -> list:
    """The nonzero e in {-1,0,1}^d that vanish off `support`, in the order
    of their L1 norm and, within one norm, lexicographically."""
    steps = []
    for values in product((-1, 0, 1), repeat=len(support)):
        e = [0] * d
        for j, v in zip(support, values):
            e[j] = v
        steps.append(tuple(e))
    return sorted(steps, key=lambda e: sum(map(abs, e)))[1:]


def _rows_times(rows, vec) -> list:
    """The sparse integer rows applied to vec."""
    return [sum(a * vec[j] for j, a in row) for row in rows]


def _round(n: int, den: int) -> int:
    """round(n / den) for den > 0, a tie at 1/2 to the even integer, as
    round() on a Fraction."""
    q, r = divmod(n, den)
    if 2 * r > den or 2 * r == den and q & 1:
        q += 1
    return q


class _TorusFactor:
    """The integer dynamics of a map's torus factor: the lattice
    coordinates c_j that near()'s first phase reads (CosetReducer._early),
    on which T acts by c -> U_f c + c(a) mod 1, U_f the restriction of
    U_L = L^-1 U L, the system's integral lattice_automorphism, to them.

    The restriction is exact on the two kinds of map that _space and
    _Points.scan give a factor: a torus map, whose factor is every lattice
    coordinate (U_f = U_L), and a pure translation of a non-abelian group
    (U_L = I).  On the orbit of a reduced point every c_j lies in [0, 1)
    and is a multiple of 1/den, den the lcm of eps's denominator, those of
    the c_j of the translation and the given lattice states, and those of
    every point on the SNAP_GRID, the targets of a trial; so a state holds
    the integers den * c_j, in [0, den) and not another member of their
    class, as round() breaks a tie at 1/2 by parity.  With eps None the
    factor has no threshold test and den leaves eps out.  The metric is
    the reducer's: a torus map's state s is the lattice state (s, den),
    which near(), distance() and point() hand to it.
    """

    def __init__(self, affine: NumericAffine, eps: Optional[Fraction],
                 states):
        reducer = affine._reducer
        self._coords = coords = sorted({j for _, row, _ in reducer._early
                                        for j, _ in row})
        self._reducer = reducer
        self._reach = affine.reach()
        # a point on the SNAP_GRID has c_j = A_j x / E with x in the grid
        grid = [SNAP_GRID * (reducer._inverse_unit // math.gcd(
            reducer._inverse_unit, *(a for _, a in reducer._inverse[j])))
                for j in coords]
        self.den = math.lcm(1 if eps is None else eps.denominator, *grid, *(
            e // math.gcd(u[j], e) for u, e in (affine._shift, *states)
            for j in coords))
        self._eps = eps
        # U_f: U_L's rows on the factor's coordinates, by their places
        self._at = at = {j: n for n, j in enumerate(coords)}
        self._map = [[(at[k], u) for k, u in affine._lattice_map[j]]
                     for j in coords]
        self._drift = self._of(affine._shift)

    @cached_property
    def _tests(self) -> list:
        """scan's rows of near()'s first phase, pre-scaled to den, built at
        the first scan: (row on the factor's places, bound, move entries)."""
        eps, den, reducer = self._eps, self.den, self._reducer
        tests = []
        for _, row, values in reducer._early if eps else ():
            row = [(self._at[j], b) for j, b in row]
            bound = eps.numerator * reducer._unit * den // eps.denominator
            # a centred gap puts the value within sum |b| den / 2 of 0, so
            # a move entry further than that plus the bound never accepts
            reach = 2 * bound + sum(abs(b) for _, b in row) * den
            tests.append((row, bound, [
                m * den for m in values if 2 * abs(m * den) < reach]))
        return tests

    def advance(self, s) -> list:
        """The state of T(p) from the state s of p: U_f s + drift mod den."""
        den = self.den
        return [(sum(u * s[k] for k, u in row) + a) % den
                for row, a in zip(self._map, self._drift)]

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

    def walk(self, s, ks) -> list:
        """The states of T^k p for the increasing indices ks, from the
        state s of p: _visit on the factor."""
        return _visit(s, ks, self.advance, self.jump, self._reach)

    def tries(self, horizon: int) -> list:
        """The indices a return search tries first, each by one jump: for a
        pure translation (U_f = I), the continued-fraction convergent
        denominators up to horizon of its lattice coordinates; else none."""
        if self._reach != 1:
            return []
        return sorted({q for a in self._drift for q in
                       _convergent_denominators(Fraction(a, self.den),
                                                horizon)})

    def state(self, p) -> list:
        """den * c_j(p) mod den for the factor's coordinates j: the state of
        the reduced point of p."""
        return self._of(self._reducer.state(p))

    def _of(self, state) -> list:
        """The factor's state of a lattice state (u, D): den u_j / D mod
        den, exact on the points that den covers."""
        u, e = state
        den = self.den
        return [u[j] * den // e % den for j in self._coords]

    def point(self, s) -> tuple:
        """The point L s / den of a state of a torus map's factor."""
        return self._reducer.point((s, self.den))

    def near(self, s, t, eps: Fraction) -> bool:
        """CosetReducer.near of states s and t of a torus map's factor."""
        return self._reducer.near((s, self.den), (t, self.den), eps)

    def distance(self, s, t) -> Fraction:
        """CosetReducer.distance of states s and t of a torus map's
        factor."""
        return self._reducer.distance((s, self.den), (t, self.den))

    def scan(self, s, t, horizon: int):
        """(k, state of T^k p) for k = 1..horizon from the state s of p,
        leaving out each k whose state differs from s and whose point
        near()'s first phase (CosetReducer._rejects_early) rejects against
        the point of the state t; on a torus that phase is the whole test.

        One loop, with advance() and that phase inlined on the factor's
        rows, drift and tests, pre-scaled to den.  A coordinate whose row
        of U_f is its own unit row and whose drift is 0 is fixed; only the
        others advance (under U_f = I, every pure translation's, the
        coordinates with nonzero drift).  A test row that reads only fixed
        coordinates gives the same answer at every k, so it is decided
        once, before the loop; when it rejects, only the returns to s are
        left in.
        """
        den, half = self.den, self.den // 2
        start, s = s, list(s)
        # (j, row of U_f, drift) of the coordinates that move
        moving = [(j, row, a) for j, (row, a)
                  in enumerate(zip(self._map, self._drift))
                  if a or row != [(j, 1)]]
        fixed = set(range(len(s))) - {j for j, _, _ in moving}
        gap = [e - den if e > half else e + den if e < -half else e
               for e in map(sub, s, t)]
        tests = []
        for row, bound, moves in self._tests:
            if any(j not in fixed for j, _ in row):
                tests.append((row, bound, moves))
                continue
            r = sum(c * gap[j] for j, c in row)
            if abs(r) >= bound and all(abs(r - m) >= bound for m in moves):
                tests = None  # every state rejects
                break
        for k in range(1, horizon + 1):
            values = []
            for _, row, a in moving:
                v = a
                for i, u in row:
                    v += u * s[i]
                values.append(v % den)
            for (j, *_), v in zip(moving, values):
                s[j] = v
                e = v - t[j]
                gap[j] = e - den if e > half else e + den if e < -half else e
            if s == start:
                yield k, s[:]
            elif tests is not None:
                for row, bound, moves in tests:
                    r = 0
                    for j, c in row:
                        r += c * gap[j]
                    if abs(r) >= bound and (not moves or all(
                            abs(r - m) >= bound for m in moves)):
                        break
                else:
                    yield k, s[:]


class _Points:
    """The orbit space of a map that is not a torus map: a state is the
    lattice state of a point, state(), point(), near() and distance() are
    the map's CosetReducer's, and the steps are NumericAffine's state
    methods, all in integers."""

    def __init__(self, affine: NumericAffine, eps: Optional[Fraction]):
        self._affine, self._eps = affine, eps
        reducer = affine._reducer
        self.state, self.point = reducer.state, reducer.point
        self.near, self.distance = reducer.near, reducer.distance

    @staticmethod
    def _of(state) -> tuple:
        """The space's state of a lattice state: the state itself."""
        return state

    @staticmethod
    def tries(horizon: int) -> tuple:
        return ()

    def walk(self, x, ks) -> list:
        """The states T^k x for the increasing indices ks: _visit on
        lattice states.  x need not be reduced where ks starts above 0,
        since each step and jump reduces its coset."""
        affine = self._affine
        return _visit(x, ks, affine._step, affine._jump, affine.reach())

    def scan(self, x, y, horizon: int):
        """(k, T^k x) for k = 1..horizon from the state x of a reduced point.

        A pure translation whose near() reads a coordinate before any
        product builds its torus factor (_TorusFactor) as a filter: it
        leaves out each k at which the factor shows that T^k x is neither
        within eps of y nor equal to x, and builds each kept state by one
        jump.  Every other map steps to every k.
        """
        affine = self._affine
        if affine.is_pure_translation() and affine._reducer._early:
            factor = _TorusFactor(affine, self._eps, (x, y))
            for k, _ in factor.scan(factor._of(x), factor._of(y), horizon):
                yield k, affine._jump(x, k)
        else:
            p = x
            for k in range(1, horizon + 1):
                p = affine._step(p)
                yield k, p


def _space(affine: NumericAffine, eps: Optional[Fraction], states):
    """The orbit space of the map, chosen once, by the one test of a torus
    map: its torus factor (_TorusFactor), or every other map's lattice
    states (_Points); both keep their states in integers.  Both offer
    state (of a point), _of (of a lattice state), point, near, distance,
    walk, scan and tries, and jump where tries yields indices.  The space
    holds the given lattice states and the states of every point on the
    SNAP_GRID, and its scan keeps states within eps (None for a walk).
    """
    if affine.group.spec.abelian():
        return _TorusFactor(affine, eps, states)
    return _Points(affine, eps)


def iterate(affine: NumericAffine, x, k: int) -> tuple:
    """k-fold application (signed), reducing after every step: a negative
    k walks T^-1 (NumericAffine._inverse) forward by -k steps.

    Where the map has a closed form (the product (k a) x of a pure
    translation, _TorusFactor.jump of a unipotent torus map) a |k| longer
    than its number of N powers is one jump, which agrees with stepwise
    reduction.
    """
    if k < 0:
        affine, k = affine._inverse, -k
    return _walk(affine, x, (k,))[0]


def _walk(affine: NumericAffine, x, ks) -> list:
    """T^k x for each of the increasing indices ks, by one walk in the
    map's orbit space (_space) and one point built per index.  Each equals
    the point reached by stepping from x, since a step is a function of
    the exact point.
    """
    x = affine._reduced_state(x)
    space = _space(affine, None, (x,))
    return [space.point(s) for s in space.walk(space._of(x), ks)]


def _visit(state, ks, step, jump, reach: Optional[int]) -> list:
    """The states at the increasing indices ks along an orbit from state.

    A gap between consecutive indices larger than reach (None: no closed
    form) is one jump(state, gap) from the current state; every other gap
    is walked by step, so consecutive indices (a trajectory dump) cost one
    step each.
    """
    if ks and ks[-1] > ITERATE_CAP:
        raise ValueError("|k| exceeds the iteration cap")
    out, at = [], 0
    for k in ks:
        if reach is not None and k - at > reach:
            state = jump(state, k - at)
        else:
            for _ in range(k - at):
                state = step(state)
        at = k
        out.append(state)
    return out


def _convergent_denominators(value: Fraction, bound: int) -> list:
    """Denominators of the continued-fraction convergents of value, up to
    bound: Euclid on the numerator p and denominator q of its fractional
    part, each partial quotient floor(q / p) by one divmod."""
    q = value.denominator
    p = value.numerator % q
    if not p:
        return [1]
    out = []
    h_prev, h = 0, 1  # denominators q_{-1}, q_0
    while p:
        t, r = divmod(q, p)
        h_prev, h = h, t * h + h_prev
        if h > bound:
            break
        out.append(h)
        p, q = r, p
    return out


def find_forward_sequence(affine: NumericAffine, x, y, eps, horizon,
                          *, start: int = 0, limit: int = 10) -> tuple:
    """Indices k in [start, horizon] with dist(T^k x, y) < eps.

    Returns up to `limit` indices in increasing order, from one search in
    the map's orbit space (_space, _returns).  A pure translation of a
    torus first tries the continued-fraction convergent denominators of
    its lattice coordinates, each by one jump and integer test.  Otherwise
    an incremental scan runs, and stops after one period once the exact
    orbit returns to x.  A torus map scans and tests its integer states; a
    pure translation of another group scans its torus factor and builds
    the lattice state of T^k x only where the factor cannot reject or is
    back at x's; every other map steps and tests each lattice state.
    Deterministic in (map, x, y, eps, horizon).  Raises NotFound when
    nothing is found, and ValueError when limit < 1.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    eps = _epsilon(eps)
    x, y = affine._reduced_state(x), affine._reduced_state(y)
    space = _space(affine, eps, (x, y))
    return tuple(k for k, _ in _returns(space, space._of(x), space._of(y),
                                        eps, int(horizon), start, limit))


def _epsilon(eps) -> Fraction:
    eps = to_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    return eps


def _returns(space, x, y, eps: Fraction, horizon: int, start: int,
             limit: int) -> list:
    """The pairs (k, T^k x) for the indices of find_forward_sequence, T^k x
    a state of the map's orbit space (_space), from the states x and y of
    reduced points.

    The states tested are the space's tries and those its scan keeps,
    which include every return and every T^k x equal to x, so the period
    is found as by stepping.
    """
    hits = []  # (k, T^k x), k increasing
    if start <= 0 and space.near(x, y, eps):
        hits.append((0, x))
        if len(hits) >= limit:
            return hits
    lo = max(start, 1)
    for k in space.tries(horizon):
        if k >= lo:
            s = space.jump(x, k)
            if space.near(s, y, eps):
                hits.append((k, s))
                if len(hits) >= limit:
                    return hits
    if hits and hits[-1][0]:
        return hits
    # step is a function of the exact point, so once T^period x == x the
    # orbit repeats: one scanned window of `period` indices gives the rest
    period = None
    for k, p in space.scan(x, y, horizon):
        if period is not None and k >= lo + period:
            break
        if k >= lo and space.near(p, y, eps):
            hits.append((k, p))
            if len(hits) >= limit:
                return hits
        if period is None and p == x:
            period = k
        if period is not None and k + 1 >= lo + period:
            break  # the window [lo, lo + period) is complete
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
    """The reduced lattice state of a pseudo-random probe, whose lattice
    coordinates are multiples of 2^-20 in [0, 1)."""
    den = 2 ** 20
    return affine._reducer.reduce_state(
        _lowest([rng.randrange(den) for _ in range(affine.dim)], den))


def _run_trial(affine: NumericAffine, state, eps, horizon):
    """One probe, given as the lattice state of a reduced point: forward
    cluster, snapped target, backward check.

    The trial runs in the map's orbit space (_space), whose states also
    cover the snapped target.  The forward states come from the scan that
    found the returns, each distinct one tested once; the backward ones
    from one walk from the target in the orbit space of T^-1
    (NumericAffine._inverse), which has the same states.  The cluster
    checks are threshold tests (near); exact distances are computed only
    for a witness, and a point is built only to snap the first return
    and for a witness's probe.
    Returns (witness or None, whether any forward return was found).
    """
    eps = to_fraction(eps)
    space = _space(affine, eps, (state,))
    origin = space._of(state)
    try:
        returns = _returns(space, origin, origin, eps, int(horizon), 1, 10)
    except NotFound:
        return None, False
    seq, forward = zip(*returns)
    # a periodic orbit's returns repeat the window's states
    forward = {id(s): s for s in forward}.values()
    target = _snap(space.point(returns[0][1]))
    at = space.state(target)
    if not all(space.near(s, at, eps) for s in forward):
        return None, True  # cluster is not tight around the target
    backward = _space(affine._inverse, eps, (state,)).walk(at, seq)
    # near() is strict, so only a distance of exactly 10 eps needs the
    # exact values to pass
    if all(space.near(s, origin, 10 * eps) for s in backward):
        return None, True
    bwd = max(space.distance(s, origin) for s in backward)
    if bwd <= 10 * eps:
        return None, True
    fwd = max(space.distance(s, at) for s in forward)
    probe = affine._reducer.point(state)
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
    the one with the lowest trial index.  Raises ValueError when
    trials < 1 or horizon < 1 (no trial, or no forward index, is no
    evidence) or eps <= 0.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    eps = _epsilon(eps)
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    rng = random.Random(seed)
    given = list(probes or ())[:trials]
    witness = None
    found_returns = 0
    for i in range(trials):
        # sampled when its trial starts, so memory does not grow with trials
        state = (affine._reduced_state(given[i]) if i < len(given)
                 else _sample_probe(affine, rng))
        result, had_returns = _run_trial(affine, state, eps, horizon)
        if result is not None and witness is None:
            witness = result
        if had_returns:
            found_returns += 1
    notes = (f"forward returns found for {found_returns} of "
             f"{trials} probes",)
    verdict = FALSIFIED if witness is not None else CONSISTENT
    return AATestReport(trials=trials, horizon=horizon,
                        epsilon_forward=float(eps), seed=seed,
                        verdict=verdict, witness=witness, notes=notes)


def trajectory(affine: NumericAffine, x, kmax: int) -> list:
    """Points (k, T^k x) for k = 0..kmax, in one walk along the orbit."""
    return list(enumerate(_walk(affine, x, range(kmax + 1))))
