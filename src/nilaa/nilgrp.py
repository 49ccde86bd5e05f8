"""Simply connected nilpotent groups in exponential coordinates.

A group element is identified with its logarithm, a coordinate vector in the
Lie algebra, and multiplication is the Baker-Campbell-Hausdorff series.  For
a nilpotent algebra of class c the series is a finite sum over words of
length at most c, so multiplication is exact rational (or polynomial, when
coordinates carry symbolic parameters).

BCH coefficients are obtained once per class by expanding log(e^X e^Y) in
the truncated free associative algebra on two letters and writing it in the
Lyndon basis: the standard bracketing of a Lyndon word w is w plus
lexicographically larger words, so peeling off the least word left gives
each coefficient in turn.  A product then costs one bracket per Lyndon word
of the table or of a standard factor of one (17 at class 6).

One integer kernel, NilpotentGroup._lyndon, sums that series for both the
symbolic product mult and the group law in any basis: the arguments are
integer polynomials over one common denominator, their monomials packed
into the bit fields of one integer (only this module packs or unpacks
them), and each bracket is an integer product over the nonzero structure
constants (the integer form of the algebra, nilalg.LieAlgebraSpec._ints).

The group law in a basis L, P(m, n) = L^-1 bch(L m, L n), has one
constructor, NilpotentGroup.law, memoized on the group per basis.  It
exposes its terms, which lattice validation and the coset reducer's
order read, and one integer evaluator, _IntegerLaw, compiled at its
first evaluation, runs it on the numerators of its arguments over their
common denominator: for mult_vec, its Fraction wrapper, for the orbit
oracle's coset reducer (orbit.CosetReducer), and for the suspension's
embedding check, which also evaluates its translations as one polynomial
map (integer_map, suspension.embedding_consistency_check).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Sequence

from .nilalg import LieAlgebraSpec, validate_algebra
from .poly import ParamVector, Poly, _poly, _shared, _vector
from .ratlin import NotUnipotent, QMatrix, matrix_exp_nilpotent, \
    matrix_log_unipotent, to_fraction

BCH_CLASS_CAP = 6


class ClassCapExceeded(ValueError):
    """Nilpotency class above the supported truncation depth."""


def _fa_mul(p: dict, q: dict, cap: int) -> dict:
    """p * q in the free associative algebra, words longer than cap dropped."""
    out: dict = {}
    for w1, c1 in p.items():
        _fa_add(out, c1, {w1 + w2: c2 for w2, c2 in q.items() if len(w1) + len(w2) <= cap})
    return out


def _fa_add(acc: dict, a, p: dict) -> None:
    """acc += a * p in place, zeros dropped."""
    for w, c in p.items():
        c = acc.get(w, 0) + a * c
        if c:
            acc[w] = c
        else:
            acc.pop(w, None)


def _graded(word: tuple[int, ...]) -> tuple:
    """Sort key: by length, then lexicographically."""
    return len(word), word


def _is_lyndon(word: tuple[int, ...]) -> bool:
    """A Lyndon word is smaller than each of its proper suffixes."""
    return all(word < word[i:] for i in range(1, len(word)))


def _standard_factorization(word: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(u, v) with word = uv and v its longest proper Lyndon suffix."""
    i = next(i for i in range(1, len(word)) if _is_lyndon(word[i:]))
    return word[:i], word[i:]


@lru_cache(maxsize=None)
def bch_table(cap: int) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """BCH terms up to word length cap, in the Lyndon basis.

    Each entry (word, coeff) is a Lyndon word over the letters 0 < 1, which
    stand for the two arguments, and contributes coeff times its standard
    bracketing P_w = [P_u, P_v], w = uv with v the longest proper Lyndon
    suffix.  Entries come by length, then lexicographically; the degree 1
    and 2 entries reproduce X + Y + [X,Y]/2.
    """
    if not 1 <= cap <= BCH_CLASS_CAP:
        raise ClassCapExceeded(f"BCH truncation {cap} outside 1..{BCH_CLASS_CAP}")
    one: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}

    def fa_exp(p: dict) -> dict:
        out = dict(one)
        term = dict(one)
        for k in range(1, cap + 1):
            term = _fa_mul(term, p, cap)
            term = {w: c / k for w, c in term.items()}
            _fa_add(out, 1, term)
        return out

    z = _fa_mul(fa_exp({(0,): Fraction(1)}), fa_exp({(1,): Fraction(1)}), cap)
    u = {w: c for w, c in z.items() if w}  # z - 1
    rest: dict[tuple[int, ...], Fraction] = {}
    power = dict(one)
    for k in range(1, cap + 1):
        power = _fa_mul(power, u, cap)
        _fa_add(rest, Fraction((-1) ** (k + 1), k), power)

    expanded: dict[tuple[int, ...], dict] = {}  # Lyndon word -> P_w, integral

    def bracketing(word):
        if word not in expanded:
            if len(word) == 1:
                expanded[word] = {word: 1}
            else:
                pu, pv = map(bracketing, _standard_factorization(word))
                expanded[word] = _fa_mul(pu, pv, cap)
                _fa_add(expanded[word], -1, _fa_mul(pv, pu, cap))
        return expanded[word]

    # P_w is w plus lexicographically larger words of its length, so the
    # least word left in a Lie element is Lyndon, carries its coefficient,
    # and grows with each subtraction
    terms = []
    while rest:
        word = min(rest, key=_graded)
        if not _is_lyndon(word) or (terms and _graded(word) <= _graded(terms[-1][0])):
            raise ArithmeticError(f"BCH remainder does not clear at word {word}")
        coeff = rest[word]
        terms.append((word, coeff))
        _fa_add(rest, -coeff, bracketing(word))
    return tuple(terms)


@lru_cache(maxsize=None)
def _bch_terms(cap: int) -> tuple[int, tuple]:
    """(L, terms): the coefficients of bch_table(cap) times the lcm L of
    their denominators, as (word, integer) pairs."""
    table = bch_table(cap)
    L = lcm(*(c.denominator for _, c in table))
    return L, tuple((word, c.numerator * (L // c.denominator)) for word, c in table)


@lru_cache(maxsize=None)
def _bracket_steps(cap: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]:
    """(w, u, v) for each Lyndon word of length >= 2 that bch_table(cap) or
    a factor of its words needs, factors first: P_w = [P_u, P_v]."""
    steps = {}

    def need(word):
        if len(word) > 1 and word not in steps:
            steps[word] = _standard_factorization(word)
            for factor in steps[word]:
                need(factor)

    for word, _ in bch_table(cap):
        need(word)
    return tuple((w, *steps[w]) for w in sorted(steps, key=_graded))


def _int_bracket(pairs: tuple, a: list[dict], b: list[dict]) -> list[dict] | None:
    """[a, b] for polynomial vectors of NilpotentGroup._lyndon, None if
    zero: coordinate k sums c (a_i b_j - a_j b_i) over the integer
    structure constants (i, j, ((k, c), ...)) of NilpotentGroup._pairs."""
    out = [{} for _ in a]
    for i, j, terms in pairs:
        prod: dict = {}
        if a[i] and b[j]:
            _mul_add(prod, 1, a[i], b[j])
        if a[j] and b[i]:
            _mul_add(prod, -1, a[j], b[i])
        if prod:
            for k, c in terms:
                _add_scaled_int(out[k], c, prod)
    out = [{m: c for m, c in acc.items() if c} for acc in out]
    return out if any(out) else None


def _mul_add(acc: dict, a: int, p: dict, q: dict) -> None:
    """acc += a * p * q in place for polynomials of _lyndon; zero
    coefficients may be left in acc."""
    get = acc.get
    for m1, c1 in p.items():
        c1 *= a
        for m2, c2 in q.items():
            m = m1 + m2
            acc[m] = get(m, 0) + c1 * c2


def _add_scaled_int(acc: dict, a: int, p: dict) -> None:
    """acc += a * p in place for polynomials of _lyndon; zero
    coefficients may be left in acc."""
    get = acc.get
    for m, c in p.items():
        acc[m] = get(m, 0) + a * c


def _packed(polys: Sequence[Poly], den: int, shifts: list[int]) -> list[dict]:
    """The polynomials times den as integer polynomials of _lyndon, the
    exponent of parameter i shifted by shifts[i]: the packing of mult's
    arguments and of integer_map."""
    return [{sum(e << s for e, s in zip(exps, shifts)): c.numerator * (den // c.denominator)
             for exps, c in p.terms.items()} for p in polys]


class _IntegerLaw:
    """An integer polynomial map of `count` variables z, such as a group
    law on z = (m, n): coordinate k is the sum of c z^e over terms[k],
    over modulus, each term (exponents, c) with exponents the pairs (i,
    e_i) of its variables by increasing i.  Built from integer polynomials
    packed as in NilpotentGroup._lyndon, `bits` bits per exponent.

    Called on the integer numerators vals of z over a common denominator
    D, it gives the numerators of the map at z over over(D) = scale D^top
    for every coordinate: scale is modulus over its gcd with every
    coefficient, top the largest degree.  It is compiled at the first
    evaluation (_program): values are indexed like the variables, then 1,
    then one per monomial of degree >= 2, monomials[i] = (parent, var)
    giving value count + 1 + i as value[parent] * value[var], one product
    each; coords has per coordinate its levels by degree 0..top of
    (coefficient * scale / modulus, value index) pairs, summed by Horner
    in D, so the value times scale D^top is sum_n S_n D^(top - n) for the
    level sums S_n.
    """

    def __init__(self, packed: list[dict], modulus: int, bits: int, count: int):
        self.modulus, self.count = modulus, count
        self.terms = []
        for poly in packed:
            terms = []
            for m, c in poly.items():
                exps = []  # by decreasing variable
                while m:
                    i = (m.bit_length() - 1) // bits
                    e = m >> (bits * i)
                    exps.append((i, e))
                    m -= e << (bits * i)
                exps.reverse()
                terms.append((tuple(exps), c))
            self.terms.append(terms)

    @cached_property
    def _program(self) -> tuple:
        """(monomials, coords, scale, top), compiled at the first use."""
        count, modulus = self.count, self.modulus
        index = {(): count, **{(i,): i for i in range(count)}}  # factors -> value
        monomials: list = []

        def value_index(factors):
            m = index.get(factors)
            if m is None:
                parent = value_index(factors[:-1])
                m = index[factors] = count + 1 + len(monomials)
                monomials.append((parent, factors[-1]))
            return m

        by_degree, top = [], 0
        for terms in self.terms:
            levels: dict = {}
            for exps, c in terms:
                factors = ()  # the variables of the monomial, with repeats
                for i, e in exps:
                    factors += (i,) * e
                n = len(factors)
                if n in levels:
                    levels[n].append((c, value_index(factors)))
                else:
                    levels[n] = [(c, value_index(factors))]
                if n > top:
                    top = n
            by_degree.append(levels)
        scale = modulus // gcd(modulus, *(c for terms in self.terms for _, c in terms))
        coords = [[[(c * scale // modulus, m) for c, m in levels.get(n, ())]
                   for n in range(top + 1)] for levels in by_degree]
        return monomials, coords, scale, top

    def __call__(self, vals: list, den: int) -> list:
        """The integer numerators of the map at vals over den, over
        over(den); appends 1 and the monomial values to vals."""
        monomials, coords, _, _ = self._program
        vals.append(1)
        for parent, var in monomials:
            vals.append(vals[parent] * vals[var])
        out = []
        for levels in coords:
            acc = 0
            for level in levels:
                acc *= den
                for coeff, m in level:
                    acc += coeff * vals[m]
            out.append(acc)
        return out

    def over(self, den: int) -> int:
        """The denominator of every coordinate of the values at numerators
        over den: scale den^top."""
        _, _, scale, top = self._program
        return scale * den ** top


def integer_map(vec: ParamVector) -> _IntegerLaw:
    """The entries of vec as one integer polynomial map of its parameters,
    constant terms included: scaled to integers over the lcm of their
    coefficients' denominators and packed as mult packs its arguments."""
    polys = vec.entries
    den = lcm(*(c.denominator for p in polys for c in p.terms.values()))
    bits = max((e for p in polys for exps in p.terms for e in exps), default=0).bit_length()
    return _IntegerLaw(_packed(polys, den, [bits * i for i in range(len(vec.params))]),
                       den, bits, len(vec.params))


class NilpotentGroup:
    """Group law, adjoint action, and affine defect for one algebra."""

    def __init__(self, spec: LieAlgebraSpec):
        self._setup(spec, validate_algebra(spec))

    @classmethod
    def _of_class(cls, spec: LieAlgebraSpec, nilpotency_class: int) -> "NilpotentGroup":
        """The group of an algebra whose Jacobi identity and class the
        caller has established, as the suspension does."""
        group = object.__new__(cls)
        group._setup(spec, nilpotency_class)
        return group

    def _setup(self, spec: LieAlgebraSpec, nilpotency_class: int) -> None:
        self.spec = spec
        self.nilpotency_class = nilpotency_class
        if nilpotency_class > BCH_CLASS_CAP:
            raise ClassCapExceeded(
                f"nilpotency class {nilpotency_class} exceeds the "
                f"supported scope (class <= {BCH_CLASS_CAP})")
        self._steps = _bracket_steps(nilpotency_class)
        # the integer data of _lyndon: the integer form of the algebra,
        # the nonzero structure constants times the lcm S of their
        # denominators per bracketing pair (i < j), and the BCH
        # coefficients times the lcm L of theirs
        S, self._pairs = spec._ints
        L, self._terms = _bch_terms(nilpotency_class)
        self._scale, self._bch_scale = S, L
        self._laws: dict = {}  # basis (None: standard) -> its law, see law()

    @property
    def dim(self) -> int:
        return self.spec.dim

    # ---- multiplication ----

    def mult_vec(self, v: Sequence[object], w: Sequence[object]) -> tuple[Fraction, ...]:
        """log(exp v exp w) for rational coordinate vectors.

        The Fraction wrapper of the standard law (law()), evaluated on the
        integer numerators of the arguments over their common denominator.
        An abelian law is v + w.
        """
        d = self.dim
        if len(v) != d or len(w) != d:
            raise ValueError(f"expected two vectors of length {d}")
        if self.nilpotency_class == 1:
            return tuple(to_fraction(a) + to_fraction(b) for a, b in zip(v, w))
        z = [x if type(x) is Fraction else Fraction(x) for x in (*v, *w)]
        den = lcm(*[x.denominator for x in z])
        law = self.law()
        out = law([x.numerator if den == 1 else x.numerator * (den // x.denominator)
                   for x in z], den)
        over = law.over(den)
        return tuple([Fraction(n, over) for n in out])

    def law(self, basis: QMatrix | None = None, inverse: QMatrix | None = None
            ) -> _IntegerLaw:
        """P(m, n) = L^-1 bch(L m, L n), the group law in the coordinates of
        the basis L (the standard law without one), as an integer
        polynomial map of (m, n); inverse is L^-1, which a LogLattice holds.

        Memoized on the group by basis: a QMatrix hashes its integer form,
        so equal bases share one law.  L = B / D and L^-1 = A / E with B, A
        integral, so _lyndon on the linear forms B m, B n over D gives
        bch(L m, L n) over base, and A applied to that gives P over E base.
        On an abelian algebra P is m + n in any basis; no product is made.
        """
        law = self._laws.get(basis)
        if law is None:
            d = self.dim
            bits = self.nilpotency_class.bit_length()  # no exponent exceeds the class
            units = [1 << (bits * i) for i in range(2 * d)]
            if self.nilpotency_class == 1:
                packed, modulus = [{units[k]: 1, units[d + k]: 1} for k in range(d)], 1
            else:
                D, B = (1, [((i, 1),) for i in range(d)]) if basis is None else basis.int_rows()
                packed, modulus = self._lyndon(*[[{units[offset + i]: b for i, b in row} for row in B]
                                                 for offset in (0, d)], D)
                if inverse is not None:
                    E, A = inverse.int_rows()
                    bch, packed, modulus = packed, [], E * modulus
                    for row in A:
                        acc: dict[int, int] = {}
                        for j, a in row:
                            _add_scaled_int(acc, a, bch[j])
                        packed.append({m: c for m, c in acc.items() if c})
            law = self._laws[basis] = _IntegerLaw(packed, modulus, bits, 2 * d)
        return law

    def mult(self, v: ParamVector, w: ParamVector) -> ParamVector:
        """log(exp v exp w) for polynomial coordinate vectors: _lyndon on
        their numerators over the common denominator of the coefficients."""
        if v.dim != self.dim or w.dim != self.dim:
            raise ValueError(f"expected two vectors of length {self.dim}")
        params = _shared(v, w)
        polys = (*v.entries, *w.entries)
        den = lcm(*(c.denominator for p in polys for c in p.terms.values()))
        # no exponent of the product exceeds the class times the largest
        # exponent of the arguments
        bits = (self.nilpotency_class * max(
            (e for p in polys for exps in p.terms for e in exps), default=0)).bit_length()
        shifts = [bits * i for i in range(len(params))]
        mask = (1 << bits) - 1
        out, base = self._lyndon(_packed(v.entries, den, shifts),
                                 _packed(w.entries, den, shifts), den)
        return _vector(params, tuple(
            _poly(params, {tuple(m >> s & mask for s in shifts): Fraction(c, base)
                           for m, c in terms.items()})
            for terms in out))

    def _lyndon(self, v: list[dict], w: list[dict], den: int) -> tuple[list[dict], int]:
        """log(exp(v/den) exp(w/den)) for integer polynomial vectors v, w.

        A polynomial is a dict from monomials to nonzero integers; a
        monomial packs its exponents into fixed-width bit fields of one
        integer, so monomials multiply by adding.  Returns (out, base):
        the product's coefficients are those of out over base.

        Sums the Lyndon-basis BCH series: one bracket per Lyndon word,
        factors first, each the integer bracket of its standard factors
        under the structure constants times S; a zero factor zeroes every
        word built on it.  The true bracket of a word of length n is thus
        its integer one over S^(n-1) D^n (D = den), and the levels meet
        over base = L S^(top-1) D^top, level n weighted by (S D)^(top-n):
        the Horner sum in S D, expanded.
        """
        pairs = self._pairs
        brackets = {(0,): v, (1,): w}  # Lyndon word -> its bracket, None if 0
        for word, left, right in self._steps:
            a, b = brackets[left], brackets[right]
            brackets[word] = None if a is None or b is None else _int_bracket(pairs, a, b)
        top = self.nilpotency_class
        step = self._scale * den
        out = [{} for _ in v]
        for word, coeff in self._terms:
            acc = brackets[word]
            if acc is not None:
                weight = coeff * step ** (top - len(word))
                for k, p in enumerate(acc):
                    if p:
                        _add_scaled_int(out[k], weight, p)
        base = self._bch_scale * self._scale ** (top - 1) * den ** top
        return [{m: c for m, c in acc.items() if c} for acc in out], base

    def inv(self, v):
        """exp(v)^{-1} = exp(-v) in any group."""
        if isinstance(v, ParamVector):
            return -v
        return tuple(-to_fraction(x) for x in v)

    # ---- adjoint action ----

    def adjoint_matrix(self, v: Sequence[object]) -> QMatrix:
        """Ad(exp v) = exp(ad_v) on the algebra, rational v."""
        return matrix_exp_nilpotent(self.spec.ad_matrix(v))

    # ---- automorphism logarithms ----

    def log_automorphism(self, matrix: QMatrix) -> QMatrix:
        """log of a unipotent algebra automorphism; raises NotUnipotent.

        That the log is a derivation D is the Jacobi identity on the triples
        (delta, x_i, x_j) of the algebra with [delta, x] = D x adjoined, which
        suspend checks (nilalg.check_derivation).  Raises ValueError unless
        the matrix is d x d.
        """
        if matrix.shape != (self.dim, self.dim):
            raise ValueError("automorphism matrix has wrong shape")
        try:
            return matrix_log_unipotent(matrix)
        except NotUnipotent as exc:
            raise NotUnipotent(
                f"the automorphism is not unipotent: {exc}") from None

    # ---- affine defect ----

    def defect_map(self, log_a: ParamVector, matrix: QMatrix) -> ParamVector:
        """Defect c(X) = log( exp(X)^{-1} exp(a) U(exp X) ).

        X ranges over the algebra through fresh symbolic coordinates
        X1, ..., Xd (XX1, ... or longer while a parameter of log_a has one
        of those names), adjoined after the parameters of log_a: the one
        place a computation extends its parameter tuple.  The affine map
        exp X -> exp(a) U(exp X) fixes directions where c vanishes and
        transports everything else.
        """
        d = self.dim
        if matrix.shape != (d, d):
            raise ValueError("automorphism matrix has wrong shape")
        prefix = "X"
        while any(f"{prefix}{i + 1}" in log_a.params for i in range(d)):
            prefix += "X"
        names = tuple(f"{prefix}{i + 1}" for i in range(d))
        params = log_a.params + names
        X = ParamVector(params, [Poly.variable(n, params) for n in names])
        a = ParamVector(params, log_a.entries)
        inner = self.mult(a, matrix.apply(X))
        return self.mult(-X, inner)
