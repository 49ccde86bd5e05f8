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
symbolic product mult and the expanded law that mult_vec evaluates: the
arguments are integer polynomials over one common denominator, each bracket
is an integer product over the nonzero structure constants (scaled once per
group to integers), and only the final coefficients become Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
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


class NilpotentGroup:
    """Group law, adjoint action, and affine defect for one algebra."""

    def __init__(self, spec: LieAlgebraSpec):
        self.spec = spec
        self.nilpotency_class = validate_algebra(spec)
        if self.nilpotency_class > BCH_CLASS_CAP:
            raise ClassCapExceeded(
                f"nilpotency class {self.nilpotency_class} exceeds the "
                f"supported scope (class <= {BCH_CLASS_CAP})")
        self._steps = _bracket_steps(self.nilpotency_class)
        # the integer data of _lyndon: the nonzero structure constants
        # times the lcm S of their denominators, per bracketing pair
        # (i < j), and the BCH coefficients times the lcm L of theirs
        nonzero = [(i, j, spec._brackets[i][j]) for i, j in spec.table]
        S = lcm(*(x.denominator for _, _, terms in nonzero for _, x in terms))
        self._pairs = tuple((i, j, tuple((k, x.numerator * (S // x.denominator)) for k, x in terms))
                            for i, j, terms in nonzero)
        table = bch_table(self.nilpotency_class)
        L = lcm(*(c.denominator for _, c in table))
        self._terms = tuple((word, c.numerator * (L // c.denominator)) for word, c in table)
        self._scale, self._bch_scale = S, L
        self._law = None  # the group law on symbolic arguments, see mult_vec

    @property
    def dim(self) -> int:
        return self.spec.dim

    # ---- multiplication ----

    def mult_vec(self, v: Sequence[object], w: Sequence[object]) -> tuple[Fraction, ...]:
        """log(exp v exp w) for rational coordinate vectors.

        Evaluates the polynomial law of mult(), expanded once per group on
        symbolic arguments (v1..vd, w1..wd), so both share one source.  An
        abelian law is v + w.  Otherwise every monomial is evaluated once
        on the integer numerators of the arguments over their common
        denominator D, and each coordinate sums its integer-coefficient
        terms by degree (Horner in D) into one Fraction.
        """
        d = self.dim
        if len(v) != d or len(w) != d:
            raise ValueError(f"expected two vectors of length {d}")
        if self.nilpotency_class == 1:
            return tuple(to_fraction(a) + to_fraction(b) for a, b in zip(v, w))
        z = (*map(to_fraction, v), *map(to_fraction, w))
        den = lcm(*(x.denominator for x in z))
        vals = [x.numerator if den == 1 else x.numerator * (den // x.denominator)
                for x in z]
        monomials, coords = self._expanded_law()
        for parent, var in monomials:
            vals.append(vals[parent] * vals[var])
        out = []
        for scale, levels in coords:
            acc = 0
            for level in levels:
                if acc and den != 1:
                    acc *= den
                for coeff, m in level:
                    acc += coeff * vals[m]
            out.append(Fraction(acc, scale * den ** len(levels)))
        return tuple(out)

    def _expanded_law(self) -> tuple[list, list]:
        """The group law on the 2d unit variables (v1..vd, w1..wd), for
        mult_vec: _lyndon on those variables, indexed.

        Returns (monomials, coords).  Values are indexed like v + w, then
        one per monomial of degree >= 2: monomials[i] = (parent, var)
        gives value 2d + i as value[parent] * value[var], so each costs one
        product.  coords has per coordinate (scale, levels): the integer
        scale clears its coefficient denominators, and levels lists, from
        degree 1 up, (scale * coefficient, value index) pairs: the value
        times scale * D^top is sum_k S_k D^(top - k) for the level sums S_k.
        """
        if self._law is None:
            d = self.dim
            bits = self.nilpotency_class.bit_length()  # no exponent exceeds the class
            units = [{1 << (bits * i): 1} for i in range(2 * d)]
            index = {}
            monomials = []

            def value_index(factors):
                if len(factors) == 1:
                    return factors[0]
                if factors not in index:
                    parent = value_index(factors[:-1])
                    index[factors] = 2 * d + len(monomials)
                    monomials.append((parent, factors[-1]))
                return index[factors]

            coords = []
            product, base = self._lyndon(units[:d], units[d:], 1)
            for terms in product:
                g = gcd(base, *terms.values())  # base / g clears every c / base
                levels = []
                for m, c in terms.items():
                    factors = ()  # the variables of m, by decreasing index
                    while m:
                        i = (m.bit_length() - 1) // bits
                        factors += (i,)
                        m -= 1 << (bits * i)
                    levels += [[] for _ in range(len(factors) - len(levels))]
                    levels[len(factors) - 1].append((c // g, value_index(factors)))
                coords.append((base // g, levels))
            self._law = (monomials, coords)
        return self._law

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

        def packed(vec):
            return [{sum(e << s for e, s in zip(exps, shifts)): c.numerator * (den // c.denominator)
                     for exps, c in p.terms.items()} for p in vec.entries]

        out, base = self._lyndon(packed(v), packed(w), den)
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
        the suspension's NilpotentGroup checks.
        """
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
