"""Simply connected nilpotent groups in exponential coordinates.

A group element is identified with its logarithm, a coordinate vector in the
Lie algebra, and multiplication is the Baker-Campbell-Hausdorff series.  For
a nilpotent algebra of class c the series is a finite sum over words of
length at most c, so multiplication is exact rational (or polynomial, when
coordinates carry symbolic parameters).

BCH coefficients are obtained once per class by expanding log(e^X e^Y) in
the truncated free associative algebra on two letters and projecting each
word to its left-normed bracket; for a homogeneous Lie element of degree n
that projection is n times the element, which fixes the normalization.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence

from .nilalg import LieAlgebraSpec, validate_algebra
from .poly import (ParamVector, Poly, _add_scaled, _align_vectors, _cleaned,
                   _merge, _vector)
from .ratlin import QMatrix, matrix_exp_nilpotent, matrix_log_unipotent, to_fraction

BCH_CLASS_CAP = 6


class ClassCapExceeded(ValueError):
    """Nilpotency class above the supported truncation depth."""


def _fa_mul(p: dict, q: dict, cap: int) -> dict:
    out: dict[tuple[int, ...], Fraction] = {}
    for w1, c1 in p.items():
        if len(w1) > cap:
            continue
        for w2, c2 in q.items():
            if len(w1) + len(w2) > cap:
                continue
            w = w1 + w2
            acc = out.get(w, Fraction(0)) + c1 * c2
            if acc:
                out[w] = acc
            else:
                out.pop(w, None)
    return out


@lru_cache(maxsize=None)
def bch_table(cap: int) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """BCH terms up to word length cap.

    Each entry (word, coeff) contributes coeff times the left-normed bracket
    of the word, letters 0 and 1 standing for the two arguments.  The degree
    1 and 2 entries reproduce X + Y + [X,Y]/2.
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
            for w, c in term.items():
                out[w] = out.get(w, Fraction(0)) + c
        return {w: c for w, c in out.items() if c}

    z = _fa_mul(fa_exp({(0,): Fraction(1)}), fa_exp({(1,): Fraction(1)}), cap)
    u = {w: c for w, c in z.items() if w}  # z - 1
    log = {}
    power = dict(one)
    for k in range(1, cap + 1):
        power = _fa_mul(power, u, cap)
        sign = Fraction((-1) ** (k + 1), k)
        for w, c in power.items():
            acc = log.get(w, Fraction(0)) + sign * c
            if acc:
                log[w] = acc
            else:
                log.pop(w, None)
    # Dynkin projection: a degree-n Lie element equals 1/n times the sum of
    # left-normed bracketings of its words
    terms = [(w, c / len(w)) for w, c in sorted(log.items(), key=lambda t: (len(t[0]), t[0]))]
    return tuple(terms)


class NilpotentGroup:
    """Group law, adjoint action, and affine defect for one algebra."""

    def __init__(self, spec: LieAlgebraSpec):
        self.spec = spec
        self.nilpotency_class, self.lower_central_series = validate_algebra(spec)
        if self.nilpotency_class > BCH_CLASS_CAP:
            raise ClassCapExceeded(
                f"nilpotency class {self.nilpotency_class} exceeds cap {BCH_CLASS_CAP}")
        self._terms = bch_table(self.nilpotency_class)
        self._law = None  # mult() expanded on symbolic arguments, see mult_vec

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
        """mult(v, w) expanded on symbolic arguments, for mult_vec.

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
            names = tuple(f"v{i + 1}" for i in range(d)) + tuple(f"w{i + 1}" for i in range(d))
            z = [Poly.variable(n, names) for n in names]
            product = self.mult(ParamVector(names, z[:d]), ParamVector(names, z[d:]))
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
            for p in product.entries:
                scale = lcm(*(c.denominator for c in p.terms.values()))
                levels = [[] for _ in range(p.degree())]
                for exps in p.monomials():
                    factors = tuple(i for i, e in enumerate(exps) for _ in range(e))
                    coeff = p.terms[exps] * scale
                    levels[len(factors) - 1].append((coeff.numerator, value_index(factors)))
                coords.append((scale, levels))
            self._law = (monomials, coords)
        return self._law

    def mult(self, v: ParamVector, w: ParamVector) -> ParamVector:
        """log(exp v exp w) for polynomial coordinate vectors.

        Each left-normed bracket of a BCH word is computed once from the
        bracket of its prefix and shared by every word extending that
        prefix; a zero prefix ends all of them.
        """
        if v.dim != self.dim or w.dim != self.dim:
            raise ValueError(f"expected two vectors of length {self.dim}")
        v, w = _align_vectors(v, w)
        params = v.params
        args = (v, w)
        brackets = {(0,): v, (1,): w}  # word -> left-normed bracket, None if 0
        out = [{} for _ in range(self.dim)]
        for word, coeff in self._terms:
            n = len(word)
            while word[:n] not in brackets:
                n -= 1
            acc = brackets[word[:n]]
            while acc is not None and n < len(word):
                acc = self.spec.bracket(acc, args[word[n]])
                if acc.is_zero():
                    acc = None
                n += 1
                brackets[word[:n]] = acc
            if acc is not None:
                for k, p in enumerate(acc.entries):
                    _add_scaled(out[k], coeff, p.terms)
        return _vector(params, tuple(_cleaned(params, acc) for acc in out))

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
        return matrix_log_unipotent(matrix)

    # ---- affine defect ----

    def defect_map(self, log_a: ParamVector, matrix: QMatrix) -> ParamVector:
        """Defect c(X) = log( exp(X)^{-1} exp(a) U(exp X) ).

        X ranges over the algebra through fresh symbolic coordinates
        X1, ..., Xd (XX1, ... or longer while a parameter of log_a has one
        of those names); the translation coordinates of log_a may carry
        their own parameters.  The affine map exp X -> exp(a) U(exp X)
        fixes directions where c vanishes and transports everything else.
        """
        d = self.dim
        if matrix.shape != (d, d):
            raise ValueError("automorphism matrix has wrong shape")
        prefix = "X"
        while any(f"{prefix}{i + 1}" in log_a.params for i in range(d)):
            prefix += "X"
        names = tuple(f"{prefix}{i + 1}" for i in range(d))
        params = _merge(log_a.params, names)
        X = ParamVector(params, [Poly.variable(n, params) for n in names])
        a = ParamVector(params, [p.with_params(params) for p in log_a.entries])
        inner = self.mult(a, matrix.apply(X))
        return self.mult(-X, inner)
