"""Sparse multivariate polynomials over the rationals.

Translation parts of affine maps may carry free parameters ("t", "s", ...)
standing for algebraically independent real numbers, so coordinates of group
elements are polynomials in those parameters with Fraction coefficients.
The representation is deliberately small: an ordered tuple of parameter
names plus a dict mapping exponent tuples to nonzero coefficients.  All
arithmetic is exact.

One computation runs in one ring Q[params]: arithmetic on operands over
different parameter tuples raises ValueError naming both.  Re-expressing
over another tuple is explicit (Poly.with_params, the ParamVector
constructor), and the one place that extends a tuple is the defect map,
which adjoins the point coordinates under fresh names.

Monomial order used for printing and for any "first monomial" tie-break is
graded lexicographic: higher total degree first, then lexicographic in the
parameter tuple order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def _gradlex_key(exps: tuple[int, ...]):
    # sort() ascending with this key lists high degree first, then lex order
    return (-sum(exps), tuple(-e for e in exps))


class Poly:
    """Polynomial in a fixed ordered tuple of parameters, exact coefficients."""

    __slots__ = ("params", "terms")

    def __init__(self, params: Sequence[str], terms: Mapping[tuple[int, ...], object] | None = None):
        params = tuple(params)
        if len(set(params)) != len(params):
            raise ValueError(f"duplicate parameter names in {params}")
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(params) or any((not isinstance(e, int)) or e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for parameters {params}")
            c = _as_fraction(coeff)
            if c:
                clean[exps] = clean.get(exps, Fraction(0)) + c
                if not clean[exps]:
                    del clean[exps]
        self.params = params
        self.terms = clean

    # ---- constructors ----

    @classmethod
    def zero(cls, params: Sequence[str] = ()) -> "Poly":
        return cls(params)

    @classmethod
    def constant(cls, value, params: Sequence[str] = ()) -> "Poly":
        params = tuple(params)
        c = _as_fraction(value)
        if not c:
            return cls(params)
        return cls(params, {tuple(0 for _ in params): c})

    @classmethod
    def variable(cls, name: str, params: Sequence[str]) -> "Poly":
        params = tuple(params)
        if name not in params:
            raise ValueError(f"unknown parameter {name!r}, have {params}")
        if len(set(params)) != len(params):
            raise ValueError(f"duplicate parameter names in {params}")
        return _poly(params, {tuple(int(p == name) for p in params): Fraction(1)})

    # ---- parameter tuples ----

    def with_params(self, params: Sequence[str]) -> "Poly":
        """Re-express over another parameter tuple covering every used name."""
        params = tuple(params)
        if params == self.params:
            return self
        index = {name: k for k, name in enumerate(params)}
        if len(index) != len(params):
            raise ValueError(f"duplicate parameter names in {params}")
        missing = set(self.used_params()) - set(index)
        if missing:
            raise ValueError(f"parameters {sorted(missing)} missing from {params}")
        where = [index.get(name) for name in self.params]
        n = len(params)
        terms = {}
        for exps, coeff in self.terms.items():
            new = [0] * n
            for k, e in zip(where, exps):
                if e:
                    new[k] = e
            terms[tuple(new)] = coeff
        return _poly(params, terms)

    # ---- queries ----

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial gets -1."""
        if not self.terms:
            return -1
        return max(sum(exps) for exps in self.terms)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def monomials(self) -> list[tuple[int, ...]]:
        """Exponent tuples present, in graded lexicographic order (largest first)."""
        return sorted(self.terms, key=_gradlex_key)

    def used_params(self) -> tuple[str, ...]:
        used = set()
        for exps in self.terms:
            for name, e in zip(self.params, exps):
                if e:
                    used.add(name)
        return tuple(name for name in self.params if name in used)

    # ---- arithmetic ----

    def __neg__(self) -> "Poly":
        return _poly(self.params, {e: -c for e, c in self.terms.items()})

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(other, self.params)
        return _poly(_common(self.params, other.params),
                     _sum_terms(self.terms, other.terms, False))

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(other, self.params)
        return _poly(_common(self.params, other.params),
                     _sum_terms(self.terms, other.terms, True))

    def __rsub__(self, other) -> "Poly":
        return Poly.constant(other, self.params) - self

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = _as_fraction(other)
            if not c:
                return _poly(self.params, {})
            return _poly(self.params, {e: c * v for e, v in self.terms.items()})
        params = _common(self.params, other.params)
        terms: dict[tuple[int, ...], Fraction] = {}
        get = terms.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(map(add, e1, e2))
                acc = get(exps)
                if acc is None:
                    terms[exps] = c1 * c2
                else:
                    acc += c1 * c2
                    if acc:
                        terms[exps] = acc
                    else:
                        del terms[exps]
        return _poly(params, terms)

    __rmul__ = __mul__

    def substitute(self, values: Mapping[str, object]) -> Fraction:
        """Evaluate at exact rational parameter values."""
        vals = []
        for name in self.params:
            if name not in values:
                if name in self.used_params():
                    raise ValueError(f"no value supplied for parameter {name!r}")
                vals.append(Fraction(0))
            else:
                vals.append(_as_fraction(values[name]))
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, exps):
                if e:
                    term *= v ** e
            total += term
        return total

    # ---- comparison, printing ----

    def __eq__(self, other) -> bool:
        """Equal parameter tuples and terms; a number n is the constant
        Poly.constant(n, self.params)."""
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other, self.params)
        elif not isinstance(other, Poly):
            return NotImplemented
        return self.params == other.params and self.terms == other.terms

    def __hash__(self):
        return hash((self.params, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _term_str(self, exps: tuple[int, ...], coeff: Fraction) -> str:
        if not any(exps):
            return str(coeff)
        body = _monomial_str(exps, self.params)
        if coeff == 1:
            return body
        if coeff == -1:
            return f"-{body}"
        return f"{coeff}*{body}"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in self.monomials():
            s = self._term_str(exps, self.terms[exps])
            if parts:
                parts.append(f"- {s[1:]}" if s.startswith("-") else f"+ {s}")
            else:
                parts.append(s)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _monomial_str(exps: tuple[int, ...], params: tuple[str, ...]) -> str:
    """A monomial as "s*t^2"; "1" for the empty one."""
    return "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in zip(params, exps) if e) or "1"


def _poly(params: tuple[str, ...], terms: dict) -> Poly:
    """A Poly from parts that are clean by construction: distinct names,
    exponent tuples of their length, no zero coefficient.  Arithmetic
    results are built here; Poly() checks what comes from outside."""
    p = object.__new__(Poly)
    p.params = params
    p.terms = terms
    return p


def _common(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    """The one parameter tuple of two operands; ValueError naming both
    when they differ."""
    if a != b:
        raise ValueError(f"operands over different parameter tuples {a} and {b}")
    return a


def _shared(a: "ParamVector", b: "ParamVector") -> tuple[str, ...]:
    """_common for two vectors of one length."""
    if len(a.entries) != len(b.entries):
        raise ValueError(f"dimension mismatch: {len(a.entries)} vs {len(b.entries)}")
    return _common(a.params, b.params)


def _sum_terms(t1: dict, t2: dict, subtract: bool) -> dict:
    """t1 + t2 (t1 - t2 when subtract) on term dicts, zeros dropped."""
    terms = dict(t1)
    get = terms.get
    for exps, coeff in t2.items():
        acc = get(exps)
        if acc is None:
            terms[exps] = -coeff if subtract else coeff
        else:
            acc = acc - coeff if subtract else acc + coeff
            if acc:
                terms[exps] = acc
            else:
                del terms[exps]
    return terms


def _add_scaled(acc: dict, a: int | Fraction, terms: dict) -> None:
    """acc += a * terms in place, with no product when a is 1; zero
    coefficients may be left in acc, _cleaned drops them."""
    get = acc.get
    if a == 1:
        for exps, coeff in terms.items():
            prev = get(exps)
            acc[exps] = coeff if prev is None else prev + coeff
    else:
        for exps, coeff in terms.items():
            prev = get(exps)
            acc[exps] = a * coeff if prev is None else prev + a * coeff


def _cleaned(params: tuple[str, ...], acc: dict) -> Poly:
    return _poly(params, {e: c for e, c in acc.items() if c})


_TOKEN_RE = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z_]\w*|\^|\*|\+|-)")


def _tokenize(text: str) -> list[str]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"unexpected character {text[pos:].strip()[0]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def _int(literal: str) -> int:
    """int(literal), with one message for a literal past the interpreter's
    digit limit for int(), whose own message differs between versions."""
    try:
        return int(literal)
    except ValueError:
        raise ValueError("integer literal longer than the interpreter's digit "
                         "limit for int()") from None


def parse_poly(text: str, params: Sequence[str]) -> Poly:
    """Parse sums of terms like "1/2", "t", "-3*t^2", "t*s" over the
    declared parameter tuple params.

    No parentheses; terms are separated by +/- (repeated signs multiply),
    factors by *, exponents are nonnegative integers.  Raises ValueError
    naming the first problem.  A coefficient stays an int until a
    fractional factor makes it a Fraction, and the terms are summed as
    they are read.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial")
    pos = 0
    out: dict = {}

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def signs() -> int:
        nonlocal pos
        sign = 1
        while peek() in ("+", "-"):
            if peek() == "-":
                sign = -sign
            pos += 1
        return sign

    def factor(coeff, powers: dict):
        nonlocal pos
        tok = peek()
        if tok is None:
            raise ValueError("incomplete term")
        pos += 1
        if tok[0].isdigit():
            num, _, den = tok.partition("/")
            if den and not _int(den):
                raise ValueError(f"zero denominator in {tok!r}")
            return coeff * (Fraction(_int(num), _int(den)) if den else _int(num))
        if tok[0].isalpha() or tok[0] == "_":
            if tok not in params:
                raise ValueError(f"unknown parameter {tok!r}")
            exp = 1
            if peek() == "^":
                pos += 1
                if peek() is None or not peek().isdigit():
                    raise ValueError("exponent must be an integer")
                exp = _int(peek())
                pos += 1
            powers[tok] = powers.get(tok, 0) + exp
            return coeff
        raise ValueError(f"unexpected token {tok!r}")

    while True:
        coeff, powers = signs(), {}
        coeff = factor(coeff, powers)
        while peek() == "*":
            pos += 1
            coeff = factor(coeff, powers)
        exps = tuple(powers.get(p, 0) for p in params)
        out[exps] = out[exps] + coeff if exps in out else coeff
        if peek() is None:
            break
        if peek() not in ("+", "-"):
            raise ValueError(f"expected '+' or '-', got {peek()!r}")

    params = tuple(params)
    if len(set(params)) != len(params):
        raise ValueError(f"duplicate parameter names in {params}")
    return _poly(params, {e: c if type(c) is Fraction else Fraction(c)
                          for e, c in out.items() if c})


class ParamVector:
    """Vector whose entries are polynomials over one shared parameter tuple."""

    __slots__ = ("params", "entries")

    def __init__(self, params: Sequence[str], entries: Iterable[Poly | object]):
        params = tuple(params)
        fixed = []
        for entry in entries:
            if isinstance(entry, Poly):
                fixed.append(entry.with_params(params))
            else:
                fixed.append(Poly.constant(entry, params))
        self.params = params
        self.entries = tuple(fixed)

    @classmethod
    def from_rationals(cls, values: Iterable[object], params: Sequence[str] = ()) -> "ParamVector":
        return cls(params, [Poly.constant(v, params) for v in values])

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Poly:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.entries)

    def __add__(self, other: "ParamVector") -> "ParamVector":
        return _vector(_shared(self, other),
                       tuple(x + y for x, y in zip(self.entries, other.entries)))

    def __sub__(self, other: "ParamVector") -> "ParamVector":
        return _vector(_shared(self, other),
                       tuple(x - y for x, y in zip(self.entries, other.entries)))

    def __neg__(self) -> "ParamVector":
        return _vector(self.params, tuple(-p for p in self.entries))

    def scale(self, c) -> "ParamVector":
        return _vector(self.params, tuple(p * c for p in self.entries))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamVector):
            return NotImplemented
        return self.params == other.params and self.entries == other.entries

    def __hash__(self):
        return hash(tuple(self.entries))

    def monomials(self) -> list[tuple[int, ...]]:
        """All exponent tuples appearing in any entry, graded lex, largest first."""
        seen = set()
        for p in self.entries:
            seen.update(p.terms)
        return sorted(seen, key=_gradlex_key)

    def coefficient_vectors(self) -> dict[tuple[int, ...], tuple[Fraction, ...]]:
        """Map each monomial to its vector of coefficients across entries.

        The defect of an affine map is such a vector of polynomials; rational
        subspace questions about it reduce to questions about these finitely
        many rational vectors.
        """
        out = {}
        for exps in self.monomials():
            out[exps] = tuple(p.coefficient(exps) for p in self.entries)
        return out

    def substitute(self, values: Mapping[str, object]) -> tuple[Fraction, ...]:
        return tuple(p.substitute(values) for p in self.entries)

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.entries) + ")"

    def __repr__(self) -> str:
        return f"ParamVector{self}"


def _vector(params: tuple[str, ...], entries: tuple[Poly, ...]) -> ParamVector:
    """A ParamVector from Polys already over params (unchecked, like _poly)."""
    v = object.__new__(ParamVector)
    v.params = params
    v.entries = entries
    return v
