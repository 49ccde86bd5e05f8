"""Exact polynomial layer: parsing, arithmetic, canonical order."""

import operator
import random
from fractions import Fraction

import pytest

from nilaa.poly import ParamVector, Poly, parse_poly


def F(s):
    return Fraction(s)


def test_parse_simple_forms():
    p = parse_poly("t", ("t",))
    assert p.coefficient((1,)) == 1 and len(p.terms) == 1

    p = parse_poly("0", ("t",))
    assert p.is_zero()

    p = parse_poly("-1/2", ("t",))
    assert p == Poly.constant(F("-1/2"), ("t",)) and p == F("-1/2")
    assert p.degree() == 0 and p.terms == {(0,): F("-1/2")}

    p = parse_poly("2*t^2 - s + 3/4", ("t", "s"))
    assert p.coefficient((2, 0)) == 2
    assert p.coefficient((0, 1)) == -1
    assert p.coefficient((0, 0)) == F("3/4")
    assert p.degree() == 2


def test_parse_collects_params_in_first_appearance_order():
    p = parse_poly("s*t + t^2")
    assert p.params == ("s", "t")
    assert p.coefficient((1, 1)) == 1
    assert p.coefficient((0, 2)) == 1


def test_str_is_graded_lex_and_reparses():
    p = parse_poly("s + t + t*s + t^2", ("t", "s"))
    assert str(p) == "t^2 + t*s + t + s"
    q = parse_poly(str(p), ("t", "s"))
    assert q == p

    p = parse_poly("-t + 1/2", ("t",))
    assert str(p) == "-t + 1/2"
    assert str(Poly.zero(("t",))) == "0"
    assert str(parse_poly("-3/4*t^2", ("t",))) == "-3/4*t^2"


def test_substitute_matches_hand_evaluation():
    p = parse_poly("2*t^2 - s + 3/4", ("t", "s"))
    t, s = F("1/3"), F("-2")
    assert p.substitute({"t": t, "s": s}) == 2 * t**2 - s + F("3/4")
    # unused parameters need no value
    q = parse_poly("1/2", ("t",))
    assert q.substitute({}) == F("1/2")
    with pytest.raises(ValueError):
        p.substitute({"t": 1})


def test_arithmetic_identities_random():
    rng = random.Random(20260815)
    params = ("t", "s")

    def rand_poly():
        terms = {}
        for _ in range(rng.randrange(4)):
            exps = (rng.randrange(3), rng.randrange(3))
            terms[exps] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
        return Poly(params, terms)

    for _ in range(200):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert p - p == Poly.zero(params)
        assert (p * q) * r == p * (q * r)
        vals = {"t": Fraction(rng.randrange(-4, 5), 3), "s": Fraction(rng.randrange(-4, 5), 7)}
        assert (p * q + r).substitute(vals) == p.substitute(vals) * q.substitute(vals) + r.substitute(vals)



def test_equality_compares_the_parameter_tuple():
    a = parse_poly("t + 1", ("t",))
    b = parse_poly("t + 1", ("t", "s"))
    c = parse_poly("t + 1", ("s", "t"))
    assert a == parse_poly("1 + t", ("t",))
    assert hash(a) == hash(parse_poly("1 + t", ("t",)))
    assert a != b and b != c and a != c
    # re-expressed over one tuple they are equal, hashes included
    assert a.with_params(b.params) == b and hash(a.with_params(b.params)) == hash(b)
    assert b.with_params(c.params) == c and hash(b.with_params(c.params)) == hash(c)
    assert a != parse_poly("t", ("t",))
    # a number is the constant over the polynomial's own tuple
    assert parse_poly("2", ("t",)) == 2 and parse_poly("2", ("t",)) != 3
    assert Poly.zero(("t", "s")) == 0 and parse_poly("t", ("t",)) != 0


def test_param_vector_coefficient_vectors():
    params = ("t", "s")
    v = ParamVector(params, [parse_poly("t + 1/2", params),
                             parse_poly("2*t - s", params),
                             Poly.zero(params)])
    cv = v.coefficient_vectors()
    assert cv[(1, 0)] == (F(1), F(2), F(0))
    assert cv[(0, 1)] == (F(0), F(-1), F(0))
    assert cv[(0, 0)] == (F("1/2"), F(0), F(0))
    assert set(cv) == {(1, 0), (0, 1), (0, 0)}
    # monomials come out graded lex, largest first
    assert v.monomials() == [(1, 0), (0, 1), (0, 0)]


def test_param_vector_arithmetic_and_substitution():
    params = ("t",)
    v = ParamVector(params, [parse_poly("t", params), Poly.constant(1, params)])
    w = ParamVector(params, [Poly.constant(F("1/2"), params), parse_poly("-t", params)])
    assert (v + w).substitute({"t": F("1/3")}) == (F("1/3") + F("1/2"), 1 - F("1/3"))
    assert (v - v).is_zero()
    assert v.scale(F(2))[0] == parse_poly("2*t", params)
    u = ParamVector.from_rationals([1, F("1/2")])
    assert u.params == () and u.substitute({}) == (F(1), F("1/2"))
    assert u == ParamVector((), [Poly.constant(1), Poly.constant(F("1/2"))])
    assert u != ParamVector.from_rationals([1, F("1/2")], params)


def test_param_vector_mixed_params_raise():
    a = ParamVector(("t",), [parse_poly("t", ("t",))])
    b = ParamVector(("s",), [parse_poly("s", ("s",))])
    for op in (operator.add, operator.sub):
        with pytest.raises(ValueError, match=r"\('t',\) and \('s',\)"):
            op(a, b)
    # the constructor re-expresses each vector over one tuple
    params = ("t", "s")
    c = ParamVector(params, a.entries) + ParamVector(params, b.entries)
    assert c.params == params
    assert c[0] == parse_poly("t + s", params)


def test_poly_arithmetic_across_parameter_tuples_raises():
    t, s = parse_poly("t + 1", ("t",)), parse_poly("s", ("s",))
    wide = ("t", "s")
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match=r"\('t',\) and \('s',\)"):
            op(t, s)
        with pytest.raises(ValueError, match="different parameter tuples"):
            op(t, t.with_params(wide))
        # with_params re-expresses explicitly, and then the operands agree
        got = op(t.with_params(wide), s.with_params(wide))
        assert got.params == wide
        values = {"t": F("2/3"), "s": F("-5/7")}
        assert got.substitute(values) == op(t.substitute(values), s.substitute(values))
    # a number operand takes the polynomial's own tuple
    assert (t - 1) == parse_poly("t", ("t",)) and (1 - t) == parse_poly("-t", ("t",))


def _assert_clean(p):
    """p is what the checked constructor makes of its own parts."""
    again = Poly(p.params, p.terms)
    assert p == again and p.terms == again.terms and p.params == again.params
    assert all(type(c) is Fraction and c for c in p.terms.values())
    assert all(len(e) == len(p.params) for e in p.terms)


def test_arithmetic_results_are_clean():
    rng = random.Random(67)
    shapes = (("t", "s"), ("s",), ("t", "u"))

    def rand_poly(params):
        terms = {}
        for _ in range(rng.randrange(5)):
            exps = tuple(rng.randrange(3) for _ in params)
            terms[exps] = Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
        return Poly(params, terms)

    wide = ("t", "s", "u", "v")
    for _ in range(150):
        shape = rng.choice(shapes)
        p, q = rand_poly(shape), rand_poly(shape)
        other = rand_poly(rng.choice([s for s in shapes if s != shape]))
        c = rng.choice((0, 1, -1, Fraction(2, 3), "5/7"))
        results = [p + q, p - q, p * q, -p, p * 0, p - p, p * c, c * p, p + c,
                   c - p, p * p, p.with_params(wide),
                   p.with_params(("v", "u", "t", "s")),
                   p.with_params(wide) * other.with_params(wide),
                   p.with_params(wide) - other.with_params(wide)]
        for r in results:
            _assert_clean(r)
        assert (p * 0).terms == {} and (p - p).terms == {}
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError, match="different parameter tuples"):
                op(p, other)
        v = ParamVector(p.params, [p, p * p])
        w = ParamVector(q.params, [q, -q])
        for vec in (v + w, v - w, -v, v.scale(0), v.scale(c), v - v):
            assert len(vec.entries) == 2
            for r in vec.entries:
                assert r.params == vec.params
                _assert_clean(r)
    with pytest.raises(ValueError, match="duplicate"):
        Poly(("t",), {(1,): 1}).with_params(("t", "t"))
    with pytest.raises(ValueError, match="missing"):
        Poly(("t",), {(1,): 1}).with_params(("s",))


def test_variable_matches_checked_constructor():
    for params in (("t",), ("t", "s"), ("s", "t", "u"), ("x1", "x2", "x3", "x4")):
        for name in params:
            v = Poly.variable(name, list(params))
            expect = Poly(params, {tuple(int(p == name) for p in params): 1})
            assert v == expect and v.terms == expect.terms
            assert v.params == params and type(v.params) is tuple
            _assert_clean(v)
            assert v.substitute({p: Fraction(k + 2) for k, p in enumerate(params)}) \
                == params.index(name) + 2
    with pytest.raises(ValueError, match="unknown parameter 'u'"):
        Poly.variable("u", ("t", "s"))
    with pytest.raises(ValueError, match="duplicate"):
        Poly.variable("t", ("t", "s", "t"))
