"""Ring axioms, calculus, substitution, and division for the scalar layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onsaw.exactnum import (
    AlphabetError,
    ExactDivisionError,
    ParamPoly,
    SpectralLaurent,
    laurent_exact_div,
    parse_param_poly,
    plain,
    terms_of,
)
from onsaw.rmatrix import TensorOperator

ALPHA = ParamPoly.variable("alpha")
X = SpectralLaurent.variable("x")
Y = SpectralLaurent.variable("y")
ONE = SpectralLaurent.const(1)


def fractions():
    return st.builds(
        Fraction, st.integers(-20, 20), st.integers(1, 8)
    )


@st.composite
def param_polys(draw, names=("alpha", "mu")):
    terms = draw(st.lists(
        st.tuples(st.tuples(*(st.integers(0, 3) for _ in names)), fractions()),
        max_size=4,
    ))
    p = 0
    for exps, c in terms:
        mono = 1
        for name, e in zip(names, exps):
            mono = mono * ParamPoly.variable(name) ** e
        p = p + mono * c
    return plain(p)


def poly(c) -> ParamPoly:
    """A ParamPoly over the terms of a coefficient, to call its methods."""
    return ParamPoly(terms_of(c))


@st.composite
def laurents(draw, names=("x", "y")):
    terms = draw(st.lists(
        st.tuples(st.tuples(*(st.integers(-3, 3) for _ in names)), fractions()),
        max_size=4,
    ))
    p = SpectralLaurent.zero()
    for exps, c in terms:
        mono = SpectralLaurent.const(c)
        for name, e in zip(names, exps):
            mono = mono * SpectralLaurent.variable(name, e) if e else mono
        p = p + mono
    return p


def assert_stored_form(p):
    """Each stored coefficient is an int, or a Fraction that is not one."""
    for c in terms_of(p).values():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


@settings(max_examples=60)
@given(param_polys(), param_polys(), param_polys())
def test_param_poly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    for p in (a, a + b, a - b, a * b, a * c + b * c, -a):
        assert_stored_form(p)


@settings(max_examples=60)
@given(param_polys(), param_polys(), fractions())
def test_param_poly_stored_form(a, b, q):
    assert_stored_form(plain(q))
    assert_stored_form(q * a)
    assert_stored_form(a * q)
    assert_stored_form(parse_param_poly(str(a)))
    if q:
        assert_stored_form(poly(a).exact_div(q))
    if b:
        assert_stored_form(poly(a * b).exact_div(b))


def test_division_sites_keep_exact_rationals():
    from onsaw import onsager as on
    from onsaw.charges import proportionality

    half = poly(3).exact_div(2)
    assert terms_of(half) == {(): Fraction(3, 2)}
    assert type(half) is Fraction
    q = laurent_exact_div((X * X - ONE) * 2, X - ONE)
    assert q == X * 2 + ONE * 2
    assert all(type(c) is int for p in q.terms.values() for c in terms_of(p).values())
    sym = ("B0", 1, 2)
    a = on.OnsagerElement(3, {sym: 1})
    b = on.OnsagerElement(3, {sym: 2})
    r = proportionality(a, b)
    assert r == Fraction(1, 2) and type(r) is Fraction


def test_const_rejects_float():
    from onsaw.symcomb import SymbolCombination

    with pytest.raises(TypeError):
        ALPHA + 0.5
    with pytest.raises(TypeError):
        SpectralLaurent.const(0.5)
    with pytest.raises(TypeError):
        SymbolCombination(2).add_term(("s",), 0.5)
    assert terms_of(Fraction(4, 2)) == {(): 2}
    assert type(terms_of(Fraction(4, 2))[()]) is int
    assert type(terms_of(True)[()]) is int


@settings(max_examples=60)
@given(laurents(), laurents(), laurents())
def test_laurent_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=80)
@given(
    param_polys(("alpha", "eps")),
    st.one_of(st.integers(-5, 5), fractions(), st.sampled_from([1, -1, Fraction(-1)])),
)
def test_param_poly_scalar_fast_path(p, q):
    # scaling by a constant agrees with the general product of polynomials
    x = ParamPoly.variable("x")
    generic = p * (q + x) - p * x
    assert p * q == generic
    assert q * p == generic
    assert p * poly(q) == generic
    if q == 0:
        assert not (p * q) and not (p * poly(q))


def test_polynomial_products():
    # difference of squares and the absorbing element
    assert (X - Y) * (X + Y) == X * X - Y * Y
    assert (ONE + X) * SpectralLaurent.zero() == SpectralLaurent.zero()
    # clearing the rank-3 quotient denominator
    p = (SpectralLaurent.const(ALPHA) + X - SpectralLaurent.variable("x", -1)) * X
    want = SpectralLaurent.const(ALPHA) * X + X * X - ONE
    assert p == want


def test_derivatives():
    assert X.derivative("x") == ONE
    # quotient rule on a numerator over its denominator:
    # d/dx (1+x)/(1-x) = 2/(1-x)^2
    f = TensorOperator(1, 1, ONE - X)
    f.put((1,), (1,), ONE + X)
    df = f.derivative("x")
    assert df.den == (ONE - X) * (ONE - X)
    assert df.entry((1,), (1,)) == SpectralLaurent.const(2)
    assert SpectralLaurent.const(ALPHA).derivative("x").is_zero()


def test_substitution():
    assert (X * X).substitute("x", 1, {"x": -1}) == SpectralLaurent.variable("x", -2)
    # x -> (-1)^3 / x
    assert X.substitute("x", -1, {"x": -1}) == -SpectralLaurent.variable("x", -1)
    with pytest.raises(AlphabetError):
        X.substitute("z", 1, {"z": -1})


def test_variables_are_those_that_occur():
    assert (X * Y).variables() == {"x", "y"}
    assert (X - X).variables() == frozenset()
    assert SpectralLaurent.const(ALPHA).variables() == frozenset()
    assert SpectralLaurent.variable("x", 0).variables() == frozenset()


def test_substituting_a_variable_that_does_not_occur_is_an_error():
    # x cancels out of x*y - x*y + y, and a parameter is not a spectral variable
    with pytest.raises(AlphabetError):
        (X * Y - X * Y + Y).substitute("x", 1, {"x": -1})
    with pytest.raises(AlphabetError):
        SpectralLaurent.const(ParamPoly.variable("x")).substitute("x", 1, {"x": -1})


def test_tensor_substitute_leaves_entries_without_the_variable():
    op = TensorOperator(1, 2, X - Y)
    op.put((1,), (1,), X * Y + ONE)
    op.put((1,), (2,), Y * 3)
    op.put((2,), (1,), SpectralLaurent.const(ALPHA))
    sub = op.substitute("x", -1, {"x": -1})
    assert sub.den == -SpectralLaurent.variable("x", -1) - Y
    assert sub.entry((1,), (1,)) == ONE - SpectralLaurent.variable("x", -1) * Y
    assert sub.entry((1,), (2,)) == Y * 3
    assert sub.entry((2,), (1,)) == SpectralLaurent.const(ALPHA)


@settings(max_examples=40)
@given(laurents())
def test_substitution_involution(p):
    q = p
    if "x" in p.variables():
        q = p.substitute("x", 1, {"x": -1}).substitute("x", 1, {"x": -1})
    assert q == p


def test_substitution_product_map():
    # mapping a single ratio variable onto (-1)^N/(x y), cross-checked
    p = SpectralLaurent.variable("z", 2) - SpectralLaurent.variable("z", -1)
    q = p.substitute("z", -1, {"x": -1, "y": -1})
    xinv = SpectralLaurent.variable("x", -1) * SpectralLaurent.variable("y", -1)
    want = xinv * xinv + X * Y
    assert q == want


@settings(max_examples=40)
@given(laurents(), laurents())
def test_exact_division_roundtrip(a, b):
    if b.is_zero():
        return
    assert laurent_exact_div(a * b, b) == a


def test_exact_division_failure():
    with pytest.raises(ExactDivisionError):
        laurent_exact_div(X + ONE, X - ONE)


@settings(max_examples=40)
@given(laurents(), laurents(), param_polys(), param_polys())
def test_exact_division_roundtrip_parametric(a, b, p, q):
    a = a * SpectralLaurent.const(p)
    b = b + X * SpectralLaurent.const(q)
    if b.is_zero():
        return
    assert laurent_exact_div(a * b, b) == a


def test_exact_division_parametric_leading_coefficient():
    den = SpectralLaurent.const(ALPHA) * X + ONE
    p = SpectralLaurent.variable("x", -1) - SpectralLaurent.const(ALPHA) * Y + ONE * 2
    assert laurent_exact_div(den * p, den) == p


def test_exact_division_monomial_factor():
    # (1 - x) / (x - x^2) = x^-1
    assert laurent_exact_div(ONE - X, X - X * X) == SpectralLaurent.variable("x", -1)


def test_exact_division_parametric_inexact():
    with pytest.raises(ExactDivisionError):
        laurent_exact_div(SpectralLaurent.const(ALPHA) * X + ONE, X + SpectralLaurent.const(ALPHA))


def test_exact_division_rejects_parameter_named_like_spectral_variable():
    clash = SpectralLaurent.const(ParamPoly.variable("x")) * X
    with pytest.raises(ValueError):
        laurent_exact_div(clash, X)
    with pytest.raises(ValueError):
        laurent_exact_div(X, clash)


def test_laurent_rendering():
    a = SpectralLaurent.const(ALPHA)
    multi = ((a + ONE) * X - SpectralLaurent.variable("y", -1) * 2 + X * Y
             - SpectralLaurent.const(Fraction(3, 2)))
    assert str(multi) == "-3/2+(1+alpha)*x+x*y-2*y^-1"
    neg = (ONE - a) * SpectralLaurent.variable("x", -2) - X - a * Y
    assert str(neg) == "(1-alpha)*x^-2-x-alpha*y"
    assert str(SpectralLaurent.const(ALPHA * ALPHA - 1)) == "(-1+alpha^2)"
    assert str(-X * X * Y + SpectralLaurent.const(Fraction(-1, 3)) * Y) == "-x^2*y-1/3*y"
    assert str(SpectralLaurent.zero()) == "0"


def test_eps_is_involutive():
    e = ParamPoly.variable("eps")
    assert e * e == 1
    assert e ** 5 == e


@settings(max_examples=40)
@given(param_polys())
def test_param_poly_string_roundtrip(p):
    assert parse_param_poly(str(p)) == p


def test_rational_canonical():
    assert Fraction(2, 4) == Fraction(1, 2)
    assert Fraction(3, -6) == Fraction(-1, 2)
