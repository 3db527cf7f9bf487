"""The coefficient rule of every linear combination: a stored coefficient
is an int, a Fraction with denominator > 1, or a ParamPoly in which some
parameter occurs."""

from fractions import Fraction

import pytest

from onsaw import askey_wilson as aw
from onsaw import loop_algebra as la
from onsaw import onsager as on
from onsaw.exactnum import ParamPoly, as_poly, plain
from onsaw.symcomb import SymbolCombination

ALPHA = ParamPoly.variable("alpha")
EPS = ParamPoly.variable("eps")


def is_plain(c) -> bool:
    if type(c) is int:
        return c != 0
    if type(c) is Fraction:
        return c.denominator > 1
    return type(c) is ParamPoly and any(m for m in c.terms)


def assert_plain(el):
    bad = {s: c for s, c in el.coeffs.items() if not is_plain(c)}
    assert not bad, f"coefficients not in plain form: {bad}"


def comb(*pairs):
    el = SymbolCombination(3)
    for sym, c in pairs:
        el.add_term(sym, c)
    return el


def test_plain_forms():
    assert plain(ParamPoly.const(3)) == 3 and type(plain(ParamPoly.const(3))) is int
    assert type(plain(ParamPoly.const(Fraction(1, 2)))) is Fraction
    assert type(plain(ParamPoly.zero())) is int and plain(ParamPoly.zero()) == 0
    assert type(plain(Fraction(4, 2))) is int
    assert type(plain(True)) is int
    assert plain(ALPHA) is ALPHA
    assert as_poly(2) == ParamPoly.const(2) and as_poly(ALPHA) is ALPHA


def test_paramp_truth():
    assert not ParamPoly.zero()
    assert ParamPoly.const(Fraction(1, 3))
    assert ALPHA
    assert not (ALPHA - ALPHA)
    # eps is involutive: (1 + eps)(1 - eps) = 1 - eps^2 = 0
    assert not ((1 + EPS) * (1 - EPS))


def test_add_term_stores_plain():
    el = comb(("a", ParamPoly.const(2)), ("b", Fraction(3, 1)), ("c", Fraction(1, 2)),
              ("d", ALPHA), ("e", ParamPoly.zero()), ("f", 0))
    assert_plain(el)
    assert el.coeffs == {"a": 2, "b": 3, "c": Fraction(1, 2), "d": ALPHA}
    el.add_term("c", Fraction(1, 2))
    assert type(el.coeffs["c"]) is int


def test_arithmetic_keeps_plain():
    u = comb(("a", Fraction(1, 2)), ("b", ALPHA + 1), ("c", 3))
    v = comb(("a", Fraction(1, 2)), ("b", -ALPHA), ("c", Fraction(-1, 3)))
    for el in (u + v, u - v, v - u, -u, -v, u.scale(2), u.scale(ALPHA),
               u.scale(Fraction(2, 3)), v.scale(EPS).scale(EPS)):
        assert_plain(el)
    s = u + v
    assert s.coeffs == {"a": 1, "b": 1, "c": Fraction(8, 3)}
    assert type(s.coeffs["a"]) is int and type(s.coeffs["b"]) is int


def test_cancelling_alpha_term_leaves_a_number():
    u = comb(("x", ALPHA + 2))
    v = comb(("x", ALPHA))
    d = u - v
    assert d.coeffs == {"x": 2} and type(d.coeffs["x"]) is int
    w = u + comb(("x", -ALPHA))
    assert type(w.coeffs["x"]) is int
    u.add_term("x", -ALPHA)
    assert type(u.coeffs["x"]) is int


def test_cancelling_sum_drops_its_symbol():
    u = comb(("x", ALPHA), ("y", Fraction(1, 2)))
    assert (u - u).is_zero()
    assert (u + (-u)).coeffs == {}
    v = comb(("x", -ALPHA), ("y", 1))
    assert (u + v).coeffs == {"y": Fraction(3, 2)}
    u.add_term("x", -ALPHA)
    assert "x" not in u.coeffs
    # an involutive product that vanishes drops the symbol as well
    assert comb(("x", 1 + EPS)).scale(1 - EPS).is_zero()


def test_constant_paramp_factor_is_stored_as_its_number():
    u = comb(("x", 1), ("y", Fraction(1, 3)))
    s = u.scale(ParamPoly.const(3))
    assert s.coeffs == {"x": 3, "y": 1}
    assert all(type(c) is int for c in s.coeffs.values())
    assert u.scale(ParamPoly.zero()).is_zero()
    t = comb(("x", ALPHA)).scale(ParamPoly.const(Fraction(1, 2)))
    assert_plain(t)


@pytest.mark.parametrize("bad", [0.5, 1.0, complex(1, 0), "1"])
def test_non_exact_coefficient_raises(bad):
    with pytest.raises(TypeError):
        comb(("x", bad))
    with pytest.raises(TypeError):
        comb(("x", 1)).scale(bad)
    with pytest.raises(TypeError):
        plain(bad)


def _loop_inputs(dim):
    """Small N=3 loop elements with int, Fraction and alpha coefficients."""
    out = [la.inject(dim, i, j, n) for i, j, n in ((1, 2, 1), (2, 1, -1), (1, 1, 0), (3, 3, 2))]
    out.append(la.inject(dim, 2, 3, 0).scale(ALPHA) + la.inject(dim, 2, 2, -2))
    out.append(la.inject(dim, 3, 1, 1).scale(Fraction(2, 3)) + la.central(dim, ALPHA))
    out.append(la.inject(dim, 1, 3, -1).scale(ALPHA + 1) + la.inject(dim, 1, 3, -1).scale(-ALPHA))
    return out


def test_loop_bracket_obeys_rule():
    els = _loop_inputs(3)
    for a in els:
        assert_plain(a)
        for b in els:
            assert_plain(la.bracket(a, b))
    # the alpha parts of [a, b] + [b, a] cancel to nothing
    a, b = els[4], els[5]
    assert (la.bracket(a, b) + la.bracket(b, a)).is_zero()


def test_onsager_bracket_obeys_rule():
    dim = 3
    els = [on.canonicalize_B(dim, i, j, n) for i, j, n in ((1, 2, 0), (3, 3, 1), (2, 1, -2))]
    els.append(on.canonicalize_B(dim, 1, 3, 1).scale(ALPHA) + on.canonicalize_B(dim, 2, 2, 2))
    els.append(on.canonicalize_B(dim, 3, 2, 0).scale(Fraction(1, 2))
               + on.canonicalize_B(dim, 1, 1, 1).scale(ALPHA * ALPHA))
    for a in els:
        assert_plain(a)
        for b in els:
            assert_plain(on.bracket_abstract(a, b))


def test_table_bracket_obeys_rule():
    t = aw.aw3_table()
    els = [t.unit(k) for k in range(t.dim)]
    els.append(t.unit("e1").scale(ALPHA) + t.unit("f2").scale(Fraction(1, 2)))
    els.append(t.unit("g1").scale(ALPHA + 3) - t.unit("g1").scale(ALPHA))
    for a in els:
        assert_plain(a)
        for b in els:
            assert_plain(t.bracket(a, b))
    # storage keeps polynomials for the readers of the flat table
    assert all(type(p) is ParamPoly for vec in t.table.values() for p in vec.values())
