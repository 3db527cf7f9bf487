"""The coefficient rule of every linear combination: a stored coefficient
is an int, a Fraction with denominator > 1, or a ParamPoly in which some
parameter occurs."""

from fractions import Fraction

import pytest

from onsaw import askey_wilson as aw
from onsaw import loop_algebra as la
from onsaw import onsager as on
from onsaw.exactnum import (ParamPoly, SpectralLaurent, laurent_exact_div, parse_param_poly,
                            plain, terms_of)
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
    assert plain(ParamPoly({(): 3})) == 3 and type(plain(ParamPoly({(): 3}))) is int
    assert type(plain(ParamPoly({(): Fraction(1, 2)}))) is Fraction
    assert type(plain(ParamPoly({}))) is int and plain(ParamPoly({})) == 0
    assert type(plain(Fraction(4, 2))) is int
    assert type(plain(True)) is int
    assert plain(ALPHA) is ALPHA
    assert terms_of(2) == {(): 2} and terms_of(ALPHA) is ALPHA.terms


def test_paramp_truth():
    assert not ParamPoly({})
    assert ParamPoly({(): Fraction(1, 3)})
    assert ALPHA
    assert not (ALPHA - ALPHA)
    # eps is involutive: (1 + eps)(1 - eps) = 1 - eps^2 = 0
    assert not ((1 + EPS) * (1 - EPS))


def test_add_term_stores_plain():
    el = comb(("a", ParamPoly({(): 2})), ("b", Fraction(3, 1)), ("c", Fraction(1, 2)),
              ("d", ALPHA), ("e", ParamPoly({})), ("f", 0))
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
    s = u.scale(ParamPoly({(): 3}))
    assert s.coeffs == {"x": 3, "y": 1}
    assert all(type(c) is int for c in s.coeffs.values())
    assert u.scale(ParamPoly({})).is_zero()
    t = comb(("x", ALPHA)).scale(ParamPoly({(): Fraction(1, 2)}))
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
    # storage is plain as well
    assert all(is_plain(p) for vec in t.table.values() for p in vec.values())


# -- the same rule in every other container ---------------------------------


def is_plain_or_zero(c) -> bool:
    return (type(c) is int and c == 0) or is_plain(c)


def test_param_poly_arithmetic_returns_a_number_when_constant():
    for value, want in ((ALPHA - ALPHA, 0), (EPS * EPS, 1), ((ALPHA + 3) - ALPHA, 3),
                        ((ALPHA * 2).exact_div(ALPHA), 2), (EPS ** 2, 1), (ALPHA ** 0, 1),
                        (-(ALPHA - ALPHA - 1), 1), ((1 + EPS) * (1 - EPS), 0),
                        ((ALPHA * 3 + 1).exact_div(2) - ALPHA * Fraction(3, 2), Fraction(1, 2))):
        assert value == want and type(value) is type(want), (value, want)
    assert type(ALPHA * 2 - ALPHA) is ParamPoly


def test_parse_param_poly_returns_plain():
    assert type(parse_param_poly("3")) is int and parse_param_poly("3") == 3
    assert parse_param_poly("1/2") == Fraction(1, 2) and type(parse_param_poly("1/2")) is Fraction
    assert type(parse_param_poly("0")) is int and parse_param_poly("0") == 0
    assert type(parse_param_poly("alpha-alpha+2")) is int
    assert parse_param_poly("1-alpha") == 1 - ALPHA


def _assert_laurent_plain(p: SpectralLaurent):
    bad = {m: c for m, c in p.terms.items() if not is_plain(c)}
    assert not bad, f"Laurent coefficients not in plain form: {bad}"


def test_laurent_coefficients_are_plain():
    x, y = SpectralLaurent.variable("x"), SpectralLaurent.variable("y")
    half = x * Fraction(1, 2)
    s = half + half
    assert s.terms == {(("x", 1),): 1} and type(s.terms[(("x", 1),)]) is int
    a = SpectralLaurent.const(ALPHA)
    values = [x, SpectralLaurent.const(Fraction(4, 2)), SpectralLaurent.monomial(Fraction(6, 3), {"x": 2}),
              (a + x) * (a - x) + x * x, (a + 1) - a, SpectralLaurent.const(EPS) * SpectralLaurent.const(EPS),
              (x * x * Fraction(1, 2)).derivative("x"), (x * Fraction(1, 3) + y).substitute("x", -1, {"x": -1}),
              laurent_exact_div((x * x - 1) * 2, x - 1), laurent_exact_div((a * x + 1) * (x * 3 - y), a * x + 1)]
    for p in values:
        _assert_laurent_plain(p)
    assert laurent_exact_div(x * 4, x * 2).terms == {(): 2}


def test_tensor_and_scalar_matrix_entries_are_plain():
    from onsaw import charges as ch
    from onsaw import frt
    from onsaw import rmatrix as rm

    ops = [rm.build_r(3), rm.rbar_closed(3), rm.build_rbar_folded(3), ch.build_M(3),
           rm.skew_residual(3), rm.cybe_residual(*rm.cybe_operators(2))]
    for op in ops:
        _assert_laurent_plain(op.den)
        for row in op.rows.values():
            for v in row.values():
                _assert_laurent_plain(v)
    for eps in (-1, 1, frt.eps_symbol()):
        for mats in frt._v_matrices(4, eps):
            assert all(is_plain_or_zero(c) for m in mats.values() for c in m.values())


def _assert_table_plain(t):
    bad = [(k, ic, p) for k, vec in t.table.items() for ic, p in vec.items() if not is_plain(p)]
    assert not bad, f"table entries not in plain form: {bad[:3]}"


def test_table_entries_are_plain():
    tables = [aw.aw3_table(), aw.aw4_table()]
    extracted, rep = aw.extract_structure_constants(5)
    assert rep.ok()
    tables.append(extracted)
    tables += [aw.import_table(aw.export_table(t)) for t in tables]
    for t in tables:
        _assert_table_plain(t)
    assert aw.import_table(aw.export_table(tables[0])).table == tables[0].table


def test_eliminator_solutions_are_plain():
    from onsaw.linsolve import SparseEliminator

    # x0 = 1/2 and x0 + x1 = 3/2: x1 = 3/2 - 1/2 is the int 1
    elim = SparseEliminator()
    elim.add_row({0: 2}, {0: 1, 1: ALPHA})
    elim.add_row({0: 1, 1: 1}, {0: Fraction(3, 2), 1: ALPHA + 1})
    res = elim.solve([0, 1])
    assert res.solutions == {0: {0: Fraction(1, 2), 1: ALPHA * Fraction(1, 2)},
                             1: {0: 1, 1: ALPHA * Fraction(1, 2) + 1}}
    assert type(res.solutions[1][0]) is int
    # pivot rows are plain on both sides: 2 x0 + 4/2 x1 = 3 alpha / 2 is stored as x0 + x1 = 3 alpha / 4
    elim = SparseEliminator()
    elim.add_row({0: 2, 1: Fraction(4, 2)}, {0: ALPHA * Fraction(3, 2)})
    elim.add_row({1: Fraction(3, 3)}, {0: Fraction(2, 2)})
    assert elim.pivots == {0: ({1: 1}, {0: ALPHA * Fraction(3, 4)}), 1: ({}, {0: 1})}
    for coeffs, rhs in elim.pivots.values():
        assert all(is_plain(c) for c in (*coeffs.values(), *rhs.values()))
    for sol in res.solutions.values():
        assert all(is_plain(c) for c in sol.values())
    # x0 = alpha, x1 = alpha + 1, x0 - x1 = 0: the residual alpha cancels from is the int 1
    elim = SparseEliminator()
    elim.add_row({0: 1}, {0: ALPHA})
    elim.add_row({1: 1}, {0: ALPHA + 1})
    elim.add_row({0: 1, 1: -1}, {})
    assert elim.solve([0, 1]).solutions == {1: {0: ALPHA + 1}, 0: {0: ALPHA}}
    assert elim.inconsistent == [{0: 1}] and type(elim.inconsistent[0][0]) is int


def test_value_key_is_exact_across_constructions():
    from onsaw.rmatrix import _value_key

    x = SpectralLaurent.variable("x")
    mono = (("x", 1),)
    twos = [x * 2, x * Fraction(4, 2), (x * ALPHA + x * 2) - x * ALPHA, x * Fraction(1, 2) * 4]
    assert {_value_key(v) for v in twos} == {frozenset({(mono, 2)})}
    alphas = [x * ALPHA, x * (ALPHA + 1) - x, SpectralLaurent.monomial(ALPHA, {"x": 1})]
    assert len({_value_key(v) for v in alphas}) == 1
    assert _value_key(x * ALPHA) != _value_key(x * 2)
