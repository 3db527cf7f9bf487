"""Generating matrices, exchange relations, and automorphism checks."""

import pytest

from onsaw import frt
from onsaw import loop_algebra as la
from onsaw.exactnum import SpectralLaurent
from onsaw.rmatrix import build_r, parity_sign
from onsaw.series import BiSeries, shift_bound


def test_T_plus_entries():
    t = frt.build_T(1, 3, 4)
    want = la.inject(3, 2, 1, 0).scale(2)
    assert (t.entry(0, 1, 2) - want).is_zero()
    for n in range(1, 5):
        assert (t.entry(n, 1, 2) - la.inject(3, 2, 1, n).scale(2)).is_zero()
    # lower-left zero block at exponent 0
    assert (t.entry(0, 2, 1) or la.zero(3)).is_zero()
    assert (t.entry(0, 3, 1) or la.zero(3)).is_zero()


def test_T_minus_entries():
    t = frt.build_T(-1, 3, 3)
    assert (t.entry(0, 2, 1) - la.inject(3, 1, 2, 0).scale(-2)).is_zero()
    assert (t.entry(0, 1, 2) or la.zero(3)).is_zero()
    assert (t.entry(-2, 1, 2) - la.inject(3, 2, 1, -2).scale(-2)).is_zero()


def test_T_traceless():
    for sign in (1, -1):
        t = frt.build_T(sign, 4, 3)
        for e, m in t.coeffs.items():
            tr = la.zero(4)
            for i in range(1, 5):
                tr = tr + m[i, i]
            assert tr.is_zero(), e


def test_theta1_action():
    el = la.unit(3, la.off(1, 2, 1))
    img = frt.apply_theta1(el)
    assert img == la.unit(3, la.off(2, 1, -1)).scale(-1)
    assert frt.apply_theta1(la.central(3)) == la.central(3).scale(-1)


def test_theta1_involution_exhaustive():
    for dim in (2, 3, 4):
        for sym in la.basis_symbols(dim, 3):
            u = la.unit(dim, sym)
            assert (frt.apply_theta1(frt.apply_theta1(u)) - u).is_zero()


def test_theta2_requires_even():
    with pytest.raises(ValueError):
        frt.apply_theta2(la.central(3), 1)


def test_theta2_action_examples():
    # block action with the central shift on the diagonal
    e11 = la.inject(2, 1, 1, 0)
    img = frt.apply_theta2(e11, 1)
    want = la.inject(2, 2, 2, 0).scale(-1) + la.central(2).scale(la.Fraction(1, 2)) \
        if hasattr(la, "Fraction") else None
    from fractions import Fraction

    want = la.inject(2, 2, 2, 0).scale(-1) + la.central(2).scale(Fraction(1, 2))
    assert (img - want).is_zero()
    # off-diagonal block shift: level moves by one
    e12 = la.unit(2, la.off(1, 2, 0))
    img = frt.apply_theta2(e12, 1)
    assert (img - la.unit(2, la.off(1, 2, 1)).scale(-1)).is_zero()


def test_theta2_involution_both_signs():
    for eps in (1, -1, None):
        e = eps if eps is not None else frt.eps_symbol()
        for dim in (2, 4):
            for sym in la.basis_symbols(dim, 2):
                u = la.unit(dim, sym)
                assert (frt.apply_theta2(frt.apply_theta2(u, e), e) - u).is_zero()


def test_automorphism_reports():
    assert frt.check_automorphism("theta1", 3, 3).ok()
    assert frt.check_automorphism("theta2", 4, 2, -1).ok()
    assert frt.check_automorphism("theta2", 2, 3).ok()


def test_theta1_negative_control():
    # wrong sign (-1)^(Nn+i+j) breaks the bracket morphism
    def bad_theta(el):
        dim = el.dim
        out = la.zero(dim)
        for sym, coeff in el.coeffs.items():
            if sym == la.CENTRAL:
                out.add_term(la.CENTRAL, -coeff)
                continue
            for i, j, n, f in la._as_e_terms(dim, sym):
                sgn = parity_sign(dim * n + i + j)
                la._add_e(out, j, i, -n, coeff * (f * sgn))
        return out

    dim = 2
    broken = False
    syms = la.basis_symbols(dim, 1, include_central=False)
    for sa in syms:
        for sb in syms:
            a, b = la.unit(dim, sa), la.unit(dim, sb)
            lhs = bad_theta(la.bracket(a, b))
            rhs = la.bracket(bad_theta(a), bad_theta(b))
            if not (lhs - rhs).is_zero():
                broken = True
    assert broken


def test_theta_matrix_forms():
    assert frt.check_theta_matrix_form("theta1", 2, 5).ok()
    assert frt.check_theta_matrix_form("theta1", 3, 5).ok()
    assert frt.check_theta_matrix_form("theta2", 2, 4, 1).ok()
    assert frt.check_theta_matrix_form("theta2", 2, 4).ok()  # symbolic eps


def test_theta_matrix_form_negative_control(monkeypatch):
    # theta1 negates its image of 2 e[1,2]^(1), an entry of T+ only
    real = frt.apply_theta1
    target = la.unit(2, la.off(1, 2, 1)).scale(2)
    monkeypatch.setattr(frt, "apply_theta1",
                        lambda el: -real(el) if el == target else real(el))
    rep = frt.check_theta_matrix_form("theta1", 2, 2)
    assert [(c.name, c.status, c.detail) for c in rep.checks] == [
        ("theta1-matrix-form-T+", "fail",
         "exponent 1 entry (2,1): matrix 2*e[2,1]^(-1) vs generator -2*e[2,1]^(-1)"),
        ("theta1-matrix-form-T-", "pass", None),
    ]


def test_frt_relations_small():
    rep = frt.check_frt(2, 6)
    assert rep.ok(), [c.detail for c in rep.failures()]


def test_frt_locators_name_first_failure(monkeypatch):
    # each check fails at one entry of T+ and one of T-; the detail names
    # the T+ one, which comes first in loop order
    dim, cutoff = 2, 3
    cel = la.central(dim)
    build_T = frt.build_T
    planted = [build_T(1, dim, cutoff).coeffs[1][1, 2],
               build_T(-1, dim, cutoff).coeffs[-1][2, 1]]
    bracket = la.bracket

    def bad_bracket(a, b):
        return a if b == cel and a in planted else bracket(a, b)

    def bad_T(sign, dim, cutoff):
        t = build_T(sign, dim, cutoff)
        t.coeffs[sign][1, 1] = t.coeffs[sign][1, 1] + cel
        return t

    monkeypatch.setattr(la, "bracket", bad_bracket)
    monkeypatch.setattr(frt, "build_T", bad_T)
    detail = {c.name: c.detail for c in frt.check_frt(dim, cutoff).failures()}
    assert detail["centrality"] == "sign +1 exponent 1 entry (1,2)"
    assert detail["tracelessness"].startswith("sign +1 exponent 1:")


def test_frt_central_term_negative_control():
    mism, window = frt.frt_relation_mismatch(2, 6, 1, -1, include_central=False)
    assert mism is not None
    a, b, rd, cd, diff = mism
    # the surviving residual is the central derivative term
    assert la.CENTRAL in diff.coeffs
    assert a + b == 2  # on the shifted diagonal of the cleared relation


def _unpruned_frt_mismatch(dim, cutoff, sign_a, sign_b, include_central=True):
    """The exchange relation with every exponent and product formed."""
    ta = frt.build_T(sign_a, dim, cutoff)
    tb = frt.build_T(sign_b, dim, cutoff)
    x = SpectralLaurent.variable("x")
    y = SpectralLaurent.variable("y")
    mixed = sign_a != sign_b
    clearing = (y - x) * (y - x) if mixed else (y - x)
    r_clear = build_r(dim, "x", "y").cleared(clearing)
    c_clear = frt._r_prime_term(dim).cleared(clearing) if mixed else {}
    multipliers = [clearing] + list(r_clear.values()) + list(c_clear.values())
    window = cutoff - shift_bound(multipliers, ("x", "y"))
    lhs = BiSeries.bracket_cross(ta, tb, la.bracket).convolve(clearing)
    rhs = BiSeries.commutator_scalar(ta, r_clear, tb, r_clear)
    if mixed and include_central:
        rhs = rhs + BiSeries.from_scalar(dim, c_clear, la.central(dim))
    return lhs.first_mismatch(rhs, window), window


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("cutoff", [3, 6])
def test_frt_pruning_matches_unpruned(dim, cutoff):
    # exponents and products that cannot reach the window are skipped; the
    # compared coefficients, and so verdict, window and locator, are unchanged
    # (sign_a, sign_b, include_central, holds): the central term is signed
    # for (+,-), so (-,+) fails with it as without it
    cases = [(1, 1, True, True), (-1, -1, True, True), (1, -1, True, True),
             (-1, 1, True, False), (1, -1, False, False), (-1, 1, False, False)]
    for sa, sb, central, holds in cases:
        got = frt.frt_relation_mismatch(dim, cutoff, sa, sb, include_central=central)
        assert got == _unpruned_frt_mismatch(dim, cutoff, sa, sb, central), (sa, sb, central)
        assert (got[0] is None) == holds, (sa, sb, central)


def test_frt_fault_at_window_edge_is_caught(monkeypatch):
    # T+ of the like-sign relation is kept up to exponent w; a fault planted
    # there fails on the window boundary, and a product filter one too tight
    # would drop it silently
    dim, cutoff, top = 2, 6, 5
    build_T = frt.build_T

    def bad_T(sign, dim, cutoff):
        t = build_T(sign, dim, cutoff)
        if sign == 1:
            t.coeffs[top][1, 1] = t.coeffs[top][1, 1] + la.central(dim)
        return t

    monkeypatch.setattr(frt, "build_T", bad_T)
    mism, window = frt.frt_relation_mismatch(dim, cutoff, 1, 1)
    assert window == top
    assert mism is not None
    assert max(abs(mism[0]), abs(mism[1])) == window
    assert la.CENTRAL in mism[4].coeffs
    assert (mism, window) == _unpruned_frt_mismatch(dim, cutoff, 1, 1)


def test_frt_window_guard():
    with pytest.raises(ValueError):
        frt.frt_relation_mismatch(2, 1, 1, -1)


def _planted(theta, s0, delta):
    """theta plus the linear fault x -> coeff_of(s0)(x) * delta."""
    def bad(el, *args):
        out = theta(el, *args)
        c = el.coeffs.get(s0)
        return out if c is None else out + delta.scale(c)
    return bad


def test_automorphism_negative_control_theta1(monkeypatch):
    fault = _planted(frt.apply_theta1, la.off(1, 2, 1), la.unit(3, la.off(1, 3, 0)))
    monkeypatch.setattr(frt, "apply_theta1", fault)
    report = frt.check_automorphism("theta1", 3, 2)
    assert [(c.name, c.status, c.detail) for c in report.checks] == [
        ("involution", "fail", "theta^2 != id at e[2,1]^(-1)"),
        ("bracket-morphism", "fail", "pair (e[1,2]^(-2), e[1,2]^(1)) residual -e[2,3]^(2)"),
    ]


def test_automorphism_negative_control_theta2_symbolic(monkeypatch):
    fault = _planted(frt.apply_theta2, la.off(3, 4, 0), la.unit(4, la.cartan(1, -1)))
    monkeypatch.setattr(frt, "apply_theta2", fault)
    report = frt.check_automorphism("theta2", 4, 2)
    assert [(c.name, c.status, c.detail) for c in report.checks] == [
        ("involution", "fail", "theta^2 != id at e[2,1]^(0)"),
        ("bracket-morphism", "fail", "pair (e[1,3]^(-2), e[3,4]^(0)) residual -eps*e[1,3]^(2)"),
    ]
