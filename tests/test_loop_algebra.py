"""Structure constants of the affine algebra against hand-computed values,
plus exhaustive antisymmetry/Jacobi at small rank and level."""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from onsaw import loop_algebra as la
from onsaw.exactnum import ParamPoly


def test_inject_examples():
    e11 = la.inject(2, 1, 1, 0)
    assert e11.coeffs == {la.cartan(1, 0): Fraction(1, 2)}
    e22 = la.inject(3, 2, 2, 0)
    assert e22.coeffs[la.cartan(1, 0)] == Fraction(-1, 3)
    assert e22.coeffs[la.cartan(2, 0)] == Fraction(1, 3)


def test_trace_vanishes():
    for dim in (2, 3, 4, 5):
        total = la.zero(dim)
        for i in range(1, dim + 1):
            total = total + la.inject(dim, i, i, 1)
        assert total.is_zero()


def test_bracket_examples():
    # [e_12, e_23] = e_13
    b = la.bracket(la.inject(3, 1, 2, 0), la.inject(3, 2, 3, 0))
    assert b == la.inject(3, 1, 3, 0)
    # central term: [e_12^(1), e_21^(-1)] = h_1 + c
    b = la.bracket(la.inject(2, 1, 2, 1), la.inject(2, 2, 1, -1))
    want = la.unit(2, la.cartan(1, 0)) + la.central(2)
    assert b == want
    # c is central
    assert la.bracket(la.central(3), la.inject(3, 1, 3, 5)).is_zero()


def test_jacobi_specific():
    a = la.inject(3, 1, 2, 0)
    b = la.inject(3, 2, 3, 0)
    c = la.inject(3, 3, 1, 0)
    assert la.jacobi_residual(a, b, c).is_zero()


def test_antisymmetry_exhaustive():
    # all basis pairs with |level| <= 3 up to rank 5
    for dim in (2, 3, 4, 5):
        syms = la.basis_symbols(dim, 3)
        units = [la.unit(dim, s) for s in syms]
        for a, b in itertools.combinations(units, 2):
            assert (la.bracket(a, b) + la.bracket(b, a)).is_zero()
        for a in units:
            assert la.bracket(a, a).is_zero()


def test_jacobi_exhaustive_small():
    # all basis triples with |level| <= 2 up to rank 4
    for dim in (2, 3, 4):
        syms = la.basis_symbols(dim, 2)
        units = [la.unit(dim, s) for s in syms]
        for a, b, c in itertools.combinations(units, 3):
            resid = la.jacobi_residual(a, b, c)
            assert resid.is_zero()


def test_jacobi_randomized_rank4():
    rng = random.Random(7)
    syms = la.basis_symbols(4, 3, include_central=False)
    for _ in range(120):
        sa, sb, sc = rng.sample(syms, 3)
        resid = la.jacobi_residual(la.unit(4, sa), la.unit(4, sb), la.unit(4, sc))
        assert resid.is_zero(), (sa, sb, sc)


@settings(max_examples=50)
@given(
    st.integers(1, 3), st.integers(1, 3), st.integers(-3, 3),
    st.integers(1, 3), st.integers(1, 3), st.integers(-3, 3),
)
def test_level_additivity(i, j, m, k, l, n):
    dim = 3
    b = la.bracket(la.inject(dim, i, j, m), la.inject(dim, k, l, n))
    levels = {0 if sym == la.CENTRAL else sym[-1] for sym in b.coeffs}
    assert levels <= {m + n, 0}


def test_central_level_zero_only():
    # the central contribution only appears at m + n = 0
    b = la.bracket(la.inject(2, 1, 2, 2), la.inject(2, 2, 1, -1))
    assert la.CENTRAL not in b.coeffs


def _reference_bracket(a, b):
    """Term-by-term bracket straight from the defining formula."""
    out = la.zero(a.dim)
    for sa, ca in a.coeffs.items():
        if sa == la.CENTRAL:
            continue
        for sb, cb in b.coeffs.items():
            if sb == la.CENTRAL:
                continue
            for i, j, m, fa in la._as_e_terms(a.dim, sa):
                for k, l, n, fb in la._as_e_terms(a.dim, sb):
                    la._bracket_ee(out, i, j, m, k, l, n, ca * cb * (fa * fb))
    return out


def test_bracket_table_matches_formula_on_basis():
    for dim in (2, 3, 4, 5):
        units = [la.unit(dim, s) for s in la.basis_symbols(dim, 3)]
        for a in units:
            for b in units:
                assert la.bracket(a, b) == _reference_bracket(a, b)


def _coefficients():
    q = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))
    return st.builds(
        lambda c, eps, alpha: c * ParamPoly.variable("eps") ** eps
        + ParamPoly.variable("alpha") * alpha,
        q, st.integers(0, 1), st.integers(-2, 2),
    )


@st.composite
def _loop_pairs(draw):
    # levels drawn from a few values and their negatives, so central terms occur
    dim = draw(st.integers(2, 5))
    base = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=3))
    levels = st.sampled_from(base + [-n for n in base])
    shapes = st.sampled_from(la.basis_symbols(dim, 0))

    def element():
        el = la.zero(dim)
        for _ in range(draw(st.integers(1, 4))):
            shape = draw(shapes)
            sym = shape if shape == la.CENTRAL else shape[:-1] + (draw(levels),)
            el.add_term(sym, draw(_coefficients()))
        return el

    return element(), element()


@settings(max_examples=120, deadline=None)
@given(_loop_pairs())
def test_bracket_table_matches_formula_on_elements(pair):
    a, b = pair
    assert la.bracket(a, b) == _reference_bracket(a, b)


def test_bracket_table_is_level_free():
    # [e_12^(40), e_21^(-40)] = h_1^(0) + 40 c, and high levels add no keys
    b = la.bracket(la.inject(2, 1, 2, 40), la.inject(2, 2, 1, -40))
    assert b == la.unit(2, la.cartan(1, 0)) + la.central(2, 40)
    for dim in (2, 3, 4, 5):
        units = [la.unit(dim, s) for s in la.basis_symbols(dim, 1, include_central=False)]
        for a in units:
            for c in units:
                la.bracket(a, c)
        keys = {k for k in la._STRUCTURE if k[0] == dim}
        assert len(keys) == (dim * dim - 1) ** 2
        for m, n in ((37, -37), (40, 3), (-40, 40)):
            shifted = [la.unit(dim, s[:-1] + (m,)) for s in la.basis_symbols(dim, 0, include_central=False)]
            others = [la.unit(dim, s[:-1] + (n,)) for s in la.basis_symbols(dim, 0, include_central=False)]
            for a in shifted:
                for c in others:
                    assert la.bracket(a, c) == _reference_bracket(a, c)
        assert {k for k in la._STRUCTURE if k[0] == dim} == keys
