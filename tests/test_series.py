"""The sparse rule of GeneratorMatrix: only nonzero entries are stored, and
no exponent maps to an empty matrix; the two-leg kernels."""

from itertools import product

import pytest

from onsaw import askey_wilson as aw
from onsaw import frt
from onsaw import loop_algebra as la
from onsaw import onsager as on
from onsaw import series
from onsaw.exactnum import ParamPoly, SpectralLaurent
from onsaw.rmatrix import cleared_rbar_pair
from onsaw.series import BiSeries, GeneratorMatrix, windowed


def _assert_sparse(gm):
    for e, m in gm.coeffs.items():
        assert m, f"empty slice at exponent {e}"
        for (i, j), v in m.items():
            assert 1 <= i <= gm.dim and 1 <= j <= gm.dim, (e, i, j)
            assert not v.is_zero(), (e, i, j)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_builders_store_no_zeros(dim):
    for sign in (1, -1):
        _assert_sparse(frt.build_T(sign, dim, 3))
    _assert_sparse(on.build_B_matrix(dim, 3))
    _assert_sparse(frt.theta1_matrix_image(frt.build_T(-1, dim, 3)))
    if dim % 2 == 0:
        for eps in (1, -1, frt.eps_symbol()):
            for sign in (1, -1):
                _assert_sparse(frt.theta2_matrix_image(frt.build_T(-sign, dim, 3), sign, eps))


def test_aw_matrices_store_no_zeros():
    for rank in (2, 3, 4, 5):
        _assert_sparse(aw.build_B_general(rank))
    _assert_sparse(aw.build_B(aw.aw3_table()))
    _assert_sparse(aw.build_B(aw.aw4_table()))


def test_zero_entry_reads_none():
    t = frt.build_T(1, 3, 2)
    assert t.entry(0, 2, 1) is None   # below the diagonal at exponent 0
    assert t.entry(5, 1, 1) is None   # beyond the cutoff
    assert t.entry(0, 1, 2) is not None


def test_add_drops_cancellation():
    el = la.inject(2, 1, 2, 1)
    a = GeneratorMatrix(2, {0: {(1, 2): el}, 1: {(2, 1): el}})
    b = GeneratorMatrix(2, {0: {(1, 2): -el}, 1: {(1, 1): el}})
    got = a + b
    assert got.coeffs == {1: {(2, 1): el, (1, 1): el}}
    assert a.coeffs == {0: {(1, 2): el}, 1: {(2, 1): el}}


def test_map_entries_drops_killed_entry():
    kill = la.off(1, 2, 1)
    el = la.inject(2, 1, 2, 1)
    other = la.inject(2, 2, 1, 0)

    def project(v):
        return la.LoopElement(v.dim, {s: c for s, c in v.coeffs.items() if s != kill})

    gm = GeneratorMatrix(2, {0: {(1, 1): el, (2, 1): other + el}, 1: {(1, 2): el}})
    assert gm.map_entries(project).coeffs == {0: {(2, 1): other}}


def test_first_mismatch_against_empty():
    # the first stored entry in (exponent, i, j) order, the zero side as None
    el, el2, el3 = (la.inject(3, 1, 2, 0), la.inject(3, 2, 3, 1), la.inject(3, 3, 1, 1))
    gm = GeneratorMatrix(3, {1: {(3, 1): el3, (2, 2): el2}, 0: {(2, 3): el}})
    empty = GeneratorMatrix(3)
    assert gm.first_mismatch(empty, (-1, 1)) == (0, 2, 3, el, None)
    assert empty.first_mismatch(gm, (1, 1)) == (1, 2, 2, None, el2)
    assert gm.first_mismatch(gm, (-1, 1)) is None


def _leg_embedded(gm, leg):
    """G (x) 1 in x (leg 1) or 1 (x) G in y (leg 2), from the definition:
    the entry at rows (i, k), cols (j, l) is G_ij delta_kl on leg 1 and
    delta_ij G_kl on leg 2; {(row, col): {(a, b): element}}."""
    n = gm.dim
    out = {}
    for i, k, j, l in product(range(1, n + 1), repeat=4):
        (gi, gj), same = ((i, j), k == l) if leg == 1 else ((k, l), i == j)
        if not same:
            continue
        for e in gm.coeffs:
            v = gm.entry(e, gi, gj)
            if v is not None:
                exps = (e, 0) if leg == 1 else (0, e)
                out.setdefault(((i - 1) * n + k - 1, (j - 1) * n + l - 1), {})[exps] = v
    return out


def _reference_commutator(gm, leg, scal):
    """[G_leg, S] = G_leg S - S G_leg, summed product by product."""
    emb = _leg_embedded(gm, leg)
    acc = {}

    def add(r, c, ser, lau, sign):
        for (a, b), v in ser.items():
            for mono, coeff in lau.terms.items():
                d = dict(mono)
                cell = acc.setdefault((r, c), {})
                key = (a + d.get("x", 0), b + d.get("y", 0))
                w = v.scale(coeff * sign)
                cell[key] = cell[key] + w if key in cell else w

    for (r, m), ser in emb.items():
        for (m2, c), lau in scal.items():
            if m2 == m:
                add(r, c, ser, lau, 1)
    for (r, m), lau in scal.items():
        for (m2, c), ser in emb.items():
            if m2 == m:
                add(r, c, ser, lau, -1)
    return _nonzero(acc)


def _reference_two_leg(g1, s, g2, t, dens=None):
    """[G_1(x), S] d(y) + [G'_2(y), T] d(x), with d = 1 when dens is None:
    a scalar multiplier joins the scalar matrix before the product."""
    one = SpectralLaurent.const(1)
    dx, dy = dens or (one, one)
    acc = {}
    for gm, leg, scal, d in ((g1, 1, s, dy), (g2, 2, t, dx)):
        for key, ser in _reference_commutator(gm, leg, {k: v * d for k, v in scal.items()}).items():
            cell = acc.setdefault(key, {})
            for ab, v in ser.items():
                cell[ab] = cell[ab] + v if ab in cell else v
    return _nonzero(acc)


def _nonzero(data, window=None):
    out = {}
    for key, ser in data.items():
        kept = {ab: v for ab, v in ser.items() if not v.is_zero()
                and (window is None or max(map(abs, ab)) <= window)}
        if kept:
            out[key] = kept
    return out


def _hand_made_scalar(dim):
    x = SpectralLaurent.variable("x")
    y = SpectralLaurent.variable("y")
    last = dim * dim - 1
    return {(0, dim + 1): x * y - SpectralLaurent.const(2),
            (last, 1): SpectralLaurent.variable("y", -1) * 3,
            (dim, dim): x + y,
            (1, last): SpectralLaurent.variable("x", 2) * -1}


def _generator_matrices(dim):
    yield on.build_B_matrix(dim, 3)
    yield frt.build_T(1, dim, 2)
    yield frt.build_T(-1, dim, 2)


def _two_leg_cases(dim):
    """(g1, S, g2, T, dens) for every shape the kernel is given."""
    _, r12c, r21c = cleared_rbar_pair(dim)
    hand = _hand_made_scalar(dim)
    # one leg at a time, G' is G on the other leg
    for gm in _generator_matrices(dim):
        for scal in (r12c, r21c, hand):
            yield gm, scal, gm, {}, None
            yield gm, {}, gm, scal, None
    # the mixed exchange relation: two matrices, two scalar matrices
    yield frt.build_T(1, dim, 2), hand, frt.build_T(-1, dim, 2), r12c, None
    # the reflection relation cleared by a denominator with a parameter
    b = on.build_B_matrix(dim, 3)
    minus_r21c = {k: -v for k, v in r21c.items()}
    yield b, minus_r21c, b, r12c, (aw.aw_denominator(dim, "x"), aw.aw_denominator(dim, "y"))


@pytest.mark.parametrize("dim", [2, 3])
def test_commutator_scalar_matches_reference(dim):
    for n, (g1, s, g2, t, dens) in enumerate(_two_leg_cases(dim)):
        want = _reference_two_leg(g1, s, g2, t, dens)
        assert want, (n, dim)
        got = BiSeries.commutator_scalar(g1, s, g2, t, dens=dens)
        assert got.data == want, (n, dim)
        for window in (0, 1):
            got = BiSeries.commutator_scalar(g1, s, g2, t, window, dens)
            # every cell inside the window agrees, and none outside is formed
            assert got.data == _nonzero(want, window), (n, dim, window)


def test_commutator_scalar_rejects_other_variables():
    gm = on.build_B_matrix(2, 2)
    # a BiSeries is in (x, y) only
    with pytest.raises(ValueError, match="unexpected variables"):
        BiSeries.commutator_scalar(gm, {(0, 1): SpectralLaurent.variable("z")}, gm, {})


def test_commutator_scalar_rejects_parameter_under_multiplier():
    # under a multiplier each sum is split into rational slots, one per
    # parameter monomial; an entry coefficient carrying alpha would be split
    # wrongly, so it is refused, and is fine without a multiplier
    gm = on.build_B_matrix(2, 2)
    alpha = ParamPoly.variable("alpha")
    gm.coeffs[1][1, 2] = gm.coeffs[1][1, 2].scale(alpha)
    _, r12c, r21c = cleared_rbar_pair(2)
    dens = (aw.aw_denominator(2, "x"), aw.aw_denominator(2, "y"))
    with pytest.raises(ValueError, match="not rational"):
        BiSeries.commutator_scalar(gm, r21c, gm, r12c, dens=dens)
    got = BiSeries.commutator_scalar(gm, r21c, gm, r12c)
    assert got.data == _reference_two_leg(gm, r21c, gm, r12c)


def _reference_bracket_cross(gx, gy, fn):
    """[X_1(x), Y_2(y)] with every ordered pair of entries bracketed."""
    n = gx.dim
    acc = {}
    for (a, mx), (b, my) in product(gx.coeffs.items(), gy.coeffs.items()):
        for ((i, j), xe), ((k, l), ye) in product(mx.items(), my.items()):
            cell = acc.setdefault(((i - 1) * n + k - 1, (j - 1) * n + l - 1), {})
            w = fn(xe, ye)
            cell[a, b] = cell[a, b] + w if (a, b) in cell else w
    return _nonzero(acc)


def _same_matrix_cases(dim):
    """(matrix, bracket) pairs for each bracket that bracket_cross is given."""
    yield frt.build_T(1, dim, 2), la.bracket
    yield frt.build_T(-1, dim, 2), la.bracket
    yield on.build_B_matrix(dim, 3), on.bracket_abstract
    t = (aw.extract_structure_constants(2)[0] if dim == 2
         else aw.aw3_table() if dim == 3 else aw.aw4_table())
    yield aw.build_B(t), t.bracket


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_same_matrix_bracket_cross_matches_double_loop(dim):
    # one matrix on both legs brackets each mirror pair once; the result is
    # the ordered double loop over two distinct copies of the matrix
    for gm, fn in _same_matrix_cases(dim):
        copy = GeneratorMatrix(gm.dim, dict(gm.coeffs))
        want = _reference_bracket_cross(gm, copy, fn)
        assert want, dim
        assert BiSeries.bracket_cross(gm, copy, fn).data == want, dim
        assert BiSeries.bracket_cross(gm, gm, fn).data == want, dim


def test_windowed_shares_one_matrix_when_the_reaches_agree():
    gm = on.build_B_matrix(3, 6)
    _, r12c, r21c = cleared_rbar_pair(3)
    bx, by, _ = windowed(gm, gm, 6, list(r12c.values()) + list(r21c.values()))
    assert bx is by and bx is not gm
    # a multiplier in x alone reaches further in x than in y
    bx, by, _ = windowed(gm, gm, 6, [SpectralLaurent.variable("x")])
    assert bx is not by


@pytest.fixture
def widened(monkeypatch):
    """Every window of ``windowed`` one wider than its rule allows."""
    bound = series.shift_bound
    monkeypatch.setattr(series, "shift_bound", lambda *args: bound(*args) - 1)


def test_widened_window_fails_the_tight_exchange_relations(widened):
    # the (-,-) and mixed exchange relations have no slack: one exponent
    # more reaches a coefficient the truncation dropped, and is located
    mism, window = frt.frt_relation_mismatch(3, 6, -1, -1)
    assert (window, mism[:4]) == (6, (-6, -5, (1, 1), (1, 2)))
    mism, window = frt.frt_relation_mismatch(3, 6, 1, -1)
    assert (window, mism[:4]) == (5, (1, -5, (1, 1), (1, 2)))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_widened_window_passes_the_relations_with_slack(widened, dim):
    # (+,+), the reflection relation and the currents keep passing one
    # exponent wider
    assert frt.frt_relation_mismatch(dim, 6, 1, 1) == (None, 6)
    assert on.reflection_mismatch(dim, 6) == (None, 5)
    assert on.currents_mismatch(dim, 6) == (None, 5)
