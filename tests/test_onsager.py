"""Canonicalization, the embedding oracle, and the B(x) relation checks."""

from fractions import Fraction
from itertools import product

import pytest

from onsaw import loop_algebra as la
from onsaw import onsager as on
from onsaw.exactnum import SpectralLaurent
from onsaw.frt import apply_theta1, frt_relation_mismatch
from onsaw.rmatrix import build_r, cleared_rbar_pair, parity_sign
from onsaw.series import BiSeries, shift_bound


def test_canonicalize_examples():
    assert on.canonicalize_B(3, 2, 1, 0) == on.canonicalize_B(3, 1, 2, 0)
    assert on.canonicalize_B(3, 1, 1, 0).is_zero()
    # negative level reflects with the stated sign
    assert on.canonicalize_B(3, 1, 2, -2) == on.OnsagerElement(
        3, {("B", 2, 1, 2): 1}
    )
    # diagonal index N eliminates through the trace
    v = on.canonicalize_B(2, 2, 2, 1)
    assert v == on.OnsagerElement(2, {("B", 1, 1, 1): -1})


def test_canonicalize_idempotent():
    for dim in (2, 3):
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                for n in range(-3, 4):
                    v = on.canonicalize_B(dim, i, j, n)
                    w = on.zero(dim)
                    for sym, c in v.coeffs.items():
                        ii, jj, nn = on._raw(sym)
                        w = w + on.canonicalize_B(dim, ii, jj, nn).scale(c)
                    assert (v - w).is_zero()


def test_embed_examples():
    assert on.embed(on.canonicalize_B(3, 1, 2, 0)) == \
        la.inject(3, 1, 2, 0) + la.inject(3, 2, 1, 0)
    assert on.embed(on.canonicalize_B(3, 1, 3, 0)) == \
        la.inject(3, 1, 3, 0) + la.inject(3, 3, 1, 0).scale(-1)


def test_embed_theta1_fixed():
    for dim in (2, 3, 4):
        for sym in on.onsager_basis(dim, 3):
            im = on.embed_symbol(dim, sym)
            assert (apply_theta1(im) - im).is_zero(), sym


def test_bracket_example_and_oracle():
    a = on.canonicalize_B(3, 1, 2, 0)
    b = on.canonicalize_B(3, 2, 3, 0)
    got = on.bracket_abstract(a, b)
    assert (got - on.canonicalize_B(3, 1, 3, 0)).is_zero()
    assert (on.embed(got) - la.bracket(on.embed(a), on.embed(b))).is_zero()


def test_bracket_antisymmetry():
    import random

    rng = random.Random(3)
    syms = on.onsager_basis(3, 3)
    for _ in range(60):
        sa, sb = rng.choice(syms), rng.choice(syms)
        a = on.OnsagerElement(3, {sa: 1})
        b = on.OnsagerElement(3, {sb: 1})
        assert (on.bracket_abstract(a, b) + on.bracket_abstract(b, a)).is_zero()


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_bracket_abstract_antisymmetric_on_basis(dim):
    # BiSeries.bracket_cross forms one side of each mirror pair on the
    # antisymmetry of the bracket; this pins it on every pair of units
    units = [on.OnsagerElement(dim, {s: 1}) for s in on.onsager_basis(dim, 6)]
    for p, a in enumerate(units):
        assert on.bracket_abstract(a, a).is_zero()
        for b in units[p + 1:]:
            assert on.bracket_abstract(b, a) == -on.bracket_abstract(a, b), (a, b)


def test_presentation_agreement():
    assert on.check_presentation_agreement(2, 4).ok()
    assert on.check_presentation_agreement(3, 3).ok()


def test_presentation_negative_control():
    # flipping the reflection sign in the defining bracket breaks the oracle
    def bad_bracket(a, b):
        dim = a.dim
        out = on.zero(dim)
        for sa, ca in a.coeffs.items():
            i, j, m = on._raw(sa)
            sgn = -parity_sign(i + j + 1 + m * dim)  # wrong sign
            for sb, cb in b.coeffs.items():
                k, l, n = on._raw(sb)
                c = ca * cb
                if j == k:
                    on._acc_raw(out, i, l, m + n, c)
                if i == l:
                    on._acc_raw(out, k, j, m + n, c * -1)
                if i == k:
                    on._acc_raw(out, j, l, n - m, c * sgn)
                if j == l:
                    on._acc_raw(out, k, i, n - m, c * -sgn)
        return out

    syms = on.onsager_basis(2, 2)
    broken = False
    for sa in syms:
        for sb in syms:
            a = on.OnsagerElement(2, {sa: 1})
            b = on.OnsagerElement(2, {sb: 1})
            lhs = on.embed(bad_bracket(a, b))
            rhs = la.bracket(on.embed(a), on.embed(b))
            if not (lhs - rhs).is_zero():
                broken = True
    assert broken


def _failures(rep):
    return [(c.name, c.detail) for c in rep.failures()]


def test_presentation_oracle_checks_both_orders(monkeypatch):
    # B[1,1]^(1) added to one ordered pair only; that pair comes after its
    # reverse in basis order, so a scan of the pairs a < b would miss it
    real = on.bracket_abstract
    sa, sb = ("B", 1, 2, 1), ("B0", 1, 2)
    assert on.onsager_basis(2, 2).index(sa) > on.onsager_basis(2, 2).index(sb)

    def bad(u, v):
        out = real(u, v)
        if u.coeffs == {sa: 1} and v.coeffs == {sb: 1}:
            out = out + on.OnsagerElement(2, {("B", 1, 1, 1): 1})
        return out

    monkeypatch.setattr(on, "bracket_abstract", bad)
    assert _failures(on.check_presentation_agreement(2, 2)) == [
        ("embedding-oracle",
         "pair (B[1,2]^(1), B[1,2]^(0)) residual -1/2*h[1]^(-1) + 1/2*h[1]^(1)"),
    ]


def test_presentation_theta1_fixed_control(monkeypatch):
    # theta1 with the image of e[1,2]^(1) negated
    s0 = la.off(1, 2, 1)

    def bad(el):
        out = apply_theta1(el)
        c = el.coeffs.get(s0)
        return out if c is None else out - apply_theta1(la.unit(el.dim, s0)).scale(2 * c)

    monkeypatch.setattr(on, "apply_theta1", bad)
    assert _failures(on.check_presentation_agreement(2, 2)) == [
        ("theta1-fixed", "embed(B[1,2]^(1)) not fixed"),
    ]


def test_ui_relations():
    assert on.check_UI_relations(2, 2).ok()
    rep = on.check_UI_relations(3, 2)
    assert rep.ok(), [c.detail for c in rep.failures()]


def test_ui_locators_name_first_failure(monkeypatch):
    # with every bracket off by its first argument, each relation fails at
    # all its entries and the detail names the first in loop order
    bracket = on.bracket_abstract
    monkeypatch.setattr(on, "bracket_abstract", lambda a, b: bracket(a, b) + a)
    detail = {c.name: c.detail for c in on.check_UI_relations(2, 1).failures()}
    assert detail["AA-relation"].startswith("[A[1,2]^(-1), A[1,2]^(-1)] residual")
    assert detail["GA-relation"].startswith("[G[1]^(-1), A[1,2]^(-1)] residual")
    assert detail["GG-commute"] == "[G[1]^(-1), G[1]^(-1)] nonzero"


def test_ui_specific_example():
    # [G_1^(1), A_13^(1)] = A_13^(2) + A_13^(0) at rank 3
    g = on.canonicalize_B(3, 1, 1, 1) - on.canonicalize_B(3, 2, 2, 1)
    a = on.canonicalize_B(3, 1, 3, 1)
    got = on.bracket_abstract(g, a)
    want = on.canonicalize_B(3, 1, 3, 2) - on.canonicalize_B(3, 1, 3, 0).scale(
        parity_sign(1 * 3)
    )
    assert (got - want).is_zero()


def test_oan_presentation():
    assert on.check_OAn_presentation(3).ok()
    rep = on.check_OAn_presentation(4)
    assert rep.ok(), [c.detail for c in rep.failures()]
    with pytest.raises(ValueError):
        on.check_OAn_presentation(2)


def test_oan_wraparound_generator():
    # the cyclic generator at index N uses a negative-level reflection
    gens = on.oan_generators(4)
    e4 = gens[3]
    assert e4 == on.OnsagerElement(4, {("B", 4, 1, 1): 1})
    # [e_4, [e_4, e_1]] = e_1
    got = on.bracket_abstract(e4, on.bracket_abstract(e4, gens[0]))
    assert (got - gens[0]).is_zero()


def test_B_matrix_entries():
    b = on.build_B_matrix(3, 3)
    # no diagonal constants
    for i in range(1, 4):
        assert (b.entry(0, i, i) or on.zero(3)).is_zero()
    assert (b.coeffs[0][1, 2] - on.canonicalize_B(3, 2, 1, 0).scale(2)).is_zero()
    assert (b.coeffs[2][3, 1] - on.canonicalize_B(3, 1, 3, 2).scale(2)).is_zero()


def test_Bxg():
    assert on.check_Bxg(2, 5).ok()
    assert on.check_Bxg(3, 5).ok()


def test_Bxg_negative_control(monkeypatch):
    # B[1,2]^(1) planted at exponent 1, entry (1,2)
    build = on.build_B_matrix

    def bad_B(dim, cutoff):
        b = build(dim, cutoff)
        b.coeffs[1][1, 2] = b.coeffs[1][1, 2] + on.canonicalize_B(dim, 1, 2, 1)
        return b

    monkeypatch.setattr(on, "build_B_matrix", bad_B)
    rep = on.check_Bxg(2, 3)
    assert [(c.name, c.status, c.detail) for c in rep.checks] == [
        ("frt-form-of-B", "fail",
         "exponent 1 entry (1,2): 2*e[1,2]^(-1) + e[1,2]^(1) + e[2,1]^(-1) + 2*e[2,1]^(1)"
         " vs 2*e[1,2]^(-1) + 2*e[2,1]^(1)")]


def test_reflection():
    rep = on.check_reflection(2, 6)
    assert rep.ok(), [c.detail for c in rep.failures()]
    assert on.check_reflection(3, 5).ok()


def test_reflection_negative_control():
    # the unfolded r-matrix does not satisfy the reflection relation
    x = SpectralLaurent.variable("x")
    y = SpectralLaurent.variable("y")
    sigma = parity_sign(2)
    clearing = (x - y) * (x * y - SpectralLaurent.const(sigma))
    r12 = build_r(2, "x", "y").cleared(clearing)
    r21 = build_r(2, "y", "x").embed_legs((2, 1), 2).cleared(clearing)
    mism, _ = on.reflection_mismatch(2, 6, r12=r12, r21=r21)
    assert mism is not None


def _unpruned_reflection(dim, cutoff):
    """The reflection relation with every exponent and product formed, as a
    function of the cleared rbar_12 map (the true one when None)."""
    clearing, r12_true, r21c = cleared_rbar_pair(dim)
    b = on.build_B_matrix(dim, cutoff)
    lhs = BiSeries.bracket_cross(b, b, on.bracket_abstract).convolve(clearing)
    rhs21 = BiSeries.commutator_scalar(b, {k: -v for k, v in r21c.items()}, b, {})

    def mismatch(r12=None):
        r12c = r12_true if r12 is None else r12
        multipliers = [clearing] + list(r12c.values()) + list(r21c.values())
        window = cutoff - shift_bound(multipliers, ("x", "y"))
        rhs = rhs21 + BiSeries.commutator_scalar(b, {}, b, r12c)
        return lhs.first_mismatch(rhs, window), window

    return mismatch


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("cutoff", [4, 5, 6])
def test_reflection_pruning_matches_unpruned(dim, cutoff):
    got = on.reflection_mismatch(dim, cutoff)
    assert got[0] is None
    assert got == _unpruned_reflection(dim, cutoff)()


def test_reflection_pruning_matches_unpruned_planted():
    # a monomial of degree at most 1 per variable planted at every cleared
    # rbar_12 entry, as the benchmark's control does: the pruned check names
    # the same first mismatch as the unpruned one
    x = SpectralLaurent.variable("x")
    y = SpectralLaurent.variable("y")
    shapes = [SpectralLaurent.const(3), x * -2, y * 5, x * y]
    _, r12, _ = cleared_rbar_pair(3)
    reference = _unpruned_reflection(3, 6)
    for n, key in enumerate(sorted(r12)):
        bad = dict(r12)
        bad[key] = bad[key] + shapes[n % len(shapes)]
        got = on.reflection_mismatch(3, 6, r12=bad)
        assert got[0] is not None, key
        assert got == reference(bad), key


def test_reflection_fault_at_window_edge_is_caught(monkeypatch):
    # B(x) is kept up to exponent w on both legs; a fault planted there
    # fails on the window boundary, and a product filter one too tight would
    # drop it silently
    dim, cutoff, top = 3, 6, 4
    build = on.build_B_matrix
    fault = on.canonicalize_B(dim, 1, 2, 1)

    def bad_B(dim, cutoff):
        b = build(dim, cutoff)
        b.coeffs[top][1, 1] = b.coeffs[top][1, 1] + fault
        return b

    monkeypatch.setattr(on, "build_B_matrix", bad_B)
    mism, window = on.reflection_mismatch(dim, cutoff)
    assert window == top
    assert mism is not None
    assert max(abs(mism[0]), abs(mism[1])) == window
    assert (mism, window) == _unpruned_reflection(dim, cutoff)()


def test_biseries_one_sided_mismatch_is_lhs_minus_rhs():
    # a cell formed on one side only differs by its own value on the left
    # side and by its negation on the right side
    el = on.canonicalize_B(2, 1, 2, 1)
    one = BiSeries(2, {(0, 1): {(0, 1): el}})
    empty = BiSeries(2)
    assert one.first_mismatch(empty, 1) == (0, 1, (1, 1), (1, 2), el)
    assert empty.first_mismatch(one, 1) == (0, 1, (1, 1), (1, 2), -el)
    assert one.first_mismatch(one, 1) is None
    # outside the window nothing is compared
    assert empty.first_mismatch(one, 0) is None
    # without a window every cell is compared
    assert empty.first_mismatch(one, None) == (0, 1, (1, 1), (1, 2), -el)


def _unwindowed_currents(dim, cutoff):
    """The current relations with the full B(x) and every product formed,
    compared quadruple by quadruple, then by (a, b), inside the window."""
    x = SpectralLaurent.variable("x")
    y = SpectralLaurent.variable("y")
    sigma = parity_sign(dim)
    dxy = x - y
    dprod = x * y - SpectralLaurent.const(sigma)
    H = on._H
    multipliers = [dxy * dprod, dprod * x, dprod * y, dxy * x * y, dxy]
    window = cutoff - shift_bound(multipliers, ("x", "y"))
    b = on.build_B_matrix(dim, cutoff)

    def cur(i, j, slot):
        # the current (i, j) is entry (j, i) of B(x)
        return {((n, 0) if slot == 0 else (0, n)): b.entry(n, j, i) or on.zero(dim)
                for n in b.coeffs}

    def add(acc, key, el):
        acc[key] = acc.get(key, on.zero(dim)) + el

    def times(series, lau, acc):
        for (a, bb), el in series.items():
            for mono, c in lau.terms.items():
                d = dict(mono)
                add(acc, (a + d.get("x", 0), bb + d.get("y", 0)), el.scale(c))

    pairs = [(i, j) for i in range(1, dim + 1) for j in range(1, dim + 1)]
    for (i, j), (k, l) in product(pairs, repeat=2):
        brackets = {}
        for (a, _), ea in cur(i, j, 0).items():
            for (_, bb), eb in cur(k, l, 1).items():
                add(brackets, (a, bb), on.bracket_abstract(ea, eb))
        lhs, rhs = {}, {}
        times(brackets, dxy * dprod, lhs)
        wx = x * H(k - l) + y * H(l - k)
        wy = y * H(i - j) + x * H(j - i)
        ux = (x * y * H(l - k) + SpectralLaurent.const(sigma * H(k - l))) * parity_sign(k + l)
        uy = (x * y * H(j - i) + SpectralLaurent.const(sigma * H(i - j))) * parity_sign(i + j)
        if j == k:
            times(cur(i, l, 0), dprod * wx * 2, rhs)
            times(cur(i, l, 1), dprod * wy * -2, rhs)
        if i == l:
            times(cur(k, j, 0), dprod * wx * -2, rhs)
            times(cur(k, j, 1), dprod * wy * 2, rhs)
        if i == k:
            times(cur(l, j, 0), dxy * ux * -2, rhs)
            times(cur(j, l, 1), dxy * uy * 2, rhs)
        if j == l:
            times(cur(i, k, 0), dxy * ux * 2, rhs)
            times(cur(k, i, 1), dxy * uy * -2, rhs)
        for a, bb in sorted(set(lhs) | set(rhs)):
            diff = lhs.get((a, bb), on.zero(dim)) - rhs.get((a, bb), on.zero(dim))
            if max(abs(a), abs(bb)) <= window and not diff.is_zero():
                return ((i, j, k, l), a, bb, diff), window
    return None, window


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("cutoff", [4, 5, 6])
def test_currents_match_unwindowed(dim, cutoff):
    got = on.currents_mismatch(dim, cutoff)
    assert got[0] is None
    assert got == _unwindowed_currents(dim, cutoff)


@pytest.mark.parametrize("exp,row,col,fault", [
    (0, 0, 1, (1, 2, 1)), (1, 1, 1, (2, 1, 1)), (2, 1, 0, (1, 2, 2)),
    (3, 0, 0, (1, 2, 1)), (4, 2, 1, (1, 2, 3)),
])
def test_currents_match_unwindowed_planted(monkeypatch, exp, row, col, fault):
    # a fault planted in B(x) is named at the same quadruple, monomial and
    # residual as by the unwindowed reference; exponent 4 is the window edge
    dim, cutoff = 3, 6
    build = on.build_B_matrix
    el = on.canonicalize_B(dim, *fault)

    def bad_B(dim, cutoff):
        b = build(dim, cutoff)
        b.coeffs[exp][row + 1, col + 1] = (b.entry(exp, row + 1, col + 1) or on.zero(dim)) + el
        return b

    monkeypatch.setattr(on, "build_B_matrix", bad_B)
    got = on.currents_mismatch(dim, cutoff)
    assert got[0] is not None
    assert got == _unwindowed_currents(dim, cutoff)


@pytest.mark.parametrize("relation", [
    lambda: frt_relation_mismatch(2, 1, 1, -1),
    lambda: on.reflection_mismatch(2, 1),
    lambda: on.currents_mismatch(2, 1),
])
def test_cutoff_one_leaves_an_empty_window(relation):
    # each windowed relation takes its window from the one shared rule
    with pytest.raises(ValueError, match="cutoff too small: empty comparison window") as info:
        relation()
    assert info.traceback[-1].name == "windowed"


def test_reflection_tracelessness_negative_control(monkeypatch):
    # a diagonal shift planted at every exponent is named at the first one
    build = on.build_B_matrix
    shift = on.canonicalize_B(2, 1, 2, 1)

    def shifted(dim, cutoff):
        b = build(dim, cutoff)
        for m in b.coeffs.values():
            m[1, 1] = m.get((1, 1), on.zero(dim)) + shift
        return b

    monkeypatch.setattr(on, "build_B_matrix", shifted)
    detail = {c.name: c.detail for c in on.check_reflection(2, 4).failures()}
    assert detail["tracelessness"] == f"exponent 0: trace {shift}"


def test_currents():
    rep = on.check_currents(2, 6)
    assert rep.ok(), [c.detail for c in rep.failures()]
    assert on.check_currents(3, 4).ok()


def test_currents_negative_control(monkeypatch):
    # H(0) = 1 instead of 1/2 breaks the exchange relations; the first
    # failing pair and monomial are named
    step = on._H
    monkeypatch.setattr(on, "_H", lambda k: Fraction(1) if k == 0 else step(k))
    # the failing cell is formed on the right side only; its residual is
    # lhs - rhs
    want = {2: "-4*B[1,2]^(1)", 3: "4*B[1,2]^(1)"}
    for dim in (2, 3):
        rep = on.check_currents(dim, 4)
        assert not rep.ok()
        detail = rep.failures()[0].detail
        assert detail.startswith("currents (1, 1, 1, 2) monomial x^1 y^1 residual "), detail
        assert detail.endswith("4*B[1,2]^(1)"), detail
        assert detail == f"currents (1, 1, 1, 2) monomial x^1 y^1 residual {want[dim]}"


def test_currents_fault_at_window_edge_is_caught(monkeypatch):
    # the current modes are kept up to exponent w; a fault planted there
    # (in the current of (1, 2), which is entry (2, 1) of B(x)) fails on the
    # window boundary, and a target filter one too tight would drop it
    # silently
    dim, cutoff, top = 2, 4, 2
    build = on.build_B_matrix
    fault = on.canonicalize_B(dim, 1, 2, 1)

    def bad_B(dim, cutoff):
        b = build(dim, cutoff)
        b.coeffs[top][2, 1] = b.coeffs[top][2, 1] + fault
        return b

    monkeypatch.setattr(on, "build_B_matrix", bad_B)
    mism, window = on.currents_mismatch(dim, cutoff)
    assert window == top
    assert mism is not None
    _, a, b, _ = mism
    assert max(a, b) == window


def test_current_modes_constant_term_rule():
    # the current 2 sum x^n B_ij^(n) is entry (j, i) of B(x); it has a
    # constant term iff i > j
    for dim in (2, 3):
        b = on.build_B_matrix(dim, 3)
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                assert (not (b.entry(0, j, i) or on.zero(dim)).is_zero()) == (i > j), (dim, i, j)
                for n in (1, 2, 3):
                    assert b.entry(n, j, i) == on.canonicalize_B(dim, i, j, n).scale(2)


@pytest.mark.parametrize("check", [
    lambda: on.check_presentation_agreement(1, 1),
    lambda: on.check_UI_relations(1, 1),
    lambda: on.currents_mismatch(1, 3),
])
def test_rank_one_is_rejected(check):
    with pytest.raises(ValueError, match="N >= 2"):
        check()
