"""r-matrix entries, leg calculus, and the Yang-Baxter residual checks."""

from fractions import Fraction

import pytest

from onsaw import rmatrix as rm
from onsaw.exactnum import ExactDivisionError, ParamPoly, SpectralLaurent, laurent_exact_div

X = SpectralLaurent.variable("x")
Y = SpectralLaurent.variable("y")
Z = SpectralLaurent.variable("z")
ONE = SpectralLaurent.const(1)
EPS = ParamPoly.variable("eps")


def assert_entry(op, rd, cd, num, den=ONE):
    """The entry of ``op`` equals num/den, by cross multiplication with op.den."""
    assert op.entry(rd, cd) * den == num * op.den


def test_r_entries():
    r = rm.build_r(2)
    assert_entry(r, (1, 2), (2, 1), Y * 2, Y - X)
    assert_entry(r, (2, 1), (1, 2), X * 2, Y - X)
    assert_entry(r, (1, 1), (1, 1), Y + X, (Y - X) * 2)
    for dim in (2, 3, 4):
        r = rm.build_r(dim)
        assert_entry(r, (1, 2), (1, 2), -(Y + X), (Y - X) * dim)


def test_r_single_variable_specialisation():
    # r(z) = r(x/y) at y = 1: the one-variable realization behind the folded
    # rbar and the FRT central term
    for dim in (2, 3, 4, 5):
        r = rm.build_r(dim, "z", "w").substitute("w", 1, {})
        assert r.den == ONE - Z
        assert sum(len(row) for row in r.rows.values()) == 2 * dim * dim - dim
        for i in range(1, dim + 1):
            for k in range(1, dim + 1):
                delta = 1 if i == k else 0
                assert r.entry((i, k), (i, k)) == (ONE + Z) * (delta - Fraction(1, dim))
                if i < k:
                    assert r.entry((i, k), (k, i)) == SpectralLaurent.const(2)
                elif i > k:
                    assert r.entry((i, k), (k, i)) == Z * 2


def test_embed_legs():
    r = rm.build_r(2)
    big = r.embed_legs((1, 2), 3)
    assert big.legs == 3
    assert big.den == r.den
    # identity on the free leg
    assert big.entry((1, 2, 1), (2, 1, 1)) == r.entry((1, 2), (2, 1))
    assert big.entry((1, 2, 1), (2, 1, 2)).is_zero()
    with pytest.raises(ValueError):
        r.embed_legs((1, 1), 3)


def test_embed_swap_is_flip_conjugation():
    r = rm.build_r(2)
    sw = r.embed_legs((2, 1), 2)
    assert sw.den == r.den
    for i in range(1, 3):
        for j in range(1, 3):
            for k in range(1, 3):
                for l in range(1, 3):
                    assert sw.entry((i, j), (k, l)) == r.entry((j, i), (l, k))


def test_embed_identity():
    ident = rm.TensorOperator(1, 3)
    for i in range(1, 4):
        ident.put((i,), (i,), ONE)
    big = ident.embed_legs((2,), 3)
    # the identity on all three legs: 27 diagonal numerators, each den
    assert big.rows == {r: {r: big.den} for r in range(27)}


def test_embed_commutes_with_scaling():
    r = rm.build_r(2)
    a = r.scale(X).embed_legs((1, 2), 3)
    b = r.embed_legs((1, 2), 3).scale(X)
    assert (a - b).is_zero()


def test_partial_trace_and_transpose():
    a = rm.TensorOperator(2, 2)
    a.put((1, 1), (2, 2), X)
    a.put((1, 1), (1, 1), ONE)
    t = a.partial_trace(1)
    # tr_1(A x B) = tr(A).B entry check
    assert_entry(t, (1,), (1,), ONE)
    assert t.entry((1,), (2,)).is_zero()
    tt = a.transpose_leg(1).transpose_leg(1)
    assert (tt - a).is_zero()


def test_add_requires_equal_denominators():
    # r_12(x/y) is over y - x, r(y/x) over x - y: a sum needs a declared clearing
    with pytest.raises(ValueError):
        rm.build_r(2, "x", "y") + rm.build_r(2, "y", "x")


def test_entrywise_maps_store_no_zero():
    # x -> 1/y kills the entry xy - 1
    op = rm.TensorOperator(1, 1)
    op.put((1,), (1,), X * Y - ONE)
    sub = op.substitute("x", 1, {"y": -1})
    assert sub.rows == {} and sub.is_zero()
    assert sub.first_nonzero() is None
    # d/dx of 3x over den x is (3x - 3x) / x^2
    op = rm.TensorOperator(1, 2, X)
    op.put((1,), (2,), X * 3)
    der = op.derivative("x")
    assert der.rows == {} and der.den == X * X
    # (1 + eps)(1 - eps) = 1 - eps^2 = 0
    op = rm.TensorOperator(1, 2)
    op.put((2,), (1,), SpectralLaurent.const(1 + EPS))
    op.put((1,), (1,), X)
    scaled = op.scale(1 - EPS)
    assert scaled.rows == {0: {0: X * (1 - EPS)}}
    assert scaled.first_nonzero() == ((1,), (1,), (("x", 1),), 1 - EPS)


def test_over_declared_clearing():
    r = rm.build_r(2)
    moved = r.over((X - Y) * (X + Y))
    assert moved.den == (X - Y) * (X + Y)
    assert_entry(moved, (1, 2), (2, 1), r.entry((1, 2), (2, 1)), r.den)
    with pytest.raises(ExactDivisionError):
        r.over(X + Y)


def test_u_commutes_with_r():
    # U_1 U_2 r_12 = r_12 U_1 U_2
    for dim in (2, 3, 4, 5):
        r = rm.build_r(dim)
        signs = rm.u_signs(dim)
        left = r.scale_leg_diag(1, signs, "left").scale_leg_diag(2, signs, "left")
        right = r.scale_leg_diag(1, signs, "right").scale_leg_diag(2, signs, "right")
        assert (left - right).is_zero()


def test_skew():
    for dim in (2, 3):
        assert rm.check_skew(dim).ok()


def test_skew_negative_control():
    r = rm.build_r(2)
    bad = r.with_entry((1, 2), (2, 1), -r.entry((1, 2), (2, 1)))
    resid = rm.skew_residual(2, bad)
    loc = resid.first_nonzero()
    assert loc is not None
    assert (loc[0], loc[1]) == ((1, 2), (2, 1))


def test_cybe():
    for dim in (2, 3):
        assert rm.check_cybe(dim).ok()


def test_cybe_negative_control():
    # dropping the diagonal weight breaks the equation
    def flat(dim, xv, yv):
        r = rm.build_r(dim, xv, yv)
        out = rm.TensorOperator(r.legs, r.dim, r.den)
        for row_idx, row in r.rows.items():
            for col_idx, v in row.items():
                if row_idx != col_idx:
                    out.put(r.digits(row_idx), r.digits(col_idx), v)
        return out

    r13 = flat(2, "x1", "x3").embed_legs((1, 3), 3)
    r23 = flat(2, "x2", "x3").embed_legs((2, 3), 3)
    r12 = flat(2, "x1", "x2").embed_legs((1, 2), 3)
    assert not rm.cybe_residual(r13, r23, r12).is_zero()


def test_rbar_closed_form_entries():
    fold, closed = rm.build_rbar(2)
    assert_entry(closed, (2, 2), (1, 1), X * Y * -2, X * Y - ONE)
    # diagonal weight on E_11 x E_11 for sample ranks
    for dim in (2, 3):
        sigma = rm.parity_sign(dim)
        closed = rm.build_rbar(dim)[1]
        weight = (X * Y + sigma) * (X - Y) - (X + Y) * (X * Y - sigma)
        assert_entry(closed, (1, 1), (1, 1), weight * Fraction(dim - 1, dim),
                     (X - Y) * (X * Y - sigma))


def test_rbar_fold_equals_closed():
    for dim in (2, 3, 4):
        folded, closed = rm.build_rbar(dim)
        assert (folded - closed).is_zero()


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_cleared_rbar_pair_leg_swap_identity(dim):
    # r12c(x,y) = -P r21c(y,x) P entry by entry, by construction
    _, r12c, r21c = rm.cleared_rbar_pair(dim)
    assert rm.leg_swap_mismatch(dim, r12c, r21c) is None


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_leg_swap_mismatch_locates_changed_entry(dim):
    _, r12c, r21c = rm.cleared_rbar_pair(dim)
    for key in (min(r12c), sorted(r12c)[len(r12c) // 2], max(r12c)):
        broken = dict(r12c)
        broken[key] = r12c[key] + X
        assert rm.leg_swap_mismatch(dim, broken, r21c) == key


def test_ns_cybe():
    for dim in (2, 3):
        assert rm.check_ns_cybe(dim).ok()


def test_ns_cybe_residual_over_declared_clearing():
    resid = rm.ns_cybe_residual(*rm.ns_cybe_operators(3))
    d12 = rm.rbar_clearing(3, "x1", "x2")
    d13 = rm.rbar_clearing(3, "x1", "x3")
    d23 = rm.rbar_clearing(3, "x2", "x3")
    assert resid.den == d12 * d13 * d23


def test_ns_cybe_negative_control():
    # one changed entry of rbar_13 breaks the equation at a fixed entry
    r13 = rm.rbar_closed(2, "x1", "x3")
    r13.put((1, 2), (2, 1), SpectralLaurent.monomial(3, {"x1": 1}))
    _, r23, r21, r12 = rm.ns_cybe_operators(2)
    loc = rm.ns_cybe_residual(r13.embed_legs((1, 3), 3), r23, r21, r12).first_nonzero()
    assert loc is not None
    assert (loc[0], loc[1]) == ((1, 1, 1), (2, 2, 1))


def test_ns_cybe_reduces_to_cybe_for_plain_r():
    resid = rm.ns_cybe_residual(*rm.ns_cybe_operators(3, builder=rm.build_r))
    assert resid.is_zero()


# -- products formed once per distinct entry value ------------------------------


def _entries(op):
    return op.den, {(r, c): v for r, row in op.rows.items() for c, v in row.items()}


def _nonzero(sums):
    return {rc: v for rc, v in sums.items() if not v.is_zero()}


def _plain_products(pairs):
    """Sum of a @ b over (a, b, sign) with every entry pair multiplied, no memo."""
    sums = {}
    for a, b, sign in pairs:
        for r, row in a.rows.items():
            for k, v in row.items():
                for c, w in b.rows.get(k, {}).items():
                    sums[r, c] = sums.get((r, c), SpectralLaurent.zero()) + v * w * sign
    return a.den * b.den, _nonzero(sums)


def _plain_matmul(a, b):
    return _plain_products([(a, b, 1)])


def _plain_commutator(a, b):
    return _plain_products([(a, b, 1), (b, a, -1)])


def _plain_over(entries, clearing):
    den, vals = entries
    mult = laurent_exact_div(clearing, den)
    return clearing, _nonzero({rc: v * mult for rc, v in vals.items()})


def _assert_products_match(a, b, clearing):
    assert _entries(a @ b) == _plain_matmul(a, b)
    assert _entries(b @ a) == _plain_matmul(b, a)
    comm = a.commutator(b)
    assert _entries(comm) == _plain_commutator(a, b)
    assert _entries(comm.over(clearing)) == _plain_over(_plain_commutator(a, b), clearing)
    assert _entries(a.over(clearing)) == _plain_over(_entries(a), clearing)


def test_products_match_plain_on_embedded_rbar():
    r13, r23, r21, r12 = rm.ns_cybe_operators(3)
    clearing = r12.den * r13.den * r23.den
    for a, b in ((r13, r23), (r21, r13), (r23, r12)):
        _assert_products_match(a, b, clearing)
    fresh = rm.ns_cybe_operators(3)
    assert [_entries(op) for op in (r13, r23, r21, r12)] == [_entries(op) for op in fresh]


def _palette():
    """Fresh entries: the first two are equal values built apart, with their
    terms in another order; each other one differs from the first in one
    coefficient or one exponent."""
    a = SpectralLaurent.const(ParamPoly.variable("alpha"))
    return [
        X * a + Y * 2,
        Y * 2 + a * X,
        X * a + Y * 3,
        X * a * 2 + Y * 2,
        X * (a + 1) + Y * 2,
        X * a + Y * Y * 2,
        X * X * a + Y * 2,
    ]


def _palette_operator(den, shift):
    op = rm.TensorOperator(2, 2, den)
    for r in range(4):
        for c in range(4):
            op.put(op.digits(r), op.digits(c), _palette()[(3 * r + c + shift) % 7])
    return op


def test_products_match_plain_on_equal_valued_entries():
    a = _palette_operator(X - Y, 0)
    b = _palette_operator(X * Y - ONE, 2)
    _assert_products_match(a, b, (X - Y) * (X * Y - ONE) * (X + Y))
    assert _entries(a) == _entries(_palette_operator(X - Y, 0))
    assert _entries(b) == _entries(_palette_operator(X * Y - ONE, 2))


def test_products_match_plain_on_planted_ns_cybe_residual():
    def planted_r13():
        r13 = rm.rbar_closed(3, "x1", "x3")
        r13.put((1, 2), (2, 1), SpectralLaurent.monomial(3, {"x1": 1}))
        return r13.embed_legs((1, 3), 3)

    r13 = planted_r13()
    _, r23, r21, r12 = rm.ns_cybe_operators(3)
    clearing = r12.den * r13.den * r23.den
    got = rm.ns_cybe_residual(r13, r23, r21, r12)
    want = {}
    for a, b, sign in ((r13, r23, 1), (r21, r13, -1), (r23, r12, -1)):
        for rc, v in _plain_over(_plain_commutator(a, b), clearing)[1].items():
            want[rc] = want.get(rc, SpectralLaurent.zero()) + v * sign
    assert _entries(got) == (clearing, _nonzero(want))
    r, c = min(_nonzero(want))
    mono = min(want[r, c].terms)
    assert got.first_nonzero() == (got.digits(r), got.digits(c), mono, want[r, c].terms[mono])
    assert _entries(r13) == _entries(planted_r13())
    fresh = rm.ns_cybe_operators(3)[1:]
    assert [_entries(op) for op in (r23, r21, r12)] == [_entries(op) for op in fresh]
