"""The sparse rule of GeneratorMatrix: only nonzero entries are stored, and
no exponent maps to an empty matrix."""

import pytest

from onsaw import askey_wilson as aw
from onsaw import frt
from onsaw import loop_algebra as la
from onsaw import onsager as on
from onsaw.series import GeneratorMatrix


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
    for rank in (3, 4, 5):
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
