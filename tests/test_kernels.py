"""The zero-drop rule: the three ``exactnum`` kernels, and the containers
that accumulate through them store no zero."""

from fractions import Fraction

from onsaw import askey_wilson as aw
from onsaw import charges as ch
from onsaw import rmatrix as rm
from onsaw.exactnum import ParamPoly, SpectralLaurent, add_coeff, add_entry, merged, plain
from onsaw.linsolve import SparseEliminator

ALPHA = ParamPoly.variable("alpha")
X = SpectralLaurent.variable("x")


def test_add_coeff_stores_plain():
    terms = {}
    add_coeff(terms, "a", Fraction(2, 1))
    assert terms == {"a": 2} and type(terms["a"]) is int
    add_coeff(terms, "b", Fraction(1, 2))
    add_coeff(terms, "b", Fraction(3, 2))
    assert type(terms["b"]) is int and terms["b"] == 2
    add_coeff(terms, "c", ALPHA)
    add_coeff(terms, "c", 1 - ALPHA)
    assert type(terms["c"]) is int and terms["c"] == 1


def test_add_coeff_drops_a_cancelling_sum():
    terms = {"a": 3, "b": ALPHA}
    add_coeff(terms, "a", -3)
    add_coeff(terms, "b", -ALPHA)
    add_coeff(terms, "c", 0)
    add_coeff(terms, "d", Fraction(0))
    assert terms == {}


def test_merged_cancels_and_leaves_inputs_unchanged():
    a = {"p": 1, "q": ALPHA, "r": Fraction(1, 3)}
    b = {"p": 1, "q": ALPHA, "s": 2}
    a0, b0 = dict(a), dict(b)
    assert merged(a, b, -1) == {"r": Fraction(1, 3), "s": -2}
    assert merged(a, a, -1) == {}
    assert merged(a, b) == {"p": 2, "q": ALPHA * 2, "r": Fraction(1, 3), "s": 2}
    assert a == a0 and b == b0


def test_merged_sum_is_plain():
    out = merged({"p": Fraction(1, 2)}, {"p": Fraction(1, 2)})
    assert out == {"p": 1} and type(out["p"]) is int


def test_add_entry_drops_a_zero_sum_and_the_emptied_inner_map():
    table = {}
    add_entry(table, 0, "i", X)
    add_entry(table, 0, "j", X * 2)
    add_entry(table, 1, "i", SpectralLaurent.zero())
    assert table == {0: {"i": X, "j": X * 2}}
    add_entry(table, 0, "i", -X)
    assert table == {0: {"j": X * 2}}
    add_entry(table, 0, "j", X * -2)
    assert table == {}


def test_operator_commutator_with_itself_has_no_rows():
    r = rm.rbar_closed(3, "x", "y")
    assert r.rows
    assert r.commutator(r).rows == {}


def test_build_b_stores_no_zero_element():
    series = ch.build_b(3, 4)
    assert series
    assert all(not elem.is_zero() for elem in series.values())


def test_extraction_rows_arrive_plain(monkeypatch):
    seen = []
    add_row = SparseEliminator.add_row

    def spy(self, coeffs, rhs):
        seen.extend(coeffs.values())
        seen.extend(rhs.values())
        return add_row(self, coeffs, rhs)

    monkeypatch.setattr(SparseEliminator, "add_row", spy)
    tbl, _ = aw.extract_structure_constants(4)
    assert tbl is not None and seen
    assert all(v and plain(v) is v for v in seen)
