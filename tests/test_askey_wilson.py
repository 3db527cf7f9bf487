"""Bracket tables, exact reflection certificates, presentations, and the
structure-constant extraction."""

import itertools
import json
from fractions import Fraction

import pytest

from onsaw import askey_wilson as aw
from onsaw.exactnum import ParamPoly, SpectralLaurent, add_coeff, coeff_key
from onsaw.linsolve import SparseEliminator
from onsaw.rmatrix import cleared_rbar_pair
from onsaw.series import commutator_cells, laurent_xy_terms
from test_series import _reference_two_leg

ALPHA = ParamPoly.variable("alpha")


def test_aw3_bracket_samples():
    t = aw.aw3_table()
    # [e1, e2] = f3
    assert (t.bracket(t.unit("e1"), t.unit("e2")) - t.unit("f3")).is_zero()
    # [e1, f1] = g1
    assert (t.bracket(t.unit("e1"), t.unit("f1")) - t.unit("g1")).is_zero()
    # [e1, g1] = -2 alpha e1 + 4 f1
    got = t.bracket(t.unit("e1"), t.unit("g1"))
    want = t.unit("e1").scale(ALPHA * -2) + t.unit("f1").scale(4)
    assert (got - want).is_zero()
    # dependent symbol: [e3, f3] = g3 = -g1 - g2
    got = t.bracket(t.unit("e3"), t.unit("f3"))
    want = t.unit("g1").scale(-1) + t.unit("g2").scale(-1)
    assert (got - want).is_zero()


def test_aw4_bracket_samples():
    t = aw.aw4_table()
    assert (t.bracket(t.unit("e1"), t.unit("e2")) - t.unit("f3")).is_zero()
    assert t.bracket(t.unit("e1"), t.unit("e3")).is_zero()
    # [f3, f1] = h1 + h2 through the h4 resolution
    got = t.bracket(t.unit("f3"), t.unit("f1"))
    want = t.unit("h1") + t.unit("h2")
    assert (got - want).is_zero()
    assert t.bracket(t.unit("h1"), t.unit("h3")).is_zero()


def test_jacobi():
    assert aw.check_jacobi(aw.aw3_table()).ok()
    assert aw.check_jacobi(aw.aw4_table()).ok()


def test_jacobi_negative_control():
    # dropping the alpha term of the f-f bracket breaks the Jacobi identity
    t = aw.aw3_table()
    for key in list(t.table):
        ia, ib = key
        if t.basis[ia].startswith("f") and t.basis[ib].startswith("f"):
            t.table[key] = {
                k: v for k, v in t.table[key].items() if t.basis[k].startswith("f")
            }
    rep = aw.check_jacobi(t)
    assert not rep.ok()
    assert rep.failures()[0].detail  # locator present


def _jacobi_reference(t):
    """First failing triple in combination order, built from TableElements."""
    for ia, ib, ic in itertools.combinations(range(t.dim), 3):
        resid = t.jacobi_residual(ia, ib, ic)
        if not resid.is_zero():
            return f"triple ({t.basis[ia]},{t.basis[ib]},{t.basis[ic]}) residual {resid}"
    return None


@pytest.mark.parametrize("make", [aw.aw3_table, aw.aw4_table])
def test_flat_jacobi_agrees_with_reference_on_mutants(make):
    # every +-1/+-2 shift of one structure constant: the flat contraction and
    # the element-level residual give the same verdict and the same locator
    t = make()
    assert aw.check_jacobi(t).ok() and _jacobi_reference(t) is None
    mutants = 0
    for key in sorted(t.table):
        vec = t.table[key]
        for ic in sorted(vec):
            for shift in (1, -1, 2, -2):
                changed = vec[ic] + shift
                t.table[key] = {**vec, ic: changed} if changed else {
                    k: v for k, v in vec.items() if k != ic}
                rep = aw.check_jacobi(t)
                want = _jacobi_reference(t)
                assert rep.ok() == (want is None), (key, ic, shift)
                assert rep.checks[0].detail == want, (key, ic, shift)
                mutants += 1
            t.table[key] = vec
    assert mutants == {8: 172, 15: 520}[t.dim]


def test_B_matrix_entries():
    b3 = aw.build_B_aw(3)
    t3 = aw.aw3_table()
    want = t3.unit("g1").scale(Fraction(4, 3)) + t3.unit("g2").scale(Fraction(2, 3))
    assert (b3.entry(0, 1, 1) - want).is_zero()
    assert (b3.entry(1, 2, 1) - t3.unit("e1").scale(-2)).is_zero()
    assert (b3.entry(0, 2, 1) - t3.unit("f1").scale(-2)).is_zero()
    b4 = aw.build_B_aw(4)
    t4 = aw.aw4_table()
    assert (b4.entry(0, 1, 4) - t4.unit("e4").scale(-2)).is_zero()
    assert (b4.entry(-1, 1, 4) - t4.unit("g4").scale(-2)).is_zero()


def test_reflection_exact():
    rep = aw.check_reflection_aw(aw.aw3_table(), aw.build_B_aw(3))
    assert rep.ok(), [c.detail for c in rep.failures()]
    rep = aw.check_reflection_aw(aw.aw4_table(), aw.build_B_aw(4))
    assert rep.ok(), [c.detail for c in rep.failures()]


def test_reflection_negative_control():
    # corrupting a sign in the f-g bracket family must fail with a locator
    t = aw.aw3_table()
    key = (t.index["f1"], t.index["g1"])
    t.table[key] = {k: -v for k, v in t.table[key].items()}
    mism = aw.reflection_aw_mismatch(t, aw.build_B_aw(3))
    assert mism is not None
    detail = {c.name: c.detail for c in aw.check_reflection_aw(t, aw.build_B_aw(3)).failures()}
    assert detail["reflection-exact"] == (
        "monomial [(x,0), (y,1)] entry (1, 1)->(1, 2) residual -64/3*<0> + -32/3*alpha*<3>")


def test_reflection_tracelessness_negative_control():
    # a diagonal shift planted at every exponent is named at the first one
    t = aw.aw3_table()
    b = aw.build_B_aw(3)
    shift = t.unit("e1")
    for m in b.coeffs.values():
        m[1, 1] = m.get((1, 1), t.zero()) + shift
    first = next(iter(b.coeffs))
    detail = {c.name: c.detail for c in aw.check_reflection_aw(t, b).failures()}
    assert detail["tracelessness"] == f"x^{first}: trace {shift}"


def test_pro1():
    rep = aw.check_pro1(aw.aw3_table())
    assert rep.ok(), [c.detail for c in rep.failures()]


def test_pro1_double_bracket_locator_is_first(monkeypatch):
    # break [e1,[e1,e2]] = e2 and [e3,[e3,e2]] = e2; the detail names the first
    t = aw.aw3_table()
    real = t.bracket
    e1, e3 = t.unit("e1"), t.unit("e3")

    def patched(u, v):
        out = real(u, v)
        if u == e1 or u == e3:
            out = out + t.unit("g1")
        return out

    monkeypatch.setattr(t, "bracket", patched)
    rep = aw.check_pro1(t)
    fail = [c for c in rep.failures() if c.name == "double-bracket-relations"]
    assert fail and fail[0].detail.startswith("[e1,[e1,e2]] - e2 = ")


def _plant_bracket(t, name_a, name_b):
    """t with name_a added to [name_a, name_b] when bracketed in that order."""
    real = t.bracket
    a, b = t.unit(name_a), t.unit(name_b)

    def patched(u, v):
        out = real(u, v)
        return out + a if u == a and v == b else out

    t.bracket = patched
    return t


def test_presentation_locators_name_first_failure():
    rep = aw.check_pro1(_plant_bracket(aw.aw3_table(), "e2", "e3"))
    assert [(c.name, c.detail) for c in rep.failures()] == [
        ("generator-expressions", "f1 = [e2,e3] residual -<1>"),
        ("cubic-relations", "cubic relation at (1,2,3): <0>"),
        ("alternative-cubic-relations", "alternative relation at (1,2,3): 2*<1>"),
    ]
    rep = aw.check_pro2(_plant_bracket(aw.aw4_table(), "e3", "e4"))
    assert [(c.name, c.detail) for c in rep.failures()] == [
        ("quadratic-and-quartic-relations", "relation at i=2: residual <1>"),
        ("quintic-relations", "deep relation at i=2: <0> + 3*<5>"),
    ]


def test_pro1_word_evaluations():
    t = aw.aw3_table()
    # [e1, [e2, e3]] = g1
    got = t.eval_word(aw.Word((1, 2, 3)))
    assert (got - t.unit("g1")).is_zero()
    # [[e1,e2],[e2,e3]] + [e1,e3] + alpha eps_123 e2 = 0
    lhs = t.bracket(t.bracket(t.unit("e1"), t.unit("e2")),
                    t.bracket(t.unit("e2"), t.unit("e3")))
    lhs = lhs + t.bracket(t.unit("e1"), t.unit("e3")) + t.unit("e2").scale(ALPHA)
    assert lhs.is_zero()


def test_pro2():
    rep = aw.check_pro2(aw.aw4_table())
    assert rep.ok(), [c.detail for c in rep.failures()]


def test_pro2_sample_evaluation():
    t = aw.aw4_table()
    w = t.bracket(t.unit("e1"), t.bracket(t.unit("e2"), t.unit("e3")))
    lhs = t.bracket(w, t.bracket(t.unit("e4"), w))
    want = t.unit("e4").scale(-4) + w.scale(ALPHA * 2)
    assert (lhs - want).is_zero()


# The paper's generating matrices for ranks 3 and 4: (i, j) -> {x exponent ->
# [(basis name, numerator, denominator)]}, each entry carrying the factor 2.
PAPER_B = {
    3: {
        (1, 1): {0: [("g1", 2, 3), ("g2", 1, 3)]},
        (1, 2): {0: [("f1", 1, 1)], -1: [("e1", -1, 1)]},
        (1, 3): {0: [("e3", 1, 1)], -1: [("f3", 1, 1)]},
        (2, 1): {1: [("e1", -1, 1)], 0: [("f1", -1, 1)]},
        (2, 2): {0: [("g1", -1, 3), ("g2", 1, 3)]},
        (2, 3): {0: [("f2", 1, 1)], -1: [("e2", -1, 1)]},
        (3, 1): {0: [("e3", 1, 1)], 1: [("f3", -1, 1)]},
        (3, 2): {1: [("e2", -1, 1)], 0: [("f2", -1, 1)]},
        (3, 3): {0: [("g1", -1, 3), ("g2", -2, 3)]},
    },
    4: {
        (1, 1): {0: [("h1", 3, 4), ("h2", 1, 2), ("h3", 1, 4)]},
        (1, 2): {0: [("g1", 1, 1)], -1: [("e1", 1, 1)]},
        (1, 3): {0: [("f1", 1, 1)], -1: [("f3", 1, 1)]},
        (1, 4): {0: [("e4", -1, 1)], -1: [("g4", -1, 1)]},
        (2, 1): {0: [("g1", -1, 1)], 1: [("e1", -1, 1)]},
        (2, 2): {0: [("h1", -1, 4), ("h2", 1, 2), ("h3", 1, 4)]},
        (2, 3): {0: [("g2", 1, 1)], -1: [("e2", 1, 1)]},
        (2, 4): {0: [("f2", 1, 1)], -1: [("f4", 1, 1)]},
        (3, 1): {0: [("f1", 1, 1)], 1: [("f3", 1, 1)]},
        (3, 2): {0: [("g2", -1, 1)], 1: [("e2", -1, 1)]},
        (3, 3): {0: [("h1", -1, 4), ("h2", -1, 2), ("h3", 1, 4)]},
        (3, 4): {0: [("g3", 1, 1)], -1: [("e3", 1, 1)]},
        (4, 1): {0: [("e4", 1, 1)], 1: [("g4", 1, 1)]},
        (4, 2): {0: [("f2", 1, 1)], 1: [("f4", 1, 1)]},
        (4, 3): {0: [("g3", -1, 1)], 1: [("e3", -1, 1)]},
        (4, 4): {0: [("h1", -1, 4), ("h2", -1, 2), ("h3", -3, 4)]},
    },
}


@pytest.mark.parametrize("rank", [3, 4])
def test_B_aw_matches_paper_entries(rank):
    t = aw.aw3_table() if rank == 3 else aw.aw4_table()
    b = aw.build_B_aw(rank)
    assert sorted(b.coeffs) == [-1, 0, 1]
    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            for e in (-1, 0, 1):
                want = t.zero()
                for name, num, den in PAPER_B[rank][(i, j)].get(e, []):
                    want = want + t.unit(name).scale(Fraction(2 * num, den))
                assert (b.entry(e, i, j) or t.zero()) == want, (i, j, e)


@pytest.mark.parametrize("rank", [3, 4])
def test_table_words_evaluate_to_basis(rank):
    # B(x) reads each word through t.words; the brackets must agree with it
    t = aw.aw3_table() if rank == 3 else aw.aw4_table()
    for k, (c, word) in enumerate(t.words):
        assert t.eval_word(word).scale(c) == t.unit(k), t.basis[k]


def test_build_B_rejects_missing_word():
    t = aw.aw3_table()
    t.words[t.index["g2"]] = None
    with pytest.raises(ValueError, match="not a basis word"):
        aw.build_B(t)


@pytest.mark.parametrize("rank", [2, 5])
def test_check_aw_rejects_rank_without_table(rank):
    with pytest.raises(ValueError, match="ranks 3 and 4 only"):
        aw.check_aw(rank)


def test_ansatz_word_counts():
    # the distinct words over all entries and exponents of the ansatz
    for rank, count in ((2, 3), (3, 8), (4, 15), (5, 24)):
        entries = aw.build_B_general(rank).coeffs.values()
        words = {w for entry in entries for wel in entry.values() for w in wel.coeffs}
        assert len(words) == count


@pytest.mark.parametrize("rank, rows, unknowns",
                         [(2, 88, 3), (3, 684, 28), (4, 2416, 105), (5, 6260, 276)])
def test_extraction_system_shape(rank, rows, unknowns):
    # the row count is every row of the system, repeated rows included
    _, rep = aw.extract_structure_constants(rank)
    want = f"system: {rows} rows, {unknowns} bracket unknowns, rank {unknowns}"
    assert rep.checks[0].name == want


def _row_key(coeffs, rhs):
    return (frozenset(coeffs.items()), frozenset((k, coeff_key(p)) for k, p in rhs.items()))


def _reference_rhs(num, r12c, r21c):
    """-[B_1(x), rbar_21] d(y) + [B_2(y), rbar_12] d(x) on the word ansatz,
    by the test-side product-by-product reference."""
    return _reference_two_leg(num, {k: -v for k, v in r21c.items()}, num, r12c,
                              aw._aw_dens(num.dim))


def _all_quadruple_row_keys(rank):
    """Distinct row keys of the extraction system, in order of first
    arrival, with every quadruple (i,k,j,l) assembled in loop order: cell
    (idx(i,k), idx(j,l)) of [B_1(x), B_2(y)] C, its unknown word pairs
    sorted with a sign flip, against the word right-hand side."""
    num = aw.build_B_general(rank)
    widx = {w: k for k, w in enumerate(aw._words_of(num))}
    clearing, r12c, r21c = cleared_rbar_pair(rank)
    rhs = _reference_rhs(num, r12c, r21c)
    digits = range(1, rank + 1)
    terms = {ij: [(e, widx[w], c) for e, m in num.coeffs.items() if ij in m
                  for w, c in m[ij].coeffs.items()]
             for ij in itertools.product(digits, repeat=2)}
    keys = {}
    for i, k, j, l in itertools.product(digits, repeat=4):
        grid = {}
        for (a, wa, ca), (b, wb, cb) in itertools.product(terms[i, j], terms[k, l]):
            if wa != wb:
                pair, c = ((wa, wb), ca * cb) if wa < wb else ((wb, wa), -ca * cb)
                for ex, ey, sc in laurent_xy_terms(clearing):
                    add_coeff(grid.setdefault((a + ex, b + ey), {}), pair, c * sc)
        cell = rhs.get(((i - 1) * rank + k - 1, (j - 1) * rank + l - 1), {})
        for mkey in sorted(set(grid) | set(cell)):
            rvec = cell[mkey].coeffs if mkey in cell else {}
            keys.setdefault(_row_key(grid.get(mkey, {}), {widx[w]: c for w, c in rvec.items()}))
    return list(keys)


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_extraction_skips_only_mirror_repeats(monkeypatch, rank):
    # a quadruple whose leg-swap mirror came earlier is counted, not
    # assembled: the eliminator still receives the same distinct rows in the
    # same order, in fewer calls than the reported row count
    seen = []
    add_row = SparseEliminator.add_row

    def spy(self, coeffs, rhs):
        seen.append(_row_key(coeffs, rhs))
        return add_row(self, coeffs, rhs)

    monkeypatch.setattr(SparseEliminator, "add_row", spy)
    tbl, rep = aw.extract_structure_constants(rank)
    assert tbl is not None
    rows = int(rep.checks[0].name.split()[1])
    assert len(seen) < rows
    assert list(dict.fromkeys(seen)) == _all_quadruple_row_keys(rank)


@pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
def test_streamed_rhs_cells_match_reflection_rhs(monkeypatch, rank):
    # extraction reads each right-hand cell from the two-leg kernel on the
    # flat ansatz; with words mapped to indices it is the cell of the
    # reflection right side that the reference forms, empty cells included
    num = aw.build_B_general(rank)
    widx = {w: k for k, w in enumerate(aw._words_of(num))}
    _, r12c, r21c = cleared_rbar_pair(rank)
    rhs = _reference_rhs(num, r12c, r21c)
    seen = []
    cells = commutator_cells

    def spy(*args, **kwargs):
        seen.append(cells(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(aw, "commutator_cells", spy)
    aw.extract_structure_constants(rank)
    (cell,) = seen
    for i, k, j, l in itertools.product(range(1, rank + 1), repeat=4):
        want = {ab: {widx[w]: c for w, c in el.coeffs.items()}
                for ab, el in rhs.get(((i - 1) * rank + k - 1, (j - 1) * rank + l - 1),
                                      {}).items()}
        assert cell(i, k, j, l) == want, (i, k, j, l)


def test_extraction_rejects_broken_leg_swap(monkeypatch):
    # the mirror skip rests on r12c = -P r21c(y,x) P; a changed entry stops
    # the extraction with its locator instead of assembling silently
    clearing, r12c, r21c = cleared_rbar_pair(3)
    key = sorted(r12c)[5]
    broken = dict(r12c)
    broken[key] = r12c[key] + 1
    monkeypatch.setattr(aw, "cleared_rbar_pair", lambda rank: (clearing, broken, r21c))
    with pytest.raises(ValueError, match=rf"at entry \({key[0]}, {key[1]}\)"):
        aw.extract_structure_constants(3)


def test_extraction_rejects_clearing_not_odd(monkeypatch):
    clearing, r12c, r21c = cleared_rbar_pair(3)
    # C x is not odd under x <-> y; its first term, -x y, maps to itself
    skewed = clearing * SpectralLaurent.variable("x")
    monkeypatch.setattr(aw, "cleared_rbar_pair", lambda rank: (skewed, r12c, r21c))
    with pytest.raises(ValueError, match=r"not odd under x <-> y at x\^1 y\^1"):
        aw.extract_structure_constants(3)


def test_extraction_rank3_matches():
    tbl, rep = aw.extract_structure_constants(3)
    assert rep.ok(), [c.detail for c in rep.failures()]
    assert tbl is not None
    m = aw.match_tables(tbl, aw.aw3_table())
    assert m.ok(), [c.detail for c in m.failures()]


def test_extraction_rank4_matches():
    tbl, rep = aw.extract_structure_constants(4)
    assert rep.ok()
    m = aw.match_tables(tbl, aw.aw4_table())
    assert m.ok(), [c.detail for c in m.failures()]


def test_match_identity_and_sign_twist():
    t = aw.aw3_table()
    assert aw.match_tables(t, t).ok()
    # flip e1 in a copied table: the matcher must find the sign bookkeeping
    flipped = aw.aw3_table()
    e1 = flipped.index["e1"]
    for key in list(flipped.table):
        vec = flipped.table[key]
        s = (-1 if e1 in key else 1)
        flipped.table[key] = {
            k: (v * (s * (-1 if k == e1 else 1))) for k, v in vec.items()
        }
    rep = aw.match_tables(t, flipped)
    assert rep.ok(), [c.detail for c in rep.failures()]
    signs = [c.name for c in rep.checks if c.name.startswith("generator signs")]
    assert signs and "-1" in signs[0]


def _match_failure(t):
    rep = aw.match_tables(t, aw.aw3_table())
    return [(c.name, c.status, c.detail) for c in rep.checks]


def test_match_failure_reasons():
    t = aw.aw3_table()
    t.words[t.index["g2"]] = t.words[t.index["g1"]]
    assert _match_failure(t) == [
        ("isomorphism", "fail", "images not linearly independent")]
    # a word left out, as import_table reads a null word
    t = aw.aw3_table()
    t.words[0] = None
    assert _match_failure(t) == [
        ("isomorphism", "fail", "basis e1 has no defining word")]
    # [e1,f2] = -2 e3 instead of -e3: no sign tuple is a morphism, and the
    # reason names the last one tried
    t = aw.aw3_table()
    e1, f2, e3 = (t.index[n] for n in ("e1", "f2", "e3"))
    assert t.bracket_basis(e1, f2) == {e3: -1}
    t.table[(e1, f2)] = {e3: -2}
    rep = aw.match_tables(aw.aw3_table(), t)
    assert [(c.name, c.status, c.detail) for c in rep.checks] == [
        ("isomorphism", "fail", "bracket (e1,f2) not preserved under signs (-1, -1, -1)")]


def test_match_rejects_tables_of_different_dimension():
    rep = aw.match_tables(aw.aw3_table(), aw.aw4_table())
    assert [(c.name, c.status, c.detail) for c in rep.checks] == [
        ("dimension", "fail", "8 vs 15")]


def test_export_import_roundtrip(tmp_path):
    tbl, _ = aw.extract_structure_constants(3)
    data = aw.export_table(tbl)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    back = aw.import_table(json.loads(path.read_text()))
    assert back.basis == tbl.basis
    assert back.table.keys() == tbl.table.keys()
    for key in tbl.table:
        assert back.table[key] == tbl.table[key]
    # byte-exact on re-export
    assert json.dumps(aw.export_table(back)) == json.dumps(data)

