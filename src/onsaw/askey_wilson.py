"""Higher-rank classical Askey-Wilson quotients.

Finitely presented Lie algebras over Q[alpha]: explicit bracket
tables for ranks 3 and 4, and tables extracted for general N by imposing
the reflection relation on a word ansatz.  Every table, explicit or
extracted, gets its generating matrix B(x) (numerators over the global
denominator alpha + (-1)^(N+1) x - 1/x) from the same ansatz read through
its basis words, and the same exact (no truncation) reflection-relation
certificate.  The relation is cleared by (x - y)(x y - (-1)^N), as for the
Onsager B(x), and by d(x) d(y); its right side is the one
``onsager.reflection_rhs`` forms for every B(x), through the two-leg
kernel ``series.commutator_cells``.  Extraction solves the same relation:
it reads the same right side from the same kernel, cell by cell, on the
flat word ansatz.  Nested-commutator presentation checks cover ranks 3
and 4.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import (ParamPoly, SpectralLaurent, _mono_mul, _rational, add_coeff,
                       parse_param_poly, plain, terms_of)
from .linsolve import SparseEliminator, matrix_rank
from .onsager import reflection_rhs, reflection_scalars
from .report import Report
from .rmatrix import cleared_rbar_pair, leg_swap_mismatch, parity_sign
from .series import (BiSeries, GeneratorMatrix, commutator_cells, flat_entries,
                     laurent_xy_terms, mismatch_detail)
from .symcomb import SymbolCombination, unpreserved_pairs

ALPHA = ParamPoly.variable("alpha")


@dataclass(frozen=True, order=True)
class Word:
    """Nested commutator [e_a, [e_b, [..., e_z]]] over abstract generators."""

    letters: tuple

    def __str__(self):
        if len(self.letters) == 1:
            return f"e{self.letters[0]}"
        return "f(" + ",".join(str(l) for l in self.letters) + ")"


def cyclic_word(i: int, j: int, rank: int) -> Word:
    """The ascending cyclic word from i to j (indices 1..rank, wrapping)."""
    i = (i - 1) % rank + 1
    j = (j - 1) % rank + 1
    letters = [i]
    k = i
    while k != j:
        k = k % rank + 1
        letters.append(k)
    return Word(tuple(letters))


class TableElement(SymbolCombination):
    """Vector over a StructTable basis (symbols are basis indices)."""

    __slots__ = ()

    @staticmethod
    def symbol_str(sym) -> str:
        return f"<{sym}>"


class StructTable:
    """Finitely presented Lie algebra: named basis + antisymmetric table."""

    def __init__(self, rank: int, basis: list, gen_indices: list, words: list):
        self.rank = rank
        self.basis = list(basis)
        self.index = {name: k for k, name in enumerate(basis)}
        self.gen_indices = list(gen_indices)
        self.words = list(words)  # per basis: (rational, Word) or None
        self.table: dict = {}     # (ia, ib) with ia < ib -> {ic: plain coefficient}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def zero(self) -> TableElement:
        return TableElement(self.dim, {})

    def unit(self, name_or_idx) -> TableElement:
        k = name_or_idx if isinstance(name_or_idx, int) else self.index[name_or_idx]
        return TableElement(self.dim, {k: 1})

    def generator(self, i: int) -> TableElement:
        return self.unit(self.gen_indices[i - 1])

    def set_bracket(self, ia: int, ib: int, vec: dict) -> None:
        vec = {k: plain(v) for k, v in vec.items() if v}
        if ia == ib:
            if vec:
                raise ValueError(f"[x,x] != 0 at basis {self.basis[ia]}")
            return
        key, store = ((ia, ib), vec) if ia < ib else (
            (ib, ia), {k: -v for k, v in vec.items()})
        cur = self.table.get(key)
        if cur is None:
            if store:
                self.table[key] = store
        elif cur != store:
            raise ValueError(
                f"inconsistent bracket for ({self.basis[key[0]]},{self.basis[key[1]]})"
            )

    def bracket_basis(self, ia: int, ib: int) -> dict:
        if ia == ib:
            return {}
        if ia < ib:
            return self.table.get((ia, ib), {})
        neg = self.table.get((ib, ia), {})
        return {k: -v for k, v in neg.items()}

    def bracket(self, u: TableElement, v: TableElement) -> TableElement:
        out = self.zero()
        for ia, ca in u.coeffs.items():
            for ib, cb in v.coeffs.items():
                c = ca * cb
                for ic, w in self.bracket_basis(ia, ib).items():
                    out.add_term(ic, c * w)
        return out

    def eval_word(self, word: Word) -> TableElement:
        """Right-nested commutator evaluation over the generators."""
        letters = word.letters
        v = self.generator(letters[-1])
        for l in reversed(letters[:-1]):
            v = self.bracket(self.generator(l), v)
        return v

    def jacobi_residual(self, ia: int, ib: int, ic: int) -> TableElement:
        a, b, c = self.unit(ia), self.unit(ib), self.unit(ic)
        return (
            self.bracket(a, self.bracket(b, c))
            + self.bracket(b, self.bracket(c, a))
            + self.bracket(c, self.bracket(a, b))
        )


def _contraction(t: StructTable) -> dict:
    """(a, b) -> [(c, [(monomial, rational)])] for every nonzero [e_a, e_b],
    stored for both orders with the sign of antisymmetry."""
    out = {}
    for (ia, ib), vec in t.table.items():
        terms = [(ic, list(terms_of(p).items())) for ic, p in vec.items()]
        out[(ia, ib)] = terms
        out[(ib, ia)] = [(ic, [(m, -q) for m, q in ts]) for ic, ts in terms]
    return out


def check_jacobi(t: StructTable, label: str = "jacobi") -> Report:
    """Jacobi identity on every basis triple, contracted on the flat table.

    The residual of a triple is the sum over its three cyclic terms of
    c_qr^m c_pm^e e_e, accumulated per (e, monomial); only a failing
    triple is rebuilt as a TableElement, to render its residual.
    """
    report = Report("verify aw-jacobi", {"basis": t.dim})
    con = _contraction(t)
    bad = None
    for ia, ib, ic in itertools.combinations(range(t.dim), 3):
        acc: dict = {}
        for p, q, r in ((ia, ib, ic), (ib, ic, ia), (ic, ia, ib)):
            for m, cqr in con.get((q, r), ()):
                for e, cpm in con.get((p, m), ()):
                    for ma, qa in cqr:
                        for mb, qb in cpm:
                            key = (e, _mono_mul(ma, mb))
                            acc[key] = acc.get(key, 0) + qa * qb
        if any(acc.values()):
            bad = (
                f"triple ({t.basis[ia]},{t.basis[ib]},{t.basis[ic]}) "
                f"residual {t.jacobi_residual(ia, ib, ic)}"
            )
            break
    report.add(label, bad is None, bad)
    return report


# -- the rank-3 table -----------------------------------------------------------


def _eps3(i, j, k) -> int:
    return {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
            (1, 3, 2): -1, (3, 2, 1): -1, (2, 1, 3): -1}.get((i, j, k), 0)


def aw3_table() -> StructTable:
    """The eight-dimensional rank-3 quotient with symbolic alpha."""
    basis = ["e1", "e2", "e3", "f1", "f2", "f3", "g1", "g2"]
    words = [
        (1, Word((1,))), (1, Word((2,))), (1, Word((3,))),
        (1, Word((2, 3))), (1, Word((3, 1))), (1, Word((1, 2))),
        (1, Word((1, 2, 3))), (1, Word((2, 3, 1))),
    ]
    t = StructTable(3, basis, [0, 1, 2], words)

    def g(j):  # g3 resolved into the basis
        if j == 3:
            return {t.index["g1"]: -1, t.index["g2"]: -1}
        return {t.index[f"g{j}"]: 1}

    def vec(pairs):
        out: dict = {}
        for name_or_map, c in pairs:
            if isinstance(name_or_map, dict):
                for k, w in name_or_map.items():
                    add_coeff(out, k, w * c)
            else:
                add_coeff(out, t.index[name_or_map], c)
        return out

    for i in range(1, 4):
        for j in range(1, 4):
            # [e_i, e_j] = eps_ijk f_k
            pairs = [(f"f{k}", _eps3(i, j, k)) for k in range(1, 4) if _eps3(i, j, k)]
            t.set_bracket(t.index[f"e{i}"], t.index[f"e{j}"], vec(pairs))
            # [e_i, f_j] = d_ij g_i - eps_ijk e_k
            pairs = [(f"e{k}", -_eps3(i, j, k)) for k in range(1, 4) if _eps3(i, j, k)]
            if i == j:
                pairs.append((g(i), 1))
            t.set_bracket(t.index[f"e{i}"], t.index[f"f{j}"], vec(pairs))
            # [f_i, f_j] = eps_ijk (f_k - alpha e_k)
            out: dict = {}
            for k in range(1, 4):
                e = _eps3(i, j, k)
                if e:
                    out[t.index[f"f{k}"]] = e
                    out[t.index[f"e{k}"]] = ALPHA * (-e)
            t.set_bracket(t.index[f"f{i}"], t.index[f"f{j}"], out)
        for j in (1, 2):
            # [e_i, g_j] = alpha e_i - 2 f_i + 3 d_ij (2 f_i - alpha e_i)
            d = 3 if i == j else 0
            out = {
                t.index[f"e{i}"]: ALPHA * (1 - d),
                t.index[f"f{i}"]: -2 + 2 * d,
            }
            t.set_bracket(t.index[f"e{i}"], t.index[f"g{j}"], out)
            # [f_i, g_j] = -alpha f_i - 2 e_i + 3 d_ij (alpha f_i + 2 e_i)
            out = {
                t.index[f"f{i}"]: ALPHA * (-1 + d),
                t.index[f"e{i}"]: -2 + 2 * d,
            }
            t.set_bracket(t.index[f"f{i}"], t.index[f"g{j}"], out)
    t.set_bracket(t.index["g1"], t.index["g2"], {})
    return t


# -- the rank-4 table -----------------------------------------------------------


def aw4_table() -> StructTable:
    """The fifteen-dimensional rank-4 quotient, indices mod 4."""
    basis = [f"e{i}" for i in range(1, 5)] + [f"f{i}" for i in range(1, 5)] \
        + [f"g{i}" for i in range(1, 5)] + [f"h{i}" for i in range(1, 4)]
    words = [(1, Word((i,))) for i in range(1, 5)]
    words += [(1, cyclic_word(i + 2, i + 3, 4)) for i in range(1, 5)]
    words += [(-1, cyclic_word(i + 1, i + 3, 4)) for i in range(1, 5)]
    words += [(1, cyclic_word(l, l - 1, 4)) for l in range(1, 4)]
    t = StructTable(4, basis, [0, 1, 2, 3], words)

    def m(i):  # mod-4 into 1..4
        return (i - 1) % 4 + 1

    def h(j):
        j = m(j)
        if j == 4:
            return {t.index[f"h{k}"]: -1 for k in (1, 2, 3)}
        return {t.index[f"h{j}"]: 1}

    def base(name, i):
        return {t.index[f"{name}{m(i)}"]: 1}

    def add(vec, other, c):
        for k, w in other.items():
            add_coeff(vec, k, w * c)
        return vec

    pending = []  # (ia, ib, vec) gathered from every displayed instance

    for i in range(1, 5):
        # [e_i, e_{i+1}] = f_{i+2};  [e_i, e_{i+2}] = 0
        pending.append((f"e{i}", f"e{m(i+1)}", base("f", i + 2)))
        pending.append((f"e{i}", f"e{m(i+2)}", {}))
        for j in range(1, 5):
            # [e_i, f_j]
            vec: dict = {}
            if j == i:
                add(vec, base("g", i + 1), 1)
            if j == m(i - 1):
                add(vec, base("g", i - 1), -1)
            if j == m(i + 1):
                add(vec, base("e", i - 1), -1)
            if j == m(i + 2):
                add(vec, base("e", i + 1), 1)
            pending.append((f"e{i}", f"f{j}", vec))
            # [e_i, g_j]
            vec = {}
            if j == i:
                add(vec, h(i), -1)
            if j == m(i + 1):
                add(vec, base("f", i), 1)
            if j == m(i - 1):
                add(vec, base("f", i - 1), -1)
            pending.append((f"e{i}", f"g{j}", vec))
            # [e_i, h_j] (j = 4 resolved; every instance recorded)
            vec = {}
            if j == i:
                add(vec, base("e", i), ALPHA * -2)
                add(vec, base("g", i), -4)
            if j in (m(i + 1), m(i - 1)):
                add(vec, base("e", i), ALPHA)
                add(vec, base("g", i), 2)
            pending.append((f"e{i}", f"h{j}" if j < 4 else "h4", vec))
            # [f_i, g_j]
            vec = {}
            if j == m(i - 1):
                add(vec, base("e", i - 2), -ALPHA)
                add(vec, base("g", i - 2), -1)
            if j == m(i - 2):
                add(vec, base("e", i - 1), ALPHA)
                add(vec, base("g", i - 1), 1)
            if j == i:
                add(vec, base("e", i + 1), -1)
            if j == m(i + 1):
                add(vec, base("e", i), 1)
            pending.append((f"f{i}", f"g{j}", vec))
            # [f_i, h_j]
            w = (1 if j == i else 0) - (1 if j == m(i - 1) else 0) \
                + (1 if j == m(i + 1) else 0) - (1 if j == m(i - 2) else 0)
            vec = {}
            if w:
                add(vec, base("f", i), ALPHA * w)
                add(vec, base("f", i + 2), 2 * w)
            pending.append((f"f{i}", f"h{j}" if j < 4 else "h4", vec))
            # [g_i, h_j]
            vec = {}
            if j == i:
                add(vec, base("e", i), 4)
                add(vec, base("g", i), ALPHA * 2)
            if j in (m(i + 1), m(i - 1)):
                add(vec, base("e", i), -2)
                add(vec, base("g", i), -ALPHA)
            pending.append((f"g{i}", f"h{j}" if j < 4 else "h4", vec))
        # [f_i, f_{i+1}] = 0;  [f_i, f_{i+2}] = -h_i - h_{i+1}
        pending.append((f"f{i}", f"f{m(i+1)}", {}))
        vec = add(add({}, h(i), -1), h(i + 1), -1)
        pending.append((f"f{i}", f"f{m(i+2)}", vec))
        # [g_i, g_{i+1}] = -alpha f_i - f_{i+2};  [g_i, g_{i+2}] = 0
        vec = add({t.index[f"f{m(i)}"]: -ALPHA}, base("f", i + 2), -1)
        pending.append((f"g{i}", f"g{m(i+1)}", vec))
        pending.append((f"g{i}", f"g{m(i+2)}", {}))
    for a in range(1, 4):
        for b in range(1, 4):
            pending.append((f"h{a}", f"h{b}", {}))

    deferred = []
    for na, nb, vec in pending:
        if na == "h4" or nb == "h4":
            deferred.append((na, nb, vec))
            continue
        t.set_bracket(t.index[na], t.index[nb], vec)
    # instances that referenced the dependent symbol become consistency checks
    for na, nb, vec in deferred:
        lhs = t.zero()
        if nb == "h4":
            u = t.unit(na)
            for k in (1, 2, 3):
                lhs = lhs + t.bracket(u, t.unit(f"h{k}")).scale(-1)
        want = TableElement(t.dim, {k: plain(v) for k, v in vec.items() if v})
        if not (lhs - want).is_zero():
            raise ValueError(f"mod-4 instance [{na}, h4] inconsistent with the table")
    return t


# -- generating matrices ---------------------------------------------------------


def aw_denominator(rank: int, v: str = "x") -> SpectralLaurent:
    sgn = parity_sign(rank + 1)
    return (SpectralLaurent.const(ALPHA)
            + SpectralLaurent.variable(v) * sgn
            - SpectralLaurent.variable(v, -1))


def build_B(t: StructTable) -> GeneratorMatrix:
    """The word ansatz of build_B_general read through the table's words.

    Basis element k is c_k times the word w_k (``t.words[k] == (c_k, w_k)``),
    so w_k becomes (1/c_k) unit(k); no bracket is evaluated.  A word of the
    ansatz that names no basis element is an error.
    """
    unit_of = {w[1]: t.unit(k).scale(Fraction(1) / w[0])
               for k, w in enumerate(t.words) if w is not None}

    def read(wel):
        el = t.zero()
        for word, c in wel.coeffs.items():
            if word not in unit_of:
                raise ValueError(f"ansatz word {word} is not a basis word of the table")
            el = el + unit_of[word].scale(c)
        return el

    return build_B_general(t.rank).map_entries(read)


def build_B_aw(rank: int) -> GeneratorMatrix:
    """B(x) of the explicit rank-3 or rank-4 table."""
    if rank not in (3, 4):
        raise ValueError("explicit tables exist for ranks 3 and 4 only")
    return build_B(aw3_table() if rank == 3 else aw4_table())


def _aw_dens(rank: int) -> tuple:
    """(d(x), d(y)) for B(x) = num(x) / d(x)."""
    return aw_denominator(rank, "x"), aw_denominator(rank, "y")


def reflection_aw_mismatch(t: StructTable, b: GeneratorMatrix):
    """Exact reflection residual for a finite generating matrix, or None."""
    clearing, r12c, r21c = cleared_rbar_pair(b.dim)
    lhs = BiSeries.bracket_cross(b, b, t.bracket).convolve(clearing)
    rhs = reflection_rhs(b, b, r12c, r21c, dens=_aw_dens(b.dim))
    return lhs.first_mismatch(rhs)


def check_reflection_aw(t: StructTable, b: GeneratorMatrix) -> Report:
    report = Report("verify aw-reflection", {"n": b.dim})
    mism = reflection_aw_mismatch(t, b)
    report.add("reflection-exact", mism is None, mism and mismatch_detail(mism))
    bad = b.first_trace()
    report.add("tracelessness", bad is None, bad and f"x^{bad[0]}: trace {bad[1]}")
    return report


# -- presentation checks ---------------------------------------------------------


def check_pro1(t: StructTable) -> Report:
    """Nested-commutator presentation of the rank-3 quotient."""
    report = Report("verify aw-presentation", {"n": 3})
    e = [t.unit(f"e{i}") for i in range(1, 4)]

    def br(u, v):
        return t.bracket(u, v)

    checks = [
        ("f1 = [e2,e3]", t.unit("f1") - br(e[1], e[2])),
        ("f2 = [e3,e1]", t.unit("f2") - br(e[2], e[0])),
        ("f3 = [e1,e2]", t.unit("f3") - br(e[0], e[1])),
        ("g1 = [e1,[e2,e3]]", t.unit("g1") - br(e[0], br(e[1], e[2]))),
        ("g2 = [e2,[e3,e1]]", t.unit("g2") - br(e[1], br(e[2], e[0]))),
    ]
    bad = next(((n, r) for n, r in checks if not r.is_zero()), None)
    report.add("generator-expressions", bad is None,
               bad and f"{bad[0]} residual {bad[1]}")
    doubles = ((i, j, br(e[i], br(e[i], e[j])) - e[j])
               for i, j in itertools.permutations(range(3), 2))
    bad = next((f"[e{i+1},[e{i+1},e{j+1}]] - e{j+1} = {r}"
                for i, j, r in doubles if not r.is_zero()), None)
    report.add("double-bracket-relations", bad is None, bad)
    triples = list(itertools.permutations((1, 2, 3)))
    cubics = ((i, j, k, br(br(e[i-1], e[j-1]), br(e[j-1], e[k-1]))
               + br(e[i-1], e[k-1])
               + e[j-1].scale(ALPHA * _eps3(i, j, k))) for i, j, k in triples)
    bad = next((f"cubic relation at ({i},{j},{k}): {r}"
                for i, j, k, r in cubics if not r.is_zero()), None)
    report.add("cubic-relations", bad is None, bad)
    alternatives = ((i, j, k, br(e[i-1], br(e[j-1], br(e[k-1], e[i-1])))
                     - e[i-1].scale(ALPHA * _eps3(i, j, k))
                     + br(e[j-1], e[k-1]).scale(2)) for i, j, k in triples)
    bad = next((f"alternative relation at ({i},{j},{k}): {r}"
                for i, j, k, r in alternatives if not r.is_zero()), None)
    report.add("alternative-cubic-relations", bad is None, bad)
    # depth-3 generation: iterated brackets of e1,e2,e3 span all 8 dims
    vectors = [e[i].coeffs for i in range(3)]
    for i in range(3):
        for j in range(3):
            vectors.append(br(e[i], e[j]).coeffs)
            for k in range(3):
                vectors.append(br(e[i], br(e[j], e[k])).coeffs)
    rank = matrix_rank(vectors)
    report.add(f"depth-3 generation rank {rank}/8", rank == 8,
               None if rank == 8 else "span deficient")
    return report


def check_pro2(t: StructTable) -> Report:
    """Nested-commutator presentation of the rank-4 quotient, indices mod 4."""
    report = Report("verify aw-presentation", {"n": 4})
    def e(i):
        return t.unit(f"e{(i - 1) % 4 + 1}")

    def br(u, v):
        return t.bracket(u, v)

    def residuals():
        for i in range(1, 5):
            yield i, br(e(i), br(e(i), e(i + 1))) - e(i + 1)
            yield i, br(e(i), br(e(i), e(i - 1))) - e(i - 1)
            yield i, br(e(i), e(i + 2))
            yield i, br(br(e(i), e(i + 1)), br(e(i + 1), e(i + 2)))

    bad = next((f"relation at i={i}: residual {r}" for i, r in residuals()
                if not r.is_zero()), None)
    report.add("quadratic-and-quartic-relations", bad is None, bad)
    def quintics():
        for i in range(1, 5):
            yield f"mixed relation at i={i}", (
                br(br(e(i), e(i + 1)), br(e(i + 1), br(e(i + 2), e(i + 3))))
                + e(i + 1).scale(ALPHA)
                + br(e(i), br(e(i + 2), e(i + 3))))
            w = br(e(i), br(e(i + 1), e(i + 2)))
            yield f"deep relation at i={i}", (
                br(w, br(e(i + 3), w)) + e(i + 3).scale(4) - w.scale(ALPHA * 2))

    bad = next((f"{name}: {r}" for name, r in quintics() if not r.is_zero()), None)
    report.add("quintic-relations", bad is None, bad)
    return report


# -- the general-rank ansatz and structure-constant extraction -------------------


class WordElement(SymbolCombination):
    """Linear combination of nested-commutator words."""

    __slots__ = ()

    @staticmethod
    def symbol_str(sym) -> str:
        return str(sym)


def build_B_general(rank: int) -> GeneratorMatrix:
    """The general-N ansatz: numerators of B(x) over aw_denominator, with
    WordElement entries.

    The index convention ("literal") wraps subscripts modulo N into 1..N;
    signs use the literal integer differences of the entry position.
    """
    if rank < 2:
        raise ValueError("the word ansatz needs N >= 2")
    n = rank
    sgn_n = parity_sign(n)

    def w(i, j):
        return cyclic_word(i, j, n)

    def el(pairs):
        out = WordElement(n, {})
        for word, c in pairs:
            out.add_term(word, c)
        return out

    # exponents -1, 0, 1 in this order; none stays empty, since entry (1, N)
    # fills -1, entry (N, 1) fills 1 and the diagonal fills 0
    num = GeneratorMatrix(n, {-1: {}, 0: {}, 1: {}})
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            entry: dict = {}
            if i == j:
                diag = []
                for l in range(1, n):
                    c = Fraction(n - l, n) if i <= l else Fraction(-l, n)
                    diag.append((w(l, l - 1), c))
                entry[0] = el(diag)
            elif (i, j) == (1, n):
                entry[0] = el([(Word((n,)), parity_sign(n + 1))])
                entry[-1] = el([(w(1, n - 1), 1)])
            elif (i, j) == (n, 1):
                entry[0] = el([(Word((n,)), 1)])
                entry[1] = el([(w(1, n - 1), -1)])
            elif j - i == 1:
                entry[0] = el([(w(i + 1, i - 1), -sgn_n)])
                entry[-1] = el([(Word((i,)), sgn_n)])
            elif i - j == 1:
                entry[0] = el([(w(j + 1, j - 1), sgn_n)])
                entry[1] = el([(Word((j,)), -1)])
            elif i < j:
                s = parity_sign((j - i) * (n + 1))
                entry[0] = el([(w(j, i - 1), s)])
                entry[-1] = el([(w(i, j - 1), s * parity_sign(j - i))])
            else:
                s = parity_sign((i - j) * n)
                entry[0] = el([(w(i, j - 1), s)])
                entry[1] = el([(w(j, i - 1), s * parity_sign((i - j) + n))])
            for e, v in entry.items():
                num.coeffs[e][(i, j)] = v.scale(2)
    return num


def _words_of(num: GeneratorMatrix) -> list:
    """Distinct words of the ansatz entries in a deterministic order."""
    seen = {word for m in num.coeffs.values() for wel in m.values() for word in wel.coeffs}
    return sorted(seen, key=lambda w: (len(w.letters), w.letters))


def extract_structure_constants(rank: int):
    """Solve the reflection relation for all brackets of the ansatz words.

    Returns (StructTable or None, Report).  The report records the
    convention, system shape, solvability, and the Jacobi certificate of
    the extracted table.
    """
    report = Report("extract aw", {"n": rank, "convention": "literal"})
    num = build_B_general(rank)
    words = _words_of(num)
    widx = {w: k for k, w in enumerate(words)}
    # right-hand side: linear in the words; left-hand side: bilinear in
    # the unknown brackets of word pairs.  Neither the word coefficients
    # nor the clearing multiplier carries alpha, so the rows are rational
    # (``add_row`` rejects any other coefficient).  The right side is the
    # one ``onsager.reflection_rhs`` forms, read from the same kernel
    # cell by cell on the flat ansatz, and only for the quadruples
    # assembled.
    clearing, r12c, r21c = cleared_rbar_pair(rank)
    scal = laurent_xy_terms(clearing)
    flat = flat_entries(num, widx)
    rbar_s, rbar_t = reflection_scalars(r12c, r21c)
    rhs_cell = commutator_cells(rank, flat, rbar_s, flat, rbar_t, dens=_aw_dens(rank))
    # The leg swap P maps quadruple (i,k,j,l) to its mirror (k,i,l,j).
    # With C odd under x <-> y, the mirror's left side at (b, a) is this
    # one's at (a, b) (each unknown pair is sorted with a sign flip).
    # With r12c = -P r21c(y,x) P as well, P maps -[B_1(x), r21c] d(y)
    # to [B_2(y), r12c] d(x) and back, so the right side is P-symmetric
    # too: the mirror's right-hand cell at (b, a) is this one's at
    # (a, b), and the mirror's rows repeat these exactly.  Both facts
    # are checked here once; a quadruple whose mirror came earlier is
    # then counted, not assembled: ``add_row`` would drop every row.
    sc_of = {(ex, ey): sc for ex, ey, sc in scal}
    even = next((xy for xy, sc in sorted(sc_of.items()) if sc_of.get(xy[::-1]) != -sc), None)
    if even is not None:
        raise ValueError(f"the clearing is not odd under x <-> y at x^{even[0]} y^{even[1]}")
    bad = leg_swap_mismatch(rank, r12c, r21c)
    if bad is not None:
        raise ValueError(f"r12c differs from -P r21c(y,x) P at entry {bad}")
    elim = SparseEliminator()
    rows = 0
    quad_rows: dict = {}
    for i in range(1, rank + 1):
        for k in range(1, rank + 1):
            for j in range(1, rank + 1):
                for l in range(1, rank + 1):
                    mirror = (k, i, l, j)
                    if mirror < (i, k, j, l):
                        rows += quad_rows[mirror]
                        continue
                    lhs_grid: dict = {}
                    for a, wa, ca in flat[(i, j)]:
                        for b, wb, cb in flat[(k, l)]:
                            if wa == wb:
                                continue
                            if wa < wb:
                                pair, c = (wa, wb), ca * cb
                            else:
                                pair, c = (wb, wa), -ca * cb
                            for ex, ey, sc in scal:
                                add_coeff(lhs_grid.setdefault((a + ex, b + ey), {}),
                                          pair, c * sc)
                    rhs_grid = rhs_cell(i, k, j, l)
                    mkeys = sorted(set(lhs_grid) | set(rhs_grid))
                    for mkey in mkeys:
                        elim.add_row(lhs_grid.get(mkey, {}), rhs_grid.get(mkey, {}))
                    quad_rows[i, k, j, l] = len(mkeys)
                    rows += len(mkeys)
    all_pairs = [(a, b) for a in range(len(words)) for b in range(a + 1, len(words))]
    npairs = len(all_pairs)
    result = elim.solve(all_pairs)
    report.add(
        f"system: {rows} rows, {npairs} bracket unknowns, rank {elim.rank()}",
        True,
    )
    report.add("consistency", not result.inconsistent,
               result.inconsistent and f"{len(result.inconsistent)} irreducible residual equations")
    det = not result.free_cols and not result.entangled
    report.add("all brackets determined", det,
               None if det else f"free: {result.free_cols} entangled: {result.entangled}")
    # holds by construction: every pivot is a unit of Q, so back-substitution
    # divides by nothing and each bracket coefficient is a polynomial in alpha
    report.add("polynomial structure constants", True)
    if result.inconsistent or not det:
        return None, report

    basis = [str(w) for w in words]
    gen_indices = [widx[Word((i,))] for i in range(1, rank + 1)]
    tbl = StructTable(rank, basis, gen_indices,
                      [(1, w) for w in words])
    for (a, b), vec in result.solutions.items():
        tbl.set_bracket(a, b, vec)
    report.extend(check_jacobi(tbl, label=f"extracted-jacobi rank {rank}"))
    return tbl, report


def match_tables(a: StructTable, b: StructTable) -> Report:
    """Search for a sign-graded isomorphism a -> b.

    Generators map to generators up to sign; composite basis elements map
    through their defining words.  Reports the map or the obstruction.
    """
    report = Report("match aw-tables", {"dim": a.dim})
    if a.dim != b.dim:
        report.add("dimension", False, f"{a.dim} vs {b.dim}")
        return report
    missing = next((a.basis[k] for k, w in enumerate(a.words) if w is None), None)
    if missing is not None:
        report.add("isomorphism", False, f"basis {missing} has no defining word")
        return report
    # words are multilinear in the generators, so flipping generator l
    # scales each word's image by s_l once per letter l; the rank of the
    # images does not depend on the signs
    unsigned = [b.eval_word(w).scale(c) for c, w in a.words]
    if matrix_rank([im.coeffs for im in unsigned]) != a.dim:
        report.add("isomorphism", False, "images not linearly independent")
        return report
    units = [a.unit(k) for k in range(a.dim)]
    pairs = list(itertools.combinations(range(a.dim), 2))
    for signs in itertools.product((1, -1), repeat=len(a.gen_indices)):
        images = [im.scale(math.prod(signs[l - 1] for l in w.letters))
                  for im, (_, w) in zip(unsigned, a.words)]

        def phi(el):
            return sum((images[k].scale(c) for k, c in el.coeffs.items()), b.zero())

        bad = next(unpreserved_pairs(pairs, phi, units, images, a.bracket, b.bracket), None)
        if bad is None:
            report.add("isomorphism found", True)
            report.add(f"generator signs {signs}", True)
            return report
    report.add("isomorphism", False,
               f"bracket ({a.basis[bad[0]]},{a.basis[bad[1]]}) not preserved under signs {signs}")
    return report


# -- export / import --------------------------------------------------------------


def export_table(t: StructTable) -> dict:
    brackets = []
    for (ia, ib) in sorted(t.table):
        vec = t.table[(ia, ib)]
        brackets.append([
            t.basis[ia],
            t.basis[ib],
            [[t.basis[ic], str(vec[ic])] for ic in sorted(vec)],
        ])
    return {
        "rank": t.rank,
        "basis": list(t.basis),
        "parameters": ["alpha"],
        "generators": [t.basis[k] for k in t.gen_indices],
        "words": [
            None if w is None else [str(w[0]), list(w[1].letters)]
            for w in t.words
        ],
        "brackets": brackets,
    }


def import_table(data: dict) -> StructTable:
    words = []
    for w in data["words"]:
        if w is None:
            words.append(None)
        else:
            words.append((_rational(Fraction(w[0])), Word(tuple(w[1]))))
    t = StructTable(
        data["rank"],
        data["basis"],
        [data["basis"].index(g) for g in data["generators"]],
        words,
    )
    for name_a, name_b, vec in data["brackets"]:
        t.set_bracket(
            t.index[name_a],
            t.index[name_b],
            {t.index[nc]: parse_param_poly(cs) for nc, cs in vec},
        )
    return t


def check_aw(rank: int) -> Report:
    """The full explicit-table suite for ranks 3 and 4."""
    if rank not in (3, 4):
        raise ValueError("explicit tables exist for ranks 3 and 4 only")
    report = Report("verify aw", {"n": rank})
    t = aw3_table() if rank == 3 else aw4_table()
    report.extend(check_jacobi(t))
    report.extend(check_reflection_aw(t, build_B(t)))
    report.extend(check_pro1(t) if rank == 3 else check_pro2(t))
    return report
