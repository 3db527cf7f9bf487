"""Sparse fraction-free linear solving over parameter polynomials.

Rows are sparse maps column -> ParamPoly with a vector-valued right-hand
side.  Forward elimination is fraction-free (cross-multiplication with
content removal, so entries stay polynomial); back-substitution produces
num/den pairs reduced by univariate gcd and reports when a solution
component fails to be polynomial.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import ExactDivisionError, ParamPoly


def _single_var(p: ParamPoly) -> str | None:
    """The unique variable of a univariate polynomial, None for constants."""
    names = {n for m in p.terms for n, _ in m}
    if not names:
        return None
    if len(names) == 1:
        return next(iter(names))
    raise ValueError("multivariate polynomial")


def _to_coeffs(p: ParamPoly, v: str) -> list:
    deg = max((dict(m).get(v, 0) for m in p.terms), default=0)
    out = [Fraction(0)] * (deg + 1)
    for m, c in p.terms.items():
        out[dict(m).get(v, 0)] = c
    return out


def _from_coeffs(cs: list, v: str) -> ParamPoly:
    terms = {}
    for e, c in enumerate(cs):
        if c:
            terms[((v, e),) if e else ()] = c
    return ParamPoly(frozenset({v}) if len(cs) > 1 else frozenset(), terms)


def poly_gcd(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    """Monic gcd for polynomials that are univariate in a shared variable.

    Falls back to 1 when either operand is multivariate.
    """
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    try:
        va, vb = _single_var(a), _single_var(b)
    except ValueError:
        return ParamPoly.one()
    v = va or vb
    if va and vb and va != vb:
        return ParamPoly.one()
    if v is None:
        return ParamPoly.one()
    ca, cb = _to_coeffs(a, v), _to_coeffs(b, v)

    def rem(u, w):
        u = list(u)
        while len(u) >= len(w) and any(u):
            if u[-1] == 0:
                u.pop()
                continue
            q = u[-1] / w[-1]
            off = len(u) - len(w)
            for k in range(len(w)):
                u[off + k] -= q * w[k]
            u.pop()
        while u and u[-1] == 0:
            u.pop()
        return u

    while cb and any(cb):
        ca, cb = cb, rem(ca, cb)
    if not ca:
        return ParamPoly.one()
    lead = ca[-1]
    return _from_coeffs([c / lead for c in ca], v)


def _content_reduce(polys: list) -> list:
    """Divide a family of polynomials by their common rational content and,
    when univariate, their common polynomial factor."""
    nz = [p for p in polys if not p.is_zero()]
    if not nz:
        return polys
    nums = [c.numerator for p in nz for c in p.terms.values()]
    dens = [c.denominator for p in nz for c in p.terms.values()]
    from math import gcd

    gnum = 0
    for v in nums:
        gnum = gcd(gnum, abs(v))
    glcm = 1
    for v in dens:
        glcm = glcm * v // gcd(glcm, v)
    scale = Fraction(glcm, gnum or 1)
    if scale != 1:
        polys = [p * scale for p in polys]
        nz = [p for p in polys if not p.is_zero()]
    g = nz[0]
    for p in nz[1:]:
        if g.is_const():
            break
        g = poly_gcd(g, p)
    if not g.is_const() and not g.is_zero():
        # g divides every member; an inexact division is a bug and raises
        polys = [p.exact_div(g) if not p.is_zero() else p for p in polys]
    return polys


class EliminationResult:
    def __init__(self, solutions, free_cols, inconsistent, entangled=()):
        self.solutions = solutions      # col -> {rhs index -> (num, den)}
        self.free_cols = free_cols      # columns never pinned by a pivot
        self.inconsistent = inconsistent  # list of residual rhs vectors
        self.entangled = list(entangled)  # pivots depending on free columns


class SparseEliminator:
    """Incremental sparse row echelon, fraction-free over ParamPoly."""

    def __init__(self):
        self.pivots: dict = {}  # col -> (coeffs dict, rhs dict)
        self.inconsistent: list = []

    def _normalize(self, coeffs: dict, rhs: dict):
        keys_c = sorted(coeffs)
        keys_r = sorted(rhs)
        flat = [coeffs[k] for k in keys_c] + [rhs[k] for k in keys_r]
        flat = _content_reduce(flat)
        coeffs = {k: p for k, p in zip(keys_c, flat[: len(keys_c)]) if not p.is_zero()}
        rhs = {k: p for k, p in zip(keys_r, flat[len(keys_c):]) if not p.is_zero()}
        return coeffs, rhs

    def add_row(self, coeffs: dict, rhs: dict) -> None:
        coeffs = {k: p for k, p in coeffs.items() if not p.is_zero()}
        rhs = {k: p for k, p in rhs.items() if not p.is_zero()}
        while coeffs:
            col = min(coeffs)
            piv = self.pivots.get(col)
            if piv is None:
                coeffs, rhs = self._normalize(coeffs, rhs)
                if coeffs:
                    self.pivots[col] = (coeffs, rhs)
                return
            pc, pr = piv
            a = pc[col]
            b = coeffs[col]
            # row := a*row - b*pivot  (kills col, stays polynomial)
            coeffs = _combine(coeffs, a, pc, b)
            rhs = _combine(rhs, a, pr, b)
            coeffs.pop(col, None)
            coeffs, rhs = self._normalize(coeffs, rhs)
        if rhs:
            self.inconsistent.append(rhs)

    def rank(self) -> int:
        return len(self.pivots)

    def solve(self, all_cols) -> EliminationResult:
        """Back-substitute; solutions are (num, den) ParamPoly pairs."""
        order = sorted(self.pivots)
        free = {c for c in all_cols if c not in self.pivots}
        sols: dict = {}
        entangled = []
        for col in reversed(order):
            coeffs, rhs = self.pivots[col]
            piv = coeffs[col]
            if any(other in free or other in entangled
                   for other in coeffs if other != col):
                entangled.append(col)
                continue
            acc = {k: (v, ParamPoly.one()) for k, v in rhs.items()}
            for other, w in coeffs.items():
                if other == col:
                    continue
                for k, (n2, d2) in sols[other].items():
                    cur = acc.get(k, (ParamPoly.zero(), ParamPoly.one()))
                    acc[k] = _frac_sub(cur, (w * n2, d2))
            sols[col] = {
                k: _frac_reduce((n, d * piv)) for k, (n, d) in acc.items()
                if not n.is_zero()
            }
        return EliminationResult(sols, sorted(free), self.inconsistent, entangled)


def _combine(row: dict, a: ParamPoly, prow: dict, b: ParamPoly) -> dict:
    out = {}
    for k, v in row.items():
        out[k] = v * a
    for k, v in prow.items():
        w = v * b
        cur = out.get(k)
        s = -w if cur is None else cur - w
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _frac_sub(x, y):
    (n1, d1), (n2, d2) = x, y
    if d1 == d2:
        return _frac_reduce((n1 - n2, d1))
    return _frac_reduce((n1 * d2 - n2 * d1, d1 * d2))


def _frac_reduce(fr):
    n, d = fr
    if n.is_zero():
        return (n, ParamPoly.one())
    g = poly_gcd(n, d)
    if not g.is_const() and not g.is_zero():
        # g divides both; an inexact division is a bug and raises
        n = n.exact_div(g)
        d = d.exact_div(g)
    if d.is_const():
        q = d.const_value()
        return (n * (1 / q), ParamPoly.one())
    return (n, d)


def solve_polynomial(result: EliminationResult):
    """Solutions as plain ParamPoly vectors; collects non-polynomial cases."""
    out = {}
    trouble = []
    for col, vec in result.solutions.items():
        entry = {}
        for k, (n, d) in vec.items():
            if d.is_const():
                entry[k] = n * (1 / d.const_value())
            else:
                try:
                    entry[k] = n.exact_div(d)
                except ExactDivisionError:
                    trouble.append((col, k))
                    entry[k] = None
        out[col] = entry
    return out, trouble


def matrix_rank(rows: list) -> int:
    """Rank over the parameter fraction field of sparse coefficient rows."""
    elim = SparseEliminator()
    for row in rows:
        elim.add_row(dict(row), {})
    return elim.rank()
