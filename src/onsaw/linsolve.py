"""Sparse elimination over Q with parametric right-hand sides.

Coefficient rows are sparse maps column -> rational (int or Fraction); a
parameter in a coefficient is rejected.  The right-hand side of a row is a
sparse vector index -> plain coefficient (``exactnum.plain``), so
parameters such as alpha enter only there and are carried along by
rational scaling.  Every pivot row is normalised to pivot 1, so
back-substitution divides by nothing and each solution component is a
plain polynomial in the parameters.  One kernel, ``_sub``, updates both
sides of a row.  No gcd is taken anywhere.

A row equal to one already spanned (it became a pivot or reduced to zero)
is skipped: pivot rows never change once inserted, so a second copy takes
the same reduction path to the same end.  Rows are keyed exactly, not by
hash alone; an inconsistent row is not remembered, so each copy is
reported.  Structure-constant extraction hands in each leg-swap mirror
block of rows once (``askey_wilson.extract_structure_constants``), with
the right side read cell by cell on the word ansatz from the two-leg
kernel ``series.commutator_cells``; the repeats that still arrive are
those of other symmetries of the relation.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import INVOLUTIVE, add_coeff, coeff_key, plain, terms_of


def poly_gcd(a, b):
    """Not part of the solver; the name stays for tracers that count its calls."""
    raise NotImplementedError("the trust path takes no gcd")


class EliminationResult:
    def __init__(self, solutions, free_cols, inconsistent, entangled=()):
        self.solutions = solutions      # col -> {rhs index -> plain coefficient}
        self.free_cols = free_cols      # columns never pinned by a pivot
        self.inconsistent = inconsistent  # list of residual rhs vectors
        self.entangled = list(entangled)  # pivots depending on free columns


def _sub(row: dict, scale, prow: dict) -> None:
    """row -= scale * prow in place for a rational scale."""
    scale = -scale
    for k, v in prow.items():
        add_coeff(row, k, v * scale)


class SparseEliminator:
    """Incremental sparse row echelon over Q; pivot rows have pivot 1."""

    def __init__(self):
        self.pivots: dict = {}  # col -> (coeffs of the later columns, rhs); pivot 1
        self.inconsistent: list = []
        self.spanned: set = set()  # exact keys of rows that left no residual

    def add_row(self, coeffs: dict, rhs: dict) -> None:
        for v in coeffs.values():
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"coefficient {v} is not rational")
        coeffs = {k: plain(v) for k, v in coeffs.items() if v}
        rhs = {k: plain(p) for k, p in rhs.items() if p}
        # sorted tuples, not frozensets: the same exact key in half the memory
        key = (tuple(sorted(coeffs.items())),
               tuple(sorted((k, coeff_key(p)) for k, p in rhs.items())))
        if key in self.spanned:
            return
        while coeffs:
            col = min(coeffs)
            piv = self.pivots.get(col)
            if piv is None:
                q = coeffs.pop(col)
                if q != 1:
                    inv = 1 / Fraction(q)
                    coeffs = {k: plain(v * inv) for k, v in coeffs.items()}
                    rhs = {k: plain(p * inv) for k, p in rhs.items()}
                self.pivots[col] = (coeffs, rhs)
                self.spanned.add(key)
                return
            b = coeffs.pop(col)
            _sub(coeffs, b, piv[0])
            _sub(rhs, b, piv[1])
        if rhs:
            self.inconsistent.append(rhs)
        else:
            self.spanned.add(key)

    def rank(self) -> int:
        return len(self.pivots)

    def solve(self, all_cols) -> EliminationResult:
        """Back-substitute; each solution component is a plain coefficient."""
        self.spanned.clear()  # the keys serve add_row only; free them
        free = {c for c in all_cols if c not in self.pivots}
        sols: dict = {}
        entangled = []
        for col in sorted(self.pivots, reverse=True):
            coeffs, rhs = self.pivots[col]
            if any(other not in sols for other in coeffs):
                entangled.append(col)
                continue
            acc = dict(rhs)
            for other, w in coeffs.items():
                _sub(acc, w, sols[other])
            sols[col] = acc
        return EliminationResult(sols, sorted(free), self.inconsistent, entangled)


def matrix_rank(rows: list) -> int:
    """Rank over Q(t) of sparse rows of coefficients (numbers or ParamPoly)
    in at most one parameter t.

    Rows of constants are eliminated once.  Otherwise the rank is the
    largest rank of the rows evaluated at t = 0, 1, ..., r*D, with r the
    number of columns and D the largest degree of an entry: specialising t
    never raises the rank, and a nonzero r' x r' minor (r' <= r) has degree at
    most r*D, so it survives at one of those points.  Several parameters, or
    an involutive one, raise ValueError.
    """
    rows = [{k: terms_of(v) for k, v in row.items()} for row in rows]
    names = {n for row in rows for p in row.values() for m in p for n, _ in m}
    if len(names) > 1 or names & INVOLUTIVE:
        raise ValueError(f"rank over the parameters {sorted(names)}")
    deg = max((e for row in rows for p in row.values() for m in p for _, e in m),
              default=0)
    cols = len({k for row in rows for k in row})
    best = 0
    for t in range(cols * deg + 1):
        elim = SparseEliminator()
        for row in rows:
            elim.add_row({k: sum(c * t ** sum(e for _, e in m) for m, c in p.items())
                          for k, p in row.items()}, {})
        best = max(best, elim.rank())
    return best
