"""Classical r-matrix machinery on tensor legs.

``TensorOperator`` is a sparse N^k x N^k matrix of rational functions,
stored as Laurent-polynomial numerators over one shared master
denominator.  Each identity declares a clearing polynomial built from its
operands' own denominators; ``over`` moves an operator onto it by exact
Laurent division of the clearing by the operator's denominator, and only
operators over the same denominator are added.  The residual numerators
are then tested for identical vanishing.  No gcd is ever taken.  Sums
(``put``, ``+``, ``@``, ``commutator``) and entrywise maps (``over``,
``scale``, ``derivative``, ``substitute``) go through
``exactnum.add_entry``, so no operator stores a zero numerator or an
empty row, and an operator is zero exactly when it has no row.

Entries take few distinct values (rbar at N=5 has 325 embedded entries
but eight distinct numerators), so a product ``@`` and a clearing
``over`` form each distinct entry product once per call, keyed by the
entries' exact values.  This is exact because no entry is written to after
construction: equal values give equal products, and every residual and
locator is what the per-pair product gives.

Contents: the rational r-matrix r(x/y) of type A, its folded non-standard
partner rbar(x,y), leg embedding / transposition / partial trace, and the
exact residual checks for skew-symmetry, the classical Yang-Baxter
equation, and its non-standard variant.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import SpectralLaurent, add_entry, coeff_key, laurent_exact_div
from .report import Check, Report, mono_str


def _sl(value) -> SpectralLaurent:
    return SpectralLaurent.const(value)


def var(name: str, exp: int = 1) -> SpectralLaurent:
    return SpectralLaurent.variable(name, exp)


class TensorOperator:
    """Sparse matrix over k tensor legs with a shared master denominator."""

    __slots__ = ("legs", "dim", "den", "rows")

    def __init__(self, legs: int, dim: int, den: SpectralLaurent | None = None, rows=None):
        self.legs = legs
        self.dim = dim
        self.den = den if den is not None else _sl(1)
        self.rows = rows if rows is not None else {}

    # -- indexing ------------------------------------------------------------

    def digits(self, idx: int) -> tuple:
        """Composite index -> 1-based digit per leg."""
        out = []
        for _ in range(self.legs):
            out.append(idx % self.dim + 1)
            idx //= self.dim
        return tuple(reversed(out))

    def index(self, digits) -> int:
        idx = 0
        for d in digits:
            idx = idx * self.dim + (d - 1)
        return idx

    # -- construction ----------------------------------------------------------

    def put(self, row_digits, col_digits, num: SpectralLaurent) -> None:
        add_entry(self.rows, self.index(row_digits), self.index(col_digits), num)

    def entry(self, row_digits, col_digits) -> SpectralLaurent:
        """The entry's numerator over the master denominator ``den``."""
        r = self.index(row_digits)
        c = self.index(col_digits)
        return self.rows.get(r, {}).get(c, SpectralLaurent.zero())

    def with_entry(self, row_digits, col_digits, num: SpectralLaurent) -> "TensorOperator":
        """Copy with one entry's numerator over ``den`` replaced (used to
        build corrupted controls)."""
        out = self.copy()
        out.put(row_digits, col_digits, num - self.entry(row_digits, col_digits))
        return out

    def copy(self) -> "TensorOperator":
        return TensorOperator(
            self.legs, self.dim, self.den,
            {r: dict(row) for r, row in self.rows.items()},
        )

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "TensorOperator") -> "TensorOperator":
        if (self.legs, self.dim) != (other.legs, other.dim):
            raise ValueError("operator shape mismatch")
        if self.den != other.den:
            raise ValueError(
                "operator denominators differ; put both over a declared "
                "clearing polynomial with over() before adding"
            )
        out = self.copy()
        for r, row in other.rows.items():
            for c, v in row.items():
                add_entry(out.rows, r, c, v)
        return out

    def over(self, clearing: SpectralLaurent) -> "TensorOperator":
        """The same operator with its numerators over ``clearing``.

        The clearing polynomial must be a multiple of the master
        denominator (up to a Laurent monomial unit); otherwise the exact
        division raises ``ExactDivisionError``.
        """
        mult = laurent_exact_div(clearing, self.den)
        out = TensorOperator(self.legs, self.dim, clearing)
        products: dict = {}
        for r, row in self.rows.items():
            for c, v in row.items():
                key = _value_key(v)
                w = products.get(key)
                if w is None:
                    w = products[key] = v * mult
                add_entry(out.rows, r, c, w)
        return out

    def __neg__(self) -> "TensorOperator":
        return TensorOperator(
            self.legs, self.dim, self.den,
            {r: {c: -v for c, v in row.items()} for r, row in self.rows.items()},
        )

    def __sub__(self, other: "TensorOperator") -> "TensorOperator":
        return self + (-other)

    def __matmul__(self, other: "TensorOperator") -> "TensorOperator":
        if (self.legs, self.dim) != (other.legs, other.dim):
            raise ValueError("operator shape mismatch")
        out = TensorOperator(self.legs, self.dim, self.den * other.den)
        ids: dict = {}  # value key -> small int, so product keys compare cheaply

        def keyed(rows):
            return {r: [(c, ids.setdefault(_value_key(v), len(ids)), v) for c, v in row.items()]
                    for r, row in rows.items()}

        left = keyed(self.rows)
        right = keyed(other.rows)
        products: dict = {}
        for r, row in left.items():
            for k, kv, v in row:
                for c, kw, w in right.get(k, ()):
                    p = products.get((kv, kw))
                    if p is None:
                        p = products[kv, kw] = v * w
                    add_entry(out.rows, r, c, p)
        return out

    def commutator(self, other: "TensorOperator") -> "TensorOperator":
        ab = self @ other
        ba = other @ self
        # both products share the same master denominator
        for r, row in ba.rows.items():
            for c, v in row.items():
                add_entry(ab.rows, r, c, -v)
        return ab

    def scale(self, factor) -> "TensorOperator":
        f = factor if isinstance(factor, SpectralLaurent) else _sl(factor)
        return self._entrywise(self.den, lambda v: v * f)

    def _entrywise(self, den: SpectralLaurent, fn) -> "TensorOperator":
        """fn applied to every numerator, over ``den``; zero results are dropped."""
        out = TensorOperator(self.legs, self.dim, den)
        for r, row in self.rows.items():
            for c, v in row.items():
                add_entry(out.rows, r, c, fn(v))
        return out

    # -- leg calculus ------------------------------------------------------------

    def embed_legs(self, placement, total: int) -> "TensorOperator":
        """Place this k-leg operator on the given legs of a total-leg space.

        ``placement`` is an ordered tuple of distinct 1-based leg indices;
        order matters: placement (2, 1) of a 2-leg operator is the
        leg-swapped operator.
        """
        if len(placement) != self.legs:
            raise ValueError("placement length must equal the leg count")
        if len(set(placement)) != len(placement):
            raise ValueError("duplicate leg indices in placement")
        if any(not (1 <= p <= total) for p in placement):
            raise ValueError("placement outside target legs")
        free = [p for p in range(1, total + 1) if p not in placement]
        out = TensorOperator(total, self.dim, self.den)
        n = self.dim
        free_assignments = [[]]
        for _ in free:
            free_assignments = [a + [d] for a in free_assignments for d in range(1, n + 1)]
        for r, row in self.rows.items():
            rd = self.digits(r)
            for c, v in row.items():
                cd = self.digits(c)
                for assign in free_assignments:
                    row_d = [0] * total
                    col_d = [0] * total
                    for pos, p in enumerate(placement):
                        row_d[p - 1] = rd[pos]
                        col_d[p - 1] = cd[pos]
                    for pos, p in enumerate(free):
                        row_d[p - 1] = assign[pos]
                        col_d[p - 1] = assign[pos]
                    out.put(row_d, col_d, v)
        return out

    def transpose_leg(self, leg: int) -> "TensorOperator":
        if not (1 <= leg <= self.legs):
            raise ValueError(f"leg {leg} out of range")
        out = TensorOperator(self.legs, self.dim, self.den)
        for r, row in self.rows.items():
            rd = list(self.digits(r))
            for c, v in row.items():
                cd = list(self.digits(c))
                rd2 = list(rd)
                rd2[leg - 1], cd[leg - 1] = cd[leg - 1], rd2[leg - 1]
                out.put(rd2, cd, v)
        return out

    def partial_trace(self, leg: int) -> "TensorOperator":
        if not (1 <= leg <= self.legs):
            raise ValueError(f"leg {leg} out of range")
        if self.legs == 1:
            raise ValueError("cannot trace the last remaining leg")
        out = TensorOperator(self.legs - 1, self.dim, self.den)
        for r, row in self.rows.items():
            rd = self.digits(r)
            for c, v in row.items():
                cd = self.digits(c)
                if rd[leg - 1] != cd[leg - 1]:
                    continue
                nrd = rd[: leg - 1] + rd[leg:]
                ncd = cd[: leg - 1] + cd[leg:]
                out.put(nrd, ncd, v)
        return out

    def scale_leg_diag(self, leg: int, signs, side: str) -> "TensorOperator":
        """Multiply by a diagonal matrix diag(signs) on one leg.

        side "left" scales by the row digit, "right" by the column digit;
        conjugation by the diagonal is left followed by right-inverse,
        which for sign matrices is left then right.
        """
        out = TensorOperator(self.legs, self.dim, self.den)
        for r, row in self.rows.items():
            rd = self.digits(r)
            for c, v in row.items():
                cd = self.digits(c)
                d = rd[leg - 1] if side == "left" else cd[leg - 1]
                s = signs[d - 1]
                out.put(rd, cd, v if s == 1 else v * s)
        return out

    def derivative(self, var_name: str) -> "TensorOperator":
        """Entrywise quotient-rule derivative; master denominator squares."""
        d = self.den
        dp = d.derivative(var_name)
        return self._entrywise(d * d, lambda v: v.derivative(var_name) * d - v * dp)

    def substitute(self, var_name: str, sign: int, powers: dict) -> "TensorOperator":
        def sub(p: SpectralLaurent) -> SpectralLaurent:
            return p.substitute(var_name, sign, powers) if var_name in p.variables() else p

        return self._entrywise(sub(self.den), sub)

    # -- residual inspection -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.rows

    def first_nonzero(self):
        """Deterministic locator: (row digits, col digits, leading monomial, coeff)."""
        if not self.rows:
            return None
        r = min(self.rows)
        c = min(self.rows[r])
        v = self.rows[r][c]
        mono = min(v.terms)
        return (self.digits(r), self.digits(c), mono, v.terms[mono])

    def cleared(self, clearing: SpectralLaurent) -> dict:
        """Entries over ``clearing`` as plain Laurent polynomials keyed by
        (row, col); ``clearing`` is declared as for ``over``."""
        return {(r, c): v for r, row in self.over(clearing).rows.items()
                for c, v in row.items()}


def _value_key(v: SpectralLaurent) -> frozenset:
    """An exact, hashable key of ``v``'s value: equal keys mean equal values.
    A key that missed an equal value would only cost a repeated product."""
    return frozenset((m, coeff_key(c)) for m, c in v.terms.items())


def _over_sum(clearing: SpectralLaurent, *ops: TensorOperator) -> TensorOperator:
    """Sum of the operators, each put over the declared clearing polynomial."""
    out = ops[0].over(clearing)
    for op in ops[1:]:
        out = out + op.over(clearing)
    return out


def parity_sign(n: int) -> int:
    return -1 if n % 2 else 1


# -- the type A rational r-matrix ---------------------------------------------


def build_r(dim: int, xv: str = "x", yv: str = "y") -> TensorOperator:
    """r(x/y) cleared to rational functions of (x, y), master denominator y - x.

    Diagonal weight (y+x)/(y-x) on E_ii (x) E_ii minus (1/N) on the identity,
    2y/(y-x) above the diagonal and 2x/(y-x) below.
    """
    if dim < 2:
        raise ValueError("need N >= 2")
    x = var(xv)
    y = var(yv)
    op = TensorOperator(2, dim, y - x)
    w = y + x
    for i in range(1, dim + 1):
        for k in range(1, dim + 1):
            c = Fraction(-1, dim) + (1 if i == k else 0)
            if c:
                op.put((i, k), (i, k), w * c)
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            if i < j:
                op.put((i, j), (j, i), y * 2)
            elif i > j:
                op.put((i, j), (j, i), x * 2)
    return op


def u_signs(dim: int) -> list:
    """Diagonal of U = sum_j (-1)^j E_jj."""
    return [parity_sign(j) for j in range(1, dim + 1)]


def rbar_clearing(dim: int, xv: str = "x", yv: str = "y") -> SpectralLaurent:
    """(x - y)(x y - (-1)^N), the master denominator of rbar(x,y)."""
    x = var(xv)
    y = var(yv)
    return (x - y) * (x * y - _sl(parity_sign(dim)))


def build_rbar_folded(dim: int, xv: str = "x", yv: str = "y") -> TensorOperator:
    """rbar(x,y) = r(x/y) + U_1 r^{t1}((-1)^N/(x y)) U_1^{-1}, over the
    closed form's denominator ``rbar_clearing``."""
    sigma = parity_sign(dim)
    base = build_r(dim, xv, yv)
    # r(z) in one variable (denominator 1 - z), then z -> (-1)^N/(x y)
    folded = build_r(dim, "_z", "_w").substitute("_w", 1, {}).transpose_leg(1)
    folded = folded.substitute("_z", sigma, {xv: -1, yv: -1})
    signs = u_signs(dim)
    folded = folded.scale_leg_diag(1, signs, "left").scale_leg_diag(1, signs, "right")
    return _over_sum(rbar_clearing(dim, xv, yv), base, folded)


def build_rbar(dim: int, xv: str = "x", yv: str = "y") -> tuple:
    """Both realizations of the folded r-matrix: (folded, closed form),
    each over ``rbar_clearing``."""
    return build_rbar_folded(dim, xv, yv), rbar_closed(dim, xv, yv)


def rbar_closed(dim: int, xv: str = "x", yv: str = "y") -> TensorOperator:
    """rbar(x,y) in closed form, over ``rbar_clearing``."""
    if dim < 2:
        raise ValueError("need N >= 2")
    sigma = parity_sign(dim)
    x = var(xv)
    y = var(yv)
    xy = x * y
    dxy = x - y
    dprod = xy - _sl(sigma)
    op = TensorOperator(2, dim, rbar_clearing(dim, xv, yv))
    # -((x+y)/(x-y) + (xy+s)/(s-xy)) = -(x+y)/(x-y) + (xy+s)/(xy-s)
    weight = (xy + sigma) * dxy - (x + y) * dprod
    for i in range(1, dim + 1):
        for k in range(1, dim + 1):
            c = Fraction(-1, dim) + (1 if i == k else 0)
            if c:
                op.put((i, k), (i, k), weight * c)
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            if i == j:
                continue
            if i < j:
                op.put((i, j), (j, i), y * dprod * -2)
            else:
                op.put((i, j), (j, i), x * dprod * -2)
            s = parity_sign(i + j)
            if i < j:
                op.put((j, j), (i, i), xy * dxy * (2 * s))
            else:
                op.put((j, j), (i, i), dxy * (2 * s * sigma))
    return op


def cleared_rbar_pair(dim: int) -> tuple:
    """(clearing, rbar_12(x,y), rbar_21(y,x)), the latter two as cleared
    Laurent-polynomial entry maps over the clearing (x-y)(xy-(-1)^N)."""
    clearing = rbar_clearing(dim)
    r12 = rbar_closed(dim, "x", "y").cleared(clearing)
    r21 = rbar_closed(dim, "y", "x").embed_legs((2, 1), 2).cleared(clearing)
    return clearing, r12, r21


def leg_swap_mismatch(dim: int, r12c: dict, r21c: dict):
    """The first (row, col) key, in sorted order, where r12c(x,y) differs
    from -P r21c(y,x) P, or None; P swaps leg 1 with leg 2.

    For the maps of ``cleared_rbar_pair`` this holds by construction: r21c
    is P rbar(y,x) P over C(x,y), and C(y,x) = -C(x,y), so r21c(y,x) is
    -P r12c(x,y) P.
    """
    swapped_var = {"x": "y", "y": "x"}
    mirrored = {}
    for (r, c), v in r21c.items():
        key = (r % dim * dim + r // dim, c % dim * dim + c // dim)
        mirrored[key] = SpectralLaurent({
            tuple(sorted((swapped_var.get(name, name), e) for name, e in mono)): -coeff
            for mono, coeff in v.terms.items()})
    for key in sorted(set(r12c) | set(mirrored)):
        if r12c.get(key) != mirrored.get(key):
            return key
    return None


# -- residuals and reports ------------------------------------------------------


def skew_residual(dim: int, r12=None) -> TensorOperator:
    """r_12(x/y) + r_21(y/x); zero iff the r-matrix is skew-symmetric."""
    if r12 is None:
        r12 = build_r(dim, "x", "y")
    r21 = build_r(dim, "y", "x").embed_legs((2, 1), 2)
    return _over_sum(r12.den, r12, r21)


def cybe_residual(r13: TensorOperator, r23: TensorOperator, r12: TensorOperator) -> TensorOperator:
    """[r13, r23] - [r13 + r23, r12] over the clearing D12 D13 D23."""
    # -[A, B] is formed as [B, A], so no commutator is negated entry by entry
    return _over_sum(r12.den * r13.den * r23.den,
                     r13.commutator(r23), r12.commutator(r13), r12.commutator(r23))


def cybe_operators(dim: int):
    r13 = build_r(dim, "x1", "x3").embed_legs((1, 3), 3)
    r23 = build_r(dim, "x2", "x3").embed_legs((2, 3), 3)
    r12 = build_r(dim, "x1", "x2").embed_legs((1, 2), 3)
    return r13, r23, r12


def ns_cybe_residual(r13, r23, r21, r12) -> TensorOperator:
    """[r13, r23] - [r21, r13] - [r23, r12] over the clearing D12 D13 D23
    (r21's denominator is D12 up to sign)."""
    return _over_sum(r12.den * r13.den * r23.den,
                     r13.commutator(r23), r13.commutator(r21), r12.commutator(r23))


def ns_cybe_operators(dim: int, builder=rbar_closed):
    r13 = builder(dim, "x1", "x3").embed_legs((1, 3), 3)
    r23 = builder(dim, "x2", "x3").embed_legs((2, 3), 3)
    r21 = builder(dim, "x2", "x1").embed_legs((2, 1), 3)
    r12 = builder(dim, "x1", "x2").embed_legs((1, 2), 3)
    return r13, r23, r21, r12


def _residual_check(name: str, residual: TensorOperator) -> Check:
    loc = residual.first_nonzero()
    if loc is None:
        return Check(name, "pass")
    rd, cd, mono, coeff = loc
    detail = f"entry {rd}->{cd} monomial {mono_str(mono)} residual {coeff}"
    return Check(name, "fail", detail)


def check_skew(dim: int) -> Report:
    report = Report("verify skew", {"n": dim})
    report.add_check(_residual_check("skew-symmetry", skew_residual(dim)))
    return report


def check_cybe(dim: int) -> Report:
    report = Report("verify cybe", {"n": dim})
    report.add_check(_residual_check("cybe", cybe_residual(*cybe_operators(dim))))
    return report


def check_rbar_fold(dim: int) -> Check:
    folded, closed = build_rbar(dim)
    diff = folded - closed
    return _residual_check("rbar-fold-vs-closed", diff)


def check_ns_cybe(dim: int) -> Report:
    report = Report("verify ns-cybe", {"n": dim})
    report.add_check(check_rbar_fold(dim))
    report.add_check(
        _residual_check("ns-cybe", ns_cybe_residual(*ns_cybe_operators(dim)))
    )
    return report
