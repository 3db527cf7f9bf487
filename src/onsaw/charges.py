"""Commuting charges of the Onsager algebra from the twisted transfer trace.

The scalar matrix M(x) carries free parameters mu_i, ka_ij, ks_ij (all
symbolic), the generating function is b(x) = tr M(x) B(x), and the
charges are its series coefficients.  Ground truth is the expansion; the
closed charge formulas are treated as claims to be compared against it,
with the proportionality constant reported.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import onsager as on
from .exactnum import ParamPoly, SpectralLaurent, add_coeff, terms_of
from .report import Report, timer
from .rmatrix import TensorOperator, parity_sign, rbar_closed


@dataclass(frozen=True)
class ChargeParams:
    dim: int

    def mu(self, i: int) -> ParamPoly:
        return ParamPoly.variable(f"mu{i}")

    def ka(self, i: int, j: int) -> ParamPoly:
        return ParamPoly.variable(f"ka{i}_{j}")

    def ks(self, i: int, j: int) -> ParamPoly:
        return ParamPoly.variable(f"ks{i}_{j}")


def build_M(dim: int, xv: str = "x") -> TensorOperator:
    """The parameter matrix: (x - (-1)^N/x) mu_i on the diagonal,
    ka_ij + ks_ij/x above it, -(-1)^(i+j)(ka_ij + (-1)^N x ks_ij) below."""
    if dim < 2:
        raise ValueError("need N >= 2")
    sigma = parity_sign(dim)
    p = ChargeParams(dim)
    op = TensorOperator(1, dim)
    x1 = SpectralLaurent.variable(xv)
    xm1 = SpectralLaurent.variable(xv, -1)
    for i in range(1, dim + 1):
        op.put((i,), (i,), (x1 - xm1 * sigma) * p.mu(i))
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            ka, ks = p.ka(i, j), p.ks(i, j)
            op.put((i,), (j,), SpectralLaurent.const(ka) + xm1 * ks)
            s = -parity_sign(i + j)
            op.put((j,), (i,), (SpectralLaurent.const(ka) + x1 * (ks * sigma)) * s)
    return op


def trace_condition_residual(dim: int, m_builder=build_M) -> TensorOperator:
    """[tr_1(rbar_12(x,y) M_1(x)), M_2(y)] as an operator; zero iff the
    sufficient commutativity condition holds."""
    rb = rbar_closed(dim, "x", "y")
    m1 = m_builder(dim, "x").embed_legs((1,), 2)
    tr = (rb @ m1).partial_trace(1)
    m2 = m_builder(dim, "y")
    return tr.commutator(m2)


def check_trace_condition(dim: int) -> Report:
    report = Report("verify charges-trace-condition", {"n": dim})
    with timer(report):
        resid = trace_condition_residual(dim)
        loc = resid.first_nonzero()
        detail = None
        if loc is not None:
            rd, cd, mono, coeff = loc
            detail = f"entry {rd}->{cd} residual coefficient {coeff}"
        report.add("trace-condition", loc is None, detail)
    return report


def build_b(dim: int, cutoff: int) -> dict:
    """Coefficients of b(x) = tr M(x) B(x); exact for exponents <= cutoff - 1."""
    if cutoff < 2:
        raise ValueError("need D >= 2")
    m = build_M(dim, "x")
    b = on.build_B_matrix(dim, cutoff)
    coeffs: dict = {}  # exponent -> {symbol: coefficient}
    for r, row in m.rows.items():
        i = m.digits(r)[0]
        for c, lau in row.items():
            j = m.digits(c)[0]
            for mono, coeff in lau.terms.items():
                e = dict(mono).get("x", 0)
                for n, mat in b.coeffs.items():
                    elem = mat.get((j, i))  # B(x) entry (j, i)
                    if elem is None:
                        continue
                    acc = coeffs.setdefault(e + n, {})
                    for sym, v in elem.coeffs.items():
                        add_coeff(acc, sym, v * coeff)
    return {n: on.OnsagerElement(dim, acc) for n, acc in coeffs.items() if acc}


@dataclass
class Charge:
    order: int
    value: on.OnsagerElement


def extract_charges(dim: int, max_order: int) -> list:
    """Charges I_0..I_K read off the generating-function expansion."""
    series = build_b(dim, max_order + 2)
    return [Charge(n, series.get(n, on.zero(dim))) for n in range(max_order + 1)]


def generic_charge(dim: int, n: int) -> on.OnsagerElement:
    """The generic (n > 1) charge formula, defined for every n >= 1."""
    sigma = parity_sign(dim)
    p = ChargeParams(dim)
    out = on.zero(dim)

    def c(i, j, lev):
        return on.canonicalize_B(dim, i, j, lev)

    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            ka, ks = p.ka(i, j), p.ks(i, j)
            out = out + (c(i, j, n) + c(j, i, n).scale(parity_sign(i + j + 1))).scale(ka)
            out = out + (c(j, i, n - 1).scale(parity_sign(i + j + dim + 1)) + c(i, j, n + 1)).scale(ks)
    for i in range(1, dim + 1):
        out = out + (c(i, i, n + 1).scale(-sigma) + c(i, i, n - 1)).scale(p.mu(i))
    return out


def displayed_charge(dim: int, n: int) -> on.OnsagerElement:
    """The closed-form charge at order n (n = 0 and 1 are special)."""
    if n > 1:
        return generic_charge(dim, n)
    sigma = parity_sign(dim)
    p = ChargeParams(dim)
    out = on.zero(dim)

    def c(i, j, lev):
        return on.canonicalize_B(dim, i, j, lev)

    if n == 0:
        for i in range(1, dim + 1):
            for j in range(i + 1, dim + 1):
                out = out + c(j, i, 0).scale(p.ka(i, j) * parity_sign(i + j + 1))
                out = out + c(i, j, 1).scale(p.ks(i, j))
        for i in range(1, dim + 1):
            out = out + c(i, i, 1).scale(p.mu(i) * (-sigma))
        return out
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            ka, ks = p.ka(i, j), p.ks(i, j)
            out = out + (c(i, j, 1) + c(j, i, 1).scale(parity_sign(i + j + 1))).scale(ka)
            out = out + (c(j, i, 0).scale(parity_sign(i + j + dim + 1)) + c(i, j, 2)).scale(ks)
    for i in range(1, dim + 1):
        out = out + c(i, i, 2).scale(p.mu(i) * (-sigma))
    return out


def proportionality(a: on.OnsagerElement, b: on.OnsagerElement):
    """Fraction q with a == q*b, or None."""
    if b.is_zero():
        return Fraction(0) if a.is_zero() else None
    sym = next(iter(sorted(b.coeffs)))
    pa = a.coeffs.get(sym)
    if pa is None:
        return None
    tb = terms_of(b.coeffs[sym])
    mono = min(tb)
    ca = terms_of(pa).get(mono)
    if ca is None:
        return None
    q = Fraction(ca) / tb[mono]
    return q if (a - b.scale(q)).is_zero() else None


def check_charge_formulas(dim: int, max_order: int) -> Report:
    """Expansion coefficients vs the displayed charge formulas."""
    report = Report("verify charges-formulas", {"n": dim, "max_order": max_order})
    with timer(report):
        charges = extract_charges(dim, max_order)
        for ch in charges:
            shown = displayed_charge(dim, ch.order)
            q = proportionality(ch.value, shown)
            name = f"I_{ch.order} closed form"
            if q is None:
                report.add(name, False, f"not proportional: expansion {ch.value}")
            else:
                report.add(f"{name} (proportionality {q})", True)
        # the generic formula evaluated at the n=1 boundary matches I_1
        if max_order >= 1:
            gen1 = generic_charge(dim, 1)
            agree = (gen1 - displayed_charge(dim, 1)).is_zero()
            report.add("generic formula boundary n=1", agree,
                       None if agree else "generic(1) differs from I_1")
    return report


def b_commutativity_mismatch(dim: int, cutoff: int):
    """[b(x), b(y)] coefficient residuals in the valid window."""
    series = build_b(dim, cutoff)
    orders = [a for a in sorted(series) if a <= cutoff - 1]
    # [u, u] = 0 and [u, v] = -[v, u]: the pairs a < b meet the same first failure
    for a, b in itertools.combinations(orders, 2):
        resid = on.bracket_abstract(series[a], series[b])
        if not resid.is_zero():
            return (a, b, resid)
    return None


def check_b_commutativity(dim: int, cutoff: int) -> Report:
    report = Report("verify charges-generating-fn", {"n": dim, "cutoff": cutoff})
    with timer(report):
        mism = b_commutativity_mismatch(dim, cutoff)
        detail = None
        if mism:
            a, b, resid = mism
            detail = f"[b_{a}, b_{b}] = {resid}"
        report.add("generating-function-commutativity", mism is None, detail)
    return report


def check_charge_commutativity(dim: int, max_order: int) -> Report:
    report = Report("verify charges-commutativity", {"n": dim, "max_order": max_order})
    with timer(report):
        charges = extract_charges(dim, max_order)
        # [u, u] = 0 and [u, v] = -[v, u]: the pairs a < b meet the same first failure
        brackets = ((a, b, on.bracket_abstract(a.value, b.value))
                    for a, b in itertools.combinations(charges, 2))
        bad = next((f"[I_{a.order}, I_{b.order}] = {resid}"
                    for a, b, resid in brackets if not resid.is_zero()), None)
        report.add("pairwise-commutativity", bad is None, bad)
        bad = next((f"I_{ch.order} coefficient not linear in parameters"
                    for ch in charges for coeff in ch.value.coeffs.values()
                    for mono in terms_of(coeff) if sum(e for _, e in mono) != 1), None)
        report.add("parameter-linearity", bad is None, bad)
    return report


def check_charges(dim: int, max_order: int) -> Report:
    """The full charge suite: condition, b(x) commutativity, charges."""
    report = Report("verify charges", {"n": dim, "max_order": max_order})
    with timer(report):
        report.extend(check_trace_condition(dim))
        report.extend(check_b_commutativity(dim, max_order + 2))
        report.extend(check_charge_commutativity(dim, max_order))
        report.extend(check_charge_formulas(dim, max_order))
    return report
