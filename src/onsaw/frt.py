"""Generating matrices T+-(x), their exchange relations, and the two
involutive automorphisms of the Yang-Baxter presentation.

The exchange relations run on truncated series by the window rule of
``series.windowed``, which the reflection relation and the currents of
``onsager`` share: both sides of a relation are multiplied by the minimal
clearing polynomial and compared coefficient by coefficient inside the
contamination-free window |a|, |b| <= D - s, where s is the computed
per-variable shift bound of the multipliers.  Only what can reach that
window is formed: each leg keeps the exponents some multiplier term
shifts into it, and the products of the multiplications land inside it.
Everything skipped lands only on cells that are never compared, so every
compared coefficient, and with it the verdict, the window and the
first-mismatch locator, is the same as with the full products.  The
right side [T_1(x), r] + [T'_2(y), r] comes from the two-leg kernel of
``series`` that the reflection relations share.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from . import loop_algebra as la
from .exactnum import ParamPoly, SpectralLaurent, add_entry, plain
from .report import Report
from .rmatrix import TensorOperator, build_r, parity_sign, u_signs
from .series import BiSeries, GeneratorMatrix, entry_str, mismatch_detail, windowed
from .symcomb import unpreserved_pairs


def build_T(sign: int, dim: int, cutoff: int) -> GeneratorMatrix:
    """T+(x) for sign=+1 (exponents 0..D), T-(x) for sign=-1 (-D..0).

    The exponent-0 part of T+ is upper triangular with e_ii on the diagonal,
    of T- lower triangular with -e_ii; level-n parts are 2 e_ji^(n) at (i, j).
    """
    if dim < 2 or cutoff < 1:
        raise ValueError("need N >= 2 and D >= 1")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    # exponent 0 stores the diagonal and the triangle the sign selects
    m0 = {(i, j): la.inject(dim, j, i, 0).scale(sign if i == j else 2 * sign)
          for i in range(1, dim + 1) for j in range(1, dim + 1)
          if i == j or (i < j) == (sign == 1)}
    out = GeneratorMatrix(dim, {0: m0})
    for n in range(1, cutoff + 1):
        lev = sign * n
        out.coeffs[lev] = {(i, j): la.inject(dim, j, i, lev).scale(2 * sign)
                           for i in range(1, dim + 1) for j in range(1, dim + 1)}
    return out


# -- automorphism actions on generators ---------------------------------------


def apply_theta1(el: la.LoopElement) -> la.LoopElement:
    """theta1: e_ij^(n) -> (-1)^(Nn+i+j+1) e_ji^(-n), c -> -c.

    Cartan symbols go through their diagonal expansion and are re-injected.
    """
    dim = el.dim
    out = la.zero(dim)
    for sym, coeff in el.coeffs.items():
        if sym == la.CENTRAL:
            out.add_term(la.CENTRAL, -coeff)
            continue
        for i, j, n, f in la._as_e_terms(dim, sym):
            sgn = parity_sign(dim * n + i + j + 1)
            la._add_e(out, j, i, -n, coeff * (f * sgn))
    return out


def _half_index(i: int, dim: int) -> int:
    h = dim // 2
    return i + h if i <= h else i - h


def apply_theta2(el: la.LoopElement, eps) -> la.LoopElement:
    """theta2 (N even): block-swapping involution with a central shift.

    eps may be +1, -1, or the symbolic involutive parameter.
    """
    dim = el.dim
    if dim % 2:
        raise ValueError("theta2 requires even N")
    h = dim // 2
    out = la.zero(dim)
    for sym, coeff in el.coeffs.items():
        if sym == la.CENTRAL:
            out.add_term(la.CENTRAL, -coeff)
            continue
        for i, j, n, f in la._as_e_terms(dim, sym):
            c = coeff * f
            ib, jb = _half_index(i, dim), _half_index(j, dim)
            if (i <= h) == (j <= h):
                la._add_e(out, jb, ib, -n, -c)
                if i == j and n == 0:
                    alpha_bar = 1 if i <= h else -1
                    out.add_term(la.CENTRAL, c * Fraction(alpha_bar, 2))
            elif i <= h:
                la._add_e(out, jb, ib, -n + 1, -(c * eps))
            else:
                la._add_e(out, jb, ib, -n - 1, -(c * eps))
    return out


def eps_symbol() -> ParamPoly:
    return ParamPoly.variable("eps")


def _theta_fn(which: str, eps=None):
    if which == "theta1":
        return apply_theta1
    if which == "theta2":
        e = eps if eps is not None else eps_symbol()
        return lambda el: apply_theta2(el, e)
    raise ValueError(f"unknown automorphism {which!r}")


def check_automorphism(which: str, dim: int, levels: int, eps=None) -> Report:
    """Involution and bracket-morphism checks over all basis pairs."""
    report = Report(
        "verify automorphism",
        {"which": which, "n": dim, "levels": levels, "epsilon": _eps_label(eps)},
    )
    theta = _theta_fn(which, eps)
    syms = la.basis_symbols(dim, levels)
    units = [la.unit(dim, s) for s in syms]
    images = [theta(u) for u in units]
    bad = next((la.LoopElement.symbol_str(s) for s, u, t in zip(syms, units, images)
                if not (theta(t) - u).is_zero()), None)
    report.add("involution", bad is None, bad and f"theta^2 != id at {bad}")
    # theta is linear and la.bracket antisymmetric, so the residual of
    # (b, a) is minus that of (a, b) and the diagonal's is 0: the first
    # failing ordered pair has a < b, and only those pairs are visited
    bad = next(unpreserved_pairs(combinations(range(len(syms)), 2), theta, units,
                                 images, la.bracket, la.bracket), None)
    report.add("bracket-morphism", bad is None,
               bad and f"pair ({la.LoopElement.symbol_str(syms[bad[0]])}, "
                       f"{la.LoopElement.symbol_str(syms[bad[1]])}) residual {bad[2]}")
    return report


def _eps_label(eps) -> str:
    if eps is None:
        return "sym"
    return f"{eps:+d}" if isinstance(eps, int) else str(eps)


# -- matrix forms of the automorphisms ----------------------------------------


def theta1_matrix_image(t_opposite: GeneratorMatrix) -> GeneratorMatrix:
    """U T_opp((-1)^N / x)^t U from the opposite-sign generator matrix."""
    dim = t_opposite.dim
    sigma = parity_sign(dim)
    sub = t_opposite.shift_scale(lambda e: -e, lambda e: sigma ** (e % 2)).transpose()
    signs = u_signs(dim)
    return GeneratorMatrix(dim, {
        e: {(i, j): v.scale(signs[i - 1] * signs[j - 1]) for (i, j), v in m.items()}
        for e, m in sub.coeffs.items()})


def _smat_on_gm(s: dict, g: GeneratorMatrix, side: str) -> GeneratorMatrix:
    """s @ g for side "left", g @ s for side "right", with s a scalar series
    matrix {exponent -> {(i, j): nonzero plain coefficient}} on the same
    exponent lattice as g."""
    out = GeneratorMatrix(g.dim)
    for es, ms in s.items():
        for eg, mg in g.coeffs.items():
            for (a, b), c in ms.items():
                for (i, j), v in mg.items():
                    if side == "left" and b == i:
                        add_entry(out.coeffs, es + eg, (a, j), v.scale(c))
                    elif side == "right" and a == j:
                        add_entry(out.coeffs, es + eg, (i, b), v.scale(c))
    return out


def _v_matrices(dim: int, eps) -> tuple:
    """V(x), V(x)^-1 and x V'(x) on the doubled lattice s^2 = x, as scalar
    series matrices for ``_smat_on_gm``."""
    h = dim // 2
    # (1/sqrt x) E_{j, h+j} + eps sqrt(x) E_{h+j, j}
    v = {-1: {(j, h + j): 1 for j in range(1, h + 1)},
         1: {(h + j, j): eps for j in range(1, h + 1)}}
    # V^2 = eps * Id, so V^-1 = eps * V
    vinv = {e: {ij: plain(c * eps) for ij, c in m.items()} for e, m in v.items()}
    # derivative in x on the s-lattice: s^e -> (e/2) s^(e-2); times x = s^2 is +2
    xvp = {e: {ij: plain(c * Fraction(e, 2)) for ij, c in m.items()} for e, m in v.items()}
    return v, vinv, xvp


def theta2_matrix_image(t_opposite: GeneratorMatrix, sign: int, eps) -> GeneratorMatrix:
    """V(x) T_opp(1/x)^t V(x)^-1 -+ c x V'(x) V(x)^-1, on the s-lattice.

    ``sign`` is the sign of the generator matrix being mapped (+1 for T+).
    Returns an x-exponent GeneratorMatrix; raises if any odd s-exponent
    survives (it never does: the two V factors always shift by +-2 or 0).
    """
    dim = t_opposite.dim
    # T_opp(1/x): exponent e -> -e in x, i.e. -2e on the s-lattice
    sub = t_opposite.shift_scale(lambda e: -2 * e).transpose()
    v, vinv, xvp = _v_matrices(dim, eps)
    # the central term -+ c x V'(x) joins V T_opp(1/x)^t before both are
    # multiplied by V^-1
    cterm = GeneratorMatrix(dim, {
        e: {ij: la.central(dim, c).scale(-sign) for ij, c in m.items()}
        for e, m in xvp.items()})
    img = _smat_on_gm(vinv, _smat_on_gm(v, sub, "left") + cterm, "right")
    odd = [e for e in img.coeffs if e % 2]
    if odd:
        raise AssertionError(f"odd half-integer exponent {odd[0]}/2 survived")
    return img.shift_scale(lambda e: e // 2)


def check_theta_matrix_form(which: str, dim: int, cutoff: int, eps=None) -> Report:
    """Matrix form of the automorphism agrees with its generator action."""
    report = Report(
        "verify automorphism-matrix",
        {"which": which, "n": dim, "cutoff": cutoff, "epsilon": _eps_label(eps)},
    )
    for sign, name in ((1, "T+"), (-1, "T-")):
        t = build_T(sign, dim, cutoff)
        t_opp = build_T(-sign, dim, cutoff)
        if which == "theta1":
            image = theta1_matrix_image(t_opp)
            gen = t.map_entries(apply_theta1)
            window = (-cutoff, cutoff)
        else:
            e = eps if eps is not None else eps_symbol()
            image = theta2_matrix_image(t_opp, sign, e)
            gen = t.map_entries(lambda v: apply_theta2(v, e))
            window = (-(cutoff - 1), cutoff - 1)
        mism = image.first_mismatch(gen, window)
        detail = None
        if mism:
            ex, i, j, lft, rgt = mism
            detail = (f"exponent {ex} entry ({i},{j}): "
                      f"matrix {entry_str(lft)} vs generator {entry_str(rgt)}")
        report.add(f"{which}-matrix-form-{name}", mism is None, detail)
    return report


# -- the exchange relations ---------------------------------------------------


def _r_prime_term(dim: int) -> TensorOperator:
    """-2 r'(x/y) (x/y) as a tensor operator (the c-coefficient in the
    mixed relation); derivative taken in the single-variable realization
    r(z) = r(x/y) at y = 1, denominator 1 - z."""
    rp = build_r(dim, "_z", "_w").substitute("_w", 1, {}).derivative("_z")
    rp = rp.substitute("_z", 1, {"x": 1, "y": -1})
    xy = SpectralLaurent.monomial(1, {"x": 1, "y": -1})
    return rp.scale(xy * -2)


def frt_relation_mismatch(dim: int, cutoff: int, sign_a: int, sign_b: int,
                          include_central: bool = True):
    """Window mismatch of one exchange relation, or None.

    sign_a == sign_b checks the like-sign relation; the mixed relation
    includes the central derivative term unless disabled (negative control).
    """
    mixed = sign_a != sign_b
    ta = build_T(sign_a, dim, cutoff)
    # one matrix on both legs lets bracket_cross form each mirror pair once
    tb = build_T(sign_b, dim, cutoff) if mixed else ta
    x = SpectralLaurent.variable("x")
    y = SpectralLaurent.variable("y")
    clearing = (y - x) * (y - x) if mixed else (y - x)
    r_clear = build_r(dim, "x", "y").cleared(clearing)
    multipliers = [clearing] + list(r_clear.values())
    central_bis = None
    if mixed:
        cterm = _r_prime_term(dim)
        c_clear = cterm.cleared(clearing)
        multipliers += list(c_clear.values())
        if include_central:
            central_bis = BiSeries.from_scalar(dim, c_clear, la.central(dim))
    # T_a lives in x and T_b in y
    ta, tb, window = windowed(ta, tb, cutoff, multipliers)
    lhs = BiSeries.bracket_cross(ta, tb, la.bracket).convolve(clearing, window)
    rhs = BiSeries.commutator_scalar(ta, r_clear, tb, r_clear, window)
    if central_bis is not None:
        rhs = rhs + central_bis
    return lhs.first_mismatch(rhs, window), window


def _centrality_failures(dim: int, cutoff: int):
    """Entries of T+- whose bracket with c is nonzero, in loop order."""
    cel = la.central(dim)
    for sign in (1, -1):
        for e, m in build_T(sign, dim, cutoff).coeffs.items():
            for (i, j), v in sorted(m.items()):
                if not la.bracket(v, cel).is_zero():
                    yield f"sign {sign:+d} exponent {e} entry ({i},{j})"


def _trace_failures(dim: int, cutoff: int):
    """The first coefficient of T+, then of T-, with a nonzero trace;
    tracelessness is structural, so diagonal sums must canonicalize to zero."""
    for sign in (1, -1):
        bad = build_T(sign, dim, cutoff).first_trace()
        if bad is not None:
            yield f"sign {sign:+d} exponent {bad[0]}: trace {bad[1]}"


def check_frt(dim: int, cutoff: int) -> Report:
    """All exchange relations at the given truncation."""
    report = Report("verify frt", {"n": dim, "cutoff": cutoff})
    for sa, sb, name in ((1, 1, "like-sign (+,+)"), (-1, -1, "like-sign (-,-)"),
                         (1, -1, "mixed-sign with central term")):
        mism, window = frt_relation_mismatch(dim, cutoff, sa, sb)
        detail = None if mism is None else mismatch_detail(mism)
        report.add(f"exchange {name} [window {window}]", mism is None, detail)
    bad = next(_centrality_failures(dim, cutoff), None)
    report.add("centrality", bad is None, bad)
    bad = next(_trace_failures(dim, cutoff), None)
    report.add("tracelessness", bad is None, bad)
    return report
