"""The sl_N Onsager algebra in its three presentations.

Canonical basis symbols after the reflection and trace reductions:

  * ``("B0", i, j)``   -- level-0 generators, 1 <= i < j <= N,
  * ``("B", i, j, n)`` -- level n >= 1, any i, j, diagonal limited to
                          i <= N-1 (index N eliminated by the trace).

Everything else (negative levels, level-0 lower triangle, diagonal
index N) reduces into this basis, so equality is decidable by
coefficient comparison.  The module's master invariant: the abstract
bracket agrees with the loop-algebra bracket through the embedding
B_ij^(n) = e_ij^(n) + (-1)^(i+j+1+nN) e_ji^(-n).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from . import loop_algebra as la
from .exactnum import SpectralLaurent, add_coeff
from .frt import apply_theta1, build_T, theta1_matrix_image
from .report import Report, timer
from .rmatrix import cleared_rbar_pair, parity_sign, rbar_clearing
from .series import BiSeries, GeneratorMatrix, entry_str, mismatch_detail, windowed
from .symcomb import SymbolCombination, unpreserved_pairs


class OnsagerElement(SymbolCombination):
    __slots__ = ()

    @staticmethod
    def symbol_str(sym) -> str:
        if sym[0] == "B0":
            return f"B[{sym[1]},{sym[2]}]^(0)"
        return f"B[{sym[1]},{sym[2]}]^({sym[3]})"


def zero(dim: int) -> OnsagerElement:
    return OnsagerElement(dim, {})


def _raw(sym):
    """Canonical symbol -> raw (i, j, n)."""
    if sym[0] == "B0":
        return sym[1], sym[2], 0
    return sym[1], sym[2], sym[3]


def canonicalize_B(dim: int, i: int, j: int, n: int) -> OnsagerElement:
    """Reduce a raw generator B_ij^(n) to canonical form."""
    if not (1 <= i <= dim and 1 <= j <= dim):
        raise ValueError(f"index out of range for N={dim}: ({i},{j})")
    out = zero(dim)
    _acc_raw(out, i, j, n, 1)
    return out


def _acc_raw(out: OnsagerElement, i: int, j: int, n: int, coeff) -> None:
    dim = out.dim
    if n < 0:
        # reflection: B_ij^(n) = (-1)^(i+j+1+nN) B_ji^(-n)
        _acc_raw(out, j, i, -n, coeff * parity_sign(i + j + 1 + n * dim))
        return
    if n == 0:
        if i == j:
            return  # B_ii^(0) = 0
        if i < j:
            add_coeff(out.coeffs, ("B0", i, j), coeff)
        else:
            add_coeff(out.coeffs, ("B0", j, i), coeff * parity_sign(i + j + 1))
        return
    if i == j == dim:
        for p in range(1, dim):
            add_coeff(out.coeffs, ("B", p, p, n), coeff * -1)
        return
    add_coeff(out.coeffs, ("B", i, j, n), coeff)


def onsager_basis(dim: int, max_level: int):
    """Canonical symbols with level <= max_level, deterministic order."""
    syms = []
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            syms.append(("B0", i, j))
    for n in range(1, max_level + 1):
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                if i == j and i == dim:
                    continue
                syms.append(("B", i, j, n))
    return syms


def bracket_abstract(a: OnsagerElement, b: OnsagerElement) -> OnsagerElement:
    """Bilinear extension of the defining bracket, canonicalized."""
    if a.dim != b.dim:
        raise ValueError(f"rank mismatch: N={a.dim} vs N={b.dim}")
    dim = a.dim
    out = zero(dim)
    for sa, ca in a.coeffs.items():
        i, j, m = _raw(sa)
        sgn = parity_sign(i + j + 1 + m * dim)
        for sb, cb in b.coeffs.items():
            k, l, n = _raw(sb)
            c = ca * cb
            if j == k:
                _acc_raw(out, i, l, m + n, c)
            if i == l:
                _acc_raw(out, k, j, m + n, c * -1)
            if i == k:
                _acc_raw(out, j, l, n - m, c * sgn)
            if j == l:
                _acc_raw(out, k, i, n - m, c * -sgn)
    return out


def embed_symbol(dim: int, sym) -> la.LoopElement:
    i, j, n = _raw(sym)
    sgn = parity_sign(i + j + 1 + n * dim)
    return la.inject(dim, i, j, n) + la.inject(dim, j, i, -n).scale(sgn)


def embed(el: OnsagerElement) -> la.LoopElement:
    out = la.zero(el.dim)
    for sym, c in el.coeffs.items():
        out = out + embed_symbol(el.dim, sym).scale(c)
    return out


# -- presentation cross-checks -------------------------------------------------


def check_presentation_agreement(dim: int, levels: int) -> Report:
    """Abstract bracket vs loop-algebra bracket through the embedding."""
    if dim < 2:
        raise ValueError("need N >= 2")
    report = Report("verify onsager", {"n": dim, "levels": levels})
    with timer(report):
        syms = onsager_basis(dim, levels)
        units = {s: OnsagerElement(dim, {s: 1}) for s in syms}
        embeds = {s: embed(units[s]) for s in syms}
        # every ordered pair, unlike frt.check_automorphism: here
        # bracket_abstract is the map under test and its defining formula
        # is not antisymmetric by construction, so the (b, a) pairs are
        # what certify its antisymmetry against the oracle
        bad = next(unpreserved_pairs(product(syms, repeat=2), embed, units, embeds,
                                     bracket_abstract, la.bracket), None)
        report.add("embedding-oracle", bad is None,
                   bad and f"pair ({OnsagerElement.symbol_str(bad[0])}, "
                           f"{OnsagerElement.symbol_str(bad[1])}) residual {bad[2]}")
        bad = next((OnsagerElement.symbol_str(s) for s in syms
                    if not (apply_theta1(embeds[s]) - embeds[s]).is_zero()), None)
        report.add("theta1-fixed", bad is None, bad and f"embed({bad}) not fixed")
    return report


def check_UI_relations(dim: int, levels: int) -> Report:
    """The original A/G-form relations, instantiated and checked abstractly."""
    if dim < 2:
        raise ValueError("need N >= 2")
    report = Report("verify onsager-ui", {"n": dim, "levels": levels})
    with timer(report):
        rng = range(-levels, levels + 1)
        idx = [(i, j) for i in range(1, dim + 1) for j in range(1, dim + 1) if i != j]

        def A(i, j, n):
            return canonicalize_B(dim, i, j, n)

        def G(i, n):
            return canonicalize_B(dim, i, i, n) - canonicalize_B(dim, i + 1, i + 1, n)

        # each generator yields the relation's failures in loop order;
        # the report names the first
        def aa_failures():
            for (i, j), (k, l), m, n in product(idx, idx, rng, rng):
                if m < n:
                    continue  # stated for m >= n; rest is antisymmetry
                lhs = bracket_abstract(A(i, j, m), A(k, l, n))
                rhs = zero(dim)
                if j == k:
                    rhs = rhs + A(i, l, m + n)
                if i == l:
                    rhs = rhs - A(k, j, m + n)
                if i == k:
                    if j < l:
                        rhs = rhs + A(j, l, n - m).scale(parity_sign(i + j + 1 + m * dim))
                    if l < j:
                        rhs = rhs + A(l, j, m - n).scale(parity_sign(i + l + n * dim))
                if j == l:
                    if i < k:
                        rhs = rhs + A(i, k, m - n).scale(parity_sign(k + l + 1 + n * dim))
                    if k < i:
                        rhs = rhs + A(k, i, n - m).scale(parity_sign(i + l + m * dim))
                if i == k and j == l:
                    # telescoped sum of G_s^(m-n), s = i..j-1, either order
                    gsum = canonicalize_B(dim, i, i, m - n) - canonicalize_B(dim, j, j, m - n)
                    rhs = rhs + gsum.scale(parity_sign(i + j + 1 + n * dim))
                if not (lhs - rhs).is_zero():
                    yield f"[A[{i},{j}]^({m}), A[{k},{l}]^({n})] residual {lhs - rhs}"

        def ga_failures():
            for gi, (k, l), m, n in product(range(1, dim), idx, rng, rng):
                lhs = bracket_abstract(G(gi, m), A(k, l, n))
                w = (
                    (1 if gi == k else 0)
                    - (1 if k == gi + 1 else 0)
                    - (1 if l == gi else 0)
                    + (1 if l == gi + 1 else 0)
                )
                rhs = (A(k, l, m + n) - A(k, l, n - m).scale(parity_sign(m * dim))).scale(w)
                if not (lhs - rhs).is_zero():
                    yield f"[G[{gi}]^({m}), A[{k},{l}]^({n})] residual {lhs - rhs}"

        def gg_failures():
            for gi, gj, m, n in product(range(1, dim), range(1, dim), rng, rng):
                if not bracket_abstract(G(gi, m), G(gj, n)).is_zero():
                    yield f"[G[{gi}]^({m}), G[{gj}]^({n})] nonzero"

        bad = next(aa_failures(), None)
        report.add("AA-relation", bad is None, bad)
        bad = next(ga_failures(), None)
        report.add("GA-relation", bad is None, bad)
        bad = next(gg_failures(), None)
        report.add("GG-commute", bad is None, bad)
    return report


def oan_generators(dim: int):
    gens = [canonicalize_B(dim, i, i + 1, 0) for i in range(1, dim)]
    gens.append(canonicalize_B(dim, 1, dim, -1))
    return gens


def check_OAn_presentation(dim: int) -> Report:
    """N-generator cyclic presentation under the standard identification."""
    if dim < 3:
        raise ValueError("the N-generator presentation check needs N >= 3")
    report = Report("verify onsager-oan", {"n": dim})
    with timer(report):
        gens = oan_generators(dim)

        def residuals():
            for i in range(dim):
                for j in range(dim):
                    if i == j:
                        continue
                    if abs(i - j) in (1, dim - 1):  # adjacent on the cycle
                        yield (f"[[e{i+1},[e{i+1},e{j+1}]] - e{j+1}",
                               bracket_abstract(gens[i], bracket_abstract(gens[i], gens[j])) - gens[j])
                    else:
                        yield f"[e{i+1},e{j+1}]", bracket_abstract(gens[i], gens[j])

        bad = next((f"{label} residual {r}" for label, r in residuals() if not r.is_zero()), None)
        report.add("n-generator-presentation", bad is None, bad)
    return report


# -- the generating matrix B(x) and its relations ------------------------------


def build_B_matrix(dim: int, cutoff: int) -> GeneratorMatrix:
    """B(x): entry (i, j) holds 2 B_ji^(n) per exponent, constants above
    the diagonal only."""
    if dim < 2 or cutoff < 1:
        raise ValueError("need N >= 2 and D >= 1")
    out = GeneratorMatrix(dim)
    out.coeffs[0] = {(i, j): canonicalize_B(dim, j, i, 0).scale(2)
                     for i in range(1, dim + 1) for j in range(i + 1, dim + 1)}
    for n in range(1, cutoff + 1):
        out.coeffs[n] = {(i, j): canonicalize_B(dim, j, i, n).scale(2)
                         for i in range(1, dim + 1) for j in range(1, dim + 1)}
    return out


def check_Bxg(dim: int, cutoff: int) -> Report:
    """embed(B(x)) == T+(x) + theta1(T+(x)), the latter in matrix form."""
    report = Report("verify onsager-bxg", {"n": dim, "cutoff": cutoff})
    with timer(report):
        lhs = build_B_matrix(dim, cutoff).map_entries(embed)
        rhs = build_T(1, dim, cutoff) + theta1_matrix_image(build_T(-1, dim, cutoff))
        mism = lhs.first_mismatch(rhs, (0, cutoff))
        detail = None
        if mism:
            e, i, j, a, b = mism
            detail = f"exponent {e} entry ({i},{j}): {entry_str(a)} vs {entry_str(b)}"
        report.add("frt-form-of-B", mism is None, detail)
    return report


def reflection_scalars(r12c: dict, r21c: dict) -> tuple:
    """(S, T) = (-rbar_21, rbar_12), from the cleared maps r12c and r21c:
    the reflection relation's right side is [B_1(x), S] + [B_2(y), T]."""
    return {k: -v for k, v in r21c.items()}, r12c


def reflection_rhs(bx: GeneratorMatrix, by: GeneratorMatrix, r12c: dict, r21c: dict,
                   window=None, dens=None) -> BiSeries:
    """-[B_1(x), rbar_21] d(y) + [B_2(y), rbar_12] d(x): the right side of
    the reflection relation for B = bx / d on leg 1 and B = by / d on leg 2,
    cleared by C = ``rbar_clearing`` and by d(x) d(y), so that its left side
    is [bx_1(x), by_2(y)] C.

    ``dens`` is the pair (d(x), d(y)), None for d = 1.
    """
    s, t = reflection_scalars(r12c, r21c)
    return BiSeries.commutator_scalar(bx, s, by, t, window, dens)


def reflection_mismatch(dim: int, cutoff: int, r12=None, r21=None):
    """Window mismatch of the reflection relation for B(x), or None."""
    clearing, r12c, r21c = cleared_rbar_pair(dim)
    if r12 is not None:
        r12c = r12
    if r21 is not None:
        r21c = r21
    b = build_B_matrix(dim, cutoff)
    multipliers = [clearing] + list(r12c.values()) + list(r21c.values())
    # B_1 lives in x and B_2 in y
    bx, by, window = windowed(b, b, cutoff, multipliers)
    lhs = BiSeries.bracket_cross(bx, by, bracket_abstract).convolve(clearing, window)
    rhs = reflection_rhs(bx, by, r12c, r21c, window)
    return lhs.first_mismatch(rhs, window), window


def check_reflection(dim: int, cutoff: int) -> Report:
    report = Report("verify reflection", {"n": dim, "cutoff": cutoff})
    with timer(report):
        mism, window = reflection_mismatch(dim, cutoff)
        detail = None if mism is None else mismatch_detail(mism)
        report.add(f"reflection [window {window}]", mism is None, detail)
        # tr_1 B(x) = 0 holds structurally through the trace reduction
        bad = build_B_matrix(dim, cutoff).first_trace()
        report.add("tracelessness", bad is None,
                   bad and f"exponent {bad[0]}: trace {bad[1]}")
    return report


# -- the current presentation ---------------------------------------------------


def _H(k: int) -> Fraction:
    if k > 0:
        return Fraction(1)
    if k == 0:
        return Fraction(1, 2)
    return Fraction(0)


def currents_mismatch(dim: int, cutoff: int):
    """Check every current exchange relation; returns (mismatch, window).

    The left sides of all relations together are the left side of the
    reflection relation: the relation of the currents (i, j) in x and
    (k, l) in y is its cell (idx(j, l), idx(i, k)).  The right sides are
    the H-kernel formulas.  The first mismatch is named in quadruple order,
    then by (a, b).
    """
    if dim < 2:
        raise ValueError("need N >= 2")
    sigma = parity_sign(dim)
    x = SpectralLaurent.variable("x")
    y = SpectralLaurent.variable("y")
    dxy = x - y
    dprod = x * y - SpectralLaurent.const(sigma)
    clearing = rbar_clearing(dim)
    # every kernel below is dprod times x, y or their mean, or dxy times
    # x*y, a constant or their mean, up to a constant factor
    multipliers = [clearing, dprod * x, dprod * y, dxy * x * y, dxy]
    b = build_B_matrix(dim, cutoff)
    bx, by, window = windowed(b, b, cutoff, multipliers)
    lhs = BiSeries.bracket_cross(bx, by, bracket_abstract).convolve(clearing, window)

    # the current 2 sum x^n B_ij^(n) is entry (j, i) of B(x); its constant
    # term is nonzero only for i > j
    def currents(b):
        return {(i, j): {n: m[j, i] for n, m in b.coeffs.items() if (j, i) in m}
                for i in range(1, dim + 1) for j in range(1, dim + 1)}

    # the kernels depend only on sign(k - l), sign(i - j) and the parities
    # of k + l and i + j, so each is built once, with both signs; the y-side
    # kernel 2*dprod*(y H(s) + x H(-s)) is the x-side one at -s
    def pm(kernel):
        return {1: kernel, -1: -kernel}

    signs = (-1, 0, 1)
    w = {s: pm(dprod * (x * _H(s) + y * _H(-s)) * 2) for s in signs}
    u = {(s, p): pm(dxy * (x * y * _H(-s) + SpectralLaurent.const(sigma * _H(s))) * (2 * p))
         for s in signs for p in (1, -1)}

    cur_x = currents(bx)
    cur_y = currents(by)
    rhs = BiSeries(dim)
    for (i, j), (k, l) in product(cur_x, repeat=2):
        cell = (rhs.idx(j, l), rhs.idx(i, k))
        skl = (k > l) - (k < l)
        sij = (i > j) - (i < j)
        wx, wy = w[skl], w[-sij]
        if j == k:
            rhs.add_series(cell, cur_x[(i, l)], 0, wx[1], window)
            rhs.add_series(cell, cur_y[(i, l)], 1, wy[-1], window)
        if i == l:
            rhs.add_series(cell, cur_x[(k, j)], 0, wx[-1], window)
            rhs.add_series(cell, cur_y[(k, j)], 1, wy[1], window)
        ux, uy = u[skl, parity_sign(k + l)], u[sij, parity_sign(i + j)]
        if i == k:
            rhs.add_series(cell, cur_x[(l, j)], 0, ux[-1], window)
            rhs.add_series(cell, cur_y[(j, l)], 1, uy[1], window)
        if j == l:
            rhs.add_series(cell, cur_x[(i, k)], 0, ux[1], window)
            rhs.add_series(cell, cur_y[(k, i)], 1, uy[-1], window)

    found = [((i, j, k, l), a, b, diff)
             for a, b, (j, l), (i, k), diff in lhs.mismatches(rhs, window)]
    return min(found, key=lambda m: m[:3], default=None), window


def check_currents(dim: int, cutoff: int) -> Report:
    report = Report("verify currents", {"n": dim, "cutoff": cutoff})
    with timer(report):
        mism, window = currents_mismatch(dim, cutoff)
        detail = None
        if mism is not None:
            pair, a, b, diff = mism
            detail = f"currents {pair} monomial x^{a} y^{b} residual {diff}"
        report.add(f"current-relations [window {window}]", mism is None, detail)
    return report
