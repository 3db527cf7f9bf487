"""The affine Lie algebra a_{N-1}^(1) as a sparse module over Q[parameters].

Canonical basis symbols:

  * ``CENTRAL``            -- the central element c,
  * ``("e", i, j, n)``     -- off-diagonal e_ij^(n), 1 <= i != j <= N, n in Z,
  * ``("h", i, n)``        -- Cartan h_i^(n) = e_ii^(n) - e_{i+1,i+1}^(n),
                              1 <= i <= N-1.

Diagonal generators are never stored: e_ii^(n) only exists through its
Cartan expansion, so the trace-zero constraint is unrepresentable rather
than merely checked.  The bracket implements

  [e_ij^(m), e_kl^(n)] = d_jk e_il^(m+n) - d_il e_kj^(m+n)
                         + m c d_{m+n,0} (d_il d_jk - d_ij d_kl / N)

bilinearly, with [c, -] = 0.  The levels only place the result at m+n and
scale the central term, so ``bracket`` reads a level-free table of
structure constants per N, keyed by the two basis symbols without their
levels and filled once per pair from this defining formula.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import add_coeff
from .symcomb import SymbolCombination

CENTRAL = ("c",)


def off(i: int, j: int, n: int):
    if i == j:
        raise ValueError("off-diagonal symbol needs i != j")
    return ("e", i, j, n)


def cartan(i: int, n: int):
    return ("h", i, n)


class LoopElement(SymbolCombination):
    """Element of a_{N-1}^(1): sparse symbol -> coefficient map."""

    __slots__ = ()

    @staticmethod
    def symbol_str(sym) -> str:
        if sym == CENTRAL:
            return "c"
        tag = sym[0]
        if tag == "e":
            return f"e[{sym[1]},{sym[2]}]^({sym[3]})"
        return f"h[{sym[1]}]^({sym[2]})"


def zero(dim: int) -> LoopElement:
    return LoopElement(dim, {})


def central(dim: int, coeff=1) -> LoopElement:
    el = zero(dim)
    el.add_term(CENTRAL, coeff)
    return el


# (N, i) -> ((l, weight of h_l), ...) in the Cartan expansion of e_ii
_CARTAN_WEIGHTS: dict = {}


def _cartan_weights(dim: int, i: int) -> tuple:
    ws = _CARTAN_WEIGHTS.get((dim, i))
    if ws is None:
        ws = _CARTAN_WEIGHTS[(dim, i)] = tuple(
            (l, Fraction(-l, dim) if l < i else Fraction(dim - l, dim))
            for l in range(1, dim)
        )
    return ws


def _add_e(out: LoopElement, i: int, j: int, n: int, coeff) -> None:
    """Accumulate coeff * e_ij^(n), expanding diagonals into Cartans."""
    if i != j:
        add_coeff(out.coeffs, off(i, j, n), coeff)
        return
    for l, w in _cartan_weights(out.dim, i):
        add_coeff(out.coeffs, cartan(l, n), coeff * w)


def inject(dim: int, i: int, j: int, n: int) -> LoopElement:
    """The generator e_ij^(n) in canonical form (Cartan basis on the diagonal)."""
    if not (1 <= i <= dim and 1 <= j <= dim):
        raise ValueError(f"index out of range for N={dim}: ({i},{j})")
    out = zero(dim)
    _add_e(out, i, j, n, 1)
    return out


def _bracket_ee(out: LoopElement, i, j, m, k, l, n, coeff) -> None:
    """Accumulate coeff * [e_ij^(m), e_kl^(n)] into out."""
    dim = out.dim
    if j == k:
        _add_e(out, i, l, m + n, coeff)
    if i == l:
        _add_e(out, k, j, m + n, -coeff)
    if m + n == 0 and m != 0:
        w = Fraction(0)
        if i == l and j == k:
            w += 1
        if i == j and k == l:
            w -= Fraction(1, dim)
        if w:
            out.add_term(CENTRAL, coeff * (m * w))


def _as_e_terms(dim: int, sym):
    """Expand a basis symbol into (i, j, level, int) e-generator terms."""
    tag = sym[0]
    if tag == "e":
        return ((sym[1], sym[2], sym[3], 1),)
    i, n = sym[1], sym[2]
    return ((i, i, n, 1), (i + 1, i + 1, n, -1))


# (N, shape_a, shape_b) -> (((symbol template, rational), ...), central
# weight), a shape being a basis symbol without its level; at most
# (N^2-1)^2 entries per N, whatever the levels
_STRUCTURE: dict = {}


def _structure(dim: int, shape_a: tuple, shape_b: tuple) -> tuple:
    """The level-free bracket of two basis shapes, filled from _bracket_ee.

    [a^(m), b^(n)] = sum_t f_t * t^(m+n) + m w c d_{m+n,0}: the levels only
    place the result and scale the central term, so the reference levels
    (1, -1) give every f_t and w.
    """
    ref = zero(dim)
    for i, j, _, fa in _as_e_terms(dim, shape_a + (1,)):
        for k, l, _, fb in _as_e_terms(dim, shape_b + (-1,)):
            _bracket_ee(ref, i, j, 1, k, l, -1, fa * fb)
    w = ref.coeffs.pop(CENTRAL, 0)
    terms = tuple((sym[:-1], c) for sym, c in ref.coeffs.items())
    entry = _STRUCTURE[(dim, shape_a, shape_b)] = (terms, w)
    return entry


def bracket(a: LoopElement, b: LoopElement) -> LoopElement:
    if a.dim != b.dim:
        raise ValueError(f"rank mismatch: N={a.dim} vs N={b.dim}")
    dim = a.dim
    out = zero(dim)
    coeffs = out.coeffs
    for sa, ca in a.coeffs.items():
        if sa == CENTRAL:
            continue
        shape_a, m = sa[:-1], sa[-1]
        for sb, cb in b.coeffs.items():
            if sb == CENTRAL:
                continue
            key = (dim, shape_a, sb[:-1])
            terms, w = _STRUCTURE.get(key) or _structure(*key)
            level = m + sb[-1]
            central = w if m and not level else 0
            if not (terms or central):
                continue
            c = ca * cb
            for tmpl, f in terms:
                add_coeff(coeffs, tmpl + (level,), c * f)
            if central:
                add_coeff(coeffs, CENTRAL, c * (m * central))
    return out


def jacobi_residual(a: LoopElement, b: LoopElement, c: LoopElement) -> LoopElement:
    return bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) + bracket(c, bracket(a, b))


def basis_symbols(dim: int, max_level: int, include_central: bool = True):
    """All canonical basis symbols with |level| <= max_level, in a fixed order."""
    syms = []
    if include_central:
        syms.append(CENTRAL)
    for n in range(-max_level, max_level + 1):
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                if i != j:
                    syms.append(off(i, j, n))
        for i in range(1, dim):
            syms.append(cartan(i, n))
    return syms


def unit(dim: int, sym) -> LoopElement:
    el = zero(dim)
    el.add_term(sym, 1)
    return el
