"""Series-valued matrices over tensor legs.

``GeneratorMatrix`` is a truncated generating series of N x N matrices of
Lie-algebra elements: a map spectral exponent -> {(i, j): element}, with
1-based indices.  ``BiSeries`` is the two-leg, two-variable object
obtained from products and brackets of two generator matrices living on
different legs; its entries are maps (x-exponent, y-exponent) -> element.
A ``BiSeries`` is always in (x, y), with leg 1 in x and leg 2 in y.  Every
right side of a two-leg relation, [G_1(x), S] + [G'_2(y), T] for scalar
two-leg matrices S and T, comes from one kernel, ``commutator_cells``: it
reads the generator matrices as flat (exponent, symbol, coefficient)
lists and forms one cell at a time, optionally times a multiplier pair.
``BiSeries.commutator_scalar`` fills a ``BiSeries`` from every cell, and
extraction reads only the cells it needs; no leg-embedded series is
formed.
With the same generator matrix on both legs, ``bracket_cross`` forms one
side of each pair that the leg swap (x with y, leg 1 with leg 2)
exchanges, and ``windowed`` keeps that matrix one object when both legs
reach the same exponents.
Both store only nonzero entries, and no exponent or cell maps to an empty
map, so an absent entry is zero; every sum goes through
``exactnum.add_entry``, which keeps that rule, save the two-leg kernel's,
which drops its zeros itself.

Both containers are agnostic about the element type: anything with
__add__, __sub__, unary minus, .scale(coefficient) and .is_zero() works
(LoopElement and OnsagerElement both do); the two-leg kernel also reads
an element's ``coeffs`` and builds one as ``type(el)(el.dim, coeffs)``,
as every ``SymbolCombination`` allows.  A
coefficient is an int, a Fraction or a ParamPoly, constant ones included.
"""

from __future__ import annotations

from itertools import product

from .exactnum import ParamPoly, SpectralLaurent, _from_terms, _rational, add_entry, plain, terms_of
from .report import mono_str


class GeneratorMatrix:
    """Map spectral exponent -> {(i, j): nonzero Lie element}."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: dict | None = None):
        self.dim = dim
        self.coeffs = coeffs if coeffs is not None else {}

    def entry(self, exp: int, i: int, j: int):
        """The element at 1-based (i, j) of exponent exp; None when it is zero."""
        return self.coeffs.get(exp, {}).get((i, j))

    def restricted(self, lo: int, hi: int) -> "GeneratorMatrix":
        """The coefficients at exponents lo..hi only (matrices are shared)."""
        kept = {e: m for e, m in self.coeffs.items() if lo <= e <= hi}
        return GeneratorMatrix(self.dim, kept)

    def map_entries(self, fn) -> "GeneratorMatrix":
        """fn applied to every entry, for a linear fn (zero to zero); the
        zeros it produces are dropped."""
        out = GeneratorMatrix(self.dim)
        for e, m in self.coeffs.items():
            for ij, v in m.items():
                add_entry(out.coeffs, e, ij, fn(v))
        return out

    def __add__(self, other: "GeneratorMatrix") -> "GeneratorMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = GeneratorMatrix(self.dim, {e: dict(m) for e, m in self.coeffs.items()})
        for e, m in other.coeffs.items():
            for ij, v in m.items():
                add_entry(out.coeffs, e, ij, v)
        return out

    def shift_scale(self, fn_exp, fn_coeff=None) -> "GeneratorMatrix":
        """Remap exponents (and optionally scale coefficients per exponent)."""
        out = GeneratorMatrix(self.dim)
        for e, m in self.coeffs.items():
            s = None if fn_coeff is None else fn_coeff(e)
            for ij, v in m.items():
                add_entry(out.coeffs, fn_exp(e), ij, v if s is None else v.scale(s))
        return out

    def transpose(self) -> "GeneratorMatrix":
        out = {e: {(j, i): v for (i, j), v in m.items()} for e, m in self.coeffs.items()}
        return GeneratorMatrix(self.dim, out)

    def first_trace(self):
        """(exponent, trace) of the first coefficient, in insertion order,
        whose trace is nonzero; None when every coefficient is traceless."""
        for e, m in self.coeffs.items():
            diag = [m[i, i] for i in range(1, self.dim + 1) if (i, i) in m]
            if diag:
                tr = sum(diag[1:], diag[0])
                if not tr.is_zero():
                    return e, tr
        return None

    def first_mismatch(self, other: "GeneratorMatrix", window: tuple):
        """Compare coefficient-wise at the exponents window[0]..window[1];
        returns (exp, i, j, left, right), a zero side as None, or None.
        The first mismatch is in (exp, i, j) order."""
        for e in sorted(set(self.coeffs) | set(other.coeffs)):
            if not (window[0] <= e <= window[1]):
                continue
            ma = self.coeffs.get(e, {})
            mb = other.coeffs.get(e, {})
            for ij in sorted(set(ma) | set(mb)):
                a = ma.get(ij)
                b = mb.get(ij)
                if a is None or b is None or not (a - b).is_zero():
                    return (e, *ij, a, b)
        return None


def entry_str(elem) -> str:
    """An entry of a generating matrix as text, a zero one (None) as 0."""
    return "0" if elem is None else str(elem)


def laurent_xy_terms(p: SpectralLaurent):
    """Flatten a Laurent polynomial in (x, y) into (ex, ey, coeff) triples;
    any other variable raises ``ValueError``."""
    out = []
    for mono, coeff in p.terms.items():
        d = dict(mono)
        extra = set(d) - {"x", "y"}
        if extra:
            raise ValueError(f"unexpected variables {sorted(extra)}")
        out.append((d.get("x", 0), d.get("y", 0), coeff))
    return out


class BiSeries:
    """Two-leg matrix with entries that are (a, b) -> element series maps."""

    __slots__ = ("dim", "data")

    def __init__(self, dim: int, data: dict | None = None):
        self.dim = dim
        self.data = data if data is not None else {}

    # composite index helpers: leg digits are 1-based
    def idx(self, d1: int, d2: int) -> int:
        return (d1 - 1) * self.dim + (d2 - 1)

    def digits(self, idx: int):
        return (idx // self.dim + 1, idx % self.dim + 1)

    # -- constructors -----------------------------------------------------

    @classmethod
    def bracket_cross(cls, gx: GeneratorMatrix, gy: GeneratorMatrix, bracket_fn) -> "BiSeries":
        """[X_1(x), Y_2(y)] for X, Y on distinct legs: entries are brackets.

        The bracket of X_ij at x^a with Y_kl at y^b lands at cell
        (idx(i, k), idx(j, l)), exponents (a, b).  When ``gy is gx``, the
        leg swap P (x with y, leg 1 with leg 2) pairs it with the bracket of
        X_kl at x^b with X_ij at y^a, at (idx(k, i), idx(l, j)), (b, a),
        which is its negative for an antisymmetric ``bracket_fn``; so each
        unordered pair of stored entries is bracketed once, an entry with
        itself not at all.  Every bracket passed here is antisymmetric:
        ``loop_algebra.bracket`` and ``StructTable.bracket`` by construction
        (``set_bracket`` stores one side of each pair), and
        ``onsager.bracket_abstract`` through the reflection identity of
        ``_acc_raw``, which ``check_presentation_agreement`` certifies on
        every ordered basis pair against the loop algebra.
        """
        out = cls(gx.dim)
        if gy is gx:
            flat = [(a, i, j, v) for a, m in gx.coeffs.items() for (i, j), v in m.items()]
            for p, (a, i, j, xe) in enumerate(flat):
                for b, k, l, ye in flat[p + 1:]:
                    br = bracket_fn(xe, ye)
                    if not br.is_zero():
                        add_entry(out.data, (out.idx(i, k), out.idx(j, l)), (a, b), br)
                        add_entry(out.data, (out.idx(k, i), out.idx(l, j)), (b, a), -br)
            return out
        for a, mx in gx.coeffs.items():
            for b, my in gy.coeffs.items():
                for (i, j), xe in mx.items():
                    for (k, l), ye in my.items():
                        add_entry(out.data, (out.idx(i, k), out.idx(j, l)), (a, b),
                                  bracket_fn(xe, ye))
        return out

    @classmethod
    def commutator_scalar(cls, g1: GeneratorMatrix, s: dict, g2: GeneratorMatrix, t: dict,
                          window=None, dens=None) -> "BiSeries":
        """[G_1(x), S] + [G'_2(y), T] for G = ``g1`` on leg 1 (in x), G' =
        ``g2`` on leg 2 (in y) and the scalar two-leg matrices S and T that
        ``s`` and ``t`` map from (row, col) to Laurent polynomials in (x, y).
        Every cell is read from ``commutator_cells``, with its ``window``
        and ``dens``; the entries of G and G' are ``SymbolCombination``s."""
        n = g1.dim
        flat1 = flat_entries(g1)
        cell = commutator_cells(n, flat1, s, flat1 if g2 is g1 else flat_entries(g2), t,
                                window, dens)
        out = cls(n)
        # every entry is of the kind of the first one met
        some = next((v for g in (g1, g2) for m in g.coeffs.values() for v in m.values()), None)
        for i, k, j, l in product(range(1, n + 1), repeat=4):
            ser = cell(i, k, j, l)
            if ser:
                out.data[out.idx(i, k), out.idx(j, l)] = {
                    ab: type(some)(some.dim, coeffs) for ab, coeffs in ser.items()}
        return out

    @classmethod
    def from_scalar(cls, dim: int, scal: dict, elem) -> "BiSeries":
        """Scalar two-leg matrix times a fixed Lie element."""
        out = cls(dim)
        for (r, c), lau in scal.items():
            for ex, ey, coeff in laurent_xy_terms(lau):
                add_entry(out.data, (r, c), (ex, ey), elem.scale(coeff))
        return out

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "BiSeries") -> "BiSeries":
        out = BiSeries(self.dim, {k: dict(v) for k, v in self.data.items()})
        for key, ser in other.data.items():
            for exps, elem in ser.items():
                add_entry(out.data, key, exps, elem)
        return out

    def convolve(self, lau: SpectralLaurent, window=None) -> "BiSeries":
        """Multiply every entry by a scalar Laurent polynomial in (x, y).

        With ``window`` set, a product landing outside max(|a|, |b|) <= window
        is not formed.
        """
        terms = laurent_xy_terms(lau)
        out = BiSeries(self.dim)
        for key, ser in self.data.items():
            for (a, b), elem in ser.items():
                for ex, ey, coeff in terms if window is None else _landing(terms, a, b, window):
                    add_entry(out.data, key, (a + ex, b + ey), elem.scale(coeff))
        return out

    def add_series(self, key, series: dict, slot: int, lau: SpectralLaurent,
                   window: int) -> None:
        """Add a one-variable series {exponent -> element}, its exponents in
        slot 0 (x) or 1 (y), times a scalar Laurent polynomial in (x, y) to
        cell ``key``, forming only the products that land in
        max(|a|, |b|) <= window."""
        terms = laurent_xy_terms(lau)
        for n, elem in series.items():
            a, b = (n, 0) if slot == 0 else (0, n)
            for ex, ey, coeff in _landing(terms, a, b, window):
                add_entry(self.data, key, (a + ex, b + ey), elem.scale(coeff))

    # -- comparison ---------------------------------------------------------

    def mismatches(self, other: "BiSeries", window=None):
        """Every nonzero coefficient of self - other with max(|a|,|b|) <= window
        (every one for window None), as (a, b, row digits, col digits,
        difference), in no fixed order."""
        for key in set(self.data) | set(other.data):
            sa = self.data.get(key, {})
            sb = other.data.get(key, {})
            for exps in set(sa) | set(sb):
                a, b = exps
                if window is not None and max(abs(a), abs(b)) > window:
                    continue
                ea = sa.get(exps)
                eb = sb.get(exps)
                diff = -eb if ea is None else ea if eb is None else ea - eb
                if not diff.is_zero():
                    yield (a, b, self.digits(key[0]), self.digits(key[1]), diff)

    def first_mismatch(self, other: "BiSeries", window=None):
        """The first of ``mismatches`` in (a, b, row, col) order, or None."""
        return min(self.mismatches(other, window), key=lambda m: m[:4], default=None)


def _landing(terms, a, b, window) -> list:
    """The multiplier terms (ex, ey, ...) that shift cell (a, b) into
    max(|a + ex|, |b + ey|) <= window."""
    return [t for t in terms if -window <= a + t[0] <= window and -window <= b + t[1] <= window]


def flat_entries(gm: GeneratorMatrix, rename=None) -> dict:
    """(i, j) -> [(exponent, symbol, coefficient)] over the terms of every
    entry of ``gm``; with a map ``rename``, each symbol s is rename[s]."""
    flat: dict = {}
    for e, m in gm.coeffs.items():
        for ij, v in m.items():
            flat.setdefault(ij, []).extend(
                (e, sym if rename is None else rename[sym], c) for sym, c in v.coeffs.items())
    return flat


def commutator_cells(n: int, flat1: dict, s: dict, flat2: dict, t: dict,
                     window=None, dens=None):
    """The two-leg commutator [G_1(x), S] + [G'_2(y), T], one cell at a time.

    ``flat1`` and ``flat2`` are G and G' by ``flat_entries``, and ``s``
    and ``t`` map (row, col) to the Laurent polynomials in (x, y) of S and
    T.  Returns ``cell(i, k, j, l)``: with R = idx(i,k) and C = idx(j,l),
    cell (R, C) as {(a, b): {symbol: plain coefficient}}, zeros dropped, is
    (sum_m G_im(x) S[(m,k),C] - sum_m S[R,(m,l)] G_mj(x))
    + (sum_m G'_km(y) T[(i,m),C] - sum_m T[R,(j,m)] G'_ml(y)).
    S and T are indexed once, by the cell index and the digit each sum
    leaves fixed, so a cell visits only the products it receives; the sign
    of each sum goes into its index.  Products are gathered per symbol, and
    no element is formed.

    With ``window`` set, a product landing outside max(|a|, |b|) <= window
    is not formed.  ``dens`` is a multiplier pair (d(x), d(y)): the first
    half is multiplied by d(y) and the second by d(x), which clears
    [G_1/d(x), S] + [G'_2/d(y), T] by d(x) d(y).  The multipliers'
    coefficients are split by parameter monomial, and each gathered sum
    goes, times the rational parts, into one positional slot per monomial;
    the slots are joined once.  So every coefficient of G, G', S and T must
    then be rational, else ``ValueError``.
    """
    s_col: dict = {}  # (C, k) -> [(m, terms of S[(m,k),C])]
    s_row: dict = {}  # (R, l) -> [(m, terms of -S[R,(m,l)])]
    t_col: dict = {}  # (C, i) -> [(m, terms of T[(i,m),C])]
    t_row: dict = {}  # (R, j) -> [(m, terms of -T[R,(j,m)])]
    for scal, col, row, leg in ((s, s_col, s_row, 0), (t, t_col, t_row, 1)):
        for (r, c), lau in scal.items():
            terms = laurent_xy_terms(lau)
            # 0-based digits; G meets the digit of its leg, the other is fixed
            rd, cd = divmod(r, n), divmod(c, n)
            col.setdefault((c, rd[1 - leg] + 1), []).append((rd[leg] + 1, terms))
            row.setdefault((r, cd[1 - leg] + 1), []).append(
                (cd[leg] + 1, [(ex, ey, -sc) for ex, ey, sc in terms]))
    if dens is not None:
        coeffs = [c for f in (flat1, flat2) for ts in f.values() for _, _, c in ts]
        coeffs += [c for scal in (s, t) for lau in scal.values() for c in lau.terms.values()]
        if any(isinstance(c, ParamPoly) for c in coeffs):
            raise ValueError("a coefficient is not rational: under a multiplier "
                             "each sum is split by parameter monomial")
        split = [[(ex, ey, terms_of(c)) for ex, ey, c in laurent_xy_terms(d)] for d in dens]
        monos = sorted({m for terms in split for _, _, parts in terms for m in parts})
        # each multiplier term as (ex, ey, [(slot, rational part)])
        dx, dy = ([(ex, ey, [(monos.index(m), c) for m, c in parts.items()])
                   for ex, ey, parts in terms] for terms in split)
    # without multipliers a product lands where it is gathered
    gw = window if dens is None else None

    def cell(i, k, j, l):
        big_r, big_c = (i - 1) * n + k - 1, (j - 1) * n + l - 1
        left: dict = {}
        right = left if dens is None else {}
        for m, terms in s_col.get((big_c, k), ()):
            _add_products(left, flat1.get((i, m), ()), terms, 0, gw)
        for m, terms in s_row.get((big_r, l), ()):
            _add_products(left, flat1.get((m, j), ()), terms, 0, gw)
        for m, terms in t_col.get((big_c, i), ()):
            _add_products(right, flat2.get((k, m), ()), terms, 1, gw)
        for m, terms in t_row.get((big_r, j), ()):
            _add_products(right, flat2.get((m, l), ()), terms, 1, gw)
        out: dict = {}
        if dens is None:
            for (a, b, sym), v in left.items():
                v = plain(v)
                if v:
                    out.setdefault((a, b), {})[sym] = v
            return out
        parts: dict = {}  # (a, b, symbol) -> [rational part per monomial]
        for acc, den in ((left, dy), (right, dx)):
            for (a, b, sym), v in acc.items():
                if v:
                    for ex, ey, cs in den if window is None else _landing(den, a, b, window):
                        key = (a + ex, b + ey, sym)
                        slot = parts.get(key)
                        if slot is None:
                            slot = parts[key] = [0] * len(monos)
                        for p, c in cs:
                            slot[p] += v * c
        for (a, b, sym), slot in parts.items():
            v = _from_terms({m: _rational(c) for m, c in zip(monos, slot) if c})
            if v:
                out.setdefault((a, b), {})[sym] = v
        return out

    return cell


def _add_products(acc: dict, src: list, terms: list, leg: int, window) -> None:
    """acc[(a, b, symbol)] += c sc for each term (e, symbol, c) of an entry
    of G on ``leg`` (0: e is the exponent of x, 1: of y) and each term
    (ex, ey, sc) of a scalar entry that lands in ``window`` (None: all)."""
    for e, sym, c in src:
        a, b = (e, 0) if leg == 0 else (0, e)
        for ex, ey, sc in terms if window is None else _landing(terms, a, b, window):
            key = (a + ex, b + ey, sym)
            acc[key] = acc.get(key, 0) + c * sc


def shift_bound(laurents, names) -> int:
    """Worst per-variable exponent magnitude over a family of multipliers."""
    bound = 0
    for p in laurents:
        for v in names:
            bound = max(bound, p.degree(v), -p.min_degree(v))
    return bound


def window_reach(laurents, var: str, window: int) -> tuple:
    """Exponents of ``var`` in a series that some multiplier term shifts
    into |e| <= window: [-window - max shift, window - min shift]."""
    shifts = [dict(m).get(var, 0) for p in laurents for m in p.terms]
    return -window - max(shifts), window - min(shifts)


def windowed(gx: GeneratorMatrix, gy: GeneratorMatrix, cutoff: int, multipliers) -> tuple:
    """(gx, gy, window) for a two-leg relation between gx(x) and gy(y)
    truncated at exponent ``cutoff`` and multiplied by ``multipliers``.

    The window w = cutoff - shift_bound is where no truncated coefficient
    reaches; each matrix keeps the exponents some multiplier term shifts
    into it, since the rest only reach cells that are never compared.  When
    ``gy is gx`` and both legs keep the same exponents, one restricted
    matrix is returned for both, so ``bracket_cross`` sees one matrix.
    """
    window = cutoff - shift_bound(multipliers, ("x", "y"))
    if window < 0:
        raise ValueError("cutoff too small: empty comparison window")
    reach_x = window_reach(multipliers, "x", window)
    reach_y = window_reach(multipliers, "y", window)
    if gy is gx and reach_x == reach_y:
        g = gx.restricted(*reach_x)
        return g, g, window
    return gx.restricted(*reach_x), gy.restricted(*reach_y), window


def mismatch_detail(mism) -> str:
    a, b, rd, cd, diff = mism
    return f"monomial {mono_str((('x', a), ('y', b)))} entry {rd}->{cd} residual {diff}"
