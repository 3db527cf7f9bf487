"""Exact scalar arithmetic underlying every other module.

Three layers, all exact and immutable:

  * ``Fraction`` (stdlib) is the ground field of rationals,
  * ``ParamPoly`` -- sparse multivariate polynomials in named formal
    parameters (alpha, mu_i, kappa_ij, ...) with exact rational
    coefficients, each stored as an ``int`` when integral and as a
    ``Fraction`` (denominator > 1) otherwise,
  * ``SpectralLaurent`` -- sparse Laurent polynomials in spectral
    variables (x, y, x1, ...) with coefficients in Q[parameters].

Both polynomial types are their terms: a variable belongs to a
polynomial when it occurs in one of its terms.

Every coefficient, in every container (``SpectralLaurent`` terms, linear
combinations of ``symcomb``, bracket tables, elimination right-hand
sides), is plain: an ``int``, a ``Fraction`` with denominator > 1, or a
``ParamPoly`` in which some parameter occurs.  ``ParamPoly`` arithmetic
and ``parse_param_poly`` return that form, so a constant never stays a
``ParamPoly`` and products of constants are products of numbers.  A sum
or product of two numbers is Python's own (``Fraction(1, 2) * 2`` is
``Fraction(2, 1)``), so containers pass it through ``plain``, the one
normaliser.  ``terms_of`` reads any coefficient as its monomial ->
rational map.

The sparse map an object keeps, in every module, stores no zero, so two
objects are equal exactly when their maps are.  Three kernels hold that
rule, and every such map is accumulated through them: ``add_coeff``
adds one coefficient into a map in place, ``merged`` forms the sum or
difference of two coefficient maps, and ``add_entry`` adds an element
(anything with ``+`` and ``is_zero()``) into a two-level map, dropping
an inner map it empties.

No quotient is ever a value: every identity is multiplied through by a
declared clearing polynomial, and a division is taken only where it is
exact.  There is one long division, ``ParamPoly.exact_div``;
``laurent_exact_div`` shifts its operands into the polynomial cone,
flattens the spectral variables that occur and the parameters into one
polynomial and calls it.  No gcd is ever taken.  One ``term_str``
renders every signed term.

The parameter ``eps`` is involutive: every monomial reduces eps-exponents
mod 2, so an identity verified with symbolic eps holds for eps = +1 and
eps = -1 simultaneously.
"""

from __future__ import annotations

from fractions import Fraction

# names whose square is 1; exponents are reduced mod 2 on every monomial
INVOLUTIVE = frozenset({"eps"})

# monomial: sorted tuple of (name, exponent) pairs, exponents nonzero
Monomial = tuple


class AlphabetError(ValueError):
    """Raised when a substitution names a variable that occurs in no term of its operand."""


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def _rational(q):
    """The stored form of a rational q: the int it equals when integral,
    else the Fraction itself; products by an int are cheaper."""
    return q.numerator if q.denominator == 1 else q


def _mono_normal(pairs) -> Monomial:
    out = []
    for name, exp in pairs:
        if name in INVOLUTIVE:
            exp %= 2
        if exp:
            out.append((name, exp))
    out.sort()
    return tuple(out)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    m = dict(a)
    for name, exp in b:
        m[name] = m.get(name, 0) + exp
    return _mono_normal(m.items())


class ParamPoly:
    """Sparse polynomial in named formal parameters with exact rational
    coefficients, stored as ``int`` when integral and ``Fraction`` otherwise.

    Every ``ParamPoly`` is built in this module, which keeps that form, and
    its arithmetic returns the plain value of the result: the number it
    equals when no parameter is left."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    @classmethod
    def variable(cls, name: str) -> "ParamPoly":
        return cls({((name, 1),): 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other):
        """The terms of an exact operand, or NotImplemented."""
        if isinstance(other, ParamPoly):
            return other.terms
        if isinstance(other, (int, Fraction)):
            return terms_of(other)
        return NotImplemented

    def __add__(self, other):
        ot = self._coerce(other)
        if ot is NotImplemented:
            return NotImplemented
        return _from_terms(merged(self.terms, ot))

    __radd__ = __add__

    def __neg__(self):
        return _from_terms({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        ot = self._coerce(other)
        if ot is NotImplemented:
            return NotImplemented
        return _from_terms(merged(self.terms, ot, -1))

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, q):
        """self * q for a rational scalar q."""
        if not q:
            return 0
        q = _rational(q)
        if q == 1:
            return _from_terms(self.terms)
        if q == -1:
            return -self
        return _from_terms({m: _rational(c * q) for m, c in self.terms.items()})

    def __mul__(self, other):
        # constant operands scale the terms directly
        if isinstance(other, ParamPoly):
            ot = other.terms
            if len(ot) == 1 and () in ot:
                return self._scaled(ot[()])
        elif isinstance(other, (int, Fraction)):
            return self._scaled(other)
        else:
            return NotImplemented
        terms: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in ot.items():
                add_coeff(terms, _mono_mul(ma, mb), ca * cb)
        return _from_terms(terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = 1
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        ot = self._coerce(other)
        if ot is NotImplemented:
            return NotImplemented
        return self.terms == ot

    # -- exact division ----------------------------------------------------

    def exact_div(self, den):
        """Divide by ``den`` (a ParamPoly or a number) exactly; raise
        ExactDivisionError on remainder."""
        dt = terms_of(den)
        if not dt:
            raise ZeroDivisionError("division by zero polynomial")
        if len(dt) == 1 and () in dt:
            q = dt[()]
            return _from_terms({m: _rational(Fraction(c) / q) for m, c in self.terms.items()})
        allvars = sorted({n for m in self.terms for n, _ in m}
                         | {n for m in dt for n, _ in m})

        def key(mono):
            d = dict(mono)
            return tuple(d.get(v, 0) for v in allvars)

        rem = dict(self.terms)
        quot: dict = {}
        lt_den = max(dt, key=key)
        c_den = dt[lt_den]
        d_den = dict(lt_den)
        while rem:
            lt = max(rem, key=key)
            d = dict(lt)
            qm = {}
            for name in set(d) | set(d_den):
                e = d.get(name, 0) - d_den.get(name, 0)
                if e < 0:
                    raise ExactDivisionError("inexact polynomial division")
                if e:
                    qm[name] = e
            qmono = _mono_normal(qm.items())
            qc = Fraction(rem[lt]) / c_den
            add_coeff(quot, qmono, qc)
            for m, c in dt.items():
                add_coeff(rem, _mono_mul(qmono, m), -qc * c)
        return _from_terms(quot)

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        return render_terms(self.terms)

    __repr__ = __str__


def _from_terms(terms: dict):
    """The plain value of a monomial -> stored-rational map: its number
    when no parameter occurs, else a ParamPoly over it."""
    if len(terms) > 1 or (terms and () not in terms):
        return ParamPoly(terms)
    return terms.get((), 0)


def plain(value):
    """The stored form of a coefficient: the int or Fraction (denominator
    > 1) it equals when it is constant, else the ParamPoly itself.  A float,
    or anything else, raises TypeError."""
    t = type(value)
    if t is int:
        return value
    if t is ParamPoly:
        terms = value.terms
        if len(terms) > 1 or (terms and () not in terms):
            return value
        return terms.get((), 0)
    if t is Fraction:
        return _rational(value)
    if isinstance(value, int):
        return int(value)  # a bool is stored as the int it equals
    raise TypeError(f"a coefficient is an int, a Fraction or a ParamPoly, not {t.__name__}")


def add_coeff(terms: dict, key, c) -> None:
    """terms[key] += c in place, for a coefficient c; the sum is stored
    plain and a zero sum is dropped."""
    s = terms.get(key)
    s = plain(c) if s is None else plain(s + c)
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


def merged(a: dict, b: dict, sign: int = 1) -> dict:
    """A new map a + sign * b, for sign +1 or -1 and two maps of nonzero
    plain coefficients; neither input is modified."""
    out = dict(a)
    for key, c in b.items():
        s = out.get(key)
        if s is None:
            out[key] = c if sign == 1 else -c
            continue
        s = plain(s + c if sign == 1 else s - c)
        if s:
            out[key] = s
        else:
            del out[key]
    return out


def add_entry(table: dict, outer, inner, elem) -> None:
    """table[outer][inner] += elem in place, for an element with ``+`` and
    ``is_zero()``; a zero sum is dropped, and so is an inner map it empties."""
    row = table.get(outer)
    if row is None:
        if not elem.is_zero():
            table[outer] = {inner: elem}
        return
    cur = row.get(inner)
    if cur is not None:
        elem = cur + elem
    if not elem.is_zero():
        row[inner] = elem
    elif cur is not None:
        del row[inner]
        if not row:
            del table[outer]


def terms_of(value) -> dict:
    """The monomial -> rational map of a coefficient, for its readers: a
    ParamPoly's own terms (not to be written to), ``{(): c}`` for a nonzero
    number c and ``{}`` for 0."""
    if isinstance(value, ParamPoly):
        return value.terms
    c = plain(value)
    return {(): c} if c else {}


def coeff_key(value):
    """An exact, hashable key of a plain coefficient: a number is itself
    and a ParamPoly its sorted terms, so equal values have equal keys."""
    return tuple(sorted(value.terms.items())) if isinstance(value, ParamPoly) else value


def term_str(c, body: str) -> str:
    """One signed term ``c*body``; a coefficient with several terms is
    bracketed, and an empty body leaves the coefficient alone."""
    if body and c == 1:
        return body
    if body and c == -1:
        return f"-{body}"
    cs = str(c)
    if "+" in cs[1:] or "-" in cs[1:]:
        cs = f"({cs})"
    return f"{cs}*{body}" if body else cs


def render_terms(terms: dict) -> str:
    """Canonical deterministic rendering of a monomial->coefficient map."""
    if not terms:
        return "0"
    chunks = []
    for mono in sorted(terms):
        body = "*".join(f"{name}^{exp}" if exp != 1 else name for name, exp in mono)
        piece = term_str(terms[mono], body)
        chunks.append(piece if not chunks or piece.startswith("-") else "+" + piece)
    return "".join(chunks)


def parse_param_poly(text: str):
    """Parse the canonical rendering produced by ``ParamPoly.__str__`` into
    its plain value."""
    text = text.strip()
    if text == "0":
        return 0
    import re

    terms: dict = {}
    for piece in re.findall(r"[+-]?[^+-]+", text.replace(" ", "")):
        sign = 1
        if piece.startswith("+"):
            piece = piece[1:]
        elif piece.startswith("-"):
            sign = -1
            piece = piece[1:]
        coeff = 1
        mono = []
        for factor in piece.split("*"):
            if re.fullmatch(r"\d+(/\d+)?", factor):
                coeff *= Fraction(factor)
            else:
                m = re.fullmatch(r"([A-Za-z_]\w*)(?:\^(-?\d+))?", factor)
                if not m:
                    raise ValueError(f"cannot parse term factor {factor!r}")
                mono.append((m.group(1), int(m.group(2) or 1)))
        add_coeff(terms, _mono_normal(mono), sign * coeff)
    return _from_terms(terms)


class SpectralLaurent:
    """Sparse Laurent polynomial in spectral variables with plain
    coefficients in Q[parameters]."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms  # Monomial (int exponents, any sign) -> plain coefficient

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value) -> "SpectralLaurent":
        c = plain(value)
        return cls({(): c} if c else {})

    @classmethod
    def variable(cls, name: str, exp: int = 1) -> "SpectralLaurent":
        if exp == 0:
            return cls.const(1)
        return cls({((name, exp),): 1})

    @classmethod
    def monomial(cls, coeff, powers: dict) -> "SpectralLaurent":
        c = plain(coeff)
        if not c:
            return cls({})
        key = tuple(sorted((n, e) for n, e in powers.items() if e))
        return cls({key: c})

    @classmethod
    def zero(cls) -> "SpectralLaurent":
        return cls({})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> frozenset:
        """The spectral variables that occur in some term."""
        return frozenset(name for m in self.terms for name, _ in m)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "SpectralLaurent":
        if isinstance(other, SpectralLaurent):
            return other
        if isinstance(other, (int, Fraction, ParamPoly)):
            return SpectralLaurent.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return SpectralLaurent(merged(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return SpectralLaurent({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return SpectralLaurent(merged(self.terms, other.terms, -1))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                if ma and mb:
                    m = dict(ma)
                    for name, exp in mb:
                        e = m.get(name, 0) + exp
                        if e:
                            m[name] = e
                        else:
                            del m[name]
                    key = tuple(sorted(m.items()))
                else:
                    key = ma or mb
                add_coeff(terms, key, ca * cb)
        return SpectralLaurent(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    # -- calculus and substitution ------------------------------------------

    def derivative(self, var: str) -> "SpectralLaurent":
        terms: dict = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.get(var, 0)
            if e == 0:
                continue
            if e == 1:
                del d[var]
            else:
                d[var] = e - 1
            add_coeff(terms, tuple(sorted(d.items())), c * e)
        return SpectralLaurent(terms)

    def substitute(self, var: str, sign: int, powers: dict) -> "SpectralLaurent":
        """Map ``var -> sign * prod(name**e for name, e in powers)`` exactly.

        Only monomial images (with an overall sign) are supported.
        """
        occurring = self.variables()
        if var not in occurring:
            raise AlphabetError(f"variable {var!r} does not occur in {sorted(occurring)}")
        if sign not in (1, -1):
            raise ValueError("image sign must be +1 or -1")
        terms: dict = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.pop(var, 0)
            if e:
                for name, p in powers.items():
                    ne = d.get(name, 0) + e * p
                    if ne:
                        d[name] = ne
                    else:
                        d.pop(name, None)
                if sign == -1 and e % 2:
                    c = -c
            add_coeff(terms, tuple(sorted(d.items())), c)
        return SpectralLaurent(terms)

    def degree(self, var: str) -> int:
        """Maximum exponent of ``var`` (0 for the zero polynomial)."""
        best = 0
        for m in self.terms:
            for name, e in m:
                if name == var and e > best:
                    best = e
        return best

    def min_degree(self, var: str) -> int:
        """Minimum exponent of ``var`` over the support (0 for the zero
        polynomial; positive when every term carries ``var``)."""
        return min((dict(m).get(var, 0) for m in self.terms), default=0)

    def __str__(self):
        return render_terms(self.terms)

    __repr__ = __str__


def _flatten(p: SpectralLaurent, svars: frozenset) -> ParamPoly:
    """``p`` shifted into the polynomial cone in the spectral variables
    ``svars``, as one polynomial in them and the parameters."""
    low = {v: p.min_degree(v) for v in svars}
    terms = {}
    for m, c in p.terms.items():
        d = dict(m)
        spec = [(v, d.get(v, 0) - e) for v, e in low.items() if d.get(v, 0) != e]
        for pm, q in terms_of(c).items():
            if any(name in svars for name, _ in pm):
                raise ValueError(f"a parameter of {c} is named like a spectral variable")
            terms[tuple(sorted(spec + list(pm)))] = q
    return ParamPoly(terms)


def laurent_exact_div(num: SpectralLaurent, den: SpectralLaurent) -> SpectralLaurent:
    """Exact division in the Laurent ring (monomials are units).

    Both operands are shifted into the polynomial cone in the spectral
    variables that occur in either, and flattened into one polynomial with
    the parameters, so the division itself is ``ParamPoly.exact_div``; the
    quotient is split back into spectral monomials and shifted back.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by zero Laurent polynomial")
    if num.is_zero():
        return SpectralLaurent({})
    svars = num.variables() | den.variables()
    q = _flatten(num, svars).exact_div(_flatten(den, svars))
    back = {v: num.min_degree(v) - den.min_degree(v) for v in svars}
    split: dict = {}
    for m, c in terms_of(q).items():
        spec = dict(back)
        params = []
        for name, e in m:
            if name in svars:
                spec[name] += e
            else:
                params.append((name, e))
        key = tuple(sorted((v, e) for v, e in spec.items() if e))
        split.setdefault(key, {})[tuple(params)] = c
    return SpectralLaurent({k: _from_terms(t) for k, t in split.items()})
