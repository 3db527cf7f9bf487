"""Shared base for sparse linear combinations of basis symbols.

Both the affine loop algebra and the Onsager algebra represent elements
as a sparse map from canonical basis symbols to coefficients, each kept
in the plain form of ``exactnum.plain``; the map stores no zero, and its
sums go through the ``exactnum`` kernels.

``unpreserved_pairs`` is the one bracket-morphism certificate: the
embedding of the Onsager algebra into the loop algebra, both involutions
and the Askey-Wilson table isomorphism each take their first failing
pair from it.
"""

from __future__ import annotations

from .exactnum import add_coeff, merged, plain, term_str


class SymbolCombination:
    """Sparse map symbol -> plain coefficient over a rank-N algebra."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: dict | None = None):
        self.dim = dim
        self.coeffs = coeffs if coeffs is not None else {}

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other):
        if self.dim != other.dim:
            raise ValueError(f"rank mismatch: N={self.dim} vs N={other.dim}")

    def __add__(self, other):
        self._check(other)
        return type(self)(self.dim, merged(self.coeffs, other.coeffs))

    def __neg__(self):
        return type(self)(self.dim, {s: -c for s, c in self.coeffs.items()})

    def __sub__(self, other):
        self._check(other)
        return type(self)(self.dim, merged(self.coeffs, other.coeffs, -1))

    def scale(self, factor):
        """Multiply by an int, a Fraction or a ParamPoly."""
        factor = plain(factor)
        if not factor:
            return type(self)(self.dim, {})
        out = {}
        for sym, c in self.coeffs.items():
            p = plain(c * factor)
            if p:
                out[sym] = p
        return type(self)(self.dim, out)

    def add_term(self, sym, coeff) -> None:
        """In-place accumulation while an element is being assembled."""
        add_coeff(self.coeffs, sym, coeff)

    def __eq__(self, other):
        if not isinstance(other, SymbolCombination):
            return NotImplemented
        return self.dim == other.dim and self.coeffs == other.coeffs

    @staticmethod
    def symbol_str(sym) -> str:
        return repr(sym)

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(term_str(self.coeffs[sym], self.symbol_str(sym))
                          for sym in sorted(self.coeffs))

    __repr__ = __str__


def unpreserved_pairs(pairs, phi, units, images, bracket_src, bracket_dst):
    """Yield (a, b, phi([u_a, u_b]) - [images[a], images[b]]) for each pair
    (a, b), in the caller's order, whose residual is nonzero."""
    for a, b in pairs:
        r = phi(bracket_src(units[a], units[b])) - bracket_dst(images[a], images[b])
        if not r.is_zero():
            yield a, b, r
