"""onsaw: exact symbolic verification of affine sl_N r-matrix identities,
the sl_N Onsager algebra, and its classical Askey-Wilson quotients."""

from .exactnum import (
    AlphabetError,
    ExactDivisionError,
    ParamPoly,
    SpectralLaurent,
    laurent_exact_div,
)
from .report import Check, Report

__all__ = [
    "AlphabetError",
    "Check",
    "ExactDivisionError",
    "ParamPoly",
    "Report",
    "SpectralLaurent",
    "laurent_exact_div",
]

__version__ = "0.1.0"
