"""Symmetric q-calculus, conic-domain starlike classes, and bound verification."""

__version__ = "0.1.0"

from .conic import ClassParams, ConicCoefficients, conic_coefficients, in_conic_domain
from .qcalc import q_number, symmetric_q_number, q_derivative, symmetric_q_derivative
from .series import TruncatedSeries

__all__ = [
    "__version__",
    "ClassParams",
    "ConicCoefficients",
    "TruncatedSeries",
    "conic_coefficients",
    "in_conic_domain",
    "q_derivative",
    "q_number",
    "symmetric_q_derivative",
    "symmetric_q_number",
]
