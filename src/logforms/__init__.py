"""Exact computations with logarithmic vector fields and free divisors."""

from .forms import (
    CheckedFormsModule,
    GradedDimensionTable,
    forms_free,
    forms_pullback,
    pd_check,
    torsion_length,
)
from .groebner import (
    StabilizationError,
    groebner_basis,
    quotient_dimension,
    syzygy_module,
)
from .logarithmic import (
    Divisor,
    FreenessVerdict,
    LogBasis,
    derlog,
    derlog_h,
    euler_field,
    is_free,
    log_form_generators,
    saito_check,
)
from .module import INFINITE, FreeElement, Grading, ModulePresentation
from .order import MonomialOrder
from .poly import ParseError, Poly, parse_poly, quasihomogeneous_weights

__all__ = [
    "CheckedFormsModule",
    "Divisor",
    "FreeElement",
    "FreenessVerdict",
    "GradedDimensionTable",
    "Grading",
    "INFINITE",
    "LogBasis",
    "ModulePresentation",
    "MonomialOrder",
    "ParseError",
    "Poly",
    "StabilizationError",
    "derlog",
    "derlog_h",
    "euler_field",
    "forms_free",
    "forms_pullback",
    "groebner_basis",
    "is_free",
    "log_form_generators",
    "parse_poly",
    "pd_check",
    "quasihomogeneous_weights",
    "quotient_dimension",
    "saito_check",
    "syzygy_module",
    "torsion_length",
]
