"""Caps in AG(n, p) built from admissible digit sets, with exact certificates."""

from .zp import (
    DigitSetPair,
    EquationClassPartition,
    LineEquation,
    Prime,
    digit_pair,
    equation_classes,
    equation_str,
    is_prime,
    make_line_equation,
    normalize_digit_set,
)
from .progressions import (
    ConstraintSystem,
    ProgressionTable,
    build_constraint_system,
    enumerate_progressions,
)
from .reducibility import (
    ReductionTrace,
    digit_reduce,
    matrix_reduce,
    rref,
)
from .cone import (
    ConeCertificate,
    cone_trivial,
    verify_certificate,
)

__all__ = [
    "ConeCertificate",
    "ConstraintSystem",
    "DigitSetPair",
    "EquationClassPartition",
    "LineEquation",
    "Prime",
    "ProgressionTable",
    "ReductionTrace",
    "build_constraint_system",
    "cone_trivial",
    "digit_pair",
    "digit_reduce",
    "enumerate_progressions",
    "equation_classes",
    "equation_str",
    "is_prime",
    "make_line_equation",
    "matrix_reduce",
    "normalize_digit_set",
    "rref",
    "verify_certificate",
]
