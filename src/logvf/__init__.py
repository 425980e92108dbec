"""Exact bases and exponents for logarithmic vector fields of weighted line arrangements.

Given finitely many lines through the origin of K^2, each with a positive
integer multiplicity, the derivations theta = f*dx + g*dy for which every
line's defining form alpha divides theta(alpha) to the line's multiplicity
form a free module of rank 2.  This package constructs homogeneous bases for
that module with exact arithmetic (over Q or any prime field), verifies them
with Saito's criterion, reads off the exponents, and ships the closed-form
and experimental consequences of the construction.
"""

from .analysis import (
    ExperimentRow,
    NoGenericFormError,
    PropositionReport,
    StepTrace,
    find_generic_form,
    frobenius_arrangement,
    frobenius_basis,
    frobenius_derivation,
    predicted_difference_two,
    proposition_experiment,
    trace_chain,
    unbalanced_exponents,
)
from .arrangement import LinearForm, Multiarrangement, all_hyperplanes
from .basis import (
    BasisPair,
    Branch,
    build_basis,
    exponents,
    update_basis,
    verify_basis,
)
from .derivation import Derivation, saito_determinant
from .field import RATIONALS, Field
from .oracle import dim_degree, dimension_table, exponents_by_oracle
from .poly import HomogPoly, InexactDivisionError

__version__ = "0.1.0"

__all__ = [
    "BasisPair",
    "Branch",
    "Derivation",
    "ExperimentRow",
    "Field",
    "HomogPoly",
    "InexactDivisionError",
    "LinearForm",
    "Multiarrangement",
    "NoGenericFormError",
    "PropositionReport",
    "RATIONALS",
    "StepTrace",
    "all_hyperplanes",
    "build_basis",
    "dim_degree",
    "dimension_table",
    "exponents",
    "exponents_by_oracle",
    "find_generic_form",
    "frobenius_arrangement",
    "frobenius_basis",
    "frobenius_derivation",
    "predicted_difference_two",
    "proposition_experiment",
    "saito_determinant",
    "trace_chain",
    "unbalanced_exponents",
    "update_basis",
    "verify_basis",
    "__version__",
]
