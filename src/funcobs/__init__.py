"""funcobs: exact existence analysis for functional observers of LTI plants.

Given a plant x' = Ax + Bu with measured output y = Cx + Du and target
output z = Ex + Fu, the package decides -- in exact rational arithmetic,
with machine-checkable certificates -- whether an estimator driven by y
can track z irrespective of the initial state and the input, constructs
rational-function witnesses of the underlying matrix equation, and
demonstrates convergence numerically on realized observers.
"""

from .decide import (PlantForms, Verdict, asympt_strong_left_invertible,
                     asympt_strong_star_left_invertible, darouach_fixed_order,
                     functional_detectable, hautus_strong_detectable,
                     hautus_strong_star_detectable,
                     strong_star_functional_detectable,
                     strongly_functional_detectable)
from .exactlin import IntegerMatrix, QMatrix, Subspace, as_fraction, kernel_basis
from .geometry import strong_star_inclusion
from .markov import kernel_inclusion_upto, toeplitz
from .polymat import (PencilRow, Poly, PolyMatrix, SmithDecomposition, pencil, pencil_rows,
                      poly_gcd, poly_lcm, smith_form)
from .stability import HurwitzReport, antistable_parts_equal, is_hurwitz
from .system import SystemSextuple
from .witness import (RationalFunction, RationalFunctionMatrix, WitnessReport,
                      classify, decision_consistency, solve_over_field)

__version__ = "0.1.0"

# The float layer, and numpy with it, loads on first use of one of its names,
# so the exact path never imports numpy.
_SIM_NAMES = frozenset({"InputSignal", "Scenario", "StateSpaceRealization", "Trajectory",
                        "convergence_metric", "realize", "simulate"})


def __getattr__(name: str):
    if name in _SIM_NAMES:
        from . import sim
        return getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "IntegerMatrix", "QMatrix", "Subspace", "as_fraction", "kernel_basis",
    "Poly", "PolyMatrix", "SmithDecomposition", "poly_gcd", "poly_lcm",
    "PencilRow", "pencil", "pencil_rows", "smith_form",
    "HurwitzReport", "is_hurwitz", "antistable_parts_equal",
    "SystemSextuple", "strong_star_inclusion",
    "toeplitz", "kernel_inclusion_upto",
    "PlantForms", "Verdict", "functional_detectable", "strongly_functional_detectable",
    "strong_star_functional_detectable", "hautus_strong_detectable",
    "hautus_strong_star_detectable", "asympt_strong_left_invertible",
    "asympt_strong_star_left_invertible", "darouach_fixed_order",
    "RationalFunction", "RationalFunctionMatrix", "WitnessReport",
    "solve_over_field", "classify", "decision_consistency",
    "InputSignal", "Scenario", "StateSpaceRealization", "Trajectory",
    "realize", "simulate", "convergence_metric",
    "__version__",
]
