"""Mixed-integer programming substrate.

The original CoSA uses Gurobi.  This subpackage provides the replacement
(documented in DESIGN.md): a small declarative modelling layer —
variables, linear expressions, constraints and objectives — plus the exact
solver :class:`~repro.solver.scipy_backend.ScipyMilpBackend`, which wraps
:func:`scipy.optimize.milp` (the HiGHS branch-and-cut solver shipped with
SciPy >= 1.9).
"""

from repro.solver.expr import LinearExpr, Variable
from repro.solver.model import Constraint, MIPModel, Sense
from repro.solver.solution import Solution, SolveStatus
from repro.solver.scipy_backend import ScipyMilpBackend
from repro.solver.backend import Backend, default_backend

__all__ = [
    "Variable",
    "LinearExpr",
    "MIPModel",
    "Constraint",
    "Sense",
    "Solution",
    "SolveStatus",
    "ScipyMilpBackend",
    "Backend",
    "default_backend",
]
