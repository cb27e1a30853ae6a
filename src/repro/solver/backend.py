"""Backend protocol and default backend selection."""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.solver.solution import Solution


@runtime_checkable
class Backend(Protocol):
    """Anything that can solve a :class:`~repro.solver.model.MIPModel`."""

    def solve(self, model) -> Solution:  # pragma: no cover - protocol signature
        """Solve ``model`` and return a :class:`Solution`."""
        ...


def default_backend() -> "Backend":
    """Return the solver backend: ``scipy.optimize.milp`` (HiGHS)."""
    from repro.solver.scipy_backend import ScipyMilpBackend

    return ScipyMilpBackend()
