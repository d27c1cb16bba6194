"""Exception types shared across the package."""

from __future__ import annotations


class MajorMinorError(Exception):
    """Base class for all package errors."""


class ConfigurationError(MajorMinorError):
    """Invalid run parameters (grid, ensemble sizes, config files)."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ContractError(MajorMinorError):
    """Shape or argument mismatch between caller and callee."""


class SimulationError(MajorMinorError):
    """Forward simulation produced a non-finite drift or state."""

    def __init__(self, message, step=None):
        self.step = step
        super().__init__(message if step is None else f"{message} (step {step})")


class RegressionError(MajorMinorError):
    """Least-squares fit failed (rank deficiency without ridge, bad inputs)."""


class OracleBlowUpError(MajorMinorError):
    """Riccati coefficients left the finite range before reaching t=0."""

    def __init__(self, blow_up_time):
        self.blow_up_time = blow_up_time
        super().__init__(f"coefficient blow-up at t={blow_up_time:.6g}")
