"""Run-time knobs for the watch pipeline."""

from __future__ import annotations

from dataclasses import dataclass

from .grid_analysis import DEFAULT_TOLERANCE, DEFAULT_UP_LOG_MODE, UP_LOG_MODES


@dataclass(frozen=True)
class RunConfig:
    """Configuration shared by every record of a run.

    equality_tolerance  relative tolerance of the grid-state comparisons
    up_log_mode         handling of non-positive potentials in the
                        quenched probability: strict reports an error,
                        absolute takes logarithms of magnitudes
    """

    equality_tolerance: float = DEFAULT_TOLERANCE
    up_log_mode: str = DEFAULT_UP_LOG_MODE

    def __post_init__(self) -> None:
        if not self.equality_tolerance > 0:
            raise ValueError("equality_tolerance must be positive, got "
                             f"{self.equality_tolerance!r}")
        if self.up_log_mode not in UP_LOG_MODES:
            raise ValueError(f"up_log_mode must be one of {UP_LOG_MODES}, "
                             f"got {self.up_log_mode!r}")
