"""Run-time knobs for the watch pipeline.

RunConfig is a named tuple, not a dataclass: importing dataclasses would
load inspect, ast and dis on every start of the command line.
"""

from __future__ import annotations

from typing import NamedTuple

from .grid_analysis import DEFAULT_TOLERANCE, DEFAULT_UP_LOG_MODE, UP_LOG_MODES


class _RunConfigFields(NamedTuple):
    equality_tolerance: float = DEFAULT_TOLERANCE
    up_log_mode: str = DEFAULT_UP_LOG_MODE


class RunConfig(_RunConfigFields):
    """Configuration shared by every record of a run.

    equality_tolerance  relative tolerance of the grid-state comparisons
    up_log_mode         handling of non-positive potentials in the
                        quenched probability: strict reports an error,
                        absolute takes logarithms of magnitudes

    Its fields are checked however it is made: positionally, by keyword,
    by _make or by _replace.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.equality_tolerance > 0:
            raise ValueError("equality_tolerance must be positive, got "
                             f"{self.equality_tolerance!r}")
        if self.up_log_mode not in UP_LOG_MODES:
            raise ValueError(f"up_log_mode must be one of {UP_LOG_MODES}, "
                             f"got {self.up_log_mode!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        # the inherited _make, which _replace calls, skips __new__
        return cls(*iterable)
