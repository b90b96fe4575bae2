"""Injectable virtual clock.

Every time-dependent check in the system reads one of these instead of the
wall clock, so simulations and tests are fully deterministic.  Time is kept
in integer milliseconds from zero; certificate validity windows use whole
seconds.
"""

from __future__ import annotations


class VirtualClock:
    def __init__(self):
        self._ms = 0

    @property
    def now_ms(self) -> int:
        return self._ms

    @property
    def now_s(self) -> float:
        return self._ms / 1000.0

    def advance_to(self, t_ms: int) -> None:
        if t_ms < self._ms:
            raise ValueError(f"clock cannot move backwards ({t_ms} < {self._ms})")
        self._ms = t_ms
