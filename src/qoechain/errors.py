"""Exception types shared across the simulator.

Callers tell apart three kinds of error, and only these three exist:

- SimulatorError: a request the simulator refuses, such as an unknown id,
  a demand that does not fit or an unreadable file. The CLI prints it as
  an ``ERROR input:`` line and exits 1; the controller turns one raised
  while committing a plan it has just checked into an InvariantViolation.
- InvariantViolation: internal bookkeeping broke, so the run can no longer
  be trusted. The CLI prints it as an ``INTERNAL`` line and exits 2.
- InvalidRange: a value breaks its rule. The scenario parser reads its
  field to name the attribute at fault in a diagnostic.
"""

from __future__ import annotations


class SimulatorError(Exception):
    """Base class for every error raised by this package."""


class InvariantViolation(SimulatorError):
    """Internal bookkeeping broke; the run can no longer be trusted."""


class InvalidRange(SimulatorError):
    """A value breaks its rule; field names the one attribute at fault, if any."""

    def __init__(self, message: str = "", field: str | None = None):
        self.field = field
        super().__init__(message)
