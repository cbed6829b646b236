"""Exception types shared across the simulator."""

from __future__ import annotations


class SimulatorError(Exception):
    """Base class for every error raised by this package."""


class InvariantViolation(SimulatorError):
    """Internal bookkeeping broke; the run can no longer be trusted."""


# -- network model ----------------------------------------------------------


class InvalidRange(SimulatorError):
    """A value breaks its rule; field names the one attribute at fault, if any."""

    def __init__(self, message: str = "", field: str | None = None):
        self.field = field
        super().__init__(message)


class DuplicateId(SimulatorError):
    pass


class DanglingEndpoint(InvalidRange):
    pass


class NegativeCapacity(InvalidRange):
    pass


class UnknownHost(SimulatorError):
    pass


class UnknownLink(SimulatorError):
    pass


class AlreadyFailed(SimulatorError):
    pass


class InsufficientResidual(SimulatorError):
    """A reservation asked for more than the current residual provides."""

    def __init__(self, resource: str, entity_id: int, message: str = ""):
        self.resource = resource
        self.entity_id = entity_id
        super().__init__(message or f"insufficient {resource} on {entity_id}")


class OverRelease(InvariantViolation):
    """A release would push a residual above capacity; bookkeeping bug."""

    def __init__(self, resource: str, entity_id: int, message: str = ""):
        self.resource = resource
        self.entity_id = entity_id
        super().__init__(message or f"over-release of {resource} on {entity_id}")


# -- service and QoE models -------------------------------------------------


class UnknownVnf(SimulatorError):
    pass


class UnknownProfile(SimulatorError):
    pass


class InvalidProfile(InvalidRange):
    pass


# -- controller and orchestrator --------------------------------------------


class DuplicateRequest(SimulatorError):
    pass


class UnknownRequest(SimulatorError):
    pass


class AlreadyTerminal(SimulatorError):
    pass


class IllegalTransition(InvariantViolation):
    """Lifecycle automaton violation; controller and orchestrator disagree."""


class InstanceTooLarge(SimulatorError):
    """The exhaustive embedding oracle refuses instances above its limits."""


# -- kernel and scenario I/O -------------------------------------------------


class TimeTravel(SimulatorError):
    """An event was scheduled before the current simulation clock."""


class IoFailure(SimulatorError):
    pass
