"""Exception hierarchy shared across the kernel and the modeling layers."""


class SimulationError(Exception):
    """Base class for every error raised by this package."""


class StructuralError(SimulationError):
    """A coupled model violates a structural rule (bad coupling, bad select)."""


class ContractViolationError(SimulationError):
    """A model callback broke its contract (negative time advance, negative sample)."""


class RoutingError(SimulationError):
    """A message could not be routed: it left on a port its component does
    not declare."""


class IllegitimateModelError(SimulationError):
    """The simulation performed too many steps without advancing the clock."""


class ConfigurationError(SimulationError):
    """A distribution, routing table, or experiment config is invalid."""
