"""Exception types shared across the toolkit."""


class DomainError(ValueError):
    """An input violates a physical or mathematical precondition."""


class InsufficientDataError(DomainError):
    """Too few distinct points to fit: an Arrhenius line needs two temperatures."""


class ConfigError(ValueError):
    """A configuration, mission, or alarm-rule file is malformed."""


class LineError(ConfigError):
    """An input file is malformed at one line: reads ``<source>:<line>: <message>``."""

    def __init__(self, source, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"{source}:{line_number}: {message}")


class SimulationFault(RuntimeError):
    """The simulation reached an invalid state (e.g. robot out of bounds)."""
