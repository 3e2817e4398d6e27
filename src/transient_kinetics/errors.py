"""Exception types shared across the toolkit."""


class DomainError(ValueError):
    """An input violates a physical or mathematical precondition."""


class UnreachableTargetError(DomainError):
    """A conversion target cannot be reached (alpha = 1 or zero rate)."""


class InsufficientDataError(DomainError):
    """Too few distinct points to fit: an Arrhenius line needs two temperatures."""


class ZeroEnthalpyError(DomainError):
    """A trace released no heat, so conversion is undefined."""


class UntriggeredTraceError(DomainError):
    """Rate fitting was requested for a trace recorded without UV."""


class ActuationError(DomainError):
    """Commanded pressure exceeds the actuator's rated range."""


class ValidityBandError(DomainError):
    """A sensor model was evaluated outside its calibrated band."""


class SensorFailedError(RuntimeError):
    """A reading was requested from a sensor in the failed state."""


class ConfigError(ValueError):
    """A configuration, mission, or alarm-rule file is malformed."""


class TraceParseError(ConfigError):
    """A trace CSV could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line_number: int):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class SimulationFault(RuntimeError):
    """The simulation reached an invalid state (e.g. robot out of bounds)."""
