"""Forward models of the embedded sensors and their decomposition failure.

Three devices ride on the robot: a capacitive strain sensor read against
bending angle, a resistive copper temperature sensor, and a PIN
photodiode UV detector. ``apply_degradation`` overlays the
conversion-driven failure behavior: readings are untouched while the
body is sound, the strain channel turns erratic in the degraded band,
and past the failure threshold the temperature channel clamps high, the
photocurrent clamps to zero, and the capacitance reading drops out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .kinetics import check_anchor_table, check_positive, interp

TEMP_BAND_C = (-20.0, 200.0)
BIAS_BAND_V = (-2.0, 2.0)
FAIL_RESISTANCE_OHM = 1.0e6

# multiplicative swing of the erratic degraded-band capacitance reading
DEGRADED_JITTER_GAIN = 0.5

SENSOR_KINDS = ("strain", "temp", "photo")

STATUS_OPERATIONAL = "operational"
STATUS_DEGRADED = "degraded"
STATUS_FAILED = "failed"


@dataclass(frozen=True)
class TempSensorSpec:
    """Linear R(T) calibration of the copper resistive sensor."""

    r0: float = 10.0  # ohm at t_ref
    slope: float = 0.002  # ohm/degC (main-text TCR)
    t_ref: float = 25.0  # degC
    fail_resistance: float = FAIL_RESISTANCE_OHM

    def __post_init__(self):
        check_positive("r0", self.r0, " ohm")
        check_positive("slope", self.slope, " ohm/degC")
        if not math.isfinite(self.fail_resistance):
            raise DomainError(f"fail_resistance must be finite and >= 1e6 ohm, got {self.fail_resistance!r}")
        if self.fail_resistance < 1e6:
            raise DomainError("fail_resistance must be >= 1e6 ohm")
        # a sound sensor reads above 0 and below the failure clamp (which it
        # would read as failed); R(T) is a line, so it does over the band
        # when it does at both edges
        edges = [temp_resistance(self, t) for t in TEMP_BAND_C]
        if not all(0.0 < r < self.fail_resistance for r in edges):
            raise DomainError(
                f"R(T) = r0 + slope * (T - t_ref) must lie between 0 and fail_resistance "
                f"{self.fail_resistance!r} ohm over {list(TEMP_BAND_C)} degC, "
                f"got {edges[0]!r} and {edges[1]!r} ohm at its edges"
            )


@dataclass(frozen=True)
class StrainSensorSpec:
    """Interdigitated capacitive strain sensor, read against bend angle.

    The default map is linear between the rest capacitance and the full
    walking swing; a ``capacitance_table`` of (angle >= 0, pF) anchors
    can replace it with a measured calibration.
    """

    c0: float = 10.0  # pF
    swing: float = 1.0  # pF over a full walking cycle
    angle_full: float = 35.0  # degrees
    capacitance_table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        check_positive("c0", self.c0, " pF")
        check_positive("swing", self.swing, " pF")
        check_positive("angle_full", self.angle_full, " deg")
        table = self.capacitance_table
        if table is not None:
            check_anchor_table("capacitance_table", table, "angles")
            if table[0][0] != 0.0:
                raise DomainError("capacitance_table must start at angle 0")
            if any(b[1] <= a[1] for a, b in zip(table, table[1:])):
                raise DomainError("capacitance_table must be strictly increasing in pF")
            if table[-1][0] < self.angle_full:
                raise DomainError("capacitance_table must cover angle_full")
        # the map rises with the angle, so its largest reading is at angle_full
        largest = strain_capacitance(self, self.angle_full)
        if not math.isfinite(largest * (1.0 + DEGRADED_JITTER_GAIN)):
            raise DomainError(
                f"largest capacitance {largest!r} pF overflows once jittered by "
                f"{1.0 + DEGRADED_JITTER_GAIN:g}x in the degraded band"
            )


@dataclass(frozen=True)
class PhotodiodeSpec:
    """PIN photodiode I-V anchors under UV, plus the dark current."""

    photo_current_reverse: float = -5.0e-8  # A at -2 V
    photo_current_forward: float = 3.4e-8  # A at +2 V
    dark_current: float = 0.0  # A

    def __post_init__(self):
        if not self.photo_current_reverse < 0 < self.photo_current_forward:
            raise DomainError("need photo_current_reverse < 0 < photo_current_forward")
        if abs(self.dark_current) > 1e-10:
            raise DomainError("dark_current magnitude must be <= 1e-10 A")


@dataclass(frozen=True)
class SensorHealth:
    """Failure thresholds of a sensor channel; its status follows from alpha."""

    alpha_degrade: float = 0.3
    alpha_fail: float = 0.7

    def __post_init__(self):
        if not 0.0 < self.alpha_degrade < self.alpha_fail <= 1.0:
            raise DomainError("need 0 < alpha_degrade < alpha_fail <= 1")

    def status_at(self, alpha: float) -> str:
        if alpha >= self.alpha_fail:
            return STATUS_FAILED
        if alpha >= self.alpha_degrade:
            return STATUS_DEGRADED
        return STATUS_OPERATIONAL


def temp_resistance(spec: TempSensorSpec, temperature: float) -> float:
    """Sensor resistance (ohm) at an ambient temperature in degC."""
    lo, hi = TEMP_BAND_C
    if not lo <= temperature <= hi:
        raise DomainError(
            f"temperature {temperature:.4g} degC outside model band [{lo}, {hi}]"
        )
    return spec.r0 + spec.slope * (temperature - spec.t_ref)


def read_temperature(spec: TempSensorSpec, resistance: float) -> float:
    """Invert the R(T) line; fails once resistance hits the failure clamp."""
    if resistance >= spec.fail_resistance:
        raise DomainError(
            f"resistance {resistance:.4g} ohm is at or above the failure clamp"
        )
    if not resistance > 0:
        raise DomainError(f"resistance must be > 0, got {resistance}")
    return spec.t_ref + (resistance - spec.r0) / spec.slope


def strain_capacitance(spec: StrainSensorSpec, bending_angle: float) -> float:
    """Capacitance (pF) at a bending angle within the calibrated range."""
    if not abs(bending_angle) <= spec.angle_full:
        raise DomainError(
            f"angle {bending_angle:.4g} deg outside calibration "
            f"(+/-{spec.angle_full:.4g} deg)"
        )
    if spec.capacitance_table is not None:
        return interp(abs(bending_angle), spec.capacitance_table)
    return spec.c0 + spec.swing * (abs(bending_angle) / spec.angle_full)


def photodiode_current(spec: PhotodiodeSpec, bias: float, uv_on: bool) -> float:
    """Diode current (A) at a bias in the +/-2 V band.

    Dark mode returns the (near-zero) dark current. Under UV the current
    interpolates linearly through the measured anchors at -2 V, 0 V and
    +2 V, so it is exactly zero at zero bias.
    """
    lo, hi = BIAS_BAND_V
    if not lo <= bias <= hi:
        raise DomainError(f"bias {bias:.4g} V outside band [{lo}, {hi}]")
    if not uv_on:
        return spec.dark_current
    if bias >= 0:
        return spec.photo_current_forward * (bias / hi)
    return spec.photo_current_reverse * (bias / lo)


def apply_degradation(
    raw_reading: float | None,
    kind: str,
    alpha: float,
    health: SensorHealth,
    noise: float | None = None,
    fail_resistance: float = FAIL_RESISTANCE_OHM,
) -> float | None:
    """Overlay decomposition effects on a raw sensor reading.

    Below ``alpha_degrade`` the reading passes through bit-exactly. In
    the degraded band the strain capacitance turns erratic, as
    ``raw * (1 + DEGRADED_JITTER_GAIN * noise)`` for a given draw
    ``noise`` in [-1, 1] (DomainError without one), while the other
    channels still read true. At or above ``alpha_fail`` the temperature
    channel clamps to the failure resistance, the photocurrent clamps to
    0 A, and the capacitance becomes unavailable (None). Failure is a
    modeled state, not an error, and the failed outputs are idempotent.
    """
    if kind not in SENSOR_KINDS:
        raise DomainError(f"unknown sensor kind {kind!r}")
    if not 0.0 <= alpha <= 1.0:
        raise DomainError("alpha must lie in [0, 1]")

    status = health.status_at(alpha)
    if status == STATUS_OPERATIONAL:
        return raw_reading
    if status == STATUS_DEGRADED:
        if kind == "strain" and raw_reading is not None:
            if noise is None or not -1.0 <= noise <= 1.0:
                raise DomainError(f"a degraded strain reading needs a noise draw in [-1, 1], got {noise!r}")
            return raw_reading * (1.0 + DEGRADED_JITTER_GAIN * noise)
        return raw_reading
    # failed
    if kind == "temp":
        return fail_resistance
    if kind == "photo":
        return 0.0
    return None
