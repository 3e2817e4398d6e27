"""Lumped-parameter composite mechanics and pneumatic gait model.

Each material is described by its tensile anchors, and a strain is checked
against its fracture strain; the actuator maps inlet pressure linearly (or
through an anchor table) to bending angle and peak channel strain;
locomotion is a stride-per-cycle kinematic model scaled by a 0..1 mobility
factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .kinetics import check_anchor_table, check_nonnegative, check_positive, interp


@dataclass(frozen=True)
class MaterialSpec:
    """Tensile description of one composite formulation."""

    name: str
    modulus: float  # Pa
    elastic_limit_strain: float
    fracture_strain: float
    fracture_stress: float  # Pa
    poisson: float
    density: float  # kg/m^3
    dpi_wt_percent: float

    def __post_init__(self):
        for name in ("modulus", "fracture_stress", "density"):
            check_positive(name, getattr(self, name))
        if not 0 < self.elastic_limit_strain < self.fracture_strain:
            raise DomainError("need 0 < elastic_limit_strain < fracture_strain")
        if not 0 <= self.poisson < 0.5:
            raise DomainError("poisson must lie in [0, 0.5)")


@dataclass(frozen=True)
class ActuatorSpec:
    """Pneumatic bending actuator calibration.

    ``angle_per_pressure`` is degrees/kPa, ``strain_per_pressure`` the
    peak channel strain per kPa; stride and cycle period define the gait
    kinematics. An optional ``angle_table`` of (pressure >= 0, degrees)
    anchors replaces the linear pressure-to-angle map; the map is mirrored
    for negative pressures so bending stays odd in pressure.
    """

    angle_per_pressure: float
    max_pressure: float  # kPa
    strain_per_pressure: float  # 1/kPa
    stride_per_cycle: float  # m
    cycle_period: float  # s
    angle_table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        for name in (
            "angle_per_pressure",
            "max_pressure",
            "strain_per_pressure",
            "stride_per_cycle",
            "cycle_period",
        ):
            check_positive(name, getattr(self, name))
        if not math.isfinite(self.speed):
            raise DomainError(
                f"speed stride_per_cycle / cycle_period must be finite, got {self.speed!r} m/s"
            )
        table = self.angle_table
        if table is not None:
            check_anchor_table("angle_table", table, "pressures")
            if table[0][0] != 0.0 or table[0][1] != 0.0:
                raise DomainError("angle_table must start at the (0, 0) anchor")
            if any(b[1] < a[1] for a, b in zip(table, table[1:])):
                raise DomainError("angle_table must be monotone in angle")
            if table[-1][0] < self.max_pressure:
                raise DomainError("angle_table must cover max_pressure")

    @property
    def speed(self) -> float:
        """Forward speed at full mobility, m/s."""
        return self.stride_per_cycle / self.cycle_period


@dataclass(frozen=True)
class GaitState:
    """Cumulative locomotion state of the walking body."""

    position: float = 0.0
    current_angle: float = 0.0
    cycle_progress: float = 0.0  # fraction of the current cycle, [0, 1)


# Tensile anchors measured for DPI-HFP/Ecoflex 00-30 at 0/10/20 wt% filler:
# only the fracture point moves, the modulus and elastic limit are shared
# (filler does not stiffen the matrix). FEA constants: 40 kPa modulus,
# Poisson 0.43, density 1.07 g/cc.
MATERIAL_PRESETS: dict[str, MaterialSpec] = {
    spec.name: spec
    for spec in (
        MaterialSpec(
            f"ecoflex-{wt:.0f}wt", modulus=40.02e3, elastic_limit_strain=4.0, fracture_strain=strain,
            fracture_stress=stress, poisson=0.43, density=1070.0, dpi_wt_percent=wt,
        )
        # (filler wt%, fracture strain, fracture stress in Pa)
        for wt, strain, stress in ((0.0, 6.8372, 0.4251e6), (10.0, 5.7167, 0.1453e6), (20.0, 4.9334, 0.1897e6))
    )
}

# 12 kPa drives a 35 degree bend and 83.56% peak channel strain; one
# 1 s pressure cycle advances the body 2.5 cm.
DEFAULT_ACTUATOR = ActuatorSpec(
    angle_per_pressure=35.0 / 12.0,
    max_pressure=12.0,
    strain_per_pressure=0.8356 / 12.0,
    stride_per_cycle=0.025,
    cycle_period=1.0,
)


def fracture_check(material: MaterialSpec, strain: float) -> bool:
    """True iff the strain exceeds the material's fracture strain."""
    if not strain >= 0:
        raise DomainError(f"strain must be >= 0, got {strain}")
    return strain > material.fracture_strain


def _check_rated(actuator: ActuatorSpec, pressure: float) -> None:
    """Refuse a pressure, NaN included, whose magnitude is not within the actuator's rating."""
    if not abs(pressure) <= actuator.max_pressure:
        raise DomainError(f"pressure {pressure:.4g} kPa exceeds rated {actuator.max_pressure:.4g} kPa")


def bend_angle(actuator: ActuatorSpec, pressure: float) -> float:
    """Bending angle (degrees, flexion positive) for a signed inlet pressure."""
    _check_rated(actuator, pressure)
    if actuator.angle_table is not None:
        magnitude = interp(abs(pressure), actuator.angle_table)
        return math.copysign(magnitude, pressure) if pressure else 0.0
    return actuator.angle_per_pressure * pressure


def max_channel_strain(actuator: ActuatorSpec, pressure: float) -> float:
    """Peak strain at the air-channel wall for a signed inlet pressure."""
    _check_rated(actuator, pressure)
    return actuator.strain_per_pressure * abs(pressure)


def validate_actuator_wall(actuator: ActuatorSpec, wall_material: MaterialSpec) -> None:
    """Reject calibrations whose full-pressure strain would fracture the wall."""
    peak = max_channel_strain(actuator, actuator.max_pressure)
    if peak >= wall_material.fracture_strain:
        raise DomainError(
            f"actuator peak strain {peak:.4g} reaches fracture strain of "
            f"{wall_material.name!r} ({wall_material.fracture_strain:.4g})"
        )


def gait_advance(
    state: GaitState,
    actuator: ActuatorSpec,
    elapsed: float,
    mobility: float,
) -> GaitState:
    """Advance the gait by an elapsed interval at a given mobility.

    Position moves by speed * mobility * elapsed. The pressure cycle
    keeps running regardless of mobility: the first half of each cycle
    is the flexed stroke (full positive pressure), the second half the
    extended recovery (vented, zero angle).
    """
    check_nonnegative("elapsed", elapsed)
    if not 0.0 <= mobility <= 1.0:
        raise DomainError("mobility must lie in [0, 1]")
    position = state.position + actuator.speed * mobility * elapsed
    total_progress = state.cycle_progress + elapsed / actuator.cycle_period
    progress = total_progress - int(total_progress)
    angle = bend_angle(actuator, actuator.max_pressure) if progress < 0.5 else 0.0
    return GaitState(position, angle, progress)
