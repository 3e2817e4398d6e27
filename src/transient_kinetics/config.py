"""Structured key-value configuration: calibration files and presets.

The file format is line-based: ``[section]`` headers, ``key = value``
entries, ``#`` comments, blank lines ignored. Repeated keys are
preserved in order (the mission script relies on this); scalar lookups
take the last occurrence. The packaged ``presets/`` directory holds the
named presets and the bundled mission; the directory can be overridden
with the TRANSIENT_KINETICS_PRESETS environment variable. The shipped
calibration is ``Calibration()``, the dataclass defaults. One table,
``CALIBRATION_TABLE``, describes every calibration key and drives
parsing, unknown-key rejection and the summary echo.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path

from .errors import ConfigError, DomainError, LineError
from .fileio import parse_bool, read_text
from .kinetics import DEFAULT_HF_SAT, DEFAULT_K_PHOTO, ArrheniusParams, check_positive
from .mechanics import (
    DEFAULT_ACTUATOR,
    MATERIAL_PRESETS,
    ActuatorSpec,
    MaterialSpec,
    validate_actuator_wall,
)
from .sensors import BIAS_BAND_V, PhotodiodeSpec, SensorHealth, StrainSensorSpec, TempSensorSpec

PRESETS_ENV_VAR = "TRANSIENT_KINETICS_PRESETS"

Section = list[tuple[str, str]]


def parse_sections(text: str, source: str = "<config>") -> list[tuple[str, Section]]:
    """Parse structured text into ordered (section, [(key, value), ...])."""
    sections: list[tuple[str, Section]] = []
    current: Section | None = None
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise LineError(source, line_number, f"malformed section header {line!r}")
            current = []
            sections.append((line[1:-1].strip(), current))
            continue
        if current is None:
            raise LineError(source, line_number, "entry outside any section")
        if "=" in line:
            key, _, value = line.partition("=")
            current.append((key.strip(), value.strip()))
        else:
            # bare keyword entry (argument-less script command)
            current.append((line, ""))
    return sections


def section_data(entries: Section, keys, ctx: str, required=()) -> dict[str, str]:
    """A section's entries as key -> text, the last of a repeated key winning; refuses a
    key not among ``keys``, then the first key of ``required`` that is absent."""
    data = dict(entries)
    unknown = data.keys() - keys
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {sorted(unknown)}")
    for key in required:
        if key not in data:
            raise ConfigError(f"{ctx}: missing key {key!r}")
    return data


def as_float(value: str, context: str) -> float:
    """The finite number ``value`` spells; NaN and +-inf are refused too."""
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{context}: expected a finite number, got {value!r}")
    return number


def as_bool(value: str, context: str) -> bool:
    try:
        return parse_bool(value)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from None


def _parse_table(value: str, context: str) -> tuple[tuple[float, float], ...]:
    """Parse 'x1:y1, x2:y2, ...' into (x, y) pairs; the spec that takes the table checks its shape."""
    pairs = []
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ConfigError(f"{context}: table entries need 'x:y', got {chunk!r}")
        xs, ys = chunk.split(":", 1)
        pairs.append((as_float(xs, context), as_float(ys, context)))
    return tuple(pairs)


@dataclass(frozen=True)
class SimulationSettings:
    """Run-level knobs for the mission simulator."""

    dt_s: float = 1.0
    mobility_loss_alpha: float = 0.2
    decomposed_alpha: float = 0.99
    body_thermal_lag_s: float = 0.0
    dose_alarm_fraction: float = 0.5
    alarm_temperature_c: float = 100.0
    uv_current_threshold_a: float = 1e-9
    monitor_bias_v: float = -2.0
    timeout_s: float = 200000.0

    def __post_init__(self):
        for name in ("mobility_loss_alpha", "decomposed_alpha"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise DomainError(f"{name} must lie in (0, 1], got {value!r}")
        if not 0.0 <= self.dose_alarm_fraction <= 1.0:
            raise DomainError(f"dose_alarm_fraction must lie in [0, 1], got {self.dose_alarm_fraction!r}")
        check_positive("step size", self.dt_s, " s")
        check_positive("timeout_s", self.timeout_s, " s")
        for name, unit in (("body_thermal_lag_s", "s"), ("uv_current_threshold_a", "A")):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise DomainError(f"{name} must be finite and >= 0 {unit}, got {value!r}")
        lo, hi = BIAS_BAND_V
        if not lo <= self.monitor_bias_v <= hi:
            raise DomainError(
                f"monitor_bias_v {self.monitor_bias_v!r} V lies outside the photodiode's band [{lo}, {hi}] V"
            )


@dataclass(frozen=True)
class Calibration:
    """Full effective configuration for every subsystem.

    Every check runs when the calibration is built, the actuator wall's
    against the named material included, so a ``Calibration`` that exists
    (through an overlay or ``dataclasses.replace``) is valid.
    """

    kinetics: ArrheniusParams = field(
        default_factory=lambda: ArrheniusParams.from_kj_per_mol(0.1703, 18.09)
    )
    photolysis_rate: float = DEFAULT_K_PHOTO
    hf_saturation: float = DEFAULT_HF_SAT
    dpi_initial: float = 100.0
    materials: dict[str, MaterialSpec] = field(
        default_factory=lambda: dict(MATERIAL_PRESETS)
    )
    actuator: ActuatorSpec = DEFAULT_ACTUATOR
    temp_sensor: TempSensorSpec = TempSensorSpec()
    strain_sensor: StrainSensorSpec = StrainSensorSpec()
    photodiode: PhotodiodeSpec = PhotodiodeSpec()
    health: SensorHealth = SensorHealth()
    simulation: SimulationSettings = SimulationSettings()
    wall_material: str = "ecoflex-20wt"

    def __post_init__(self):
        # a negative rate would make the photolysis dose run away from its saturation
        if not 0 <= self.photolysis_rate < math.inf:
            raise DomainError(f"photolysis_rate must be finite and >= 0, got {self.photolysis_rate!r}")
        check_positive("hf_saturation", self.hf_saturation)
        check_positive("dpi_initial", self.dpi_initial)
        if self.wall_material not in self.materials:
            raise DomainError(f"actuator wall_material {self.wall_material!r} is not a known material")
        validate_actuator_wall(self.actuator, self.materials[self.wall_material])

    def to_dict(self) -> dict:
        """Echo of the effective configuration, for output summaries."""
        echo = {
            section.replace(".", "_"): {
                echo_key: attrgetter(path)(self) for _, echo_key, path, _ in rows if echo_key
            }
            for section, rows in CALIBRATION_TABLE.items()
        }
        echo["materials"] = {
            name: {echo_key: getattr(spec, fld) for _, echo_key, fld, _ in MATERIAL_ROWS}
            for name, spec in sorted(self.materials.items())
        }
        return echo


# Unit rules of the calibration table besides a plain number (None) or a
# float factor applied to the number as written.
PER_KPA = "value at max_pressure_kpa, stored per kPa"
ANCHORS = "'x1:y1, x2:y2, ...' anchor table"
TEXT = "text"

# file section -> rows of (file key, summary echo key or None, Calibration
# attribute path, unit rule). Each section overlays only the keys it names;
# the echo of section "a.b" is "a_b". PER_KPA divides by the latest
# max_pressure_kpa of the file (a section's own is read before its slopes),
# else by the base calibration's.
CALIBRATION_TABLE: dict[str, tuple[tuple[str, str | None, str, object], ...]] = {
    "kinetics": (
        ("pre_exponential_per_s", "pre_exponential_per_s", "kinetics.pre_exponential", None),
        # kJ/mol in the file, J/mol in memory and in the echo
        ("activation_energy_kj_per_mol", "activation_energy_j_per_mol", "kinetics.activation_energy", 1e3),
    ),
    "photolysis": (
        ("rate_per_s", "rate_per_s", "photolysis_rate", None),
        ("hf_saturation", "hf_saturation", "hf_saturation", None),
        ("dpi_initial_mol_m3", "dpi_initial_mol_m3", "dpi_initial", None),
    ),
    "actuator": (
        ("max_pressure_kpa", "max_pressure_kpa", "actuator.max_pressure", None),
        ("angle_at_max_deg", "angle_per_pressure_deg_per_kpa", "actuator.angle_per_pressure", PER_KPA),
        ("strain_at_max", "strain_per_pressure_per_kpa", "actuator.strain_per_pressure", PER_KPA),
        ("angle_table", None, "actuator.angle_table", ANCHORS),
        ("stride_per_cycle_m", "stride_per_cycle_m", "actuator.stride_per_cycle", None),
        ("cycle_period_s", "cycle_period_s", "actuator.cycle_period", None),
        ("wall_material", None, "wall_material", TEXT),
    ),
    "sensor.temp": (
        ("r0_ohm", "r0_ohm", "temp_sensor.r0", None),
        ("tcr_ohm_per_c", "tcr_ohm_per_c", "temp_sensor.slope", None),
        ("t_ref_c", "t_ref_c", "temp_sensor.t_ref", None),
        ("fail_resistance_ohm", "fail_resistance_ohm", "temp_sensor.fail_resistance", None),
    ),
    "sensor.strain": (
        ("c0_pf", "c0_pf", "strain_sensor.c0", None),
        ("swing_pf", "swing_pf", "strain_sensor.swing", None),
        ("angle_full_deg", "angle_full_deg", "strain_sensor.angle_full", None),
        ("capacitance_table", None, "strain_sensor.capacitance_table", ANCHORS),
    ),
    "sensor.photo": (
        ("reverse_current_a", "reverse_current_a", "photodiode.photo_current_reverse", None),
        ("forward_current_a", "forward_current_a", "photodiode.photo_current_forward", None),
        ("dark_current_a", "dark_current_a", "photodiode.dark_current", None),
    ),
    "sensor.health": (
        ("alpha_degrade", "alpha_degrade", "health.alpha_degrade", None),
        ("alpha_fail", "alpha_fail", "health.alpha_fail", None),
    ),
    "simulation": tuple(
        (f.name, f.name, f"simulation.{f.name}", None) for f in fields(SimulationSettings)
    ),
}

# Every [material.<name>] section gives all of these keys (MaterialSpec fields).
MATERIAL_ROWS = (
    ("modulus_pa", "modulus_pa", "modulus", None),
    ("elastic_limit_strain", "elastic_limit_strain", "elastic_limit_strain", None),
    ("fracture_strain", "fracture_strain", "fracture_strain", None),
    ("fracture_stress_pa", "fracture_stress_pa", "fracture_stress", None),
    ("poisson", "poisson", "poisson", None),
    ("density_kg_m3", "density_kg_m3", "density", None),
    ("dpi_wt_percent", "dpi_wt_percent", "dpi_wt_percent", None),
)


def _convert(raw: str, rule, ctx: str, values: dict, cal: Calibration):
    if rule is TEXT:
        return raw
    if rule is ANCHORS:
        return _parse_table(raw, ctx)
    value = as_float(raw, ctx)
    if rule is PER_KPA:
        max_pressure = values.get("actuator.max_pressure", cal.actuator.max_pressure)
        if max_pressure <= 0:
            raise ConfigError(f"{ctx}: max_pressure_kpa must be > 0, got {max_pressure:g}")
        return value / max_pressure
    return value if rule is None else value * rule


def _overlay(cal: Calibration, values: dict) -> Calibration:
    """One dataclasses.replace per overlaid attribute, so its __post_init__ checks run."""
    nested: dict[str, dict] = {}
    for path, value in values.items():
        attr, _, fld = path.rpartition(".")
        nested.setdefault(attr, {})[fld] = value
    top = nested.pop("", {})
    for attr, changes in nested.items():
        top[attr] = replace(getattr(cal, attr), **changes)
    return replace(cal, **top)


def apply_sections(base: Calibration, sections, source: str) -> Calibration:
    """Overlay parsed config sections onto an existing calibration.

    The sections are one overlay: their values are gathered first and the
    calibration is rebuilt once, so its checks (the actuator wall among
    them) judge the whole result. An invalid value surfaces as a
    ConfigError carrying the source.
    """
    values: dict = {}
    try:
        for name, entries in sections:
            ctx = f"{source} [{name}]"
            is_material = name.startswith("material.")
            rows = MATERIAL_ROWS if is_material else CALIBRATION_TABLE.get(name)
            if rows is None:
                raise ConfigError(f"{source}: unknown section [{name}]")
            keys = [row[0] for row in rows]
            data = section_data(entries, keys, ctx, required=keys if is_material else ())
            target = {} if is_material else values
            for key, _, path, rule in rows:
                if key in data:
                    target[path] = _convert(data[key], rule, ctx, values, base)
            if is_material:
                mat_name = name[len("material.") :]
                spec = MaterialSpec(name=mat_name, **target)
                values["materials"] = {**values.get("materials", base.materials), mat_name: spec}
        return _overlay(base, values)
    except DomainError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_calibration_file(path: str | Path, base: Calibration | None = None) -> Calibration:
    sections = parse_sections(read_text(path, "config"), str(path))
    return apply_sections(base if base is not None else Calibration(), sections, str(path))


def presets_dir() -> Path:
    """Directory holding preset files; honors the env var override."""
    override = os.environ.get(PRESETS_ENV_VAR)
    if override:
        return Path(override)
    return Path(__file__).with_name("presets")


def resolve_preset_path(name: str) -> Path:
    """Resolve a path against the cwd first, then the presets directory."""
    direct = Path(name)
    if direct.exists():
        return direct
    candidate = presets_dir() / name
    if candidate.exists():
        return candidate
    raise ConfigError(f"no such file or preset: {name}")


def default_calibration() -> Calibration:
    """The shipped calibration: every dataclass default."""
    return Calibration()
