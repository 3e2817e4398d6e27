"""Deterministic discrete-time lifecycle simulator over a zoned world.

A robot walks a one-dimensional world of temperature/UV zones under a
scripted command sequence. Each fixed step advances the photolysis dose
and phase conversion with exact exponential updates at the local zone
conditions, moves the gait, reads the three sensors through the
degradation overlay, evaluates alarm rules, and emits a telemetry
record. Runs are bit-reproducible for a given (inputs, seed) pair.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .config import Calibration, SimulationSettings, as_bool, as_float, parse_sections
from .errors import ConfigError, SensorFailedError, SimulationFault
from .fileio import read_text
from .kinetics import ZERO_CELSIUS_K, advance, arrhenius_rate
from .mechanics import GaitState, gait_advance
from .sensors import (
    SENSOR_KINDS,
    STATUS_DEGRADED,
    apply_degradation,
    photodiode_current,
    read_temperature,
    strain_capacitance,
    temp_resistance,
)

_POSITION_EPS = 1e-9

_OPERATORS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


@dataclass(frozen=True)
class Zone:
    """One environment span: [x_min, x_max] m, hold temperature, UV lamp."""

    x_min: float
    x_max: float
    temperature: float  # K
    uv_on: bool
    name: str

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ConfigError(f"zone {self.name!r}: need x_min < x_max")
        if self.temperature <= 0:
            raise ConfigError(f"zone {self.name!r}: temperature must be > 0 K")


@dataclass(frozen=True)
class Command:
    """One script step: move_to(x), dwell(s), await_uv_dose(frac), self_destruct."""

    kind: str
    value: float | None = None


@dataclass(frozen=True)
class Condition:
    field: str
    op: str
    value: float
    use_abs: bool = False

    def __post_init__(self):
        if self.op not in _OPERATORS:
            raise ConfigError(f"unknown operator {self.op!r}")

    def holds(self, record: "TelemetryRecord") -> bool:
        reading = getattr(record, self.field)
        if reading is None:
            return False
        if self.use_abs:
            reading = abs(reading)
        return _OPERATORS[self.op](reading, self.value)


@dataclass(frozen=True)
class AlarmRule:
    """Fires its message when every condition holds on a telemetry record."""

    message: str
    conditions: tuple[Condition, ...]
    tag: str = "alarm"


@dataclass(frozen=True)
class Mission:
    """A world of contiguous zones, a command script, its alarm rules and a start.

    Every check runs when the mission is built, so a ``Mission`` that exists
    is valid. ``start`` defaults to the midpoint of the first zone.
    """

    zones: tuple[Zone, ...]
    commands: tuple[Command, ...]
    alarm_rules: tuple[AlarmRule, ...]
    start: float | None = None

    def __post_init__(self):
        zones = validate_world(self.zones)
        if not self.commands:
            raise ConfigError("mission script must contain at least one command")
        x_lo, x_hi = zones[0].x_min, zones[-1].x_max
        for command in self.commands:
            if command.kind != "self_destruct" and command.value is None:
                raise ConfigError(f"command {command.kind!r} needs a value")
            if command.kind == "move_to":
                if not x_lo <= command.value <= x_hi:
                    raise ConfigError(
                        f"move_to target {command.value:g} outside world [{x_lo:g}, {x_hi:g}]"
                    )
            elif command.kind == "dwell":
                if not 0.0 < command.value < math.inf:
                    raise ConfigError("dwell duration must be finite and > 0")
            elif command.kind == "await_uv_dose":
                if not 0.0 <= command.value < 1.0:
                    raise ConfigError("await_uv_dose fraction must lie in [0, 1)")
            elif command.kind != "self_destruct":
                raise ConfigError(f"unknown command {command.kind!r}")
        start = 0.5 * (zones[0].x_min + zones[0].x_max) if self.start is None else self.start
        if not x_lo <= start <= x_hi:
            raise ConfigError(f"robot start position {start:g} outside world")
        object.__setattr__(self, "zones", zones)
        object.__setattr__(self, "start", start)


@dataclass(frozen=True)
class Event:
    tag: str
    message: str


@dataclass(frozen=True)
class RobotState:
    """Full simulated state; advanced immutably one step at a time.

    Sensor status is not stored: it is a function of ``alpha``.
    """

    position: float
    alpha: float = 0.0
    hf_fraction: float = 0.0
    gait: GaitState = field(default_factory=GaitState)
    operational: bool = True
    clock: float = 0.0
    body_temperature_c: float | None = None
    active_alarms: tuple[str, ...] = ()

    @classmethod
    def at(cls, position: float) -> "RobotState":
        """A pristine robot standing at ``position``."""
        return cls(position=position, gait=GaitState(position=position))


@dataclass(frozen=True)
class TelemetryRecord:
    """One record per simulation step, and the one telemetry schema.

    The fields, in order, are the telemetry.jsonl keys; those with a
    ``csv`` column name are the telemetry.csv columns; alarm rules may
    reference every field but ``zone`` and ``events``.
    """

    t: float = field(metadata={"csv": "t"})
    position: float = field(metadata={"csv": "position"})
    alpha: float = field(metadata={"csv": "alpha"})
    hf_fraction: float
    zone: str
    temp_resistance_ohm: float
    temp_c: float | None = field(metadata={"csv": "temp_C"})
    capacitance_pf: float | None = field(metadata={"csv": "capacitance_pF"})
    photocurrent_a: float = field(metadata={"csv": "photocurrent_A"})
    events: tuple[Event, ...]


_FIELD_NAMES = tuple(f.name for f in fields(TelemetryRecord))
_record_values = operator.attrgetter(*_FIELD_NAMES)
_CSV_FIELDS = tuple(f for f in fields(TelemetryRecord) if "csv" in f.metadata)
TELEMETRY_CSV_HEADER = ",".join(f.metadata["csv"] for f in _CSV_FIELDS)
_csv_values = operator.attrgetter(*(f.name for f in _CSV_FIELDS))
RULE_FIELDS = tuple(name for name in _FIELD_NAMES if name not in ("zone", "events"))


def default_alarm_rules(settings: SimulationSettings) -> tuple[AlarmRule, ...]:
    """UV detection plus the hot-while-dosed hazard warning."""
    return (
        AlarmRule(
            message="UV detected",
            tag="uv-detected",
            conditions=(
                Condition("photocurrent_a", ">", settings.uv_current_threshold_a, use_abs=True),
            ),
        ),
        AlarmRule(
            message="accelerated decomposition risk",
            tag="alarm",
            conditions=(
                Condition("hf_fraction", ">=", settings.dose_alarm_fraction),
                Condition("temp_c", ">=", settings.alarm_temperature_c),
            ),
        ),
    )


def evaluate_alarms(rules, record: TelemetryRecord) -> list[str]:
    """Messages of every rule whose conditions all hold on the record."""
    return [rule.message for rule in rules if all(c.holds(record) for c in rule.conditions)]


def validate_world(world) -> tuple[Zone, ...]:
    zones = tuple(world)
    if not zones:
        raise ConfigError("world must contain at least one zone")
    names = [z.name for z in zones]
    if len(set(names)) != len(names):
        raise ConfigError("zone names must be unique")
    for left, right in zip(zones, zones[1:]):
        if right.x_min < left.x_max:
            raise ConfigError(
                f"zones {left.name!r} and {right.name!r} overlap or are out of order"
            )
        if right.x_min > left.x_max:
            raise ConfigError(
                f"gap between zones {left.name!r} and {right.name!r}; spans must be contiguous"
            )
    return zones


def locate_zone(world, position: float) -> Zone:
    """Zone containing the point; shared boundaries belong to the left zone."""
    if position < world[0].x_min or position > world[-1].x_max:
        raise SimulationFault(
            f"position {position:.6g} m escapes world bounds "
            f"[{world[0].x_min:.6g}, {world[-1].x_max:.6g}]"
        )
    for zone in world:
        if position <= zone.x_max:
            return zone
    return world[-1]


def _step_seed(seed: int, step_index: int) -> int:
    return int(np.random.SeedSequence([seed, step_index]).generate_state(1)[0])


def step(
    mission: Mission,
    robot: RobotState,
    cal: Calibration,
    dt: float,
    drive: float = 0.0,
    seed: int = 0,
    step_index: int = 0,
    pending_events: tuple[Event, ...] = (),
) -> tuple[RobotState, TelemetryRecord]:
    """Advance one step of length dt.

    Kinetics run at the zone sampled from the start-of-step position;
    sensor readings and events are taken at the end-of-step position.
    ``drive`` in [-1, 1] is the commanded locomotion fraction (sign is
    direction); actual motion also scales with the mobility flag derived
    from the updated conversion. A degraded strain reading is jittered
    from a generator seeded by ``(seed, step_index)``.
    """
    if dt <= 0:
        raise SimulationFault("dt must be > 0")
    if not -1.0 <= drive <= 1.0:
        raise SimulationFault("drive must lie in [-1, 1]")

    env = locate_zone(mission.zones, robot.position)
    settings = cal.simulation

    # photolysis dose as a fraction (hf_max = 1), then first-order
    # conversion: exact exponential sub-steps at frozen conditions
    hf, alpha = advance(
        robot.hf_fraction,
        robot.alpha,
        arrhenius_rate(cal.kinetics, env.temperature),
        env.uv_on,
        dt,
        cal.photolysis_rate,
        1.0,
        cal.hf_saturation,
    )

    mobility = 1.0 if alpha < settings.mobility_loss_alpha else 0.0
    operational = mobility > 0.0

    # locomotion: the pressure cycle runs only while a move is commanded
    gait = robot.gait
    position = robot.position
    if drive != 0.0:
        advanced = gait_advance(gait, cal.actuator, dt, mobility * abs(drive))
        delta = advanced.position - gait.position
        position = robot.position + math.copysign(delta, drive)
        gait = replace(advanced, position=position)
    here = locate_zone(mission.zones, position)

    # body temperature tracks the local zone; with zero lag it is not
    # carried as state, so an inert step leaves the robot unchanged
    zone_temp_c = here.temperature - ZERO_CELSIUS_K
    if settings.body_thermal_lag_s > 0.0:
        previous = robot.body_temperature_c if robot.body_temperature_c is not None else zone_temp_c
        relax = math.exp(-dt / settings.body_thermal_lag_s)
        body_temp_c = zone_temp_c + (previous - zone_temp_c) * relax
        tracked_temp_c: float | None = body_temp_c
    else:
        body_temp_c = zone_temp_c
        tracked_temp_c = None

    # all three channels share one set of thresholds, so one status
    health = cal.health
    old_status = health.status_at(robot.alpha)
    status = health.status_at(alpha)

    # readings through the degradation overlay
    raw_resistance = temp_resistance(cal.temp_sensor, body_temp_c)
    resistance = apply_degradation(
        raw_resistance, "temp", alpha, health, fail_resistance=cal.temp_sensor.fail_resistance
    )
    try:
        temp_reading = read_temperature(cal.temp_sensor, resistance)
    except SensorFailedError:
        temp_reading = None

    raw_capacitance = strain_capacitance(cal.strain_sensor, gait.current_angle)
    # only the degraded strain reading draws from the seeded generator
    noise_seed = _step_seed(seed, step_index) if status == STATUS_DEGRADED else None
    capacitance = apply_degradation(raw_capacitance, "strain", alpha, health, noise_seed=noise_seed)

    raw_current = photodiode_current(cal.photodiode, settings.monitor_bias_v, here.uv_on)
    photocurrent = apply_degradation(raw_current, "photo", alpha, health)

    clock = robot.clock + dt
    provisional = TelemetryRecord(
        t=clock,
        position=position,
        alpha=alpha,
        hf_fraction=hf,
        zone=here.name,
        temp_resistance_ohm=resistance,
        temp_c=temp_reading,
        capacitance_pf=capacitance,
        photocurrent_a=photocurrent,
        events=(),
    )
    firing = evaluate_alarms(mission.alarm_rules, provisional)

    events: list[Event] = list(pending_events)
    if here.name != env.name:
        events.append(Event("zone-exit", env.name))
        events.append(Event("zone-entry", here.name))
        if temp_reading is not None:
            events.append(Event("temp-report", f"{here.name}: {temp_reading:.2f} C"))
    if status != old_status:
        events.extend(Event(f"sensor-{status}", kind) for kind in SENSOR_KINDS)
    if robot.operational and not operational:
        events.append(Event("mobility-lost", f"alpha reached {alpha:.4f}"))
    tag_by_message = {rule.message: rule.tag for rule in mission.alarm_rules}
    for message in firing:
        if message not in robot.active_alarms:
            events.append(Event(tag_by_message.get(message, "alarm"), message))
    # leaving a zone while a hazard alarm (any non-detection rule) was
    # active there counts as an escape
    hazard_before = any(
        tag_by_message.get(m, "alarm") == "alarm" for m in robot.active_alarms
    )
    if here.name != env.name and hazard_before:
        events.append(Event("escape", f"left {env.name} under active alarm"))
    if robot.alpha < settings.decomposed_alpha <= alpha:
        events.append(Event("decomposed", f"alpha reached {alpha:.4f}"))

    record = replace(provisional, events=tuple(events))
    new_robot = RobotState(
        position=position,
        alpha=alpha,
        hf_fraction=hf,
        gait=gait,
        operational=operational,
        clock=clock,
        body_temperature_c=tracked_temp_c,
        active_alarms=tuple(firing),
    )
    return new_robot, record


def run(mission: Mission, cal: Calibration, dt: float = 1.0, seed: int = 0) -> list[TelemetryRecord]:
    """Execute the mission's script from its start, stepping until it completes or the robot is done.

    Terminates when the command list is exhausted, conversion reaches
    the decomposed threshold, a move target becomes unreachable after
    mobility loss (logged as a "stranded" terminal event), or the
    simulation timeout expires ("timeout" event).
    """
    settings = cal.simulation
    records: list[TelemetryRecord] = []
    robot = RobotState.at(mission.start)
    step_index = 0
    speed = cal.actuator.speed

    def do_step(drive: float, pending: tuple[Event, ...] = ()) -> None:
        nonlocal robot, step_index
        robot, record = step(
            mission,
            robot,
            cal,
            dt,
            drive=drive,
            seed=seed,
            step_index=step_index,
            pending_events=pending,
        )
        records.append(record)
        step_index += 1

    def finished() -> bool:
        return robot.alpha >= settings.decomposed_alpha

    def timed_out() -> bool:
        return robot.clock >= settings.timeout_s

    for command in mission.commands:
        if finished():
            break
        pending: tuple[Event, ...] = ()
        if command.kind == "self_destruct":
            pending = (Event("self-destruct", "entering terminal decomposition"),)
        elapsed = 0.0
        while True:
            if finished():
                break
            if timed_out():
                do_step(0.0, (Event("timeout", "simulation timeout expired"),))
                return records
            if command.kind == "move_to":
                remaining = command.value - robot.position
                if abs(remaining) <= _POSITION_EPS:
                    break
                if not robot.operational:
                    do_step(0.0, (Event("stranded", f"cannot reach {command.value:g} m"),))
                    return records
                full = speed * dt
                drive = max(-1.0, min(1.0, remaining / full))
                do_step(drive, pending)
            elif command.kind == "dwell":
                if elapsed >= command.value - 1e-9:
                    break
                do_step(0.0, pending)
                elapsed += dt
            elif command.kind == "await_uv_dose":
                if robot.hf_fraction >= command.value - 1e-12:
                    break
                do_step(0.0, pending)
            else:  # self_destruct; a Mission admits no other kind
                do_step(0.0, pending)
            pending = ()
    return records


_RULE_RE = re.compile(
    r"^\s*(?P<abs>abs\()?\s*(?P<field>[a-z_]+)\s*(?(abs)\))\s*"
    r"(?P<op><=|>=|<|>)\s*(?P<value>[-+0-9.eE]+)\s*$"
)


def parse_alarm_rule(text: str, context: str = "<rule>") -> AlarmRule:
    """Parse 'cond [and cond ...] -> message' into an AlarmRule."""
    if "->" not in text:
        raise ConfigError(f"{context}: rule needs '-> message', got {text!r}")
    cond_part, _, message = text.rpartition("->")
    message = message.strip()
    if not message:
        raise ConfigError(f"{context}: rule message is empty")
    conditions = []
    for chunk in cond_part.split(" and "):
        m = _RULE_RE.match(chunk)
        if not m:
            raise ConfigError(f"{context}: malformed condition {chunk.strip()!r}")
        fld = m.group("field")
        if fld not in RULE_FIELDS:
            raise ConfigError(
                f"{context}: unknown telemetry field {fld!r} (valid: {', '.join(RULE_FIELDS)})"
            )
        value = as_float(m.group("value"), f"{context}: condition {chunk.strip()!r}")
        conditions.append(Condition(fld, m.group("op"), value, use_abs=bool(m.group("abs"))))
    return AlarmRule(message=message, conditions=tuple(conditions))


def load_mission(path: str | Path, settings: SimulationSettings | None = None) -> Mission:
    """Load a world + script file ([zone.*], [script], [robot], [alarms]) as a ``Mission``.

    A file without an [alarms] section gets ``default_alarm_rules(settings)``.
    Every error names the file.
    """
    sections = parse_sections(read_text(path, "mission"), str(path))

    zones: list[dict] = []  # Zone fields, built below with the Mission so their errors name the file
    commands: list[Command] = []
    rules: list[AlarmRule] = []
    start_position: float | None = None
    saw_alarms = False
    for name, entries in sections:
        ctx = f"{path} [{name}]"
        if name.startswith("zone."):
            data = {k: v for k, v in entries}
            unknown = set(data) - {"name", "x_min", "x_max", "temperature_c", "temperature_k", "uv_on"}
            if unknown:
                raise ConfigError(f"{ctx}: unknown keys {sorted(unknown)}")
            if ("temperature_c" in data) == ("temperature_k" in data):
                raise ConfigError(f"{ctx}: give exactly one of temperature_c / temperature_k")
            if "temperature_c" in data:
                temperature = as_float(data["temperature_c"], ctx) + ZERO_CELSIUS_K
            else:
                temperature = as_float(data["temperature_k"], ctx)
            for key in ("x_min", "x_max"):
                if key not in data:
                    raise ConfigError(f"{ctx}: missing key {key!r}")
            zones.append(
                dict(
                    x_min=as_float(data["x_min"], ctx),
                    x_max=as_float(data["x_max"], ctx),
                    temperature=temperature,
                    uv_on=as_bool(data.get("uv_on", "false"), ctx),
                    name=data.get("name", name[len("zone.") :]),
                )
            )
        elif name == "script":
            for key, value in entries:
                if key == "self_destruct":
                    commands.append(Command("self_destruct"))
                elif key in ("move_to", "dwell", "await_uv_dose"):
                    commands.append(Command(key, as_float(value, ctx)))
                else:
                    raise ConfigError(f"{ctx}: unknown command {key!r}")
        elif name == "robot":
            data = {k: v for k, v in entries}
            unknown = set(data) - {"position"}
            if unknown:
                raise ConfigError(f"{ctx}: unknown keys {sorted(unknown)}")
            if "position" in data:
                start_position = as_float(data["position"], ctx)
        elif name == "alarms":
            saw_alarms = True
            for key, value in entries:
                if key != "rule":
                    raise ConfigError(f"{ctx}: only 'rule = ...' entries are allowed")
                rules.append(parse_alarm_rule(value, ctx))
        else:
            raise ConfigError(f"{path}: unknown section [{name}]")

    alarm_rules = tuple(rules) if saw_alarms else default_alarm_rules(settings or SimulationSettings())
    try:
        return Mission(tuple(Zone(**z) for z in zones), tuple(commands), alarm_rules, start_position)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def telemetry_to_jsonl(records) -> str:
    # a new dict per record, not vars(record): vars would give every record
    # a __dict__ for as long as the run's records live (+25 MB peak RSS
    # over 85 333 records)
    lines = []
    for r in records:
        row = dict(zip(_FIELD_NAMES, _record_values(r)), events=[vars(e) for e in r.events])
        lines.append(json.dumps(row) + "\n")
    return "".join(lines)


def telemetry_to_csv(records) -> str:
    rows = [",".join(["nan" if v is None else repr(v) for v in _csv_values(r)]) for r in records]
    return "\n".join([TELEMETRY_CSV_HEADER, *rows]) + "\n"
