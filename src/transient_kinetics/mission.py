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
import re
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple

from .config import Calibration, SimulationSettings, as_bool, as_float, parse_sections, section_data
from .errors import ConfigError, DomainError, SimulationFault
from .fileio import read_text
from .kinetics import (
    ZERO_CELSIUS_K, arrhenius_rate, check_positive, check_step_count, conversion_update, dose_update, trigger_coupling
)
from .mechanics import GaitState, gait_advance
from .sensors import (
    SENSOR_KINDS,
    STATUS_DEGRADED,
    STATUS_FAILED,
    apply_degradation,
    photodiode_current,
    read_temperature,
    strain_capacitance,
    temp_resistance,
)

_POSITION_EPS = 1e-9

_OPERATORS = (">", ">=", "<", "<=")


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
        if not 0 < self.temperature < math.inf:
            raise ConfigError(f"zone {self.name!r}: temperature must be finite and > 0 K")


@dataclass(frozen=True)
class Command:
    """One script step: move_to(x), dwell(s), await_uv_dose(frac), self_destruct.

    The kind and value rules run when it is built, so a ``Command`` that
    exists is valid; the ``Mission`` checks a ``move_to`` target against its world.
    """

    kind: str
    value: float | None = None

    def __post_init__(self):
        if self.kind not in ("move_to", "dwell", "await_uv_dose", "self_destruct"):
            raise ConfigError(f"unknown command {self.kind!r}")
        if self.kind == "self_destruct":
            if self.value is not None:
                raise ConfigError("self_destruct takes no value")
        elif self.value is None:
            raise ConfigError(f"command {self.kind!r} needs a value")
        elif self.kind == "dwell" and not 0.0 < self.value < math.inf:
            raise ConfigError("dwell duration must be finite and > 0")
        elif self.kind == "await_uv_dose" and not 0.0 <= self.value < 1.0:
            raise ConfigError("await_uv_dose fraction must lie in [0, 1)")


@dataclass(frozen=True)
class Condition:
    field: str
    op: str
    value: float
    use_abs: bool = False

    def __post_init__(self):
        # compile_alarms writes the operator and the field's index into source text
        if self.op not in _OPERATORS:
            raise ConfigError(f"unknown operator {self.op!r}")
        if self.field not in RULE_FIELDS:
            raise ConfigError(f"unknown telemetry field {self.field!r} (valid: {', '.join(RULE_FIELDS)})")


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
            if command.kind == "move_to" and not x_lo <= command.value <= x_hi:
                raise ConfigError(f"move_to target {command.value:g} outside world [{x_lo:g}, {x_hi:g}]")
        start = 0.5 * (zones[0].x_min + zones[0].x_max) if self.start is None else self.start
        if not x_lo <= start <= x_hi:
            raise ConfigError(f"robot start position {start:g} outside world")
        object.__setattr__(self, "zones", zones)
        object.__setattr__(self, "start", start)


@dataclass(frozen=True)
class Event:
    tag: str
    message: str


class RobotState(NamedTuple):
    """Full simulated state; advanced immutably one step at a time.

    The robot's one position is its gait's, ``gait.position``;
    ``zone_index`` is the index in the world of the zone there. Neither
    mobility nor sensor status is stored: both are functions of ``alpha``.
    """

    zone_index: int
    body_temperature_c: float
    alpha: float = 0.0
    hf_fraction: float = 0.0
    gait: GaitState = GaitState()
    clock: float = 0.0
    active_alarms: tuple[tuple[str, str], ...] = ()  # (message, tag) of each firing rule

    @classmethod
    def at(cls, position: float, world) -> "RobotState":
        """A pristine robot standing at ``position`` in a world of zones, at its temperature."""
        zone_index = locate_zone_index(world, position)
        return cls(
            zone_index=zone_index,
            body_temperature_c=world[zone_index].temperature - ZERO_CELSIUS_K,
            gait=GaitState(position=position),
        )


class TelemetryRecord(NamedTuple):
    """One record per simulation step, and the one telemetry schema.

    The fields, in order, are the telemetry.jsonl keys; those named in
    ``_CSV_COLUMNS`` are the telemetry.csv columns; alarm rules may
    reference every field but ``zone`` and ``events``.
    """

    t: float
    position: float
    alpha: float
    hf_fraction: float
    zone: str
    temp_resistance_ohm: float
    temp_c: float | None
    capacitance_pf: float | None
    photocurrent_a: float
    events: tuple[Event, ...]


# the telemetry.csv column name of each field written there
_CSV_COLUMNS = {
    "t": "t",
    "position": "position",
    "alpha": "alpha",
    "temp_c": "temp_C",
    "capacitance_pf": "capacitance_pF",
    "photocurrent_a": "photocurrent_A",
}
TELEMETRY_CSV_HEADER = ",".join(_CSV_COLUMNS[name] for name in TelemetryRecord._fields if name in _CSV_COLUMNS)
RULE_FIELDS = tuple(name for name in TelemetryRecord._fields if name not in ("zone", "events"))


def default_alarm_rules(settings: SimulationSettings) -> tuple[AlarmRule, ...]:
    """UV detection plus the hot-while-dosed hazard warning."""
    uv = Condition("photocurrent_a", ">", settings.uv_current_threshold_a, use_abs=True)
    dosed = Condition("hf_fraction", ">=", settings.dose_alarm_fraction)
    hot = Condition("temp_c", ">=", settings.alarm_temperature_c)
    return (
        AlarmRule(message="UV detected", tag="uv-detected", conditions=(uv,)),
        AlarmRule(message="accelerated decomposition risk", tag="alarm", conditions=(dosed, hot)),
    )


def compile_alarms(rules) -> Callable[[tuple], list[tuple[str, str]]]:
    """One function of a step's field values: the (message, tag) of each rule that holds, in rule order.

    It is generated from the rules as ``_jsonl_line`` is from the fields.
    Only field indices and operators, both checked by ``Condition``, become
    source text; thresholds and (message, tag) pairs are bound as values.
    An unavailable (None) reading satisfies no condition, and a rule
    without conditions always holds.
    """
    names: dict = {}
    lines = ["def alarms(values):\n    fired = []\n"]
    for r, rule in enumerate(rules):
        names[f"rule{r}"] = (rule.message, rule.tag)
        tests = []
        for c, cond in enumerate(rule.conditions):
            names[f"limit{r}_{c}"] = cond.value
            v = f"values[{TelemetryRecord._fields.index(cond.field):d}]"
            tests.append(f"{v} is not None and {f'abs({v})' if cond.use_abs else v} {cond.op} limit{r}_{c}")
        lines.append(f"    if {' and '.join(tests) or 'True'}:\n        fired.append(rule{r})\n")
    exec("".join(lines) + "    return fired\n", names)
    return names["alarms"]


def evaluate_alarms(alarms, values: tuple) -> list[tuple[str, str]]:
    """(message, tag) of every rule that holds on a step's field values.

    ``alarms`` comes from ``compile_alarms``; ``values`` are a record's
    values except its events, ``record[:-1]``.
    """
    return alarms(values)


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


def locate_zone_index(world, position: float) -> int:
    """Index of the zone containing the point; shared boundaries belong to the left zone."""
    if not world[0].x_min <= position <= world[-1].x_max:  # a NaN position too
        raise SimulationFault(
            f"position {position:.6g} m escapes world bounds "
            f"[{world[0].x_min:.6g}, {world[-1].x_max:.6g}]"
        )
    for index, zone in enumerate(world):
        if position <= zone.x_max:
            return index


class StepPlan:
    """What stays constant over one run of a mission, built once and passed to every ``step``.

    Holds the step size, the seed, the world's bounds, the full-speed move
    ``speed * dt``, each zone's k(T) and temperature in degC, the thermal-lag
    relaxation factor (0 without lag), exp(-k_photo * dt), the sorted alpha
    thresholds and the bands between them, the compiled alarm rules, the
    last conversion factors and alpha band, and the memos of ``readings``
    and ``noise``, each keyed on its inputs. It refuses, as a DomainError, a
    seed that is not an int >= 0, and a step that is not finite and > 0,
    whose move is lost to rounding or overflows, that spans more pressure
    cycles than a float holds, or that needs more than ``MAX_STEPS`` steps
    to the timeout.
    """

    def __init__(self, mission: Mission, cal: Calibration, dt: float, seed: int = 0):
        if not (isinstance(seed, int) and seed >= 0):
            raise DomainError(f"seed must be an int >= 0, got {seed!r}")
        check_positive("step size", dt, " s")
        self.x_min, self.x_max = mission.zones[0].x_min, mission.zones[-1].x_max
        self.move = move = cal.actuator.speed * dt
        # positions farthest from 0 are the most coarsely spaced floats of the world
        reach = max(abs(self.x_min), abs(self.x_max))
        if not reach < reach + move < math.inf:
            lost = "overflows" if move == math.inf else f"is lost to rounding at {reach:g} m"
            raise DomainError(
                f"step size must be finite and > 0 s and move the robot, got {dt!r} s: "
                f"a move of speed * dt = {move!r} m {lost}"
            )
        cycle_period = cal.actuator.cycle_period
        if dt / cycle_period == math.inf:
            raise DomainError(f"a step of {dt!r} s spans more pressure cycles of {cycle_period!r} s than a float holds")
        check_step_count(cal.simulation.timeout_s, dt)
        self.cal = cal
        self.dt = dt
        self.seed = seed
        self.zones = mission.zones
        self.rates = tuple(arrhenius_rate(cal.kinetics, zone.temperature) for zone in self.zones)
        self.zone_temps_c = tuple(zone.temperature - ZERO_CELSIUS_K for zone in self.zones)
        lag = cal.simulation.body_thermal_lag_s
        self.relax = math.exp(-dt / lag) if lag > 0.0 else 0.0
        self.photo_decay = math.exp(-cal.photolysis_rate * dt)
        # the alphas where the sensor status changes, mobility is lost and the robot decomposes
        limits = (cal.simulation.mobility_loss_alpha, cal.simulation.decomposed_alpha)
        self.alpha_thresholds = tuple(sorted((cal.health.alpha_degrade, cal.health.alpha_fail, *limits)))
        # (lo, hi, status) of the band [lo, hi) at each bisect_right index of the thresholds; the
        # status is one within a band, as alpha_degrade and alpha_fail are among its bounds
        edges = (-math.inf, *self.alpha_thresholds, math.inf)
        self.alpha_bands = tuple((lo, hi, cal.health.status_at(lo)) for lo, hi in zip(edges, edges[1:]))
        self._band = self.alpha_bands[0]  # the band of the alpha that step classified last
        self.alarms = compile_alarms(mission.alarm_rules)
        # (zone index, dose, k_eff, exp(-k_eff * dt)) of the last step, one attribute as below
        self._conversion: tuple = (None, None, None, None)
        # ((zone index, body temperature, angle, status), readings) of the last readings call
        self._last_readings: tuple = (None, None)
        self._readings: dict[tuple[int, str, float], tuple[float | None, float]] = {}
        # (body temperature, status, (resistance, temperature reading)), one
        # attribute so that a shared plan never pairs a key with another reading
        self._last_temperature: tuple = (None, None, None)
        # (base, draws) of the last jitter block, one attribute for the same reason
        self._jitter: tuple[int, list[float]] = (0, [])

    def noise(self, step_index: int) -> float:
        """The jitter draw in [-1, 1] of step ``step_index``, a function of (seed, step_index) alone.

        Draws are computed for the aligned block of ``jitter.BLOCK`` step
        indices that holds ``step_index``, and the last block is kept. A
        step index that is not an int >= 0 raises DomainError.
        """
        if not (isinstance(step_index, int) and step_index >= 0):
            raise DomainError(f"step index must be an int >= 0, got {step_index!r}")
        base, draws = self._jitter
        offset = step_index - base
        if not 0 <= offset < len(draws):
            # loaded by the first block: a process that never degrades never compiles it
            from . import jitter

            offset = step_index % jitter.BLOCK
            base = step_index - offset
            draws = jitter.block(self.seed, base)
            self._jitter = (base, draws)
        return draws[offset]

    def readings(self, zone_index: int, body_temp_c: float, angle: float, status: str, alpha: float) -> tuple:
        """(resistance, temperature, capacitance, photocurrent) through the degradation overlay.

        ``status`` is the sensor status at ``alpha``; a failed temperature
        channel reads None, and a degraded capacitance is the raw reading,
        which ``step`` jitters. The last result is reused while every
        input but alpha stays the same, and the last temperature reading
        while its (body temperature, status) does; the capacitance and
        photocurrent, which depend only on the zone, status and angle, are
        cached on first use, so a zone the robot never enters is never read.
        """
        inputs = (zone_index, body_temp_c, angle, status)
        last_inputs, readings = self._last_readings
        if inputs == last_inputs:
            return readings
        last = self._last_temperature
        if last[0] != body_temp_c or last[1] != status:
            spec = self.cal.temp_sensor
            resistance = apply_degradation(
                temp_resistance(spec, body_temp_c), "temp", alpha, self.cal.health,
                fail_resistance=spec.fail_resistance,
            )
            temperature = None if status == STATUS_FAILED else read_temperature(spec, resistance)
            last = self._last_temperature = (body_temp_c, status, (resistance, temperature))
        key = (zone_index, status, angle)
        cached = self._readings.get(key)
        if cached is None:
            cal, health = self.cal, self.cal.health
            capacitance = strain_capacitance(cal.strain_sensor, angle)
            if status != STATUS_DEGRADED:
                capacitance = apply_degradation(capacitance, "strain", alpha, health)
            raw_current = photodiode_current(
                cal.photodiode, cal.simulation.monitor_bias_v, self.zones[zone_index].uv_on
            )
            photocurrent = apply_degradation(raw_current, "photo", alpha, health)
            cached = self._readings[key] = (capacitance, photocurrent)
        readings = last[2] + cached
        self._last_readings = (inputs, readings)
        return readings


def step(
    plan: StepPlan,
    robot: RobotState,
    drive: float = 0.0,
    step_index: int = 0,
    pending_events: tuple[Event, ...] = (),
) -> tuple[RobotState, TelemetryRecord]:
    """Advance one step of length ``plan.dt``.

    Kinetics run at the zone sampled from the start-of-step position;
    sensor readings and events are taken at the end-of-step position.
    ``drive`` in [-1, 1] is the commanded locomotion fraction (sign is
    direction); actual motion also scales with the mobility flag derived
    from the updated conversion. A degraded strain reading is jittered
    by ``plan.noise(step_index)``, a draw fixed by ``(plan.seed,
    step_index)``.
    """
    if not -1.0 <= drive <= 1.0:
        raise SimulationFault("drive must lie in [-1, 1]")

    cal, dt, zones = plan.cal, plan.dt, plan.zones
    settings = cal.simulation
    env_index = robot.zone_index
    env = zones[env_index]

    # dose_update and conversion_update at frozen conditions, the dose a fraction
    # (hf_max = 1), with the plan's decay factors: exp(-k_eff * dt) changes only
    # with the zone or the dose
    hf = robot.hf_fraction
    if env.uv_on:
        hf = dose_update(hf, 1.0, plan.photo_decay)
    last = plan._conversion
    if last[0] != env_index or last[1] != hf:
        k_eff = plan.rates[env_index] * trigger_coupling(hf, cal.hf_saturation)
        last = plan._conversion = (env_index, hf, k_eff, math.exp(-k_eff * dt))
    alpha = conversion_update(robot.alpha, last[2], last[3])

    # locomotion: the pressure cycle runs only while a move is commanded
    gait = robot.gait
    position = gait.position
    here_index = env_index
    if drive != 0.0:
        advanced = gait_advance(gait, cal.actuator, dt, abs(drive) if alpha < settings.mobility_loss_alpha else 0.0)
        delta = advanced.position - gait.position
        # rounding must not carry a move to the world's edge past it
        position = min(max(position + math.copysign(delta, drive), plan.x_min), plan.x_max)
        gait = replace(advanced, position=position)
        here_index = locate_zone_index(zones, position)
    here = zones[here_index]

    # all three channels share one set of thresholds, so one status; a step
    # crosses a threshold exactly when its alpha leaves the band [lo, hi) of
    # the alpha it started at, and else keeps the status it had and neither
    # loses mobility nor decomposes. The plan keeps the band it classified
    # last, which a step of another robot on the plan may have set.
    start = plan._band
    if not start[0] <= robot.alpha < start[1]:
        start = plan._band = plan.alpha_bands[bisect_right(plan.alpha_thresholds, robot.alpha)]
    crossing = not start[0] <= alpha < start[1]
    if crossing:
        plan._band = plan.alpha_bands[bisect_right(plan.alpha_thresholds, alpha)]
    health, status = cal.health, plan._band[2]

    # the body relaxes toward the local zone's temperature (at once without lag)
    zone_temp_c = plan.zone_temps_c[here_index]
    body_temp_c = zone_temp_c + (robot.body_temperature_c - zone_temp_c) * plan.relax
    resistance, temp_reading, capacitance, photocurrent = plan.readings(
        here_index, body_temp_c, gait.current_angle, status, alpha
    )
    if status == STATUS_DEGRADED:
        # only the degraded strain reading takes a jitter draw
        capacitance = apply_degradation(capacitance, "strain", alpha, health, plan.noise(step_index))

    clock = robot.clock + dt
    # the record's values but its events
    values = (clock, position, alpha, hf, here.name, resistance, temp_reading, capacitance, photocurrent)
    firing = tuple(evaluate_alarms(plan.alarms, values))

    events = ()
    if pending_events or here_index != env_index or crossing or firing != robot.active_alarms:
        events = list(pending_events)
        if here_index != env_index:
            events.append(Event("zone-exit", env.name))
            events.append(Event("zone-entry", here.name))
            if temp_reading is not None:
                events.append(Event("temp-report", f"{here.name}: {temp_reading:.2f} C"))
        if crossing and status != start[2]:
            events.extend(Event(f"sensor-{status}", kind) for kind in SENSOR_KINDS)
        if crossing and robot.alpha < settings.mobility_loss_alpha <= alpha:
            events.append(Event("mobility-lost", f"alpha reached {alpha:.4f}"))
        for message, tag in firing:
            if (message, tag) not in robot.active_alarms:
                events.append(Event(tag, message))
        # leaving a zone while a hazard alarm (any non-detection rule) was
        # active there counts as an escape
        if here_index != env_index and any(tag == "alarm" for _, tag in robot.active_alarms):
            events.append(Event("escape", f"left {env.name} under active alarm"))
        if crossing and robot.alpha < settings.decomposed_alpha <= alpha:
            events.append(Event("decomposed", f"alpha reached {alpha:.4f}"))
        events = tuple(events)

    # what RobotState(...) and TelemetryRecord(...) run, given the values as one tuple
    new_robot = tuple.__new__(RobotState, (here_index, body_temp_c, alpha, hf, gait, clock, firing))
    return new_robot, tuple.__new__(TelemetryRecord, values + (events,))


# the tags of the events that end a run
TERMINAL_TAGS = frozenset(("decomposed", "stranded", "timeout"))


def run(mission: Mission, cal: Calibration, dt: float = 1.0, seed: int = 0) -> list[TelemetryRecord]:
    """Execute the mission's script from its start, stepping until it completes or the robot is done.

    Terminates when the command list is exhausted, conversion reaches
    the decomposed threshold, a move target becomes unreachable after
    mobility loss (logged as a "stranded" terminal event), or the
    simulation timeout expires ("timeout" event). A step that ``StepPlan``
    refuses raises DomainError before the first step.
    """
    settings = cal.simulation
    plan = StepPlan(mission, cal, dt, seed)
    records: list[TelemetryRecord] = []
    robot = RobotState.at(mission.start, mission.zones)
    for command in mission.commands:
        pending: tuple[Event, ...] = ()
        if command.kind == "self_destruct":
            pending = (Event("self-destruct", "entering terminal decomposition"),)
        elapsed = 0.0
        while robot.alpha < settings.decomposed_alpha:
            drive, last = 0.0, None
            if robot.clock >= settings.timeout_s:
                last = Event("timeout", "simulation timeout expired")
            elif command.kind == "move_to":
                remaining = command.value - robot.gait.position
                if abs(remaining) <= _POSITION_EPS:
                    break
                if robot.alpha >= settings.mobility_loss_alpha:
                    last = Event("stranded", f"cannot reach {command.value:g} m")
                else:
                    drive = max(-1.0, min(1.0, remaining / plan.move))
            elif command.kind == "dwell":
                if elapsed >= command.value - 1e-9:
                    break
                elapsed += dt
            elif command.kind == "await_uv_dose" and robot.hf_fraction >= command.value - 1e-12:
                break
            # a self_destruct steps on until the robot is done; a Mission admits no other kind
            robot, record = step(plan, robot, drive, len(records), (last,) if last else pending)
            records.append(record)
            if last:
                return records
            pending = ()
    return records


# the operators longest first: an alternation takes the first branch that matches;
# the threshold is any one token that starts with no operator character, so
# the number rule, not this pattern, refuses a word, NaN or an infinity
_RULE_RE = re.compile(
    r"^\s*(?P<abs>abs\()?\s*(?P<field>[a-z_]+)\s*(?(abs)\))\s*"
    rf"(?P<op>{'|'.join(sorted(_OPERATORS, key=len, reverse=True))})\s*(?P<value>[^\s<>=]\S*)\s*$"
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
        try:
            value = as_float(m.group("value"), f"condition {chunk.strip()!r}")
            conditions.append(Condition(m.group("field"), m.group("op"), value, use_abs=bool(m.group("abs"))))
        except ConfigError as exc:
            raise ConfigError(f"{context}: {exc}") from None
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
            keys = ("name", "x_min", "x_max", "temperature_c", "temperature_k", "uv_on")
            data = section_data(entries, keys, ctx, required=("x_min", "x_max"))
            if ("temperature_c" in data) == ("temperature_k" in data):
                raise ConfigError(f"{ctx}: give exactly one of temperature_c / temperature_k")
            if "temperature_c" in data:
                temperature = as_float(data["temperature_c"], ctx) + ZERO_CELSIUS_K
            else:
                temperature = as_float(data["temperature_k"], ctx)
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
                number = as_float(value, ctx) if value else None
                try:
                    commands.append(Command(key, number))
                except ConfigError as exc:
                    raise ConfigError(f"{ctx}: {exc}") from None
        elif name == "robot":
            data = section_data(entries, ("position",), ctx)
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


# one telemetry.jsonl line, one f-string of each field's JSON text in field order; only the
# field names and their JSON keys, which never hold its quote ', become source text
_jsonl_line = eval(
    "lambda " + ", ".join(TelemetryRecord._fields) + ": f'{{"
    + ", ".join(f"{json.dumps(name)}: {{{name}}}" for name in TelemetryRecord._fields)
    + "}}\\n'"
)
_float_repr = float.__repr__  # json's form of a finite float, of a float subclass too
# the pass's "value before" at the start: no field value, not even None, is this object
_NO_VALUE = object()


def _format_telemetry(records) -> tuple[str, str]:
    """The telemetry.jsonl text of ``records`` and their telemetry.csv rows, from one pass.

    A float is its ``float.__repr__`` in both, a missing reading null in the
    JSONL and nan in the CSV. A record of finite floats gives ``_jsonl_line``
    and its CSV row the same cell texts; a field whose value is the same
    object as in the record before, its zone name too, reuses that record's
    text (``t`` and ``alpha`` change on every step). Any other record's line
    is ``json.dumps``' own, and its CSV cells that are neither a float nor
    None are their ``repr``.
    """
    float_repr, isfinite, jsonl_line = _float_repr, math.isfinite, _jsonl_line
    last_zone = last_position = last_hf = _NO_VALUE
    last_resistance = last_temp = last_capacitance = last_photocurrent = _NO_VALUE
    lines, rows = [], []
    for r in records:
        t, position, alpha, hf, zone, resistance, temp_c, capacitance, photocurrent, events = r
        try:
            # one sum is non-finite when any of its terms is
            finite = isfinite(
                t + position + alpha + hf + resistance + photocurrent + (temp_c or 0.0) + (capacitance or 0.0)
            )
            if finite:
                if position is not last_position:
                    last_position, position_text = position, float_repr(position)
                if hf is not last_hf:
                    last_hf, hf_text = hf, float_repr(hf)
                if resistance is not last_resistance:
                    last_resistance, resistance_text = resistance, float_repr(resistance)
                # a missing reading's text is None here, and null or nan in the line and row
                if temp_c is not last_temp:
                    last_temp, temp_text = temp_c, None if temp_c is None else float_repr(temp_c)
                if capacitance is not last_capacitance:
                    last_capacitance, cap_text = capacitance, None if capacitance is None else float_repr(capacitance)
                if photocurrent is not last_photocurrent:
                    last_photocurrent, photo_text = photocurrent, float_repr(photocurrent)
                t_text, alpha_text = float_repr(t), float_repr(alpha)
                if zone is not last_zone:
                    last_zone, zone_text = zone, json.dumps(zone)
                line = jsonl_line(
                    t_text, position_text, alpha_text, hf_text, zone_text, resistance_text, temp_text or "null",
                    cap_text or "null", photo_text, json.dumps([vars(e) for e in events]) if events else "[]",
                )
                # the cells of _CSV_COLUMNS, in the header's order
                row = f"{t_text},{position_text},{alpha_text},{temp_text or 'nan'},{cap_text or 'nan'},{photo_text}\n"
        except TypeError:  # a value that is not a float, or None where no reading may be missing
            finite = False
        if not finite:
            line = json.dumps(dict(zip(TelemetryRecord._fields, r), events=[vars(e) for e in events])) + "\n"
            cells = (t, position, alpha, temp_c, capacitance, photocurrent)
            cells = ("nan" if v is None else float_repr(v) if isinstance(v, float) else repr(v) for v in cells)
            row = ",".join(cells) + "\n"
        lines.append(line)
        rows.append(row)
    return "".join(lines), "".join(rows)


class TelemetryChunk(tuple):
    """An immutable slice of records; its first writer call formats both files' texts and keeps them."""

    @cached_property
    def texts(self) -> tuple[str, str]:
        return _format_telemetry(self)


def telemetry_to_jsonl(records) -> str:
    """One JSON object per record, in the bytes ``json.dumps`` gives it, a float being its ``float.__repr__``.

    The lines come from the one pass that formats the CSV rows as well, a
    ``TelemetryChunk``'s kept one or, for any other iterable, a pass of its own.
    """
    return (records.texts if isinstance(records, TelemetryChunk) else _format_telemetry(records))[0]


def telemetry_to_csv(records, *, header: bool = True) -> str:
    """The telemetry.csv text, from the cell texts of ``telemetry_to_jsonl``'s lines, None being nan.

    ``header=False`` leaves out the header line, for each slice of a file
    written one slice at a time after the first.
    """
    rows = (records.texts if isinstance(records, TelemetryChunk) else _format_telemetry(records))[1]
    return TELEMETRY_CSV_HEADER + "\n" + rows if header else rows
