"""Zone lookup, stepping semantics, mission runs, alarms, telemetry formats."""

import ast
import functools
import json
import math
import operator
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transient_kinetics import cli, jitter, mission
from transient_kinetics.config import default_calibration, presets_dir
from transient_kinetics.errors import ConfigError, DomainError, SimulationFault
from transient_kinetics.kinetics import arrhenius_rate
from transient_kinetics.mission import (
    RULE_FIELDS,
    TELEMETRY_CSV_HEADER,
    AlarmRule,
    Command,
    Condition,
    Event,
    Mission,
    RobotState,
    StepPlan,
    TelemetryChunk,
    TelemetryRecord,
    Zone,
    compile_alarms,
    default_alarm_rules,
    evaluate_alarms,
    load_mission,
    locate_zone_index,
    parse_alarm_rule,
    run,
    step,
    telemetry_to_csv,
    telemetry_to_jsonl,
    validate_world,
)
from transient_kinetics.sensors import (
    SENSOR_KINDS,
    STATUS_DEGRADED,
    SensorHealth,
    apply_degradation,
    strain_capacitance,
)

from reference import advance

# a record's values except its events, the input of compiled alarm rules
rule_values = operator.itemgetter(slice(-1))

CAL = default_calibration()


def make_cal(**settings_overrides):
    return replace(CAL, simulation=replace(CAL.simulation, **settings_overrides))


def make_mission(world, commands=(Command("dwell", 1.0),), start=None, rules=None):
    """A Mission over ``world``, with the default alarm rules unless ``rules`` is given."""
    if rules is None:
        rules = default_alarm_rules(CAL.simulation)
    return Mission(tuple(world), tuple(commands), rules, start)


def scout_run():
    """The records of the bundled mission at seed 11, dt 1."""
    return run(load_mission(presets_dir() / "scout_demo.mission", CAL.simulation), CAL, dt=1.0, seed=11)


def reference_jitter(seed: int, step_index: int) -> float:
    """numpy's jitter draw: default_rng(SeedSequence([seed, step_index]).generate_state(1)[0]).uniform(-1, 1)."""
    step_seed = int(np.random.SeedSequence([seed, step_index]).generate_state(1)[0])
    return np.random.default_rng(step_seed).uniform(-1.0, 1.0)


def reference_block(seed: int, base: int) -> list[float]:
    """The jitter draws of steps ``base`` to ``base + 4095`` by the numpy kernel that ``jitter.block`` replaced.

    SeedSequence's hash and PCG64 on uint32/uint64 arrays, one element per step.
    """
    mask32, mult = 0xFFFFFFFF, 0x2360ED051FC65DA44385DF649FCCF645
    pcg_mult = [(mult >> (32 * k)) & mask32 for k in range(4)]

    def int_words(n):
        words = [n & mask32]
        while n := n >> 32:
            words.append(n & mask32)
        return words

    def seed_pool(entropy):
        hash_const = 0x43B0D7E5

        def hashmix(value):
            nonlocal hash_const
            value = value ^ np.uint32(hash_const)
            hash_const = hash_const * 0x931E8875 & mask32
            value = value * np.uint32(hash_const)
            return value ^ (value >> 16)

        def mix(x, y):
            result = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
            return result ^ (result >> 16)

        pool = [hashmix(entropy[i] if i < len(entropy) else np.uint32(0)) for i in range(4)]
        for i_src in range(4):
            for i_dst in range(4):
                if i_src != i_dst:
                    pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
        for word in entropy[4:]:
            for i_dst in range(4):
                pool[i_dst] = mix(pool[i_dst], hashmix(word))
        return pool

    def generate_state(pool, n_words):
        hash_const, words = 0x8B51F9DD, []
        for i in range(n_words):
            value = pool[i % 4] ^ np.uint32(hash_const)
            hash_const = hash_const * 0x58F38DED & mask32
            value = value * np.uint32(hash_const)
            words.append(value ^ (value >> 16))
        return words

    def carry(columns):
        limbs, carried = [], 0
        for column in columns:
            total = column + carried
            limbs.append(total & mask32)
            carried = total >> 32
        return limbs

    def add128(a, b):
        return carry([x + y for x, y in zip(a, b)])

    def mul128(a, b):
        columns = [0] * 4
        for i in range(4):
            for j in range(4 - i):
                product = a[i] * np.uint64(b[j])
                columns[i + j] = columns[i + j] + (product & mask32)
                if i + j < 3:
                    columns[i + j + 1] = columns[i + j + 1] + (product >> 32)
        return carry(columns)

    index_words = int_words(base)
    with np.errstate(over="ignore"):
        low = np.arange(4096, dtype=np.uint32) + np.uint32(index_words[0])
        entropy = [np.uint32(w) for w in int_words(seed)] + [low] + [np.uint32(w) for w in index_words[1:]]
        (step_seed,) = generate_state(seed_pool(entropy), 1)
        words = [w.astype(np.uint64) for w in generate_state(seed_pool([step_seed]), 8)]
        initstate = [words[2], words[3], words[0], words[1]]
        initseq = [words[6], words[7], words[4], words[5]]
        inc = [initseq[0] << 1 & mask32 | 1] + [initseq[k] << 1 & mask32 | initseq[k - 1] >> 31 for k in range(1, 4)]
        state = add128(mul128(add128(inc, initstate), pcg_mult), inc)
        state = add128(mul128(state, pcg_mult), inc)
        folded = (state[3] ^ state[1]) << 32 | (state[2] ^ state[0])
        rotation = state[3] >> 26
        output = folded >> rotation | folded << (64 - rotation & 63)
        draws = -1.0 + 2.0 * ((output >> 11).astype(np.float64) * (1.0 / 9007199254740992.0))
    return draws.tolist()


def degraded_robot(mission):
    """A robot at rest in the mission's first zone, in the degraded band."""
    return RobotState.at(0.5, mission.zones)._replace(alpha=0.5)


def benign_world():
    return (Zone(0.0, 2.0, 298.15, False, "benign"),)


def record_with(**overrides):
    base = dict(
        t=1.0, position=0.5, alpha=0.0, hf_fraction=0.0, zone="z",
        temp_resistance_ohm=10.0, temp_c=25.0, capacitance_pf=10.0,
        photocurrent_a=0.0, events=(),
    )
    base.update(overrides)
    return TelemetryRecord(**base)


class TestWorldGeometry:
    def test_zone_validation(self):
        with pytest.raises(ConfigError):
            Zone(1.0, 1.0, 300.0, False, "flat")

    def test_overlap_rejected(self):
        with pytest.raises(ConfigError):
            validate_world(
                [Zone(0, 1, 300, False, "a"), Zone(0.5, 2, 300, False, "b")]
            )

    def test_gap_rejected(self):
        with pytest.raises(ConfigError):
            validate_world([Zone(0, 1, 300, False, "a"), Zone(1.5, 2, 300, False, "b")])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            validate_world([Zone(0, 1, 300, False, "a"), Zone(1, 2, 300, False, "a")])

    def test_boundary_ties_to_left_zone(self):
        world = (Zone(0, 1, 300, False, "left"), Zone(1, 2, 300, False, "right"))
        assert world[locate_zone_index(world, 1.0)].name == "left"
        assert world[locate_zone_index(world, 1.0 + 1e-12)].name == "right"

    def test_out_of_bounds_faults(self):
        world = benign_world()
        with pytest.raises(SimulationFault):
            locate_zone_index(world, -0.1)
        with pytest.raises(SimulationFault):
            locate_zone_index(world, 2.1)

    def test_nan_position_faults(self):
        # a NaN position lies in no zone, rather than in the last
        world = (Zone(0, 1, 300, False, "left"), Zone(1, 2, 300, False, "right"))
        with pytest.raises(SimulationFault, match=r"position nan m escapes world bounds \[0, 2\]"):
            locate_zone_index(world, math.nan)


class TestMissionRefusals:
    """A ``Mission`` built directly, not through ``load_mission``, is refused as ``load_mission`` would."""

    @pytest.mark.parametrize(
        "kind, value, head",
        [
            ("move_to", None, "command 'move_to' needs a value"),
            ("dwell", 0.0, "dwell duration must be finite and > 0"),
            ("dwell", math.inf, "dwell duration must be finite and > 0"),
            ("await_uv_dose", 1.0, "await_uv_dose fraction must lie in [0, 1)"),
            ("bogus", 1.0, "unknown command 'bogus'"),
            ("self_destruct", 5.0, "self_destruct takes no value"),
            ("dwell", None, "command 'dwell' needs a value"),
        ],
        ids=[
            "valueless-move", "zero-dwell", "endless-dwell", "full-dose-await", "unknown-kind", "valued-self-destruct",
            "valueless-dwell",
        ],
    )
    def test_refused_with_its_message(self, kind, value, head):
        # a Command that exists is valid, so the refusal comes from building it
        with pytest.raises(ConfigError, match=re.escape(head)):
            make_mission(benign_world(), commands=(Command(kind, value),))


class TestStepPlanRefusals:
    """The steps a run cannot take are refused when its plan is built, before the first step."""

    SCOUT = load_mission(presets_dir() / "scout_demo.mission", CAL.simulation)

    @pytest.mark.parametrize(
        "dt, message",
        [
            (0.0, "step size must be finite and > 0 s, got 0.0"),
            (-1.0, "step size must be finite and > 0 s, got -1.0"),
            (math.nan, "step size must be finite and > 0 s, got nan"),
            (math.inf, "step size must be finite and > 0 s, got inf"),
            # the move speed * dt underflowed to 0 m: ZeroDivisionError
            (5e-324, r"a move of speed \* dt = 0.0 m is lost to rounding"),
            # each move was lost to rounding: the run never ended
            (1e-300, r"a move of speed \* dt = 2.5e-302 m is lost to rounding at 2.5 m"),
        ],
        ids=["zero", "negative", "nan", "inf", "underflowing-move", "lost-move"],
    )
    def test_refused_step_raises_at_once(self, deadline, dt, message):
        with deadline(1.0), pytest.raises(DomainError, match=message):
            run(self.SCOUT, CAL, dt=dt)

    def test_overflowing_move_refused(self):
        cal = replace(CAL, actuator=replace(CAL.actuator, stride_per_cycle=1e300))
        with pytest.raises(DomainError, match="m overflows"):
            StepPlan(make_mission(benign_world()), cal, 1e10)

    def test_step_of_more_pressure_cycles_than_a_float_holds_refused(self):
        cal = replace(CAL, actuator=replace(CAL.actuator, stride_per_cycle=5e-324, cycle_period=5e-324))
        with pytest.raises(DomainError, match="spans more pressure cycles of 5e-324 s than a float holds"):
            StepPlan(make_mission(benign_world()), cal, 1.0)

    def test_timeout_over_max_steps_refused(self, deadline):
        with deadline(1.0), pytest.raises(DomainError, match=r"1e\+09 s at a step of 1.0 s is over 1e\+08 steps"):
            run(self.SCOUT, make_cal(timeout_s=1e9), dt=1.0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "0", None], ids=["negative", "float", "str", "none"])
    def test_seed_not_an_int_at_least_0_refused_before_any_step(self, seed):
        # numpy refused these midway, at the first degraded step
        with pytest.raises(DomainError, match=f"seed must be an int >= 0, got {seed!r}"):
            run(self.SCOUT, CAL, dt=10.0, seed=seed)

    def test_seed_beyond_64_bits_accepted(self):
        StepPlan(make_mission(benign_world()), CAL, 1.0, seed=2**130)

    @pytest.mark.parametrize("step_index", [-1, 2.0])
    def test_step_index_not_an_int_at_least_0_refused_for_a_degraded_robot(self, step_index):
        mission = make_mission(benign_world())
        plan = StepPlan(mission, make_cal(mobility_loss_alpha=1.0), 1.0)
        robot = degraded_robot(mission)
        # numpy refused -1 with a ValueError; the plan refuses it whether or not a block is kept
        for _ in range(2):
            with pytest.raises(DomainError, match=f"step index must be an int >= 0, got {step_index!r}"):
                step(plan, robot, step_index=step_index)
            step(plan, robot, step_index=1)

    def test_plan_holds_the_full_speed_move(self):
        plan = StepPlan(make_mission(benign_world()), CAL, 0.5)
        assert plan.move == CAL.actuator.speed * 0.5


class TestStep:
    def test_uv_off_zone_keeps_alpha_zero(self):
        mission = make_mission((Zone(0.0, 1.0, 393.15, False, "hot-dark"),))
        plan = StepPlan(mission, make_cal(), 10.0)
        robot = RobotState.at(0.5, mission.zones)
        for _ in range(500):
            robot, record = step(plan, robot)
        assert robot.alpha == 0.0
        assert robot.hf_fraction == 0.0

    def test_parked_saturated_matches_analytic(self):
        mission = make_mission((Zone(0.0, 1.0, 393.15, True, "hot-uv"),))
        cal = make_cal(mobility_loss_alpha=1.0, decomposed_alpha=1.0)
        plan = StepPlan(mission, cal, 1.0)
        robot = RobotState.at(0.5, mission.zones)._replace(hf_fraction=1.0)
        k = arrhenius_rate(cal.kinetics, 393.15)
        for i in range(4454):
            robot, record = step(plan, robot)
        assert robot.alpha == pytest.approx(1.0 - math.exp(-k * 4454.0), abs=1e-6)

    def test_failed_sensors_in_telemetry(self):
        mission = make_mission(benign_world())
        cal = make_cal(mobility_loss_alpha=1.0)
        robot = RobotState.at(0.5, mission.zones)._replace(alpha=0.95)
        robot, record = step(StepPlan(mission, cal, 1.0), robot)
        assert record.temp_resistance_ohm == 1e6
        assert record.temp_c is None
        assert record.capacitance_pf is None
        assert record.photocurrent_a == 0.0

    def test_benign_step_preserves_state_except_clock(self):
        mission = make_mission(benign_world())
        plan = StepPlan(mission, make_cal(), 1.0)
        robot0 = RobotState.at(0.5, mission.zones)
        robot = robot0
        for _ in range(50):
            robot, _ = step(plan, robot)
        assert robot._replace(clock=0.0) == robot0._replace(clock=0.0)
        assert robot.clock == 50.0

    def test_photolysis_accumulates_under_uv(self):
        mission = make_mission((Zone(0.0, 1.0, 298.15, True, "uv"),))
        plan = StepPlan(mission, make_cal(), 1.0)
        robot = RobotState.at(0.5, mission.zones)
        for _ in range(1800):
            robot, _ = step(plan, robot)
        assert robot.hf_fraction == pytest.approx(0.95, abs=1e-9)

    def test_mobility_loss_freezes_position(self):
        mission = make_mission((Zone(0.0, 50.0, 393.15, True, "hot-uv"),))
        plan = StepPlan(mission, make_cal(), 1.0)
        robot = RobotState.at(0.1, mission.zones)._replace(hf_fraction=1.0)
        positions = []
        lost_at = None
        for i in range(1200):
            robot, record = step(plan, robot, drive=1.0)
            positions.append(record.position)
            if lost_at is None and any(e.tag == "mobility-lost" for e in record.events):
                lost_at = i
        assert lost_at is not None
        frozen = positions[lost_at]
        assert all(p == frozen for p in positions[lost_at:])

    @pytest.mark.parametrize("drive", [1.5, -1.5, math.nan])
    def test_drive_outside_unit_range_refused(self, drive):
        mission = make_mission(benign_world())
        with pytest.raises(SimulationFault, match=r"drive must lie in \[-1, 1\]"):
            step(StepPlan(mission, CAL, 1.0), RobotState.at(0.5, mission.zones), drive=drive)


class TestAlarms:
    def test_uv_detection_rule(self):
        alarms = compile_alarms(default_alarm_rules(CAL.simulation))
        record = record_with(photocurrent_a=-5e-8)
        assert evaluate_alarms(alarms, rule_values(record)) == [("UV detected", "uv-detected")]

    def test_benign_record_silent(self):
        alarms = compile_alarms(default_alarm_rules(CAL.simulation))
        assert evaluate_alarms(alarms, rule_values(record_with())) == []

    def test_accelerated_decomposition_rule(self):
        alarms = compile_alarms(default_alarm_rules(CAL.simulation))
        record = record_with(hf_fraction=1.0, temp_c=120.0)
        assert evaluate_alarms(alarms, rule_values(record)) == [("accelerated decomposition risk", "alarm")]

    def test_failed_temp_reading_blocks_rule(self):
        alarms = compile_alarms(default_alarm_rules(CAL.simulation))
        record = record_with(hf_fraction=1.0, temp_c=None)
        assert evaluate_alarms(alarms, rule_values(record)) == []

    def test_parse_alarm_rule(self):
        rule = parse_alarm_rule("abs(photocurrent_a) > 1e-9 -> UV detected")
        assert rule.message == "UV detected"
        assert rule.conditions == (Condition("photocurrent_a", ">", 1e-9, use_abs=True),)
        compound = parse_alarm_rule("hf_fraction >= 0.5 and temp_c >= 100 -> hot")
        assert len(compound.conditions) == 2

    def test_malformed_rules_rejected(self):
        missing = "<rule>: rule needs '-> message', got 'photocurrent_a > 1e-9'"
        with pytest.raises(ConfigError, match=re.escape(missing)):
            parse_alarm_rule("photocurrent_a > 1e-9")
        # Condition's refusal names the valid fields; the parser adds its context
        unknown = (
            "<rule>: unknown telemetry field 'no_such_field' (valid: t, position, alpha, hf_fraction, "
            "temp_resistance_ohm, temp_c, capacitance_pf, photocurrent_a)"
        )
        with pytest.raises(ConfigError, match=re.escape(unknown)):
            parse_alarm_rule("no_such_field > 1 -> boom")
        with pytest.raises(ConfigError, match=re.escape("<rule>: malformed condition 'temp_c >> 1'")):
            parse_alarm_rule("temp_c >> 1 -> boom")

    def test_unknown_operator_refused_at_construction(self):
        with pytest.raises(ConfigError, match="unknown operator '=='"):
            Condition("alpha", "==", 0.5)

    # compile_alarms writes a condition's operator and field index into source
    # text, so these refusals keep any other text out of it
    @pytest.mark.parametrize("op", ["; x", "> 0 or True or", "in", ""])
    def test_operator_outside_the_four_refused(self, op):
        with pytest.raises(ConfigError, match="unknown operator"):
            Condition("alpha", op, 0.5)

    @pytest.mark.parametrize("field", ["zone", "events", "no_such_field", "0]; x = [0"])
    def test_field_that_is_not_a_rule_field_refused(self, field):
        with pytest.raises(ConfigError) as err:
            Condition(field, ">=", 0.5)
        assert str(err.value) == f"unknown telemetry field {field!r} (valid: {', '.join(RULE_FIELDS)})"

    @pytest.mark.parametrize("op", [">", ">=", "<", "<="])
    def test_parser_reads_each_operator_whole(self, op):
        (cond,) = parse_alarm_rule(f"alpha {op} 0.5 -> late").conditions
        assert cond == Condition("alpha", op, 0.5)


def reference_alarms(rules):
    """``compile_alarms`` as closures: one nested test per rule, each condition a lambda."""
    compare = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}

    def condition_test(condition):
        index = TelemetryRecord._fields.index(condition.field)
        op, threshold = compare[condition.op], condition.value
        if condition.use_abs:
            return lambda values: (v := values[index]) is not None and op(abs(v), threshold)
        return lambda values: (v := values[index]) is not None and op(v, threshold)

    def both(first, second):
        return lambda values: first(values) and second(values)

    tests = []
    for rule in rules:
        conditions = [condition_test(c) for c in rule.conditions]
        tests.append((rule.message, rule.tag, functools.reduce(both, conditions) if conditions else lambda values: True))
    return lambda values: [(message, tag) for message, tag, test in tests if test(values)]


# field values: floats of every kind, signed zeros, and missing readings
FIELD_VALUE = st.one_of(st.none(), st.floats(), st.sampled_from([0.0, -0.0, 1.0, -1.0]))
# messages and tags that a generated source must never hold as text
RULE_TEXT = ["it's", 'say "hi"', "back\\slash", "two\nlines", '"""', "'''", "{}", "{alpha}", "100%", "%s", "\\n", ""]


@st.composite
def rules_and_values(draw):
    """A record's field values and rules over them whose thresholds are often those values."""
    values = tuple("z" if name == "zone" else draw(FIELD_VALUE) for name in TelemetryRecord._fields[:-1])
    seen = [v for v in values if isinstance(v, float)]
    threshold = st.one_of(
        st.floats(), st.sampled_from([0.0, -0.0]), st.sampled_from(seen + [abs(v) for v in seen] or [0.0])
    )
    condition = st.builds(Condition, st.sampled_from(RULE_FIELDS), st.sampled_from([">", ">=", "<", "<="]),
                          threshold, st.booleans())
    rule = st.builds(
        AlarmRule,
        st.one_of(st.sampled_from(RULE_TEXT), st.text(max_size=8)),
        st.lists(condition, max_size=4).map(tuple),
        st.sampled_from(["alarm", "uv-detected", "x"]),
    )
    return draw(st.lists(rule, max_size=5)), values


class TestGeneratedAlarms:
    """``compile_alarms`` gives the firing list of the closure form, for any rules and field values."""

    @settings(max_examples=200, deadline=None)
    @given(rules_and_values())
    @example(([AlarmRule("always", ())], ("z",) * 9))
    @example(([AlarmRule("zero", (Condition("alpha", ">=", 0.0), Condition("hf_fraction", "<=", -0.0)))],
              (1.0, 0.5, -0.0, 0.0, "z", 1.0, None, None, 0.0)))
    @example(([AlarmRule("abs", (Condition("photocurrent_a", ">=", 5e-8, use_abs=True),)),
               AlarmRule("none", (Condition("temp_c", "<", math.inf),))],
              (1.0, 0.5, 0.0, 0.0, "z", 1.0, None, None, -5e-8)))
    def test_matches_closures(self, case):
        rules, values = case
        assert evaluate_alarms(compile_alarms(rules), values) == reference_alarms(rules)(values)

    def test_rule_text_fires_verbatim(self):
        rules = [AlarmRule(text, (Condition("alpha", ">=", 0.0),), tag=text) for text in RULE_TEXT]
        parsed = 'a "quoted" {x} % \\ \'\'\' """ end'
        rules.append(parse_alarm_rule(f"abs(alpha) >= 0 -> {parsed}"))
        fired = evaluate_alarms(compile_alarms(rules), rule_values(record_with()))
        assert fired == [(text, text) for text in RULE_TEXT] + [(parsed, "alarm")]

    def test_rule_text_reaches_the_events_verbatim(self):
        mission = Mission(
            benign_world(), (Command("dwell", 1.0),),
            tuple(AlarmRule(text, (), tag=text) for text in RULE_TEXT),
        )
        (record,) = run(mission, CAL, dt=1.0)
        assert record.events == tuple(Event(text, text) for text in RULE_TEXT)


class TestRun:
    def test_benign_dwell_changes_nothing_but_clock(self):
        mission = make_mission(benign_world(), (Command("dwell", 30.0),), start=0.5)
        records = run(mission, make_cal(), dt=1.0, seed=1)
        assert len(records) == 30
        final = records[-1]
        assert final.alpha == 0.0
        assert final.position == 0.5
        assert all(not r.events for r in records)
        assert [r.t for r in records] == [float(i + 1) for i in range(30)]

    def test_deterministic_replay(self):
        mission = load_mission(presets_dir() / "scout_demo.mission", CAL.simulation)
        a = run(mission, CAL, dt=1.0, seed=9)
        b = run(mission, CAL, dt=1.0, seed=9)
        assert a == b
        assert telemetry_to_jsonl(a) == telemetry_to_jsonl(b)

    def test_alpha_and_hf_nondecreasing_and_clock_exact(self):
        mission = load_mission(presets_dir() / "scout_demo.mission", CAL.simulation)
        records = run(mission, CAL, dt=1.0, seed=9)
        alphas = [r.alpha for r in records]
        doses = [r.hf_fraction for r in records]
        assert all(b >= a for a, b in zip(alphas, alphas[1:]))
        assert all(b >= a for a, b in zip(doses, doses[1:]))
        assert records[-1].t == len(records) * 1.0

    def test_never_uv_mission_stays_pristine(self):
        world = (
            Zone(0.0, 1.0, 298.15, False, "cool"),
            Zone(1.0, 2.0, 393.15, False, "hot"),
        )
        mission = make_mission(
            world,
            (Command("move_to", 1.5), Command("dwell", 120.0), Command("move_to", 0.2)),
            start=0.3,
        )
        records = run(mission, make_cal(), dt=1.0, seed=3)
        assert records[-1].alpha == 0.0
        assert all(r.alpha == 0.0 for r in records)
        assert records[-1].position == pytest.approx(0.2, abs=1e-9)

    def test_stranded_move(self):
        world = (
            Zone(0.0, 1.0, 298.15, True, "uv"),
            Zone(1.0, 40.0, 393.15, False, "long-hot"),
        )
        mission = make_mission(
            world, (Command("await_uv_dose", 0.94), Command("move_to", 39.0)), start=0.5
        )
        records = run(mission, make_cal(), dt=1.0, seed=2)
        tags = [e.tag for r in records for e in r.events]
        assert "mobility-lost" in tags
        assert tags.count("stranded") == 1
        assert any(e.tag == "stranded" for e in records[-1].events)
        # position frozen after mobility loss
        lost_index = next(
            i for i, r in enumerate(records) if any(e.tag == "mobility-lost" for e in r.events)
        )
        frozen = records[lost_index].position
        assert all(r.position == frozen for r in records[lost_index:])

    def test_timeout_event(self):
        mission = make_mission(benign_world(), (Command("await_uv_dose", 0.5),), start=0.5)
        records = run(mission, make_cal(timeout_s=25.0), dt=1.0, seed=0)
        assert any(e.tag == "timeout" for e in records[-1].events)
        assert records[-1].t == 26.0

    def test_move_lands_exactly(self):
        mission = make_mission(benign_world(), (Command("move_to", 0.777),), start=0.5, rules=())
        records = run(mission, make_cal(), dt=1.0, seed=0)
        assert records[-1].position == pytest.approx(0.777, abs=1e-9)

    def test_script_target_outside_world_rejected(self):
        with pytest.raises(ConfigError):
            make_mission(benign_world(), (Command("move_to", 5.0),), start=0.5, rules=())

    def test_run_evaluates_the_missions_own_rules(self):
        # in a UV zone the default "UV detected" rule would fire on the first step
        mission = Mission(
            (Zone(0.0, 1.0, 298.15, True, "uv"),),
            (Command("dwell", 3.0),),
            (parse_alarm_rule("alpha >= 0 -> always on"),),
        )
        records = run(mission, default_calibration(), dt=1.0, seed=0)
        assert len(records) == 3
        assert [e for r in records for e in r.events] == [Event("alarm", "always on")]

    def test_parked_stepper_matches_schedule_integrator(self):
        # the stepper and the schedule integrator implement the same dose
        # and conversion updates; a parked robot must track the schedule
        from transient_kinetics.kinetics import (
            ExposureSchedule,
            PhotolysisState,
            integrate_conversion,
        )

        mission = make_mission((Zone(0.0, 1.0, 298.15, True, "uv"),))
        cal = make_cal()
        plan = StepPlan(mission, cal, 1.0)
        robot = RobotState.at(0.5, mission.zones)
        for _ in range(1800):
            robot, _ = step(plan, robot)
        schedule = ExposureSchedule.from_tuples([(1800.0, 298.15, True)])
        photolysis = PhotolysisState(
            dpi_initial=CAL.dpi_initial, k_photo=CAL.photolysis_rate
        )
        series = integrate_conversion(
            schedule, cal.kinetics, photolysis, dt=1.0, hf_sat=cal.hf_saturation
        )
        assert robot.alpha == pytest.approx(float(series.alpha[-1]), abs=1e-9)
        assert robot.hf_fraction == pytest.approx(float(series.hf_fraction[-1]), abs=1e-9)

    def test_dt_halving_parked_alpha_stable(self):
        mission = make_mission((Zone(0.0, 1.0, 393.15, True, "hot-uv"),))
        cal = make_cal(mobility_loss_alpha=1.0, decomposed_alpha=1.0)

        def final_alpha(dt):
            plan = StepPlan(mission, cal, dt)
            robot = RobotState.at(0.5, mission.zones)._replace(hf_fraction=1.0)
            steps = int(600.0 / dt)
            for _ in range(steps):
                robot, _ = step(plan, robot)
            return robot.alpha

        assert abs(final_alpha(1.0) - final_alpha(0.5)) < 1e-6


@st.composite
def worlds_and_scripts(draw):
    """A contiguous world of 1-4 zones and a script of moves and dwells.

    Move targets and the start are often shared zone boundaries; at dt 5
    one step can cross more than one zone.
    """
    edges = [0.0]
    for width in draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)):
        edges.append(edges[-1] + 0.05 * width)
    zones = tuple(
        Zone(lo, hi, draw(st.sampled_from((298.15, 333.15, 393.15))), draw(st.booleans()), f"z{i}")
        for i, (lo, hi) in enumerate(zip(edges, edges[1:]))
    )
    point = st.one_of(st.sampled_from(edges), st.floats(edges[0], edges[-1]))
    command = st.one_of(
        st.builds(lambda x: Command("move_to", x), point),
        st.builds(lambda s: Command("dwell", s), st.floats(1.0, 300.0)),
    )
    commands = draw(st.lists(command, min_size=1, max_size=6))
    return make_mission(zones, commands, start=draw(point)), draw(st.sampled_from((0.5, 1.0, 5.0)))


# a move from the world's far edge back to 0 at dt 0.37 rounds to -1.7e-18 m
EDGE_ROUND_TRIP = (
    make_mission(
        (Zone(0.0, 1.07093, 298.15, False, "z0"),),
        (Command("move_to", 1.07093), Command("move_to", 0.0)),
        start=0.0,
    ),
    0.37,
)


class TestStepperInvariants:
    @settings(max_examples=25, deadline=None)
    @given(worlds_and_scripts())
    @example(EDGE_ROUND_TRIP)
    def test_zone_events_dose_and_conversion(self, case):
        mission, dt = case
        zones = mission.zones
        zone = zones[locate_zone_index(zones, mission.start)]
        alpha = hf = 0.0
        for record in run(mission, CAL, dt=dt, seed=0):
            here = zones[locate_zone_index(zones, record.position)]
            assert record.zone == here.name
            crossings = [e for e in record.events if e.tag in ("zone-exit", "zone-entry")]
            if here is zone:
                assert crossings == []
            else:
                assert crossings == [Event("zone-exit", zone.name), Event("zone-entry", here.name)]
            assert alpha <= record.alpha <= 1.0
            assert hf <= record.hf_fraction <= 1.0
            if not zone.uv_on:  # the step's kinetics ran in the zone it started in
                assert record.hf_fraction == hf
            zone, alpha, hf = here, record.alpha, record.hf_fraction

    def test_alarms_see_the_records_field_values(self, monkeypatch):
        seen = []

        def recording(alarms, values):
            seen.append(values)
            return evaluate_alarms(alarms, values)

        monkeypatch.setattr(mission, "evaluate_alarms", recording)
        records = scout_run()
        assert seen == [rule_values(r) for r in records]


def reference_step(plan, alarms, robot, drive=0.0, step_index=0, pending_events=()):
    """``step`` as it was written before its plan held the decay factors and thresholds.

    ``reference.advance`` on every step, the status of both alphas, and every
    event test on every step; ``alarms`` is ``reference_alarms`` of the rules.
    """
    if not -1.0 <= drive <= 1.0:
        raise SimulationFault("drive must lie in [-1, 1]")
    cal, dt, zones = plan.cal, plan.dt, plan.zones
    settings, health = cal.simulation, cal.health
    env_index = robot.zone_index
    env = zones[env_index]
    hf, alpha = advance(
        robot.hf_fraction, robot.alpha, plan.rates[env_index], env.uv_on, dt, cal.photolysis_rate, 1.0,
        cal.hf_saturation,
    )
    mobility = 1.0 if alpha < settings.mobility_loss_alpha else 0.0
    gait, position, here_index = robot.gait, robot.gait.position, env_index
    if drive != 0.0:
        advanced = mission.gait_advance(gait, cal.actuator, dt, mobility * abs(drive))
        delta = advanced.position - gait.position
        position = min(max(robot.gait.position + math.copysign(delta, drive), plan.x_min), plan.x_max)
        gait = replace(advanced, position=position)
        here_index = locate_zone_index(zones, position)
    here = zones[here_index]
    old_status, status = health.status_at(robot.alpha), health.status_at(alpha)
    zone_temp_c = plan.zone_temps_c[here_index]
    body_temp_c = zone_temp_c + (robot.body_temperature_c - zone_temp_c) * plan.relax
    resistance, temp_reading, capacitance, photocurrent = plan.readings(
        here_index, body_temp_c, gait.current_angle, status, alpha
    )
    if status == STATUS_DEGRADED:
        capacitance = apply_degradation(capacitance, "strain", alpha, health, plan.noise(step_index))
    clock = robot.clock + dt
    values = (clock, position, alpha, hf, here.name, resistance, temp_reading, capacitance, photocurrent)
    firing = alarms(values)
    events = list(pending_events)
    if here_index != env_index:
        events += [Event("zone-exit", env.name), Event("zone-entry", here.name)]
        if temp_reading is not None:
            events.append(Event("temp-report", f"{here.name}: {temp_reading:.2f} C"))
    if status != old_status:
        events.extend(Event(f"sensor-{status}", kind) for kind in SENSOR_KINDS)
    if robot.alpha < settings.mobility_loss_alpha <= alpha:
        events.append(Event("mobility-lost", f"alpha reached {alpha:.4f}"))
    events.extend(Event(tag, message) for message, tag in firing if (message, tag) not in robot.active_alarms)
    if here_index != env_index and any(tag == "alarm" for _, tag in robot.active_alarms):
        events.append(Event("escape", f"left {env.name} under active alarm"))
    if robot.alpha < settings.decomposed_alpha <= alpha:
        events.append(Event("decomposed", f"alpha reached {alpha:.4f}"))
    new_robot = RobotState(here_index, body_temp_c, alpha, hf, gait, clock, tuple(firing))
    return new_robot, TelemetryRecord(*values, tuple(events))


ALPHA = st.floats(0.01, 1.0)


@st.composite
def stepping_cases(draw):
    """A calibration, a world, a robot in it and a sequence of (drive, pending events) steps.

    The thresholds often coincide (mobility loss at alpha_degrade,
    decomposition at alpha_fail), the zones are often hot, and at the large
    steps one step of a dosed robot can jump past two thresholds.
    """
    degrade, fail = sorted(draw(st.lists(ALPHA, min_size=2, max_size=2, unique=True)))
    mobility = draw(st.one_of(ALPHA, st.just(degrade), st.just(fail)))
    decomposed = draw(st.one_of(ALPHA, st.just(fail), st.just(degrade), st.just(1.0)))
    cal = replace(
        make_cal(mobility_loss_alpha=mobility, decomposed_alpha=decomposed), health=SensorHealth(degrade, fail)
    )
    edges = [0.0]
    for width in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)):
        edges.append(edges[-1] + 0.05 * width)
    zones = tuple(
        Zone(lo, hi, draw(st.sampled_from((298.15, 393.15, 393.15))), draw(st.booleans()), f"z{i}")
        for i, (lo, hi) in enumerate(zip(edges, edges[1:]))
    )
    limit = st.sampled_from((0.0, degrade, fail, 0.5, 1e-9))
    rules = (
        *default_alarm_rules(cal.simulation),
        *draw(st.lists(st.builds(
            lambda field, value, message: AlarmRule(message, (Condition(field, ">=", value),)),
            st.sampled_from(("alpha", "hf_fraction", "position")), limit, st.sampled_from(RULE_TEXT[:3]),
        ), max_size=2)),
    )
    mission_ = make_mission(zones, rules=rules, start=draw(st.sampled_from(edges)))
    dt = draw(st.sampled_from((0.5, 5.0, 500.0, 3000.0)))
    robot = RobotState.at(mission_.start, zones)._replace(
        alpha=draw(st.one_of(st.just(0.0), ALPHA, st.sampled_from((degrade, fail)))),
        hf_fraction=draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))),
        active_alarms=tuple(draw(st.lists(st.sampled_from([(r.message, r.tag) for r in rules]), max_size=2))),
    )
    pending = st.lists(st.builds(Event, st.sampled_from(("self-destruct", "timeout")), st.sampled_from(RULE_TEXT)),
                       max_size=2).map(tuple)
    steps = draw(st.lists(st.tuples(st.sampled_from((0.0, 1.0, -1.0, 0.3, -0.7)), pending), min_size=1, max_size=12))
    return cal, mission_, dt, robot, steps


class TestStepAgainstReference:
    """``step`` gives, bit for bit, what the reference stepper gives."""

    @settings(max_examples=150, deadline=None)
    @given(stepping_cases(), st.integers(0, 2**20))
    def test_bit_identical(self, case, seed):
        cal, mission_, dt, robot, steps = case
        plan = StepPlan(mission_, cal, dt, seed=seed)
        reference_plan, alarms = StepPlan(mission_, cal, dt, seed=seed), reference_alarms(mission_.alarm_rules)
        # a second robot on the same plan, in the last zone at full dose, between the steps
        other = RobotState.at(mission_.zones[-1].x_max, mission_.zones)._replace(hf_fraction=1.0)
        expected_robot = robot
        for index, (drive, pending) in enumerate(steps):
            step(plan, other, step_index=index)
            robot, record = step(plan, robot, drive, index, pending)
            expected_robot, expected = reference_step(reference_plan, alarms, expected_robot, drive, index, pending)
            assert repr((robot, record)) == repr((expected_robot, expected)), index
            assert (robot, record) == (expected_robot, expected)


class TestSensorBand:
    FURNACE = (
        "[zone.lab]\nx_min = 0\nx_max = 1\ntemperature_c = 25\n"
        "[zone.furnace]\nx_min = 1\nx_max = 2\ntemperature_c = 250\n"
        "[robot]\nposition = 0.5\n"
    )

    def simulate(self, tmp_path, capsys, script):
        path = tmp_path / "furnace.mission"
        path.write_text(self.FURNACE + "[script]\n" + script)
        code = cli.main(["simulate", str(path), "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    def test_zone_outside_the_sensor_band_never_entered_is_harmless(self, tmp_path, capsys):
        code, err = self.simulate(tmp_path, capsys, "dwell = 5\nmove_to = 0.9\n")
        assert code == 0, err

    def test_entering_a_zone_outside_the_sensor_band_exits_2(self, tmp_path, capsys):
        code, err = self.simulate(tmp_path, capsys, "move_to = 1.5\n")
        assert code == 2
        assert "outside model band" in err


class TestSensorStatus:
    def test_sensor_events_follow_status_of_alpha(self):
        records = scout_run()
        status_at = CAL.health.status_at
        previous = status_at(0.0)
        changes = []
        for i, record in enumerate(records):
            status = status_at(record.alpha)
            sensor_events = [e for e in record.events if e.tag.startswith("sensor-")]
            if status != previous:
                changes.append(status)
                assert sensor_events == [Event(f"sensor-{status}", k) for k in SENSOR_KINDS], i
            else:
                assert sensor_events == [], i
            previous = status
        assert changes == ["degraded", "failed"]

    def test_degraded_strain_jitter_seeded_by_seed_and_step_index(self):
        mission = make_mission(benign_world())
        cal = make_cal(mobility_loss_alpha=1.0)
        plan = StepPlan(mission, cal, 1.0, seed=11)
        robot = degraded_robot(mission)
        raw = strain_capacitance(cal.strain_sensor, robot.gait.current_angle)
        readings = set()
        for i in (0, 1, 7, 4096):
            _, record = step(plan, robot, step_index=i)
            expected = apply_degradation(raw, "strain", 0.5, cal.health, reference_jitter(11, i))
            assert record.capacitance_pf == expected
            readings.add(record.capacitance_pf)
        assert len(readings) == 4

    def test_step_seed_made_only_for_degraded_strain(self, monkeypatch):
        draws, blocks = [], []
        noise, jitter_block = StepPlan.noise, jitter.block

        def counting_noise(plan, step_index):
            draws.append(step_index)
            return noise(plan, step_index)

        def counting_block(seed, base):
            blocks.append(base)
            return jitter_block(seed, base)

        monkeypatch.setattr(StepPlan, "noise", counting_noise)
        monkeypatch.setattr(jitter, "block", counting_block)
        records = scout_run()
        degraded = [
            i for i, r in enumerate(records)
            if CAL.health.status_at(r.alpha) == STATUS_DEGRADED
        ]
        assert degraded
        assert draws == degraded
        # one block per aligned span of degraded steps, each computed once
        assert blocks == sorted({i - i % jitter.BLOCK for i in degraded})

        # a run that never degrades computes no block
        draws.clear()
        blocks.clear()
        never_degrades = run(make_mission(benign_world(), (Command("dwell", 5000.0),)), CAL, dt=1.0, seed=3)
        assert len(never_degrades) == 5000
        assert draws == blocks == []


def plan_and_robot(seed: int):
    mission = make_mission(benign_world())
    return StepPlan(mission, make_cal(mobility_loss_alpha=1.0), 1.0, seed=seed), degraded_robot(mission)


# aligned block bases around where an index's entropy grows by a word, and far out
BLOCK_BASES = st.one_of(
    st.tuples(
        st.sampled_from([0, 2**32 - jitter.BLOCK, 2**32, 10**8 - 10**8 % jitter.BLOCK]),
        st.integers(-2, 2),
    ).map(lambda anchor: max(0, anchor[0] + anchor[1] * jitter.BLOCK)),
    st.integers(0, 2**80 // jitter.BLOCK).map(lambda k: k * jitter.BLOCK),
)


class TestJitterDraw:
    """``StepPlan.noise`` is numpy's draw, computed here a block of step indices at a time."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        BLOCK_BASES,
        st.lists(st.integers(0, jitter.BLOCK - 1), min_size=1, max_size=3),
    )
    @example(2**64 - 1, 2**32, [0, jitter.BLOCK - 1])
    @example(2**130, 2**32 - jitter.BLOCK, [0, jitter.BLOCK - 1])
    @example(2**130, 0, [0, 1])
    def test_block_matches_numpy(self, seed, base, offsets):
        block = jitter.block(seed, base)
        assert len(block) == jitter.BLOCK
        for offset in offsets:
            assert block[offset] == reference_jitter(seed, base + offset), offset

    @pytest.mark.parametrize(
        "seed, step_index, draw",
        [
            (0, 0, -0.9918161464325328),
            (0, 1, 0.8684016425141077),
            (11, 28672, -0.7587932283013841),
            (11, 41271, -0.48872725909739256),
            (12345, 2**32 - 1, -0.931899248940244),
            (2**64 - 1, 2**32, -0.9151559070022537),
            (7, 10**8, -0.16782149166283467),
        ],
    )
    def test_draw_pinned(self, seed, step_index, draw):
        assert StepPlan(make_mission(benign_world()), CAL, 1.0, seed=seed).noise(step_index) == draw

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.sampled_from([0, 5, jitter.BLOCK - 1, jitter.BLOCK, 3 * jitter.BLOCK + 2, 2**32]), max_size=8))
    def test_shared_plan_reads_as_fresh_plans(self, indices):
        shared, robot = plan_and_robot(5)
        # two runs interleaved on one plan, each at its own indices, in any order
        for i in indices:
            for index in (i, i + 1):
                _, record = step(shared, robot, step_index=index)
                fresh, _ = plan_and_robot(5)
                assert record == step(fresh, robot, step_index=index)[1], index


# seeds of 1 to 5 uint32 words
SEEDS_BY_WORDS = st.integers(1, 5).flatmap(lambda n: st.integers(2 ** (32 * n - 32) if n > 1 else 0, 2 ** (32 * n) - 1))
# aligned bases just below and above 2**32, and at or above 2**64
WIDE_BLOCK_BASES = st.one_of(
    st.integers(-3, 2).map(lambda k: 2**32 + k * jitter.BLOCK),
    st.integers(2**64 // jitter.BLOCK, 2**100 // jitter.BLOCK).map(lambda k: k * jitter.BLOCK),
)


class TestJitterBlock:
    """``jitter.block`` on plain ints equals the numpy kernel it replaced, in every lane."""

    @settings(max_examples=40, deadline=None)
    @given(SEEDS_BY_WORDS, WIDE_BLOCK_BASES)
    @example(0, 0)
    @example(2**64 - 1, 2**32 - jitter.BLOCK)
    @example(2**160 - 1, 2**64)
    @example(2**40, 2**40)
    def test_block_matches_the_numpy_kernel(self, seed, base):
        draws = jitter.block(seed, base)
        expected = reference_block(seed, base)
        assert [d.hex() for d in draws] == [e.hex() for e in expected]
        # the reference itself is numpy's generator at the first and the last lane
        for lane in (0, jitter.BLOCK - 1):
            assert draws[lane] == reference_jitter(seed, base + lane), lane

    @pytest.mark.parametrize(
        "seed, base",
        [(-1, 0), (0, -jitter.BLOCK), (3, 2**32 - 5), (3, 1)],
        ids=["negative-seed", "negative-base", "unaligned-near-2**32", "unaligned"],
    )
    def test_block_refuses_what_it_cannot_compute(self, seed, base):
        # a negative seed or base has no uint32 words; an unaligned base's
        # lanes past 2**32 would take the wrong entropy words
        with pytest.raises(ValueError, match="jitter block needs"):
            jitter.block(seed, base)

    def test_kernel_imports_only_the_standard_library(self):
        tree = ast.parse(Path(jitter.__file__).read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert imported <= set(sys.stdlib_module_names) | {"__future__"}, imported


class TestMissionFile:
    def test_bundled_mission_loads(self):
        mission = load_mission(presets_dir() / "scout_demo.mission", CAL.simulation)
        world = mission.zones
        assert [z.name for z in world] == [
            "staging", "heat-survey", "uv-trigger", "hot-hazard", "terminal-heat",
        ]
        assert world[1].temperature == pytest.approx(333.15)
        assert world[2].uv_on is True
        assert mission.commands[0] == Command("move_to", 0.75)
        assert mission.commands[-1] == Command("self_destruct")
        assert mission.start == 0.25

    def test_zone_requires_one_temperature_key(self, tmp_path):
        bad = tmp_path / "bad.mission"
        bad.write_text(
            "[zone.1]\nx_min = 0\nx_max = 1\ntemperature_c = 25\ntemperature_k = 300\n"
            "[script]\ndwell = 5\n"
        )
        with pytest.raises(ConfigError):
            load_mission(bad)

    def test_custom_alarm_section(self, tmp_path):
        mission = tmp_path / "m.mission"
        mission.write_text(
            "[zone.1]\nx_min = 0\nx_max = 1\ntemperature_c = 25\nuv_on = false\n"
            "[script]\ndwell = 5\n"
            "[alarms]\nrule = alpha >= 0.5 -> halfway gone\n"
        )
        assert load_mission(mission).alarm_rules == (
            AlarmRule("halfway gone", (Condition("alpha", ">=", 0.5),)),
        )

    def test_start_defaults_to_first_zone_midpoint(self):
        mission = make_mission((Zone(0.0, 1.0, 298.15, False, "a"), Zone(1.0, 3.0, 298.15, False, "b")))
        assert mission.start == 0.5

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[script]\ndwell = 5\n", "world must contain at least one zone"),
            ("[zone.1]\nx_min = 1\nx_max = 1\ntemperature_c = 25\n[script]\ndwell = 5\n",
             "zone '1': need x_min < x_max"),
            ("[zone.a]\nx_min = 0\nx_max = 1\ntemperature_c = 25\n"
             "[zone.b]\nx_min = 2\nx_max = 3\ntemperature_c = 25\n[script]\ndwell = 5\n",
             "gap between zones 'a' and 'b'; spans must be contiguous"),
            ("[zone.1]\nx_min = 0\nx_max = 1\ntemperature_c = 25\n[script]\n",
             "mission script must contain at least one command"),
            ("[zone.1]\nx_min = 0\nx_max = 1\ntemperature_c = 25\n[script]\nmove_to = 9\n",
             "move_to target 9 outside world [0, 1]"),
            ("[zone.1]\nx_min = 0\nx_max = 1\ntemperature_c = 25\n[script]\ndwell = 5\n"
             "[robot]\nposition = 5\n", "robot start position 5 outside world"),
            ("[zone.1]\nx_min = 0\nx_max = 1\ntemperature_k = 0\n[script]\ndwell = 5\n",
             "zone '1': temperature must be finite and > 0 K"),
            ("[zone.1]\nx_min = 0\nx_max = 1\ntemperature_c = 25\n[script]\ndwell = 5\n"
             "[alarms]\nrule = alpha > 0.5 ->\n", "[alarms]: rule message is empty"),
            ("[zone.1]\nx_min = 0\nx_max = 1\ntemperature_c = 25\n[script]\ndwell = 5\n[bogus]\nx = 1\n",
             "unknown section [bogus]"),
            ("[zone.1]\nx_min = 0\nx_max = 1\ntemperature_c = 25\nwidth = 2\ncolour = red\n[script]\ndwell = 5\n",
             "[zone.1]: unknown keys ['colour', 'width']"),
            ("[zone.1]\nx_min = 0\nx_max = 1\ntemperature_c = 25\n[script]\ndwell = 5\nwait = 5\n",
             "[script]: unknown command 'wait'"),
            ("[zone.1]\nx_min = 0\nx_max = 1\ntemperature_c = 25\n[script]\ndwell = 5\nself_destruct = 5\n",
             "[script]: self_destruct takes no value"),
            ("[zone.1]\nx_min = 0\nx_max = 1\ntemperature_c = 25\n[script]\ndwell = 5\n[robot]\nspeed = 1\n",
             "[robot]: unknown keys ['speed']"),
            ("[zone.1]\nx_min = 0\nx_max = 1\ntemperature_c = 25\n[script]\ndwell = 5\n"
             "[alarms]\nwhen = alpha > 0.5 -> late\n", "[alarms]: only 'rule = ...' entries are allowed"),
            ("[zone.1]\nx_max = 1\ntemperature_c = 25\n[script]\ndwell = 5\n", "[zone.1]: missing key 'x_min'"),
            ("[zone.1]\nx_min = 0\nx_max = 1\ntemperature_c = 25\ntemperature_k = 300\n[script]\ndwell = 5\n",
             "[zone.1]: give exactly one of temperature_c / temperature_k"),
            ("[zone.1]\nx_min = 0\nx_max = 1\n[script]\ndwell = 5\n",
             "[zone.1]: give exactly one of temperature_c / temperature_k"),
            ("[zone.1]\nx_min = 0\nx_max = far\ntemperature_c = 25\n[script]\ndwell = 5\n",
             "[zone.1]: expected a finite number, got 'far'"),
            ("[zone.1]\nx_min = 0\nx_max = 1\ntemperature_c = 25\nuv_on = maybe\n[script]\ndwell = 5\n",
             "[zone.1]: expected a boolean, got 'maybe'"),
            ("[zone.1]\nx_min = 0\nx_max = 1\ntemperature_c = 25\n[script]\ndwell = 5\n[robot]\nposition = left\n",
             "[robot]: expected a finite number, got 'left'"),
            ("[zone.1]\nx_min = 0\nx_max = 1\ntemperature_c = 25\n[script]\ndwell = 5\n"
             "[alarms]\nrule = speed > 1 -> fast\n",
             "[alarms]: unknown telemetry field 'speed' (valid: t, position, alpha, hf_fraction, "
             "temp_resistance_ohm, temp_c, capacitance_pf, photocurrent_a)"),
            # a threshold that is not a finite number reads as one, not as a malformed condition
            *(("[zone.1]\nx_min = 0\nx_max = 1\ntemperature_c = 25\n[script]\ndwell = 5\n"
               f"[alarms]\nrule = t > {value} -> x\n",
               f"[alarms]: condition 't > {value}': expected a finite number, got '{value}'")
              for value in ("abc", "nan", "-inf")),
        ],
        ids=["no-zone", "flat-zone", "gap", "no-command", "target", "start", "zero-kelvin", "empty-message",
             "unknown-section", "zone-keys", "unknown-command", "valued-self-destruct", "robot-keys", "non-rule-entry",
             "zone-no-x-min", "zone-both-temperatures", "zone-no-temperature", "zone-text-x-max", "zone-bad-uv",
             "robot-text-position", "rule-unknown-field", "rule-text-threshold", "rule-nan-threshold",
             "rule-infinite-threshold"],
    )
    def test_every_load_error_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "m.mission"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_mission(path)
        # an error of one section names it after the file
        separator = " " if message.startswith("[") else ": "
        assert str(err.value) == f"{path}{separator}{message}"

    def test_empty_script_rejected(self, tmp_path):
        mission = tmp_path / "m.mission"
        mission.write_text("[zone.1]\nx_min = 0\nx_max = 1\ntemperature_c = 25\n[script]\n")
        with pytest.raises(ConfigError):
            load_mission(mission)


class TestTelemetryFormats:
    def test_csv_schema(self):
        text = telemetry_to_csv([record_with()])
        lines = text.splitlines()
        assert lines[0] == TELEMETRY_CSV_HEADER
        assert lines[0] == "t,position,alpha,temp_C,capacitance_pF,photocurrent_A"
        assert lines[1] == "1.0,0.5,0.0,25.0,10.0,0.0"

    def test_csv_unavailable_readings_are_nan(self):
        text = telemetry_to_csv([record_with(temp_c=None, capacitance_pf=None)])
        assert text.splitlines()[1] == "1.0,0.5,0.0,nan,nan,0.0"

    def test_jsonl_round_trip(self):
        record = record_with(events=(Event("zone-entry", "benign"),))
        line = telemetry_to_jsonl([record]).splitlines()[0]
        data = json.loads(line)
        assert data["t"] == 1.0
        assert data["events"] == [{"tag": "zone-entry", "message": "benign"}]
        assert data["temp_c"] == 25.0

    def test_records_are_immutable(self):
        for record in (RobotState.at(0.5, benign_world()), record_with()):
            with pytest.raises(AttributeError):
                record.alpha = 0.5


# text that json.dumps must escape: quotes, backslashes, control and non-ASCII characters
AWKWARD_TEXT = st.one_of(
    st.sampled_from(["lab", 'a "quoted" zone', "back\\slash", "tab\there\n", "zoné ☢"]), st.text()
)
READING = st.one_of(st.none(), st.floats())


@st.composite
def telemetry_records(draw):
    events = draw(st.lists(st.builds(Event, AWKWARD_TEXT, AWKWARD_TEXT), max_size=3))
    floats = [draw(st.floats()) for _ in range(5)]
    return TelemetryRecord(
        *floats[:4], draw(AWKWARD_TEXT), floats[4], draw(READING), draw(READING), draw(st.floats()),
        tuple(events),
    )


# The writers reuse a field's text while its value stays the same object:
# records that start on a missing reading, repeat one float object, follow
# 0.0 with -0.0, and put a non-finite row between finite ones.
SHARED = 1 / 3
MISSING_FIRST = [record_with(temp_c=None, capacitance_pf=None), record_with(), record_with(capacitance_pf=None)]
REPEATED_OBJECT = [
    record_with(t=float(i), position=SHARED, hf_fraction=SHARED, temp_c=SHARED, photocurrent_a=SHARED)
    for i in range(3)
]
SIGNED_ZEROS = [
    record_with(**dict.fromkeys(("position", "hf_fraction", "temp_c", "capacitance_pf", "photocurrent_a"), zero))
    for zero in (0.0, -0.0, 0.0)
]
NON_FINITE_BETWEEN = [record_with(), record_with(hf_fraction=math.inf, temp_c=None), record_with()]


class TestTelemetryBytes:
    """The telemetry writers give the bytes of their plain reference forms for any record."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(telemetry_records(), max_size=4))
    @example([record_with(t=math.nan, temp_c=None, events=(Event("alarm", 'say "\\\x01é"'),))])
    @example([record_with(position=math.inf, capacitance_pf=-math.inf), record_with(zone="z")])
    @example([record_with(position=1)])  # an int start position that was never moved from
    @example(MISSING_FIRST)
    @example(REPEATED_OBJECT)
    @example(SIGNED_ZEROS)
    @example(NON_FINITE_BETWEEN)
    def test_jsonl_is_json_dumps(self, records):
        def reference(r):
            events = [{"tag": e.tag, "message": e.message} for e in r.events]
            return json.dumps(dict(zip(TelemetryRecord._fields, r), events=events)) + "\n"

        assert telemetry_to_jsonl(records) == "".join(map(reference, records))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(telemetry_records(), max_size=4))
    @example(MISSING_FIRST)
    @example(REPEATED_OBJECT)
    @example(SIGNED_ZEROS)
    @example(NON_FINITE_BETWEEN)
    def test_csv_cells_are_reprs_and_none_is_nan(self, records):
        def cell(v):
            return "nan" if v is None else float.__repr__(v) if isinstance(v, float) else repr(v)

        def reference(r):
            return ",".join(map(cell, (r.t, r.position, r.alpha, r.temp_c, r.capacitance_pf, r.photocurrent_a)))

        expected = "\n".join([TELEMETRY_CSV_HEADER, *map(reference, records)]) + "\n"
        assert telemetry_to_csv(records) == expected


class LoudFloat(float):
    """A float subclass whose repr is not the float's."""

    def __repr__(self):
        return f"LoudFloat({float(self)!r})"


class TestTelemetryChunk:
    """A chunk's two texts come from one pass and are the bytes a plain list of its records gives."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(telemetry_records(), max_size=4), st.booleans())
    @example(MISSING_FIRST, True)
    @example(REPEATED_OBJECT, False)
    @example(SIGNED_ZEROS, True)
    @example(NON_FINITE_BETWEEN, False)
    def test_chunk_gives_the_bytes_of_a_list(self, records, header):
        want = {"jsonl": telemetry_to_jsonl(records), "csv": telemetry_to_csv(records, header=header)}
        writers = {"jsonl": telemetry_to_jsonl, "csv": functools.partial(telemetry_to_csv, header=header)}
        for order in (("jsonl", "csv"), ("csv", "jsonl"), ("jsonl",), ("csv",)):
            chunk = TelemetryChunk(records)
            for name in order * 2:  # a second call takes the texts the first kept
                assert writers[name](chunk) == want[name], (order, name)
        assert telemetry_to_csv(TelemetryChunk(records)) == telemetry_to_csv(iter(records))

    def test_one_chunk_formats_each_t_and_alpha_once(self, monkeypatch):
        formatted = []

        def counting_repr(value):
            formatted.append(value)
            return float.__repr__(value)

        monkeypatch.setattr(mission, "_float_repr", counting_repr)
        records = [record_with(t=1.0 + i, alpha=i / 7, temp_c=None if i == 2 else 25.0) for i in range(5)]
        records.append(record_with(t=9.0, alpha=0.75, hf_fraction=math.nan))  # json.dumps writes this line
        chunk = TelemetryChunk(records)
        telemetry_to_jsonl(chunk)
        telemetry_to_csv(chunk, header=False)
        telemetry_to_csv(chunk)
        for r in records:
            assert [v is r.t for v in formatted].count(True) == 1
            assert [v is r.alpha for v in formatted].count(True) == 1

    @pytest.mark.parametrize("value", [np.float64(0.1), LoudFloat(0.1)], ids=["float64", "own-repr"])
    def test_a_float_subclass_is_its_float_repr_in_both_files(self, value):
        finite = record_with(t=value, position=value, alpha=value, temp_c=value, capacitance_pf=value,
                             photocurrent_a=value)
        non_finite = finite._replace(hf_fraction=type(value)(math.inf), capacitance_pf=None)
        assert telemetry_to_csv([finite, non_finite], header=False) == (
            "0.1,0.1,0.1,0.1,0.1,0.1\n0.1,0.1,0.1,0.1,nan,0.1\n"
        )
        # json.dumps writes a float subclass by float.__repr__ too
        assert telemetry_to_jsonl([finite, non_finite]) == "".join(
            json.dumps(dict(zip(TelemetryRecord._fields, r), events=[])) + "\n" for r in (finite, non_finite)
        )
