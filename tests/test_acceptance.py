"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per criterion. Criterion 9 is split into its four sub-assertions
(event order, decomposition deadline, determinism, runtime) so each
reports independently. The decomposition deadline (c9b) is not a fixed
number of seconds: it follows from the calibrated rate at the terminal
zone's temperature, so it stays consistent with the c1 anchor.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from transient_kinetics.config import default_calibration, load_calibration_file, presets_dir
from transient_kinetics.dscfit import fit_arrhenius, fit_rate_constant, synthesize_trace
from transient_kinetics.kinetics import (
    ArrheniusParams,
    ExposureSchedule,
    PhotolysisState,
    arrhenius_rate,
    integrate_conversion,
    isothermal_conversion,
    time_to_conversion,
)
from transient_kinetics.mechanics import (
    DEFAULT_ACTUATOR,
    MATERIAL_PRESETS,
    GaitState,
    bend_angle,
    fracture_check,
    gait_advance,
    max_channel_strain,
)
from transient_kinetics.mission import load_mission, run, telemetry_to_jsonl
from transient_kinetics.sensors import (
    PhotodiodeSpec,
    SensorHealth,
    TempSensorSpec,
    apply_degradation,
    photodiode_current,
    temp_resistance,
)

ECOFLEX = ArrheniusParams.from_kj_per_mol(0.1703, 18.09)


def test_c1_arrhenius_time_to_conversion_anchor():
    """Time to 95% conversion at the 120 C hold matches the calorimetric anchor."""
    started = time.perf_counter()
    k = arrhenius_rate(ECOFLEX, 120.0 + 273.15)
    t95 = time_to_conversion(k, 0.95)
    runtime = time.perf_counter() - started
    assert t95 == pytest.approx(-math.log(0.05) / k, rel=1e-9)
    assert t95 == pytest.approx(4.45e3, rel=5e-3)
    assert abs(t95 - 4500.0) / 4500.0 <= 0.15
    assert runtime < 1.0


def test_c2_uv_gating_exact():
    """Any schedule without UV yields alpha identically zero at every step."""
    rng = np.random.default_rng(2203)
    photolysis = PhotolysisState(dpi_initial=100.0)
    for _ in range(20):
        n_seg = int(rng.integers(1, 6))
        segments = [
            (float(10.0 ** rng.uniform(1, 4)), float(rng.uniform(260.0, 430.0)), False)
            for _ in range(n_seg)
        ]
        schedule = ExposureSchedule.from_tuples(segments)
        series = integrate_conversion(
            schedule, ECOFLEX, photolysis, dt=schedule.min_duration / 7.0
        )
        assert np.all(series.alpha == 0.0)


def test_c3_fit_round_trip_population():
    """Seeded fit round trips: 50/50 noiseless at 1e-6, >= 48/50 noisy at 5%."""
    started = time.perf_counter()
    rng = np.random.default_rng(20240601)
    k_values = 10.0 ** rng.uniform(-5.0, -2.0, size=50)
    noiseless_ok = 0
    noisy_ok = 0
    for i, k_true in enumerate(k_values):
        t_end = 20.0 / k_true
        clean = synthesize_trace(float(k_true), 10.0, (t_end / 1500.0, t_end))
        fit = fit_rate_constant(clean)
        if fit.converged and abs(fit.k - k_true) / k_true < 1e-6:
            noiseless_ok += 1
        noisy = synthesize_trace(
            float(k_true), 10.0, (t_end / 1500.0, t_end),
            noise_fraction=0.02, seed=1000 + i,
        )
        fit = fit_rate_constant(noisy)
        if fit.converged and abs(fit.k - k_true) / k_true < 0.05:
            noisy_ok += 1
    runtime = time.perf_counter() - started
    assert noiseless_ok == 50
    assert noisy_ok >= 48
    assert runtime < 30.0


def test_c4_arrhenius_regression_round_trip():
    """Regression recovers the generating parameters, noiseless and noisy."""
    temps = (353.15, 373.15, 393.15, 413.15)
    exact_points = [(T, arrhenius_rate(ECOFLEX, T)) for T in temps]
    fit = fit_arrhenius(exact_points)
    assert abs(fit.params.pre_exponential - 0.1703) / 0.1703 < 1e-9
    assert abs(fit.params.activation_energy - 18090.0) / 18090.0 < 1e-9

    rng = np.random.default_rng(42)
    noisy_points = [
        (T, k * (1.0 + 0.05 * rng.standard_normal())) for T, k in exact_points
    ]
    noisy_fit = fit_arrhenius(noisy_points)
    assert abs(noisy_fit.params.activation_energy - 18090.0) / 18090.0 < 0.10


def test_c5_integrator_matches_piecewise_analytic():
    """100 seeded random fully-triggered schedules agree with the closed form."""
    rng = np.random.default_rng(515)
    for _ in range(100):
        n_seg = int(rng.integers(1, 6))
        segments = [
            (
                float(10.0 ** rng.uniform(1.0, 4.0)),
                float(rng.uniform(260.0, 430.0)),
                bool(rng.integers(0, 2)),
            )
            for _ in range(n_seg)
        ]
        schedule = ExposureSchedule.from_tuples(segments)
        series = integrate_conversion(
            schedule, ECOFLEX, PhotolysisState.saturated(), dt=schedule.min_duration / 3.7
        )
        exponent = sum(
            arrhenius_rate(ECOFLEX, seg.temperature) * seg.duration
            for seg in schedule.segments
        )
        expected = 1.0 - math.exp(-exponent)
        assert abs(float(series.alpha[-1]) - expected) < 1e-6


def test_c6_conversion_profiles_ordered_by_temperature():
    """Hotter holds are never behind cooler ones at any time point."""
    temps_c = (80.0, 100.0, 120.0, 140.0)
    horizon = 20000.0
    profiles = []
    for t_c in temps_c:
        schedule = ExposureSchedule.from_tuples([(horizon, t_c + 273.15, True)])
        series = integrate_conversion(
            schedule, ECOFLEX, PhotolysisState.saturated(), dt=10.0
        )
        profiles.append(series.alpha)
    for cooler, hotter in zip(profiles, profiles[1:]):
        assert np.all(hotter >= cooler)
        assert hotter[-1] > cooler[-1]


def test_c7_mechanics_anchors():
    """Actuator and material anchors reproduce the measured values."""
    assert bend_angle(DEFAULT_ACTUATOR, 12.0) == pytest.approx(35.0, rel=1e-12)
    assert max_channel_strain(DEFAULT_ACTUATOR, 12.0) == pytest.approx(0.8356, rel=1e-12)
    for name, fracture_strain in (
        ("ecoflex-0wt", 6.8372),
        ("ecoflex-10wt", 5.7167),
        ("ecoflex-20wt", 4.9334),
    ):
        spec = MATERIAL_PRESETS[name]
        assert not fracture_check(spec, fracture_strain - 1e-9)
        assert fracture_check(spec, fracture_strain + 1e-9)
    moved = gait_advance(GaitState(), DEFAULT_ACTUATOR, 1.0, mobility=1.0)
    assert moved.position == 0.025  # 2.5 cm/s at full mobility


def test_c8_sensor_anchors():
    """Sensor calibrations and failed-state clamps match the published anchors."""
    for slope in (0.002, 0.2):
        spec = TempSensorSpec(slope=slope)
        measured = (temp_resistance(spec, 100.0) - temp_resistance(spec, 25.0)) / 75.0
        assert measured == pytest.approx(slope, rel=1e-12)

    photo = PhotodiodeSpec()
    assert photodiode_current(photo, -2.0, uv_on=True) == -5e-8
    assert abs(photodiode_current(photo, -2.0, uv_on=False)) <= 1e-10
    assert abs(photodiode_current(photo, 2.0, uv_on=False)) <= 1e-10

    health = SensorHealth()
    assert apply_degradation(10.15, "temp", 1.0, health, 0) == 1e6
    assert apply_degradation(-5e-8, "photo", 1.0, health, 0) == 0.0
    assert apply_degradation(11.0, "strain", 1.0, health, 0) is None


MISSION_DT = 1.0


@pytest.fixture(scope="module")
def mission_replay():
    cal = default_calibration()
    mission = load_mission(presets_dir() / "scout_demo.mission", cal.simulation)
    started = time.perf_counter()
    records = run(mission, cal, dt=MISSION_DT, seed=11)
    runtime = time.perf_counter() - started
    repeat = run(mission, cal, dt=MISSION_DT, seed=11)
    return records, repeat, runtime


def test_c9a_mission_event_narrative(mission_replay):
    """The bundled mission emits the scripted event sequence in order."""
    records, _, _ = mission_replay
    tags = [e.tag for r in records for e in r.events]
    wanted = ("temp-report", "uv-detected", "alarm", "escape", "self-destruct", "decomposed")
    cursor = -1
    for tag in wanted:
        assert tag in tags[cursor + 1 :], f"missing {tag} after index {cursor}"
        cursor = tags.index(tag, cursor + 1)
    assert records[-1].alpha >= 0.99


def test_c9b_mission_final_zone_decomposition_deadline(mission_replay):
    """Full decomposition in the final zone on the calibrated first-order clock.

    The robot enters ``terminal-heat`` fully triggered (g = 1), so from
    the entry conversion alpha_0 the first-order law reaches
    ``decomposed_alpha`` after ln((1 - alpha_0) / (1 - decomposed_alpha)) / k
    with k = k(T_terminal) from the shipped Arrhenius calibration. The
    ``decomposed`` event must fire in that zone within one step of that
    time, and never later than the worst-case deadline from a pristine
    entry, ln(1 / (1 - decomposed_alpha)) / k + dt (~6.85e3 s at 120 C).
    """
    records, _, _ = mission_replay
    cal = default_calibration()
    settings = cal.simulation
    world = load_mission(presets_dir() / "scout_demo.mission", settings).zones
    terminal = [zone for zone in world if zone.name == "terminal-heat"]
    assert len(terminal) == 1, "the mission must define one terminal-heat zone"
    k = arrhenius_rate(cal.kinetics, terminal[0].temperature)

    inside = [r for r in records if r.zone == "terminal-heat"]
    assert inside, "the robot never entered terminal-heat"
    entry = inside[0]
    decomposed = [r for r in records if any(e.tag == "decomposed" for e in r.events)]
    assert decomposed, "no decomposed event was emitted"
    done = decomposed[0]
    assert done.zone == "terminal-heat"
    assert entry.hf_fraction >= cal.hf_saturation

    dwell = done.t - entry.t
    expected = math.log((1.0 - entry.alpha) / (1.0 - settings.decomposed_alpha)) / k
    assert expected <= dwell <= expected + MISSION_DT
    deadline = math.log(1.0 / (1.0 - settings.decomposed_alpha)) / k + MISSION_DT
    assert dwell <= deadline


def test_c9c_mission_replay_bit_identical(mission_replay):
    """Two identical invocations produce byte-identical telemetry."""
    records, repeat, _ = mission_replay
    assert records == repeat
    assert telemetry_to_jsonl(records).encode() == telemetry_to_jsonl(repeat).encode()


def test_c9d_mission_runtime(mission_replay):
    """The scenario simulates in under 10 seconds."""
    _, _, runtime = mission_replay
    assert runtime < 10.0
