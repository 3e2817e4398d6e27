"""Kinetics core: rate laws, conversion laws, photolysis, schedule integration."""

import math
import re
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transient_kinetics.errors import DomainError
from transient_kinetics.kinetics import (
    DEFAULT_HF_SAT,
    DEFAULT_K_PHOTO,
    GAS_CONSTANT,
    MAX_STEPS,
    ArrheniusParams,
    ExposureSchedule,
    PhotolysisState,
    ScheduleSegment,
    arrhenius_rate,
    check_anchor_table,
    check_step_count,
    conversion_update,
    dose_update,
    dsc_heat_flow,
    integrate_conversion,
    integrate_conversion_lists,
    interp,
    isothermal_conversion,
    time_to_conversion,
    trigger_coupling,
)

from reference import advance

ECOFLEX = ArrheniusParams.from_kj_per_mol(0.1703, 18.09)

# numpy 2.0 renamed trapz
trapezoid = getattr(np, "trapezoid", None) or np.trapz


def oracle_rate(pre, ea, temp):
    # direct high-precision evaluation, independent of the module under test
    return pre * math.exp(-ea / (8.314 * temp))


def reference_integrate(schedule, params, photolysis, dt, hf_sat):
    """``integrate_conversion`` as one ``advance`` call per step, each
    computing its own decay factors: the reference the hoisted loop must
    match bit for bit."""
    hf_frac = photolysis.hf / photolysis.dpi_initial
    times, alphas, hf_fracs = [0.0], [0.0], [hf_frac]
    t = 0.0
    alpha = 0.0
    hf = photolysis.hf
    for seg in schedule.segments:
        k_thermal = arrhenius_rate(params, seg.temperature)
        remaining = seg.duration
        while remaining > 1e-12:
            step = dt if remaining >= dt else remaining
            hf, alpha = advance(
                hf, alpha, k_thermal, seg.uv_on, step, photolysis.k_photo, photolysis.dpi_initial, hf_sat
            )
            t += step
            remaining -= step
            if seg.uv_on:
                hf_frac = hf / photolysis.dpi_initial
            times.append(t)
            alphas.append(alpha)
            hf_fracs.append(hf_frac)
    return np.asarray(times), np.asarray(alphas), np.asarray(hf_fracs)


class TestArrheniusRate:
    def test_reference_temperature_hot(self):
        expected = oracle_rate(0.1703, 18090.0, 393.15)
        k = arrhenius_rate(ECOFLEX, 393.15)
        assert k == pytest.approx(expected, rel=1e-12)
        # frozen oracle value, about 6.73e-4 1/s
        assert k == pytest.approx(6.724450574000483e-04, rel=1e-12)
        assert k == pytest.approx(6.73e-4, rel=1e-3)

    def test_zero_activation_energy(self):
        params = ArrheniusParams(0.1703, 0.0)
        assert arrhenius_rate(params, 300.0) == 0.1703

    def test_reference_temperature_ambient(self):
        expected = oracle_rate(0.1703, 18090.0, 298.15)
        k = arrhenius_rate(ECOFLEX, 298.15)
        assert k == pytest.approx(expected, rel=1e-12)
        assert k == pytest.approx(1.1529418876571989e-04, rel=1e-12)
        assert k == pytest.approx(1.153e-4, rel=1e-3)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(DomainError):
            arrhenius_rate(ECOFLEX, 0.0)
        with pytest.raises(DomainError):
            arrhenius_rate(ECOFLEX, -10.0)

    def test_strictly_increasing_in_temperature(self):
        temps = np.linspace(250.0, 500.0, 60)
        ks = [arrhenius_rate(ECOFLEX, t) for t in temps]
        assert all(b > a for a, b in zip(ks, ks[1:]))

    def test_log_transform_linear_in_inverse_temperature(self):
        temps = np.linspace(280.0, 460.0, 25)
        lnk = np.log([arrhenius_rate(ECOFLEX, t) for t in temps])
        x = 1.0 / temps
        slope, intercept = np.polyfit(x, lnk, 1)
        fitted = slope * x + intercept
        assert np.max(np.abs(fitted - lnk)) < 1e-12
        assert slope == pytest.approx(-18090.0 / GAS_CONSTANT, rel=1e-12)

    def test_params_validation(self):
        with pytest.raises(DomainError):
            ArrheniusParams(0.0, 100.0)
        with pytest.raises(DomainError):
            ArrheniusParams(1.0, -1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_params_must_be_finite(self, value):
        with pytest.raises(DomainError, match="pre_exponential must be finite and > 0"):
            ArrheniusParams(value, 100.0)
        with pytest.raises(DomainError, match="activation_energy must be finite and >= 0"):
            ArrheniusParams(1.0, value)


class TestIsothermalConversion:
    def test_zero_time(self):
        assert isothermal_conversion(0.123, 0.0) == 0.0

    def test_hot_completion_anchor(self):
        # about 95% converted after ~4500 s at the hot-hold rate
        expected = 1.0 - math.exp(-6.73e-4 * 4454.0)
        alpha = isothermal_conversion(6.73e-4, 4454.0)
        assert alpha == pytest.approx(expected, rel=1e-12)
        assert alpha == pytest.approx(0.95, abs=2e-3)

    def test_ambient_completion_anchor(self):
        expected = 1.0 - math.exp(-1.153e-4 * 15000.0)
        alpha = isothermal_conversion(1.153e-4, 15000.0)
        assert alpha == pytest.approx(expected, rel=1e-12)
        assert alpha == pytest.approx(0.823, abs=1e-3)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            isothermal_conversion(1e-3, -1.0)

    def test_nondecreasing_in_time_and_rate(self):
        times = np.linspace(0, 1e4, 40)
        alphas = [isothermal_conversion(1e-3, t) for t in times]
        assert all(b >= a for a, b in zip(alphas, alphas[1:]))
        rates = np.logspace(-6, 0, 40)
        alphas_k = [isothermal_conversion(k, 100.0) for k in rates]
        assert all(b >= a for a, b in zip(alphas_k, alphas_k[1:]))


class TestTimeToConversion:
    def test_zero_target(self):
        assert time_to_conversion(5e-4, 0.0) == 0.0

    def test_hot_hold_anchor(self):
        k = arrhenius_rate(ECOFLEX, 393.15)
        t = time_to_conversion(k, 0.95)
        assert t == pytest.approx(-math.log(0.05) / k, rel=1e-12)
        assert t == pytest.approx(4454.984449044408, rel=1e-12)

    def test_half_life(self):
        assert time_to_conversion(1e-3, 0.5) == pytest.approx(math.log(2) / 1e-3, rel=1e-12)
        assert time_to_conversion(1e-3, 0.5) == pytest.approx(693.1, abs=0.1)

    def test_unreachable_targets(self):
        with pytest.raises(DomainError, match="alpha = 1 is reached only asymptotically"):
            time_to_conversion(1e-3, 1.0)
        with pytest.raises(DomainError, match="rate constant must be > 0 to reach any conversion"):
            time_to_conversion(0.0, 0.5)

    def test_mutual_inverse_with_isothermal(self):
        rng = np.random.default_rng(1905)
        for _ in range(200):
            k = 10.0 ** rng.uniform(-6, 0)
            alpha = rng.uniform(0.0, 0.999)
            t = time_to_conversion(k, alpha)
            back = isothermal_conversion(k, t)
            assert back == pytest.approx(alpha, rel=1e-10, abs=1e-12)


class TestHfConcentration:
    """The fluoride dose that ``integrate_conversion`` marches through a UV hold from a zero dose."""

    @staticmethod
    def uv_hold(state, duration, dt):
        schedule = ExposureSchedule.from_tuples([(duration, 300.0, True)])
        return integrate_conversion(schedule, ECOFLEX, state, dt)

    def test_no_dose(self):
        state = PhotolysisState(dpi_initial=50.0, k_photo=1e-3)
        assert self.uv_hold(state, 100.0, 1.0).hf_fraction[0] == 0.0
        dark = ExposureSchedule.from_tuples([(100.0, 300.0, False)])
        assert np.all(integrate_conversion(dark, ECOFLEX, state, 1.0).hf_fraction == 0.0)

    def test_half_life_dose(self):
        state = PhotolysisState(dpi_initial=50.0, k_photo=1e-3)
        t_half = math.log(2) / 1e-3
        dose = self.uv_hold(state, t_half, t_half / 64).hf_fraction[-1] * state.dpi_initial
        assert dose == pytest.approx(25.0, rel=1e-12)

    def test_saturation(self):
        state = PhotolysisState(dpi_initial=50.0, k_photo=1e-3)
        assert self.uv_hold(state, 1e7, 1e5).hf_fraction[-1] * state.dpi_initial == pytest.approx(50.0, rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        dpi_initial=st.floats(min_value=1e-3, max_value=1e3),
        k_photo=st.floats(min_value=1e-6, max_value=10.0),
        dt=st.floats(min_value=0.01, max_value=100.0),
        steps=st.integers(min_value=1, max_value=400),
    )
    def test_never_exceeds_initial_and_concave(self, dpi_initial, k_photo, dt, steps):
        # first-order photolysis: hf / dpi_initial = 1 - exp(-k_photo * t) at every sample
        series = self.uv_hold(PhotolysisState(dpi_initial, k_photo=k_photo), dt * steps, dt)
        dose = series.hf_fraction
        assert np.max(np.abs(dose + np.expm1(-k_photo * series.t))) <= 1e-12
        assert np.all(dose <= 1.0)
        assert np.all(np.diff(dose) >= 0.0)
        assert np.all(np.diff(dose, 2) <= 1e-12)

    def test_default_rate_and_saturation_constants(self):
        # a 30 min dose at the default rate photolyzes 95%
        assert 1.0 - math.exp(-DEFAULT_K_PHOTO * 1800.0) == pytest.approx(0.95, rel=1e-12)
        assert DEFAULT_HF_SAT == 0.95


class TestDscHeatFlow:
    def test_initial_heat_flow(self):
        assert dsc_heat_flow(1e-3, 10.0, 0.0) == pytest.approx(0.01, rel=1e-12)

    def test_half_decay(self):
        q = dsc_heat_flow(1e-3, 10.0, 693.1)
        assert q == pytest.approx(0.01 * math.exp(-0.6931), rel=1e-12)
        assert q == pytest.approx(0.005, rel=1e-4)

    def test_array_equals_scalar_elementwise(self):
        k, dh = 1e-3, 10.0
        t = np.linspace(0.0, 20.0 / k, 1501)
        q = dsc_heat_flow(k, dh, t)
        assert q.shape == t.shape
        assert np.array_equal(q, [dsc_heat_flow(k, dh, float(ti)) for ti in t])

    @pytest.mark.parametrize("t", [-1.0, np.array([0.0, 1.0, -1e-9, 2.0])], ids=["scalar", "array"])
    def test_negative_time_rejected(self, t):
        with pytest.raises(DomainError, match="time must be >= 0"):
            dsc_heat_flow(1e-3, 10.0, t)

    def test_energy_conservation_quadrature(self):
        # dense trapezoid quadrature against the closed-form total
        k, dh = 1e-3, 10.0
        t = np.linspace(0.0, 20.0 / k, 200001)
        integral = trapezoid(dsc_heat_flow(k, dh, t), t)
        assert integral == pytest.approx(dh, rel=1e-6)

    def test_energy_conservation_longer_window(self):
        k, dh = 3.3e-4, 7.5
        t = np.linspace(0.0, 30.0 / k, 300001)
        assert trapezoid(dsc_heat_flow(k, dh, t), t) == pytest.approx(dh, rel=1e-5)


class TestLibraryRefusals:
    """Refusals that no command reaches, each raised with its message head."""

    @pytest.mark.parametrize(
        "law, args, head",
        [
            (isothermal_conversion, (-1e-3, 10.0), "rate constant must be >= 0"),
            (isothermal_conversion, (math.nan, 10.0), "rate constant must be >= 0"),
            (isothermal_conversion, (1e-3, math.nan), "time must be >= 0"),
            (isothermal_conversion, (0.0, math.inf), "k * t is undefined for k = 0.0 and t = inf"),
            (isothermal_conversion, (math.inf, 0.0), "k * t is undefined for k = inf and t = 0.0"),
            (time_to_conversion, (math.nan, 0.5), "rate constant must be > 0"),
            (time_to_conversion, (1e-3, -0.1), "alpha_target must lie in [0, 1)"),
            (time_to_conversion, (1e-3, 1.5), "alpha_target must lie in [0, 1)"),
            (time_to_conversion, (1e-3, math.nan), "alpha_target must lie in [0, 1)"),
            (dsc_heat_flow, (1e-3, 0.0, 1.0), "total_enthalpy must be > 0"),
            (dsc_heat_flow, (-1e-3, 10.0, 1.0), "rate constant must be >= 0"),
            (PhotolysisState, (1.0, 0.0, math.nan), "k_photo must be finite and >= 0, got nan"),
        ],
        ids=[
            "isothermal-negative-rate",
            "isothermal-nan-rate",
            "isothermal-nan-time",
            "isothermal-zero-rate-infinite-time",
            "isothermal-infinite-rate-zero-time",
            "target-time-nan-rate",
            "target-below-0",
            "target-above-1",
            "target-nan",
            "heat-zero-enthalpy",
            "heat-negative-rate",
            "photolysis-nan-rate",
        ],
    )
    def test_refused_with_its_message(self, law, args, head):
        with pytest.raises(DomainError, match=re.escape(head)):
            law(*args)


class TestCheckStepCount:
    def test_max_steps_pass(self):
        check_step_count(float(MAX_STEPS), 1.0)
        check_step_count(MAX_STEPS * 0.5, 0.5)

    @pytest.mark.parametrize("horizon_s, dt", [(MAX_STEPS * 1.5, 1.0), (1.0, 1e-9), (math.inf, 1.0), (1.0, 5e-324)])
    def test_over_max_steps_refused(self, horizon_s, dt):
        with pytest.raises(DomainError, match="steps; use a larger step"):
            check_step_count(horizon_s, dt)


# strictly increasing finite anchors with any values, flat or steep
ANCHOR_XS = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=6, unique=True).map(
    sorted
)
ANCHOR_YS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda y: [y] * 6),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=6, max_size=6),
    st.lists(st.floats(-1e-300, 1e-300) | st.sampled_from([-1.7e308, 1.7e308]), min_size=6, max_size=6),
)


class TestInterp:
    """``interp`` is ``np.interp`` at one point, bit for bit, so a table calibration runs without numpy."""

    @staticmethod
    def assert_same(x, xs, ys):
        expected = float(np.interp(x, xs, ys))
        assert interp(x, tuple(zip(xs, ys))).hex() == expected.hex(), (x, xs, ys)

    @settings(max_examples=300, deadline=None)
    @given(ANCHOR_XS, ANCHOR_YS, st.floats())
    @example([-1.5e308, 1.5e308], [2.0, 3.0] + [0.0] * 4, 1e308)  # 0 * inf on the left line: the right one
    @example([-1.5e308, 1.5e308], [2.0, 2.0] + [0.0] * 4, 1.4e308)  # the same on a flat pair
    @example([0.0, 1e-300], [-1.7e308, 1.7e308] + [0.0] * 4, 5e-301)  # an infinite slope
    @example([-1.7e308, 1.7e308], [-1.7e308, 1.7e308] + [0.0] * 4, 0.0)  # inf / inf: NaN both ways
    def test_matches_numpy(self, xs, ys, x):
        ys = ys[: len(xs)]
        points = [x, 0.0, -0.0, *xs, math.nan, math.inf, -math.inf]
        points += [(a + b) / 2 for a, b in zip(xs, xs[1:])]
        for point in points:
            self.assert_same(point, xs, ys)

    def test_anchors_and_ends(self):
        table = ((0.0, 0.0), (6.0, 25.0), (12.0, 35.0))
        assert [interp(x, table) for x in (-1.0, 0.0, 3.0, 6.0, 12.0, 20.0)] == [0.0, 0.0, 12.5, 25.0, 35.0, 35.0]
        assert math.isnan(interp(math.nan, table))
        # int anchors give floats, as numpy's float64 do
        assert [repr(interp(x, ((0, 1), (10, 2)))) for x in (-1, 0, 5, 10)] == ["1.0", "1.0", "1.5", "2.0"]


class TestCheckAnchorTable:
    @pytest.mark.parametrize(
        "table, message",
        [
            (((0.0, 0.0),), "t needs at least 2 anchor pairs"),
            (((0.0, 0.0), (1.0, math.inf)), "t anchors must be finite"),
            (((0.0, 0.0), (math.nan, 1.0)), "t anchors must be finite"),
            (((0.0, 0.0), (-math.inf, 1.0)), "t anchors must be finite"),
            (((0.0, 0.0), (0.0, 1.0)), "t xs must be strictly increasing"),
            (((0.0, 0.0), (2.0, 1.0), (1.0, 2.0)), "t xs must be strictly increasing"),
            # the pair rule comes before the finite and order rules
            (((0.0, 0.0, math.nan), (-1.0, 1.0)), "t anchors must be (x, y) pairs"),
            (((0.0,), (1.0, 1.0)), "t anchors must be (x, y) pairs"),
        ],
        ids=["one-pair", "infinite-y", "nan-x", "infinite-x", "repeated-x", "falling-x", "triple-anchor", "single-anchor"],
    )
    def test_refused_with_its_message(self, table, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            check_anchor_table("t", table, "xs")


class TestScheduleTypes:
    def test_segment_validation(self):
        with pytest.raises(DomainError):
            ScheduleSegment(0.0, 300.0, True)
        with pytest.raises(DomainError):
            ScheduleSegment(10.0, 0.0, True)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_segment_values_must_be_finite(self, value):
        with pytest.raises(DomainError, match="segment duration must be finite and > 0 s"):
            ScheduleSegment(value, 300.0, True)
        with pytest.raises(DomainError, match="segment temperature must be finite and > 0 K"):
            ScheduleSegment(10.0, value, True)

    def test_empty_schedule_rejected(self):
        with pytest.raises(DomainError):
            ExposureSchedule(())

    def test_photolysis_state_validation(self):
        with pytest.raises(DomainError):
            PhotolysisState(dpi_initial=0.0)
        with pytest.raises(DomainError):
            PhotolysisState(dpi_initial=1.0, hf=2.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_photolysis_dpi_initial_must_be_finite(self, value):
        # an infinite inventory made hf_fraction = 0 / inf and the dose NaN
        with pytest.raises(DomainError, match="dpi_initial must be finite and > 0"):
            PhotolysisState(dpi_initial=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_photolysis_rate_must_be_finite(self, value):
        # a NaN rate made every UV dose NaN
        with pytest.raises(DomainError, match="k_photo must be finite and >= 0"):
            PhotolysisState(dpi_initial=1.0, k_photo=value)


class TestIntegrateConversion:
    def test_uv_never_on_keeps_alpha_zero(self):
        schedule = ExposureSchedule.from_tuples([(1e4, 393.15, False)])
        series = integrate_conversion(schedule, ECOFLEX, PhotolysisState(100.0), dt=10.0)
        assert np.all(series.alpha == 0.0)
        assert np.all(series.hf_fraction == 0.0)

    def test_single_segment_matches_analytic(self):
        k = arrhenius_rate(ECOFLEX, 393.15)
        schedule = ExposureSchedule.from_tuples([(4454.0, 393.15, True)])
        series = integrate_conversion(schedule, ECOFLEX, PhotolysisState.saturated(), dt=1.0)
        assert series.alpha[-1] == pytest.approx(1.0 - math.exp(-k * 4454.0), abs=1e-9)
        assert series.alpha[-1] == pytest.approx(0.95, abs=1e-3)

    def test_two_segments_match_piecewise_analytic(self):
        k1 = arrhenius_rate(ECOFLEX, 353.15)
        k2 = arrhenius_rate(ECOFLEX, 393.15)
        schedule = ExposureSchedule.from_tuples(
            [(1000.0, 353.15, True), (2000.0, 393.15, True)]
        )
        series = integrate_conversion(schedule, ECOFLEX, PhotolysisState.saturated(), dt=7.3)
        expected = 1.0 - math.exp(-(k1 * 1000.0 + k2 * 2000.0))
        assert series.alpha[-1] == pytest.approx(expected, abs=1e-6)

    def test_alpha_nondecreasing_and_bounded(self):
        schedule = ExposureSchedule.from_tuples(
            [(600.0, 298.15, True), (900.0, 393.15, False), (1200.0, 413.15, True)]
        )
        series = integrate_conversion(schedule, ECOFLEX, PhotolysisState(100.0), dt=3.0)
        assert np.all(np.diff(series.alpha) >= 0.0)
        assert np.all((series.alpha >= 0.0) & (series.alpha <= 1.0))
        assert np.all(np.diff(series.hf_fraction) >= 0.0)

    def test_step_halving_converges_first_order(self):
        # coupled dose ramp: halving dt should shrink the error vs a fine
        # reference by at least ~2x (first order)
        schedule = ExposureSchedule.from_tuples([(1800.0, 393.15, True)])
        photolysis = PhotolysisState(100.0)
        reference = integrate_conversion(schedule, ECOFLEX, photolysis, dt=0.0625).alpha[-1]
        err = []
        for dt in (16.0, 8.0, 4.0):
            final = integrate_conversion(schedule, ECOFLEX, photolysis, dt=dt).alpha[-1]
            err.append(abs(final - reference))
        assert err[1] < err[0] / 1.8
        assert err[2] < err[1] / 1.8

    def test_dt_validation(self):
        schedule = ExposureSchedule.from_tuples([(100.0, 300.0, True)])
        with pytest.raises(DomainError):
            integrate_conversion(schedule, ECOFLEX, PhotolysisState(1.0), dt=0.0)
        with pytest.raises(DomainError):
            integrate_conversion(schedule, ECOFLEX, PhotolysisState(1.0), dt=101.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_non_finite_dt_refused(self, dt):
        # dt = nan passed both checks and returned 3 samples whose final
        # alpha (0.00713) was not the dt = 1 answer (0.00485)
        schedule = ExposureSchedule.from_tuples([(100.0, 400.0, True), (50.0, 400.0, False)])
        params = ArrheniusParams.from_kj_per_mol(1e3, 50.0)
        with pytest.raises(DomainError, match="dt must be finite and > 0 s"):
            integrate_conversion(schedule, params, PhotolysisState(1.0), dt=dt)
        assert integrate_conversion(schedule, params, PhotolysisState(1.0), dt=1.0).alpha[-1] == pytest.approx(
            0.00485, abs=5e-6
        )

    def test_schedule_over_max_steps_refused_at_once(self, deadline):
        # this ran on for more than 10 s, its lists growing, toward 1e12 steps
        schedule = ExposureSchedule.from_tuples([(1e12, 393.15, True)])
        with deadline(1.0), pytest.raises(DomainError, match=r"1e\+12 s at a step of 1.0 s is over 1e\+08 steps"):
            integrate_conversion(schedule, ECOFLEX, PhotolysisState(1.0), dt=1.0)

    def test_step_count_is_over_the_whole_schedule(self, deadline):
        # each segment alone is under MAX_STEPS; together they are over
        half = 0.6 * MAX_STEPS
        schedule = ExposureSchedule.from_tuples([(half, 300.0, True), (half, 300.0, False)])
        with deadline(1.0), pytest.raises(DomainError, match=r"over 1e\+08 steps"):
            integrate_conversion(schedule, ECOFLEX, PhotolysisState(1.0), dt=1.0)

    def test_series_time_axis(self):
        schedule = ExposureSchedule.from_tuples([(10.0, 300.0, True), (5.0, 320.0, False)])
        series = integrate_conversion(schedule, ECOFLEX, PhotolysisState(1.0), dt=1.0)
        assert series.t[0] == 0.0
        assert series.t[-1] == pytest.approx(15.0, abs=1e-9)
        assert len(series.t) == len(series.alpha) == len(series.hf_fraction) == 16


@st.composite
def hoist_cases(draw):
    """A schedule of 1-6 segments whose durations are or are not whole
    multiples of dt, with a photolysis state and hf_sat to march it under."""
    dt = draw(st.floats(min_value=0.01, max_value=100.0))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        steps = draw(st.integers(min_value=1, max_value=40))
        fraction = draw(st.just(0.0) | st.floats(min_value=0.0, max_value=0.999))
        rows.append((dt * (steps + fraction), draw(st.floats(min_value=250.0, max_value=500.0)), draw(st.booleans())))
    params = ArrheniusParams.from_kj_per_mol(
        draw(st.floats(min_value=1e-6, max_value=1e6)), draw(st.floats(min_value=0.0, max_value=100.0))
    )
    k_photo = draw(st.just(0.0) | st.floats(min_value=1e-6, max_value=10.0))
    dpi_initial = draw(st.floats(min_value=1e-3, max_value=1e3))
    if draw(st.booleans()):
        photolysis = PhotolysisState.saturated(dpi_initial, k_photo)
    else:
        photolysis = PhotolysisState(dpi_initial, k_photo=k_photo)
    hf_sat = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    return ExposureSchedule.from_tuples(rows), params, photolysis, dt, hf_sat


class TestHoistedFactors:
    # three full steps of 1 s and a short last one
    HOLD_UV = ExposureSchedule.from_tuples([(3.5, 400.0, True)])

    @settings(max_examples=300, deadline=None)
    @given(case=hoist_cases())
    # a dose at hf_sat (g = 1) that rounding in the UV update then moves below it
    @example(
        case=(HOLD_UV, ArrheniusParams(0.7, 0.0), PhotolysisState(1.0, hf=1e-4, k_photo=0.0), 1.0, 1e-4)
    )
    # k_thermal * dt so large its decay factor is 0, and so small it is 1
    @example(case=(HOLD_UV, ArrheniusParams(1e308, 0.0), PhotolysisState.saturated(), 1.0, 1.0))
    @example(case=(HOLD_UV, ArrheniusParams(5e-324, 0.0), PhotolysisState(1.0), 1.0, 0.5))
    def test_matches_a_loop_of_advance_bit_for_bit(self, case):
        schedule, params, photolysis, dt, hf_sat = case
        series = integrate_conversion(schedule, params, photolysis, dt, hf_sat=hf_sat)
        expected = reference_integrate(schedule, params, photolysis, dt, hf_sat)
        for got, want in zip((series.t, series.alpha, series.hf_fraction), expected):
            assert got.tobytes() == want.tobytes()


class TestListCore:
    """``integrate_conversion_lists``, the numpy-free core ``predict`` calls, packs each column in an ``array('d')``."""

    @settings(max_examples=100, deadline=None)
    @given(case=hoist_cases())
    def test_lists_hold_the_arrays_floats_bit_for_bit(self, case):
        schedule, params, photolysis, dt, hf_sat = case
        lists = integrate_conversion_lists(schedule, params, photolysis, dt, hf_sat=hf_sat)
        arrays = integrate_conversion(schedule, params, photolysis, dt, hf_sat=hf_sat)
        for got, want in zip((lists.t, lists.alpha, lists.hf_fraction), (arrays.t, arrays.alpha, arrays.hf_fraction)):
            assert type(got) is array and got.typecode == "d"
            assert got.tobytes() == want.tobytes()

    def test_peak_memory_per_sample(self):
        # 1 800 s of UV and 40 000 s of dark at dt 1: 41 801 samples. Packed,
        # the three columns take 24 bytes a sample; lists of boxed floats
        # peaked near 74
        schedule = ExposureSchedule.from_tuples([(1800.0, 298.15, True), (40_000.0, 393.15, False)])
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            series = integrate_conversion_lists(schedule, ECOFLEX, PhotolysisState(100.0), 1.0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(series.t) == 41_801
        assert peak / len(series.t) <= 32


class TestAdvance:
    """The two laws each step of the reference ``advance`` applies, pinned where ``src/`` calls them."""

    def test_fraction_dose_matches_complement_form(self):
        # hf_max = 1 (the mission's dose fraction) reproduces
        # 1 - (1 - hf) * exp(-k dt) bit for bit
        for hf in (0.0, 0.1, 0.5, 0.93, 0.999):
            for dt in (0.1, 1.0, 37.5):
                decay = math.exp(-DEFAULT_K_PHOTO * dt)
                assert dose_update(hf, 1.0, decay) == 1.0 - (1.0 - hf) * decay

    def test_dark_step_keeps_dose(self):
        # no photolysis (a decay factor of 1) keeps the dose, and an undosed
        # sample (g = 0, so k_eff = 0) keeps its alpha
        assert dose_update(0.4, 1.0, 1.0) == 0.4
        k_eff = 1e-3 * trigger_coupling(0.0, DEFAULT_HF_SAT)
        assert conversion_update(0.2, k_eff, math.exp(-k_eff * 10.0)) == 0.2

    def test_saturated_dose_gives_exact_first_order_step(self):
        # a concentration dose at saturation couples fully (g = 1)
        k_eff = 2e-3 * trigger_coupling(95.0 / 100.0, DEFAULT_HF_SAT)
        assert k_eff == 2e-3
        assert conversion_update(0.3, k_eff, math.exp(-k_eff * 50.0)) == 1.0 - 0.7 * math.exp(-2e-3 * 50.0)


class TestTriggerCoupling:
    def test_zero_dose(self):
        assert trigger_coupling(0.0) == 0.0

    def test_saturated_dose(self):
        assert trigger_coupling(0.95) == 1.0
        assert trigger_coupling(1.0) == 1.0

    def test_partial_dose_linear(self):
        assert trigger_coupling(0.475) == pytest.approx(0.5, rel=1e-12)

    def test_bad_saturation(self):
        with pytest.raises(DomainError):
            trigger_coupling(0.5, hf_sat=0.0)

    @pytest.mark.parametrize("hf_sat", [math.nan, math.inf])
    def test_non_finite_saturation_refused(self, hf_sat):
        # min(1.0, nan) = 1.0 treated a NaN saturation as a full trigger
        with pytest.raises(DomainError, match="hf_sat must be finite and > 0"):
            trigger_coupling(0.5, hf_sat=hf_sat)
