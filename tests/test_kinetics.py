"""Kinetics core: rate laws, conversion laws, photolysis, schedule integration."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transient_kinetics.errors import DomainError, UnreachableTargetError
from transient_kinetics.kinetics import (
    DEFAULT_HF_SAT,
    DEFAULT_K_PHOTO,
    GAS_CONSTANT,
    MAX_STEPS,
    ArrheniusParams,
    ExposureSchedule,
    PhotolysisState,
    ScheduleSegment,
    advance,
    arrhenius_rate,
    check_step_count,
    conversion_from_heat,
    conversion_rate,
    dsc_heat_flow,
    hf_concentration,
    integrate_conversion,
    integrate_conversion_lists,
    isothermal_conversion,
    time_to_conversion,
    trigger_coupling,
)

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
    hf_frac = photolysis.hf_fraction
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
        with pytest.raises(UnreachableTargetError):
            time_to_conversion(1e-3, 1.0)
        with pytest.raises(UnreachableTargetError):
            time_to_conversion(0.0, 0.5)

    def test_mutual_inverse_with_isothermal(self):
        rng = np.random.default_rng(1905)
        for _ in range(200):
            k = 10.0 ** rng.uniform(-6, 0)
            alpha = rng.uniform(0.0, 0.999)
            t = time_to_conversion(k, alpha)
            back = isothermal_conversion(k, t)
            assert back == pytest.approx(alpha, rel=1e-10, abs=1e-12)


class TestConversionRate:
    def test_fully_converted(self):
        assert conversion_rate(0.01, 1.0, 1.0) == 0.0

    def test_fresh_sample(self):
        assert conversion_rate(0.01, 0.0, 1.0) == 0.01

    def test_second_order(self):
        assert conversion_rate(0.01, 0.5, 2.0) == pytest.approx(0.0025, rel=1e-12)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            conversion_rate(0.01, 1.5)
        with pytest.raises(DomainError):
            conversion_rate(0.01, 0.5, order=-1.0)


class TestHfConcentration:
    def test_no_dose(self):
        state = PhotolysisState(dpi_initial=50.0, k_photo=1e-3)
        assert hf_concentration(state, 0.0) == 0.0

    def test_half_life_dose(self):
        state = PhotolysisState(dpi_initial=50.0, k_photo=1e-3)
        t_half = math.log(2) / 1e-3
        assert hf_concentration(state, t_half) == pytest.approx(25.0, rel=1e-12)

    def test_saturation(self):
        state = PhotolysisState(dpi_initial=50.0, k_photo=1e-3)
        assert hf_concentration(state, 1e7) == pytest.approx(50.0, rel=1e-9)

    def test_never_exceeds_initial_and_concave(self):
        state = PhotolysisState(dpi_initial=2.0, k_photo=5e-4)
        times = np.linspace(0, 2e4, 300)
        values = np.array([hf_concentration(state, t) for t in times])
        assert np.all(values <= state.dpi_initial)
        second_diff = np.diff(values, 2)
        assert np.all(second_diff <= 1e-12)

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


class TestConversionFromHeat:
    def test_anchors(self):
        assert conversion_from_heat(0.0, 10.0) == 0.0
        assert conversion_from_heat(10.0, 10.0) == 1.0
        assert conversion_from_heat(2.5, 10.0) == 0.25

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            conversion_from_heat(11.0, 10.0)
        with pytest.raises(DomainError):
            conversion_from_heat(1.0, 0.0)


class TestCheckStepCount:
    def test_max_steps_pass(self):
        check_step_count(float(MAX_STEPS), 1.0)
        check_step_count(MAX_STEPS * 0.5, 0.5)

    @pytest.mark.parametrize("horizon_s, dt", [(MAX_STEPS * 1.5, 1.0), (1.0, 1e-9), (math.inf, 1.0), (1.0, 5e-324)])
    def test_over_max_steps_refused(self, horizon_s, dt):
        with pytest.raises(DomainError, match="steps; use a larger step"):
            check_step_count(horizon_s, dt)


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
    @settings(max_examples=100, deadline=None)
    @given(case=hoist_cases())
    def test_lists_hold_the_arrays_floats_bit_for_bit(self, case):
        schedule, params, photolysis, dt, hf_sat = case
        lists = integrate_conversion_lists(schedule, params, photolysis, dt, hf_sat=hf_sat)
        arrays = integrate_conversion(schedule, params, photolysis, dt, hf_sat=hf_sat)
        for got, want in zip((lists.t, lists.alpha, lists.hf_fraction), (arrays.t, arrays.alpha, arrays.hf_fraction)):
            assert type(got) is list and {type(x) for x in got} == {float}
            assert np.array(got).tobytes() == want.tobytes()


class TestAdvance:
    def test_fraction_dose_matches_complement_form(self):
        # hf_max = 1 (the mission's dose fraction) reproduces
        # 1 - (1 - hf) * exp(-k dt) bit for bit
        for hf in (0.0, 0.1, 0.5, 0.93, 0.999):
            for dt in (0.1, 1.0, 37.5):
                decay = math.exp(-DEFAULT_K_PHOTO * dt)
                new_hf, _ = advance(hf, 0.0, 1e-3, True, dt, DEFAULT_K_PHOTO, 1.0, DEFAULT_HF_SAT)
                assert new_hf == 1.0 - (1.0 - hf) * decay

    def test_dark_step_keeps_dose(self):
        assert advance(0.4, 0.2, 1e-3, False, 10.0, DEFAULT_K_PHOTO, 1.0, DEFAULT_HF_SAT)[0] == 0.4
        assert advance(0.0, 0.2, 1e-3, False, 10.0, DEFAULT_K_PHOTO, 1.0, DEFAULT_HF_SAT) == (0.0, 0.2)

    def test_saturated_dose_gives_exact_first_order_step(self):
        # a concentration dose at saturation couples fully (g = 1)
        hf, alpha = advance(95.0, 0.3, 2e-3, False, 50.0, DEFAULT_K_PHOTO, 100.0, DEFAULT_HF_SAT)
        assert hf == 95.0
        assert alpha == 1.0 - 0.7 * math.exp(-2e-3 * 50.0)


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
