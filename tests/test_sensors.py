"""Sensor forward models and the decomposition-driven failure overlay."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from transient_kinetics.errors import DomainError
from transient_kinetics.sensors import (
    DEGRADED_JITTER_GAIN,
    FAIL_RESISTANCE_OHM,
    PhotodiodeSpec,
    SensorHealth,
    StrainSensorSpec,
    TempSensorSpec,
    apply_degradation,
    photodiode_current,
    read_temperature,
    strain_capacitance,
    temp_resistance,
)

TEMP = TempSensorSpec()
STRAIN = StrainSensorSpec()
PHOTO = PhotodiodeSpec()
HEALTH = SensorHealth()


class TestTempSensor:
    def test_reference_point(self):
        assert temp_resistance(TEMP, TEMP.t_ref) == TEMP.r0

    def test_main_tcr_over_band(self):
        r = temp_resistance(TEMP, TEMP.t_ref + 75.0)
        assert r == pytest.approx(TEMP.r0 + 0.15, rel=1e-12)

    def test_inverse_round_trip(self):
        for t in np.linspace(-20.0, 200.0, 45):
            back = read_temperature(TEMP, temp_resistance(TEMP, t))
            assert back == pytest.approx(t, abs=1e-9)

    def test_read_reference(self):
        assert read_temperature(TEMP, TEMP.r0) == TEMP.t_ref

    def test_explicit_inverse_value(self):
        assert read_temperature(TEMP, TEMP.r0 + 0.15) == pytest.approx(TEMP.t_ref + 75.0, rel=1e-12)

    def test_heated_rod_array_scenario(self):
        # rods at 50/70/100 C under sensors 1/3/5 of a five-sensor array
        ambient = 25.0
        surface = [50.0, ambient, 70.0, ambient, 100.0]
        readout = [read_temperature(TEMP, temp_resistance(TEMP, t)) for t in surface]
        assert readout[0] == pytest.approx(50.0, abs=1e-9)
        assert readout[2] == pytest.approx(70.0, abs=1e-9)
        assert readout[4] == pytest.approx(100.0, abs=1e-9)

    def test_band_validity(self):
        with pytest.raises(DomainError, match="temperature 201 degC outside model band"):
            temp_resistance(TEMP, 201.0)
        with pytest.raises(DomainError, match="temperature -21 degC outside model band"):
            temp_resistance(TEMP, -21.0)

    def test_failed_resistance_rejected(self):
        with pytest.raises(DomainError, match=re.escape("resistance 1e+06 ohm is at or above the failure clamp")):
            read_temperature(TEMP, TEMP.fail_resistance)

    def test_caption_variant_slope(self):
        alt = TempSensorSpec(slope=0.2)
        assert temp_resistance(alt, 100.0) - temp_resistance(alt, 25.0) == pytest.approx(
            0.2 * 75.0, rel=1e-12
        )

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            TempSensorSpec(r0=0.0)
        with pytest.raises(DomainError):
            TempSensorSpec(fail_resistance=1e5)


class TestLibraryRefusals:
    """Refusals that no command reaches, each raised with its message head."""

    @pytest.mark.parametrize(
        "call, args, head",
        [
            (read_temperature, (TEMP, 0.0), "resistance must be > 0"),
            (read_temperature, (TEMP, -1.0), "resistance must be > 0"),
            (read_temperature, (TEMP, math.nan), "resistance must be > 0"),
            (apply_degradation, (10.0, "temp", -0.1, HEALTH, 0.0), "alpha must lie in [0, 1]"),
            (apply_degradation, (10.0, "temp", 1.5, HEALTH, 0.0), "alpha must lie in [0, 1]"),
            (apply_degradation, (10.0, "strain", math.nan, HEALTH, 0.0), "alpha must lie in [0, 1]"),
            # a file cannot give these: its number rule refuses inf and NaN
            (TempSensorSpec, (10.0, 0.002, 25.0, math.inf), "fail_resistance must be finite and >= 1e6 ohm, got inf"),
            (TempSensorSpec, (10.0, 0.002, 25.0, math.nan), "fail_resistance must be finite and >= 1e6 ohm, got nan"),
            (strain_capacitance, (STRAIN, math.nan), "angle nan deg outside calibration (+/-35 deg)"),
        ],
        ids=[
            "zero-resistance", "negative-resistance", "nan-resistance", "alpha-below-0", "alpha-above-1", "alpha-nan",
            "infinite-fail-resistance", "nan-fail-resistance", "strain-nan-angle",
        ],
    )
    def test_refused_with_its_message(self, call, args, head):
        with pytest.raises(DomainError, match=re.escape(head)):
            call(*args)


class TestStrainSensor:
    def test_rest_capacitance(self):
        assert strain_capacitance(STRAIN, 0.0) == STRAIN.c0

    def test_full_walking_swing(self):
        assert strain_capacitance(STRAIN, 35.0) == pytest.approx(STRAIN.c0 + 1.0, rel=1e-12)

    def test_half_angle(self):
        assert strain_capacitance(STRAIN, 17.5) == pytest.approx(STRAIN.c0 + 0.5, rel=1e-12)

    def test_strictly_monotone_in_angle_magnitude(self):
        angles = np.linspace(0.0, 35.0, 100)
        caps = [strain_capacitance(STRAIN, a) for a in angles]
        assert all(b > a for a, b in zip(caps, caps[1:]))

    def test_sign_insensitive(self):
        assert strain_capacitance(STRAIN, -20.0) == strain_capacitance(STRAIN, 20.0)

    def test_out_of_calibration(self):
        with pytest.raises(DomainError, match=re.escape("angle 35.1 deg outside calibration (+/-35 deg)")):
            strain_capacitance(STRAIN, 35.1)

    def test_table_override(self):
        spec = StrainSensorSpec(capacitance_table=((0.0, 10.0), (20.0, 10.3), (35.0, 11.0)))
        assert strain_capacitance(spec, 20.0) == 10.3
        assert strain_capacitance(spec, 10.0) == pytest.approx(10.15, rel=1e-12)

    @pytest.mark.parametrize(
        "table, message",
        [
            (((5.0, 10.0), (35.0, 11.0)), "capacitance_table must start at angle 0"),
            (((0.0, 10.0), (20.0, 10.0), (35.0, 11.0)), "capacitance_table must be strictly increasing in pF"),
            (((0.0, 10.0), (20.0, 10.5)), "capacitance_table must cover angle_full"),
            (((0.0, 10.0), (35.0, math.inf)), "capacitance_table anchors must be finite"),
            (((0.0, 10.0), (math.nan, 10.5), (35.0, 11.0)), "capacitance_table anchors must be finite"),
            (((0.0, 10.0, 9.0), (35.0, 11.0)), "capacitance_table anchors must be (x, y) pairs"),
            (((0.0,), (35.0, 11.0)), "capacitance_table anchors must be (x, y) pairs"),
        ],
        ids=[
            "late-start", "flat-capacitance", "short-of-angle-full", "infinite-capacitance", "nan-angle",
            "triple-anchor", "single-anchor",
        ],
    )
    def test_table_shape_rules(self, table, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            StrainSensorSpec(capacitance_table=table)


class TestPhotodiode:
    def test_reverse_bias_uv_anchor(self):
        assert photodiode_current(PHOTO, -2.0, uv_on=True) == -5e-8

    def test_zero_bias(self):
        assert photodiode_current(PHOTO, 0.0, uv_on=True) == 0.0

    def test_forward_bias_uv_anchor(self):
        assert photodiode_current(PHOTO, 2.0, uv_on=True) == 3.4e-8

    def test_dark_mode(self):
        assert abs(photodiode_current(PHOTO, -2.0, uv_on=False)) <= 1e-10
        assert abs(photodiode_current(PHOTO, 1.3, uv_on=False)) <= 1e-10

    def test_monotone_nondecreasing_in_bias(self):
        biases = np.linspace(-2.0, 2.0, 81)
        currents = [photodiode_current(PHOTO, b, uv_on=True) for b in biases]
        assert all(b >= a for a, b in zip(currents, currents[1:]))

    def test_band_validity(self):
        with pytest.raises(DomainError, match=re.escape("bias 2.1 V outside band [-2.0, 2.0]")):
            photodiode_current(PHOTO, 2.1, uv_on=True)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            PhotodiodeSpec(photo_current_reverse=1e-8)
        with pytest.raises(DomainError):
            PhotodiodeSpec(dark_current=1e-9)


class TestApplyDegradation:
    def test_identity_below_degrade_threshold(self):
        reading = 10.437
        for alpha in (0.0, 0.1, 0.2999):
            assert apply_degradation(reading, "strain", alpha, HEALTH, 5) is reading
            assert apply_degradation(reading, "temp", alpha, HEALTH, 5) is reading
            assert apply_degradation(reading, "photo", alpha, HEALTH, 5) is reading

    @given(st.floats(-1.0, 1.0))
    def test_degraded_strain_is_erratic_and_seeded(self, noise):
        a = apply_degradation(10.0, "strain", 0.5, HEALTH, noise)
        assert a == apply_degradation(10.0, "strain", 0.5, HEALTH, noise=noise)
        assert a == 10.0 * (1.0 + DEGRADED_JITTER_GAIN * noise)
        # another draw, 1e-3 away, reads otherwise
        other = noise - 1e-3 if noise > 0.0 else noise + 1e-3
        assert apply_degradation(10.0, "strain", 0.5, HEALTH, other) != a

    @pytest.mark.parametrize("noise", [None, 1.5, -1.0000000000000002, math.nan, math.inf])
    def test_degraded_strain_without_a_draw_in_band_refused(self, noise):
        with pytest.raises(DomainError, match="needs a noise draw in \\[-1, 1\\]"):
            apply_degradation(10.0, "strain", 0.5, HEALTH, noise)

    def test_degraded_temp_and_photo_read_true(self):
        assert apply_degradation(10.15, "temp", 0.5, HEALTH, 1) == 10.15
        assert apply_degradation(-5e-8, "photo", 0.5, HEALTH, 1) == -5e-8

    def test_failed_temp_clamps_to_megaohm(self):
        assert apply_degradation(10.15, "temp", 1.0, HEALTH, 1) == FAIL_RESISTANCE_OHM
        assert apply_degradation(10.15, "temp", 0.7, HEALTH, 1) == 1e6

    def test_failed_photo_clamps_to_zero(self):
        assert apply_degradation(-5e-8, "photo", 1.0, HEALTH, 1) == 0.0

    def test_failed_strain_unavailable(self):
        assert apply_degradation(11.0, "strain", 0.9, HEALTH, 1) is None

    def test_failed_state_idempotent(self):
        for kind, raw in (("temp", 10.15), ("photo", -5e-8), ("strain", 11.0)):
            once = apply_degradation(raw, kind, 0.95, HEALTH, 7)
            twice = apply_degradation(once, kind, 0.95, HEALTH, 7)
            assert twice == once or (twice is None and once is None)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            apply_degradation(1.0, "pressure", 0.2, HEALTH, 1)

    def test_health_thresholds_validation(self):
        with pytest.raises(DomainError):
            SensorHealth(alpha_degrade=0.7, alpha_fail=0.3)

    def test_status_bands(self):
        assert HEALTH.status_at(0.0) == "operational"
        assert HEALTH.status_at(0.3) == "degraded"
        assert HEALTH.status_at(0.7) == "failed"
