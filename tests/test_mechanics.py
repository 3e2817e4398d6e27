"""Material presets and fracture checks, actuator calibration, gait kinematics."""

import math
import re

import pytest

from transient_kinetics.errors import DomainError
from transient_kinetics.mechanics import (
    DEFAULT_ACTUATOR,
    MATERIAL_PRESETS,
    ActuatorSpec,
    GaitState,
    MaterialSpec,
    bend_angle,
    fracture_check,
    gait_advance,
    max_channel_strain,
    validate_actuator_wall,
)


class TestFractureCheck:
    @pytest.mark.parametrize(
        "name,fracture_strain",
        [("ecoflex-0wt", 6.8372), ("ecoflex-10wt", 5.7167), ("ecoflex-20wt", 4.9334)],
    )
    def test_flips_exactly_at_fracture_strain(self, name, fracture_strain):
        spec = MATERIAL_PRESETS[name]
        assert spec.fracture_strain == fracture_strain
        assert not fracture_check(spec, fracture_strain - 1e-9)
        assert not fracture_check(spec, fracture_strain)
        assert fracture_check(spec, fracture_strain + 1e-9)

    def test_zero_strain_safe(self):
        assert not fracture_check(MATERIAL_PRESETS["ecoflex-0wt"], 0.0)

    def test_material_validation(self):
        with pytest.raises(DomainError):
            MaterialSpec("bad", -1.0, 4.0, 6.0, 1e5, 0.43, 1070.0, 0.0)
        with pytest.raises(DomainError):
            MaterialSpec("bad", 1e4, 6.0, 4.0, 1e5, 0.43, 1070.0, 0.0)
        with pytest.raises(DomainError):
            MaterialSpec("bad", 1e4, 4.0, 6.0, 1e5, 0.5, 1070.0, 0.0)


class TestLibraryRefusals:
    """Refusals that no command reaches, each raised with its message head."""

    @pytest.mark.parametrize(
        "call, args, head",
        [
            (fracture_check, (MATERIAL_PRESETS["ecoflex-0wt"], -1e-9), "strain must be >= 0"),
            (fracture_check, (MATERIAL_PRESETS["ecoflex-0wt"], -math.inf), "strain must be >= 0"),
            (fracture_check, (MATERIAL_PRESETS["ecoflex-0wt"], math.nan), "strain must be >= 0"),
            (bend_angle, (DEFAULT_ACTUATOR, math.nan), "pressure nan kPa exceeds rated 12 kPa"),
            (max_channel_strain, (DEFAULT_ACTUATOR, math.nan), "pressure nan kPa exceeds rated 12 kPa"),
            (gait_advance, (GaitState(), DEFAULT_ACTUATOR, math.nan, 1.0), "elapsed must be finite and >= 0, got nan"),
            (gait_advance, (GaitState(), DEFAULT_ACTUATOR, math.inf, 1.0), "elapsed must be finite and >= 0, got inf"),
            (gait_advance, (GaitState(), DEFAULT_ACTUATOR, -1.0, 1.0), "elapsed must be finite and >= 0, got -1.0"),
        ],
        ids=[
            "fracture-negative-strain", "fracture-minus-inf-strain", "fracture-nan-strain",
            "bend-nan-pressure", "channel-strain-nan-pressure",
            "gait-nan-elapsed", "gait-infinite-elapsed", "gait-negative-elapsed",
        ],
    )
    def test_refused_with_its_message(self, call, args, head):
        with pytest.raises(DomainError, match=re.escape(head)):
            call(*args)


class TestBendAngle:
    def test_zero_pressure(self):
        assert bend_angle(DEFAULT_ACTUATOR, 0.0) == 0.0

    def test_full_pressure_anchor(self):
        assert bend_angle(DEFAULT_ACTUATOR, 12.0) == pytest.approx(35.0, rel=1e-12)

    def test_odd_in_pressure(self):
        for p in (0.5, 3.0, 7.25, 12.0):
            assert bend_angle(DEFAULT_ACTUATOR, -p) == -bend_angle(DEFAULT_ACTUATOR, p)

    def test_overpressure(self):
        with pytest.raises(DomainError, match="pressure 12.5 kPa exceeds rated 12 kPa"):
            bend_angle(DEFAULT_ACTUATOR, 12.5)

    def test_piecewise_table_override(self):
        actuator = ActuatorSpec(
            angle_per_pressure=35.0 / 12.0,
            max_pressure=12.0,
            strain_per_pressure=0.8356 / 12.0,
            stride_per_cycle=0.025,
            cycle_period=1.0,
            angle_table=((0.0, 0.0), (6.0, 25.0), (12.0, 35.0)),
        )
        assert bend_angle(actuator, 6.0) == 25.0
        assert bend_angle(actuator, 3.0) == pytest.approx(12.5, rel=1e-12)
        assert bend_angle(actuator, -6.0) == -25.0

    def test_bad_table_rejected(self):
        with pytest.raises(DomainError):
            ActuatorSpec(1.0, 12.0, 0.07, 0.025, 1.0, angle_table=((1.0, 5.0), (12.0, 35.0)))

    @pytest.mark.parametrize(
        "table, message",
        [
            (((0.0, 0.0), (6.0, 25.0), (12.0, 20.0)), "angle_table must be monotone in angle"),
            (((0.0, 0.0), (6.0, 25.0)), "angle_table must cover max_pressure"),
            (((0.0, 0.0), (6.0, math.inf), (12.0, math.inf)), "angle_table anchors must be finite"),
            (((0.0, 0.0), (math.nan, 20.0), (12.0, 35.0)), "angle_table anchors must be finite"),
            # the rules both tables share come before the actuator's own
            (((1.0, 5.0), (0.5, 6.0)), "angle_table pressures must be strictly increasing"),
            (((0.0, 0.0, 9.0), (12.0, 35.0)), "angle_table anchors must be (x, y) pairs"),
            (((0.0,), (12.0, 35.0)), "angle_table anchors must be (x, y) pairs"),
        ],
        ids=[
            "falling-angle", "short-of-max-pressure", "infinite-angle", "nan-pressure", "falling-late-start",
            "triple-anchor", "single-anchor",
        ],
    )
    def test_table_shape_rules(self, table, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            ActuatorSpec(1.0, 12.0, 0.07, 0.025, 1.0, angle_table=table)


class TestMaxChannelStrain:
    def test_full_pressure_anchor(self):
        assert max_channel_strain(DEFAULT_ACTUATOR, 12.0) == pytest.approx(0.8356, rel=1e-12)

    def test_zero(self):
        assert max_channel_strain(DEFAULT_ACTUATOR, 0.0) == 0.0

    def test_half_pressure(self):
        assert max_channel_strain(DEFAULT_ACTUATOR, 6.0) == pytest.approx(0.4178, rel=1e-12)

    def test_sign_insensitive(self):
        assert max_channel_strain(DEFAULT_ACTUATOR, -12.0) == pytest.approx(0.8356, rel=1e-12)

    def test_overpressure(self):
        with pytest.raises(DomainError, match="pressure -12.01 kPa exceeds rated 12 kPa"):
            max_channel_strain(DEFAULT_ACTUATOR, -12.01)

    def test_wall_material_check(self):
        validate_actuator_wall(DEFAULT_ACTUATOR, MATERIAL_PRESETS["ecoflex-20wt"])
        weak = MaterialSpec("weak", 4e4, 0.2, 0.5, 1e5, 0.43, 1070.0, 0.0)
        with pytest.raises(DomainError):
            validate_actuator_wall(DEFAULT_ACTUATOR, weak)


class TestGaitAdvance:
    def test_immobilized_robot_stays(self):
        state = GaitState(position=1.5)
        out = gait_advance(state, DEFAULT_ACTUATOR, 25.0, mobility=0.0)
        assert out.position == 1.5

    def test_full_mobility_speed_anchor(self):
        state = GaitState()
        out = gait_advance(state, DEFAULT_ACTUATOR, 10.0, mobility=1.0)
        assert out.position == pytest.approx(0.25, rel=1e-12)

    def test_half_mobility(self):
        out = gait_advance(GaitState(), DEFAULT_ACTUATOR, 10.0, mobility=0.5)
        assert out.position == pytest.approx(0.125, rel=1e-12)

    def test_additive_over_concatenated_intervals(self):
        one = gait_advance(GaitState(), DEFAULT_ACTUATOR, 7.7, mobility=0.8)
        two = gait_advance(one, DEFAULT_ACTUATOR, 2.3, mobility=0.8)
        direct = gait_advance(GaitState(), DEFAULT_ACTUATOR, 10.0, mobility=0.8)
        assert abs(two.position - direct.position) < 1e-12

    def test_cycle_bookkeeping(self):
        out = gait_advance(GaitState(), DEFAULT_ACTUATOR, 2.25, mobility=1.0)
        assert out.cycle_progress == pytest.approx(0.25, abs=1e-12)
        assert out.current_angle == pytest.approx(35.0, rel=1e-12)
        out2 = gait_advance(out, DEFAULT_ACTUATOR, 0.5, mobility=1.0)
        assert out2.current_angle == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            gait_advance(GaitState(), DEFAULT_ACTUATOR, -1.0, 1.0)
        with pytest.raises(DomainError):
            gait_advance(GaitState(), DEFAULT_ACTUATOR, 1.0, 1.5)


class TestPresets:
    def test_fracture_table(self):
        table = {
            "ecoflex-0wt": (0.4251e6, 6.8372),
            "ecoflex-10wt": (0.1453e6, 5.7167),
            "ecoflex-20wt": (0.1897e6, 4.9334),
        }
        for name, (stress, strain) in table.items():
            spec = MATERIAL_PRESETS[name]
            assert spec.fracture_stress == pytest.approx(stress, rel=1e-12)
            assert spec.fracture_strain == pytest.approx(strain, rel=1e-12)
            assert spec.modulus == pytest.approx(40.02e3, rel=1e-12)
            assert spec.elastic_limit_strain == 4.0
            assert spec.poisson == 0.43
            assert spec.density == 1070.0

    def test_linear_modulus_reaches_fracture_stress(self):
        # extrapolating the modulus to the fracture strain lands within 5%
        # of the measured fracture stress
        spec = MATERIAL_PRESETS["ecoflex-20wt"]
        sigma = spec.modulus * spec.fracture_strain
        assert abs(sigma - spec.fracture_stress) / spec.fracture_stress < 0.05

    def test_default_actuator_speed(self):
        assert DEFAULT_ACTUATOR.speed == 0.025
