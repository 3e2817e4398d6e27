"""Structured config parsing, calibration overlays, preset resolution."""

import math
from dataclasses import replace
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transient_kinetics import cli
from transient_kinetics.config import (
    ANCHORS,
    CALIBRATION_TABLE,
    PER_KPA,
    TEXT,
    Calibration,
    apply_sections,
    default_calibration,
    load_calibration_file,
    parse_sections,
    presets_dir,
    resolve_preset_path,
    section_data,
)
from transient_kinetics.dscfit import DscTrace
from transient_kinetics.errors import ConfigError, DomainError
from transient_kinetics.mechanics import DEFAULT_ACTUATOR, MATERIAL_PRESETS
from transient_kinetics.mission import load_mission
from transient_kinetics.sensors import StrainSensorSpec, TempSensorSpec

# Sets every key of every calibration section, with a second [actuator]
# section that gives only max_pressure_kpa (the slopes must stay) and a new
# material that the actuator names as its wall.
EVERY_KEY_OVERLAY = """\
[kinetics]
pre_exponential_per_s = 0.25
activation_energy_kj_per_mol = 20.5

[photolysis]
rate_per_s = 0.002
hf_saturation = 0.9
dpi_initial_mol_m3 = 80.0

[material.stiff-wall]
modulus_pa = 60000
elastic_limit_strain = 3.5
fracture_strain = 6.0
fracture_stress_pa = 300000
poisson = 0.45
density_kg_m3 = 1100
dpi_wt_percent = 15

[actuator]
angle_at_max_deg = 40.0
strain_at_max = 0.9
max_pressure_kpa = 10.0
stride_per_cycle_m = 0.03
cycle_period_s = 1.5
angle_table = 0:0, 5:18, 10:40, 16:60
wall_material = stiff-wall

[actuator]
max_pressure_kpa = 16.0

[sensor.temp]
r0_ohm = 12.0
tcr_ohm_per_c = 0.004
t_ref_c = 20.0
fail_resistance_ohm = 2e6

[sensor.strain]
c0_pf = 11.0
swing_pf = 1.5
angle_full_deg = 40.0
capacitance_table = 0:11, 20:11.6, 40:12.5

[sensor.photo]
reverse_current_a = -6e-8
forward_current_a = 3e-8
dark_current_a = 1e-11

[sensor.health]
alpha_degrade = 0.25
alpha_fail = 0.8

[simulation]
dt_s = 0.5
mobility_loss_alpha = 0.15
decomposed_alpha = 0.98
body_thermal_lag_s = 30.0
dose_alarm_fraction = 0.4
alarm_temperature_c = 90.0
uv_current_threshold_a = 2e-9
monitor_bias_v = -1.5
timeout_s = 100000.0
"""

# The summary echo of EVERY_KEY_OVERLAY over default_calibration().
EVERY_KEY_ECHO = {
    "kinetics": {
        "pre_exponential_per_s": 0.25,
        "activation_energy_j_per_mol": 20500.0,
    },
    "photolysis": {
        "rate_per_s": 0.002,
        "hf_saturation": 0.9,
        "dpi_initial_mol_m3": 80.0,
    },
    "actuator": {
        "max_pressure_kpa": 16.0,
        "angle_per_pressure_deg_per_kpa": 4.0,
        "strain_per_pressure_per_kpa": 0.09,
        "stride_per_cycle_m": 0.03,
        "cycle_period_s": 1.5,
    },
    "sensor_temp": {
        "r0_ohm": 12.0,
        "tcr_ohm_per_c": 0.004,
        "t_ref_c": 20.0,
        "fail_resistance_ohm": 2000000.0,
    },
    "sensor_strain": {
        "c0_pf": 11.0,
        "swing_pf": 1.5,
        "angle_full_deg": 40.0,
    },
    "sensor_photo": {
        "reverse_current_a": -6e-08,
        "forward_current_a": 3e-08,
        "dark_current_a": 1e-11,
    },
    "sensor_health": {
        "alpha_degrade": 0.25,
        "alpha_fail": 0.8,
    },
    "simulation": {
        "dt_s": 0.5,
        "mobility_loss_alpha": 0.15,
        "decomposed_alpha": 0.98,
        "body_thermal_lag_s": 30.0,
        "dose_alarm_fraction": 0.4,
        "alarm_temperature_c": 90.0,
        "uv_current_threshold_a": 2e-09,
        "monitor_bias_v": -1.5,
        "timeout_s": 100000.0,
    },
    "materials": {
        "ecoflex-0wt": {
            "modulus_pa": 40020.0,
            "elastic_limit_strain": 4.0,
            "fracture_strain": 6.8372,
            "fracture_stress_pa": 425100.0,
            "poisson": 0.43,
            "density_kg_m3": 1070.0,
            "dpi_wt_percent": 0.0,
        },
        "ecoflex-10wt": {
            "modulus_pa": 40020.0,
            "elastic_limit_strain": 4.0,
            "fracture_strain": 5.7167,
            "fracture_stress_pa": 145300.0,
            "poisson": 0.43,
            "density_kg_m3": 1070.0,
            "dpi_wt_percent": 10.0,
        },
        "ecoflex-20wt": {
            "modulus_pa": 40020.0,
            "elastic_limit_strain": 4.0,
            "fracture_strain": 4.9334,
            "fracture_stress_pa": 189700.0,
            "poisson": 0.43,
            "density_kg_m3": 1070.0,
            "dpi_wt_percent": 20.0,
        },
        "stiff-wall": {
            "modulus_pa": 60000.0,
            "elastic_limit_strain": 3.5,
            "fracture_strain": 6.0,
            "fracture_stress_pa": 300000.0,
            "poisson": 0.45,
            "density_kg_m3": 1100.0,
            "dpi_wt_percent": 15.0,
        },
    },
}



class TestParseSections:
    def test_basic(self):
        text = "# note\n[alpha]\nx = 1\ny = two\n\n[beta]\nbare\n"
        sections = parse_sections(text)
        assert sections == [("alpha", [("x", "1"), ("y", "two")]), ("beta", [("bare", "")])]

    def test_repeated_keys_preserved(self):
        sections = parse_sections("[s]\nmove_to = 1\nmove_to = 2\n")
        assert sections[0][1] == [("move_to", "1"), ("move_to", "2")]

    def test_entry_outside_section(self):
        with pytest.raises(ConfigError):
            parse_sections("x = 1\n")

    def test_malformed_header(self):
        with pytest.raises(ConfigError):
            parse_sections("[oops\nx = 1\n")


class TestCalibration:
    def test_defaults_are_the_measured_anchors(self):
        cal = default_calibration()
        assert cal.kinetics.pre_exponential == pytest.approx(0.1703)
        assert cal.kinetics.activation_energy == pytest.approx(18090.0)
        assert cal.photolysis_rate == pytest.approx(math.log(20.0) / 1800.0, rel=1e-12)
        assert cal.hf_saturation == 0.95
        assert set(cal.materials) >= {"ecoflex-0wt", "ecoflex-10wt", "ecoflex-20wt"}
        assert cal.temp_sensor.slope == 0.002
        assert cal.simulation.mobility_loss_alpha == 0.2
        assert cal.wall_material == "ecoflex-20wt"

    def test_overlay_wins(self, tmp_path):
        overlay = tmp_path / "custom.cfg"
        overlay.write_text("[kinetics]\npre_exponential_per_s = 0.2\n")
        cal = load_calibration_file(overlay, default_calibration())
        assert cal.kinetics.pre_exponential == 0.2
        assert cal.kinetics.activation_energy == pytest.approx(18090.0)

    def test_tcr_variant_preset(self):
        cal = load_calibration_file(presets_dir() / "tcr_high.cfg", default_calibration())
        assert cal.temp_sensor.slope == 0.2

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[kinetics]\nnonsense = 3\n")
        with pytest.raises(ConfigError):
            load_calibration_file(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            apply_sections(Calibration(), [("mystery", [])], "<test>")

    def test_material_section(self, tmp_path):
        cfg = tmp_path / "mat.cfg"
        cfg.write_text(
            "[material.custom]\nmodulus_pa = 50000\nelastic_limit_strain = 3\n"
            "fracture_strain = 5\nfracture_stress_pa = 250000\npoisson = 0.4\n"
            "density_kg_m3 = 1000\ndpi_wt_percent = 5\n"
        )
        cal = load_calibration_file(cfg, default_calibration())
        assert cal.materials["custom"].modulus == 50000.0
        assert cal.materials["custom"].name == "custom"

    def test_material_missing_key(self, tmp_path):
        cfg = tmp_path / "mat.cfg"
        cfg.write_text("[material.custom]\nmodulus_pa = 50000\n")
        with pytest.raises(ConfigError) as err:
            load_calibration_file(cfg)
        assert str(err.value) == f"{cfg} [material.custom]: missing key 'elastic_limit_strain'"

    def test_section_data_keeps_the_last_of_a_repeated_key(self):
        entries = [("a", "1"), ("b", "2"), ("a", "3")]
        assert section_data(entries, ("a", "b", "c"), "<ctx>", required=("a",)) == {"a": "3", "b": "2"}

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([("z", "1"), ("y", "2")], "<ctx>: unknown keys ['y', 'z']"),
            ([("c", "1"), ("z", "1")], "<ctx>: unknown keys ['z']"),  # before the missing keys
            ([("c", "1")], "<ctx>: missing key 'a'"),  # the first of required that is absent
            ([("a", "1")], "<ctx>: missing key 'b'"),
        ],
    )
    def test_section_data_refusals(self, entries, message):
        with pytest.raises(ConfigError) as err:
            section_data(entries, ("a", "b", "c"), "<ctx>", required=("a", "b"))
        assert str(err.value) == message

    def test_actuator_wall_check(self, tmp_path):
        cfg = tmp_path / "act.cfg"
        cfg.write_text("[actuator]\nstrain_at_max = 80.0\nwall_material = ecoflex-20wt\n")
        with pytest.raises(ConfigError) as err:
            load_calibration_file(cfg, default_calibration())
        assert "fracture" in str(err.value)

    def test_actuator_wall_checked_on_every_overlay(self, tmp_path):
        # the shipped calibration names the wall; an overlay that only raises
        # the strain must still be checked against it
        cfg = tmp_path / "act.cfg"
        cfg.write_text("[actuator]\nstrain_at_max = 80.0\n")
        base = default_calibration()
        assert base.wall_material == "ecoflex-20wt"
        with pytest.raises(ConfigError) as err:
            load_calibration_file(cfg, base)
        assert "fracture" in str(err.value)

    @pytest.mark.parametrize(
        "slope", ["angle_at_max_deg = 90", "strain_at_max = 0.3"], ids=["angle", "strain"]
    )
    def test_zero_max_pressure_with_a_slope_rejected(self, tmp_path, slope):
        cfg = tmp_path / "act.cfg"
        cfg.write_text(f"[actuator]\nmax_pressure_kpa = 0\n{slope}\n")
        with pytest.raises(ConfigError, match="max_pressure_kpa must be > 0, got 0"):
            load_calibration_file(cfg)

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("rate_per_s = -1", "photolysis_rate must be finite and >= 0, got -1.0"),
            ("hf_saturation = 0", "hf_saturation must be finite and > 0, got 0.0"),
            ("dpi_initial_mol_m3 = -5", "dpi_initial must be finite and > 0, got -5.0"),
        ],
        ids=["rate", "hf-saturation", "dpi-initial"],
    )
    def test_bad_photolysis_value_names_its_file(self, tmp_path, entry, message):
        cfg = tmp_path / "photo.cfg"
        cfg.write_text(f"[photolysis]\n{entry}\n")
        with pytest.raises(ConfigError) as err:
            load_calibration_file(cfg)
        assert str(err.value) == f"{cfg}: {message}"

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("decomposed_alpha = 2", "decomposed_alpha must lie in (0, 1], got 2.0"),
            ("mobility_loss_alpha = 0", "mobility_loss_alpha must lie in (0, 1], got 0.0"),
            ("timeout_s = -5", "timeout_s must be finite and > 0 s, got -5.0"),
            ("body_thermal_lag_s = -1", "body_thermal_lag_s must be finite and >= 0 s, got -1.0"),
        ],
        ids=["decomposed-alpha", "mobility-loss-alpha", "timeout", "thermal-lag"],
    )
    def test_bad_simulation_value_names_its_file(self, tmp_path, entry, message):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"[simulation]\n{entry}\n")
        with pytest.raises(ConfigError) as err:
            load_calibration_file(cfg)
        assert str(err.value) == f"{cfg}: {message}"

    @pytest.mark.parametrize(
        "section, entry, message",
        [
            ("actuator", "angle_table = 0:0", "angle_table needs at least 2 anchor pairs"),
            ("actuator", "angle_table = 0:0, 6 20", "[actuator]: table entries need 'x:y', got '6 20'"),
            ("actuator", "angle_table = 0:0, 12:35, 6:40", "angle_table pressures must be strictly increasing"),
            ("sensor.strain", "capacitance_table = 0:10", "capacitance_table needs at least 2 anchor pairs"),
            (
                "sensor.strain",
                "capacitance_table = 0:10, 40:12, 20:11",
                "capacitance_table angles must be strictly increasing",
            ),
        ],
        ids=[
            "angle-one-pair", "angle-no-colon", "angle-decreasing", "capacitance-one-pair", "capacitance-decreasing",
        ],
    )
    def test_bad_anchor_table_names_its_file(self, tmp_path, section, entry, message):
        # the spec that takes the table is the one place its shape is checked
        cfg = tmp_path / "table.cfg"
        cfg.write_text(f"[{section}]\n{entry}\n")
        with pytest.raises(ConfigError) as err:
            load_calibration_file(cfg)
        # an entry the parser refuses names its section after the file
        separator = " " if message.startswith("[") else ": "
        assert str(err.value) == f"{cfg}{separator}{message}"

    @pytest.mark.parametrize("entry", ["0:0, 12:35", "0:0, 12:35,"], ids=["plain", "trailing-comma"])
    def test_anchor_table_reads_its_pairs(self, tmp_path, entry):
        # an empty entry, as after a trailing comma, is skipped
        cfg = tmp_path / "table.cfg"
        cfg.write_text(f"[actuator]\nangle_table = {entry}\n")
        assert load_calibration_file(cfg).actuator.angle_table == ((0.0, 0.0), (12.0, 35.0))

    @pytest.mark.parametrize(
        "section, entries, message",
        [
            (
                "actuator",
                "stride_per_cycle_m = 1e308\ncycle_period_s = 1e-10",
                "speed stride_per_cycle / cycle_period must be finite, got inf m/s",
            ),
            (
                "sensor.temp",
                "tcr_ohm_per_c = 1e308",
                "R(T) = r0 + slope * (T - t_ref) must lie between 0 and fail_resistance 1000000.0 ohm "
                "over [-20.0, 200.0] degC, got -inf and inf ohm at its edges",
            ),
            # a sound sensor that reads as failed, and one whose R(T) is not positive at -20 degC
            (
                "sensor.temp",
                "r0_ohm = 2e6",
                "R(T) = r0 + slope * (T - t_ref) must lie between 0 and fail_resistance 1000000.0 ohm "
                "over [-20.0, 200.0] degC, got 1999999.91 and 2000000.35 ohm at its edges",
            ),
            (
                "sensor.temp",
                "r0_ohm = 0.01",
                "R(T) = r0 + slope * (T - t_ref) must lie between 0 and fail_resistance 1000000.0 ohm "
                "over [-20.0, 200.0] degC, got -0.08 and 0.36000000000000004 ohm at its edges",
            ),
            (
                "sensor.strain",
                "c0_pf = 1.5e308",
                "largest capacitance 1.5e+308 pF overflows once jittered by 1.5x in the degraded band",
            ),
        ],
        ids=["speed", "resistance", "resistance-at-clamp", "resistance-not-positive", "capacitance"],
    )
    def test_device_value_out_of_range_names_its_file(self, tmp_path, section, entries, message):
        cfg = tmp_path / "device.cfg"
        cfg.write_text(f"[{section}]\n{entries}\n")
        with pytest.raises(ConfigError) as err:
            load_calibration_file(cfg)
        assert str(err.value) == f"{cfg}: {message}"

    def test_every_key_overlay_echo(self, tmp_path):
        cfg = tmp_path / "every.cfg"
        cfg.write_text(EVERY_KEY_OVERLAY)
        cal = load_calibration_file(cfg, default_calibration())
        assert cal.to_dict() == EVERY_KEY_ECHO
        assert cal.actuator.angle_table == ((0.0, 0.0), (5.0, 18.0), (10.0, 40.0), (16.0, 60.0))
        assert cal.strain_sensor.capacitance_table == ((0.0, 11.0), (20.0, 11.6), (40.0, 12.5))
        assert cal.wall_material == "stiff-wall"

    @pytest.mark.parametrize(
        "section",
        [
            "kinetics",
            "photolysis",
            "material.custom",
            "actuator",
            "sensor.temp",
            "sensor.strain",
            "sensor.photo",
            "sensor.health",
            "simulation",
        ],
    )
    def test_unknown_key_rejected_in_every_section(self, section):
        with pytest.raises(ConfigError) as err:
            apply_sections(default_calibration(), [(section, [("bogus_key", "1")])], "<test>")
        assert str(err.value) == f"<test> [{section}]: unknown keys ['bogus_key']"

    def test_config_echo_round_trips_key_values(self):
        echo = default_calibration().to_dict()
        assert echo["kinetics"]["pre_exponential_per_s"] == pytest.approx(0.1703)
        assert echo["actuator"]["stride_per_cycle_m"] == 0.025
        assert echo["sensor_photo"]["reverse_current_a"] == -5e-8
        assert "ecoflex-10wt" in echo["materials"]

    def test_resolve_preset_path(self, tmp_path, monkeypatch):
        local = tmp_path / "mine.cfg"
        local.write_text("[kinetics]\n")
        monkeypatch.chdir(tmp_path)
        assert resolve_preset_path("mine.cfg").resolve() == local.resolve()
        assert resolve_preset_path("tcr_high.cfg").name == "tcr_high.cfg"
        with pytest.raises(ConfigError):
            resolve_preset_path("no-such-thing.cfg")

    def test_presets_env_override(self, tmp_path, monkeypatch, capsys):
        presets = tmp_path / "presets"
        presets.mkdir()
        monkeypatch.setenv("TRANSIENT_KINETICS_PRESETS", str(presets))
        assert presets_dir() == presets
        # the override relocates named presets only: the defaults, and so the
        # wall check of every overlay, stay those of the library
        assert default_calibration() == Calibration()
        (tmp_path / "s.csv").write_text("duration_s,temperature_C,uv_on\n60,25,true\n")
        (tmp_path / "strong.cfg").write_text("[actuator]\nstrain_at_max = 80\n")
        args = ["predict", tmp_path / "s.csv", "--config", tmp_path / "strong.cfg", "--out", tmp_path / "out"]
        assert cli.main([str(a) for a in args]) == 2
        assert "fracture strain of 'ecoflex-20wt'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", sorted(path.name for path in presets_dir().iterdir()))
    def test_every_shipped_preset_loads(self, name):
        path = presets_dir() / name
        if path.suffix == ".cfg":
            load_calibration_file(path, default_calibration())
        elif path.suffix == ".mission":
            load_mission(path)
        else:
            pytest.fail(f"{name} is neither a calibration (.cfg) nor a mission (.mission)")


WEAK_20WT = replace(MATERIAL_PRESETS["ecoflex-20wt"], elastic_limit_strain=0.4, fracture_strain=0.5)


class TestCalibrationThatExistsIsValid:
    """Every Calibration checks itself, however it is built."""

    @pytest.mark.parametrize(
        "changes, message",
        [
            (
                {"actuator": replace(DEFAULT_ACTUATOR, strain_per_pressure=80 / 12)},
                "actuator peak strain 80 reaches fracture strain of 'ecoflex-20wt' (4.933)",
            ),
            ({"wall_material": "nope"}, "actuator wall_material 'nope' is not a known material"),
            (
                {"materials": {k: v for k, v in MATERIAL_PRESETS.items() if k != "ecoflex-20wt"}},
                "actuator wall_material 'ecoflex-20wt' is not a known material",
            ),
            (
                {"materials": {**MATERIAL_PRESETS, "ecoflex-20wt": WEAK_20WT}},
                "actuator peak strain 0.8356 reaches fracture strain of 'ecoflex-20wt' (0.5)",
            ),
        ],
        ids=["strain", "unknown-wall", "wall-dropped", "weaker-wall"],
    )
    def test_replace_runs_the_wall_check(self, changes, message):
        with pytest.raises(DomainError) as err:
            replace(Calibration(), **changes)
        assert str(err.value) == message

    def test_unknown_wall_in_a_file_names_the_file(self, tmp_path):
        cfg = tmp_path / "wall.cfg"
        cfg.write_text("[actuator]\nwall_material = nope\n")
        with pytest.raises(ConfigError) as err:
            load_calibration_file(cfg)
        assert str(err.value) == f"{cfg}: actuator wall_material 'nope' is not a known material"

    def test_split_health_section_is_one_overlay(self, tmp_path):
        # the first half alone (alpha_degrade 0.8 over the shipped alpha_fail 0.7) is not valid
        whole, split = tmp_path / "whole.cfg", tmp_path / "split.cfg"
        whole.write_text("[sensor.health]\nalpha_degrade = 0.8\nalpha_fail = 0.9\n")
        split.write_text("[sensor.health]\nalpha_degrade = 0.8\n[sensor.health]\nalpha_fail = 0.9\n")
        cal = load_calibration_file(split)
        assert cal == load_calibration_file(whole)
        assert (cal.health.alpha_degrade, cal.health.alpha_fail) == (0.8, 0.9)

    def test_split_actuator_wall_section_loads(self, tmp_path):
        # the strain alone would fracture the shipped ecoflex-20wt wall; the later wall holds it
        whole, split = tmp_path / "whole.cfg", tmp_path / "split.cfg"
        whole.write_text("[actuator]\nstrain_at_max = 5.5\nwall_material = ecoflex-0wt\n")
        split.write_text("[actuator]\nstrain_at_max = 5.5\n[actuator]\nwall_material = ecoflex-0wt\n")
        cal = load_calibration_file(split)
        assert cal == load_calibration_file(whole)
        assert cal.wall_material == "ecoflex-0wt"

    def test_a_material_later_in_the_file_can_be_the_wall(self, tmp_path):
        cfg = tmp_path / "wall.cfg"
        cfg.write_text(
            "[actuator]\nstrain_at_max = 7\nwall_material = tough\n"
            "[material.tough]\nmodulus_pa = 50000\nelastic_limit_strain = 5\nfracture_strain = 9\n"
            "fracture_stress_pa = 250000\npoisson = 0.4\ndensity_kg_m3 = 1000\ndpi_wt_percent = 0\n"
        )
        assert load_calibration_file(cfg).materials["tough"].fracture_strain == 9.0


SHIPPED = Calibration()
# valid anchor tables for the two table keys: the angle table covers any max_pressure_kpa drawn below
TABLES = {
    "actuator.angle_table": ("0:0, 6:20, 12:35, 20:40", "0:0, 20:50"),
    "strain_sensor.capacitance_table": ("0:10, 35:11", "0:10, 20:10.5, 60:12"),
}


def shipped_file_value(path: str, rule) -> float:
    """The number a file would give for a key's shipped value."""
    value = attrgetter(path)(SHIPPED)
    if rule is PER_KPA:
        return value * SHIPPED.actuator.max_pressure
    return value if rule is None else value / rule


@st.composite
def section_entries(draw):
    """A section name and its entries, each a value near the shipped one, in any order."""
    name = draw(st.sampled_from(sorted(CALIBRATION_TABLE)))
    entries = []
    for key, _, path, rule in draw(st.lists(st.sampled_from(CALIBRATION_TABLE[name]), min_size=1, unique=True)):
        if rule is TEXT:
            value = draw(st.sampled_from(sorted(MATERIAL_PRESETS)))
        elif rule is ANCHORS:
            value = draw(st.sampled_from(TABLES[path]))
        else:
            value = repr(shipped_file_value(path, rule) * draw(st.floats(0.25, 4.0)))
        entries.append((key, value))
    # the *_at_max keys are read per kPa of the latest max_pressure_kpa, so it goes first
    entries.sort(key=lambda entry: entry[0] != "max_pressure_kpa")
    return name, entries


def overlay_outcome(sections):
    try:
        return apply_sections(SHIPPED, sections, "<test>")
    except ConfigError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(section=section_entries(), data=st.data())
def test_a_section_split_in_consecutive_parts_is_the_same_overlay(section, data):
    name, entries = section
    cuts = sorted(data.draw(st.sets(st.integers(1, len(entries) - 1))) if len(entries) > 1 else ())
    parts = [entries[a:b] for a, b in zip([0, *cuts], [*cuts, len(entries)])]
    whole = overlay_outcome([(name, entries)])
    assert overlay_outcome([(name, part) for part in parts]) == whole


# each spec field that must be finite and > 0, with a valid spec to replace it in
POSITIVE_FIELDS = [
    *((TempSensorSpec(), name) for name in ("r0", "slope")),
    *((StrainSensorSpec(), name) for name in ("c0", "swing", "angle_full")),
    *((MATERIAL_PRESETS["ecoflex-20wt"], name) for name in ("modulus", "fracture_stress", "density")),
    *(
        (DEFAULT_ACTUATOR, name)
        for name in ("angle_per_pressure", "max_pressure", "strain_per_pressure", "stride_per_cycle", "cycle_period")
    ),
    (DscTrace(np.array([0.0, 1.0]), np.zeros(2), 300.0, True), "temperature_k"),
]


@pytest.mark.parametrize("value", [0.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "spec, name", POSITIVE_FIELDS, ids=[f"{type(spec).__name__}.{name}" for spec, name in POSITIVE_FIELDS]
)
def test_spec_field_must_be_finite_and_positive(spec, name, value):
    with pytest.raises(DomainError, match=f"{name} must be finite and > 0"):
        replace(spec, **{name: value})
