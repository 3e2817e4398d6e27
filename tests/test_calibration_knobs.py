"""Every calibration key earns its place: nudging it moves some output byte.

Each key of ``CALIBRATION_TABLE`` and ``MATERIAL_ROWS`` is nudged, one at a
time and by a seeded amount, in an overlay over the shipped calibration.
The overlay must change some byte of what ``predict``, ``simulate`` or
``synth`` writes, leaving out the ``summary.json`` fields that change
without the physics: the ``config`` echo and ``generated_at``. The probes
are built so that the thresholds lie within a nudge's reach: the dose
alarm fires in a hot UV zone, a warm zone sits just below the alarm
temperature, the move spans several steps, and the body decomposes
before the run ends. The keys that still move nothing are listed in
``UNMOVED`` with the reason; each must in turn leave every output as it is.
``[photolysis] dpi_initial_mol_m3`` moves only the last bits of
``predict``'s ``hf_fraction``, the rounding of its dose in mol/m3.
"""

import hashlib
import json
import random
from operator import attrgetter

import pytest

from transient_kinetics import cli
from transient_kinetics.config import ANCHORS, CALIBRATION_TABLE, MATERIAL_ROWS, PER_KPA, TEXT, Calibration

SHIPPED = Calibration()
WALL = SHIPPED.wall_material

# The keys no probe output depends on, each with why.
ECHO_ONLY = "echo-only: parsed, checked and echoed, read by no computation"
REFUSAL_ONLY = "refusal-only: read by the actuator wall check and nothing else"
UNMOVED = {
    **dict.fromkeys(
        [
            "material.modulus_pa",
            "material.elastic_limit_strain",
            "material.fracture_stress_pa",
            "material.poisson",
            "material.density_kg_m3",
            "material.dpi_wt_percent",
        ],
        ECHO_ONLY,
    ),
    "material.fracture_strain": REFUSAL_ONLY,
    "actuator.strain_at_max": REFUSAL_ONLY,
    "actuator.wall_material": REFUSAL_ONLY,
    "sensor.photo.forward_current_a": (
        "threshold-not-crossed: read only at a monitor_bias_v >= 0, and the shipped bias is -2 V"
    ),
    "simulation.uv_current_threshold_a": (
        "threshold-not-crossed: the photocurrent steps between 0 and 5e-8 A, so a nudged 1e-9 A "
        "threshold fires at the same step"
    ),
    "simulation.timeout_s": "threshold-not-crossed: the probe mission decomposes long before 200 000 s",
}

# A key that shrinking would refuse or push out of a sensor's band grows instead.
GROWS = {"sensor.temp.fail_resistance_ohm", "sensor.strain.angle_full_deg"}
# A key shipped at 0 moves to a seeded fraction of this scale instead.
FROM_ZERO = {"sensor.photo.dark_current_a": 1e-10, "simulation.body_thermal_lag_s": 100.0}

SCHEDULE = "duration_s,temperature_C,uv_on\n600,120,true\n600,98,false\n"
MISSION = """\
[zone.1]
name = hot-uv
x_min = 0.0
x_max = 1.0
temperature_c = 120
uv_on = true

[zone.2]
name = warm
x_min = 1.0
x_max = 2.5
temperature_c = 98
uv_on = false

[zone.3]
name = hot
x_min = 2.5
x_max = 5.0
temperature_c = 120
uv_on = false

[script]
dwell = 450
move_to = 3.5
self_destruct
"""
# predict steps at [simulation] dt_s; simulate steps at a coarse --dt
PROBES = {
    "predict": ["predict", "{dir}/schedule.csv"],
    "simulate": ["simulate", "{dir}/probe.mission", "--dt", "50", "--seed", "3"],
    "synth": ["synth", "--temperature-c", "120", "--seed", "3"],
}


def table_keys():
    for section, rows in CALIBRATION_TABLE.items():
        for key, _, path, rule in rows:
            yield f"{section}.{key}", section, key, attrgetter(path)(SHIPPED), rule
    for key, _, field, rule in MATERIAL_ROWS:
        yield f"material.{key}", f"material.{WALL}", key, getattr(SHIPPED.materials[WALL], field), rule


KEYS = {name: spec for name, *spec in table_keys()}


def nudged(name: str, value, rule, rng: random.Random) -> str:
    """The key's shipped value, as a file writes it, moved by 10 to 20 %."""
    factor = 1.0 + rng.uniform(0.1, 0.2) * (1 if name in GROWS else -1)
    if rule is TEXT:
        return rng.choice(sorted(set(SHIPPED.materials) - {value}))
    if rule is ANCHORS:
        # the linear map's end points, with the far one moved
        if name == "actuator.angle_table":
            top = SHIPPED.actuator.max_pressure
            return f"0:0, {top!r}:{SHIPPED.actuator.angle_per_pressure * top * factor!r}"
        strain = SHIPPED.strain_sensor
        return f"0:{strain.c0!r}, {strain.angle_full!r}:{(strain.c0 + strain.swing) * (2 - factor)!r}"
    if name in FROM_ZERO:
        assert value == 0.0
        return repr(FROM_ZERO[name] * rng.uniform(0.1, 1.0))
    if rule is PER_KPA:
        value *= SHIPPED.actuator.max_pressure
    elif rule is not None:
        value /= rule
    return repr(value * factor)


def overlay_text(name: str, rng: random.Random) -> str:
    section, key, value, rule = KEYS[name]
    lines = [f"[{section}]", f"{key} = {nudged(name, value, rule, rng)}"]
    if section.startswith("material."):
        # a material section gives every key; the others keep their shipped values
        spec = SHIPPED.materials[WALL]
        lines += [f"{k} = {getattr(spec, f)!r}" for k, _, f, _ in MATERIAL_ROWS if k != key]
    return "\n".join(lines) + "\n"


def output_digest(outdir) -> str:
    """SHA-256 over every file written, without the summary's config echo and time stamp."""
    digest = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if path.name == "summary.json":
            summary = json.loads(data)
            del summary["config"], summary["generated_at"]
            data = json.dumps(summary, sort_keys=True).encode()
        digest.update(path.name.encode() + b"\0" + data)
    return digest.hexdigest()


class Prober:
    def __init__(self, workdir):
        self.workdir = workdir
        self.runs = 0
        (workdir / "schedule.csv").write_text(SCHEDULE)
        (workdir / "probe.mission").write_text(MISSION)
        self.shipped = {probe: self.digest(probe) for probe in PROBES}

    def digest(self, probe: str, config: str | None = None) -> str:
        self.runs += 1
        outdir = self.workdir / f"out{self.runs}"
        args = [arg.format(dir=self.workdir) for arg in PROBES[probe]] + ["--out", str(outdir)]
        if config is not None:
            cfg = self.workdir / f"overlay{self.runs}.cfg"
            cfg.write_text(config)
            args += ["--config", str(cfg)]
        code = cli.main(args)
        assert code == 0, f"{probe} exited {code} with overlay\n{config}"
        return output_digest(outdir)


@pytest.fixture(scope="module")
def prober(tmp_path_factory):
    return Prober(tmp_path_factory.mktemp("knobs"))


def test_every_key_is_probed_or_listed():
    assert set(UNMOVED) <= set(KEYS)
    assert len(KEYS) == sum(map(len, CALIBRATION_TABLE.values())) + len(MATERIAL_ROWS)


@pytest.mark.parametrize("name", sorted(KEYS))
def test_nudging_a_key_moves_an_output(prober, name):
    overlay = overlay_text(name, random.Random(f"knob {name}"))
    moved = []
    for probe in PROBES:
        if prober.digest(probe, overlay) != prober.shipped[probe]:
            moved.append(probe)
            if name not in UNMOVED:
                break
    if name in UNMOVED:
        assert not moved, f"{name} moves {moved}; it no longer belongs in UNMOVED ({UNMOVED[name]})"
    else:
        assert moved, f"no output of {list(PROBES)} moved under\n{overlay}"
