"""The benchmark's workloads: generated inputs, CLI invocations and output checks.

Each workload is a fixed sequence of ``transient-kinetics`` CLI invocations.
Its inputs are written by the benchmark from the workload seed; the program
receives only those files and arguments. Seed 0 is the default seed: it gives
the reference invocations whose output digests are stored in ``digests.json``.

Why each workload is chosen:

- ``mission``: ``simulate`` of the scout mission at dt 0.1 s (85 333 steps,
  22 MB JSONL + 6.3 MB CSV). The per-step stepper does most of the work and
  serialization most of the rest; the run crosses all three sensor states
  and five zones. It barely touches ``dscfit`` or the schedule integrator.
- ``predict``: a multi-segment schedule at dt 1 s (194 600 integrator steps,
  9 MB CSV). It is the only user of ``kinetics.integrate_conversion`` and of
  the CLI's inline CSV formatting, covers the UV-ramp and the dark branch,
  and bypasses ``mission``.
- ``calibration``: ``synth`` at 200 hold temperatures, ``fit-dsc`` over the
  200 traces in sorted order, then ``arrhenius``. Three processes, so import
  and set-up weigh most here; the trace writer and reader dominate and the
  Gauss-Newton kernel is the rest. It bypasses ``mission`` entirely.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0

# Input files, as seen from a repetition directory.
INPUTS = "../inputs"

# Seed offsets that make the default seed give the reference invocations
# (simulate --seed 11, synth --seed 7).
SIMULATE_SEED_BASE = 11
SYNTH_SEED_BASE = 7

# Shipped calibration that the calibration workload must recover.
SHIPPED_EA_KJ = 18.09
SHIPPED_A_PER_S = 0.1703
# Stated tolerances (relative) for the recovered Arrhenius parameters, about
# five standard deviations of the scatter the trace noise causes: over seeds
# 0-119 the relative error has a standard deviation of 0.18 % for Ea (largest
# 0.70 %) and 1.1 % for A (largest 4.3 %).
EA_TOLERANCE = 0.01
A_TOLERANCE = 0.06

SCOUT_MISSION = """\
# Scouting mission: survey a heat zone, pick up a UV trigger dose, cross the
# hot-hazard zone, then finish in the terminal heat zone until decomposed.

[zone.1]
name = staging
x_min = 0.0
x_max = 0.5
temperature_c = 25
uv_on = false

[zone.2]
name = heat-survey
x_min = 0.5
x_max = 1.0
temperature_c = 60
uv_on = false

[zone.3]
name = uv-trigger
x_min = 1.0
x_max = 1.5
temperature_c = 25
uv_on = true

[zone.4]
name = hot-hazard
x_min = 1.5
x_max = 2.0
temperature_c = 120
uv_on = false

[zone.5]
name = terminal-heat
x_min = 2.0
x_max = 2.5
temperature_c = 120
uv_on = false

[robot]
position = 0.25

[script]
move_to = 0.75
dwell = 60
move_to = 1.25
dwell = 1800
move_to = 1.75
dwell = 30
move_to = 2.25
self_destruct
"""
MISSION_STEPS = 85_333

PREDICT_STEPS = 194_600
CALIBRATION_TEMPERATURES_C = tuple(round(60.0 + 0.4 * i, 1) for i in range(200))


@dataclass
class Workload:
    """One workload: how to write its inputs, what to run, and how to check it.

    ``write_inputs(inputs_dir, seed)`` writes the input files. Each argument
    list of ``invocations(seed)`` runs, in order, in a fresh repetition
    directory beside ``inputs_dir`` and writes under it. ``check(rep_dir)``
    returns one list of problems per invocation, empty when the output is right.
    """

    name: str
    unit_name: str
    units: int
    write_inputs: Callable[[Path, int], None]
    invocations: Callable[[int], list[list[str]]]
    check: Callable[[Path], list[list[str]]]


def _summary(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# --- mission -----------------------------------------------------------------


def _mission_inputs(inputs: Path, seed: int) -> None:
    (inputs / "scout.mission").write_text(SCOUT_MISSION, encoding="utf-8")


def _mission_invocations(seed: int) -> list[list[str]]:
    return [
        [
            "simulate",
            f"{INPUTS}/scout.mission",
            "--seed",
            str((SIMULATE_SEED_BASE + seed) % 2**64),
            "--dt",
            "0.1",
            "--out",
            "out",
        ]
    ]


def _mission_check(rep: Path) -> list[list[str]]:
    problems = []
    results = _summary(rep / "out" / "summary.json")["results"]
    if results["terminal_events"] != ["decomposed"]:
        problems.append(f"terminal events {results['terminal_events']} != ['decomposed']")
    if results["steps"] != MISSION_STEPS:
        problems.append(f"steps {results['steps']} != {MISSION_STEPS}")
    return [problems]


# --- predict -----------------------------------------------------------------


def predict_schedule(seed: int) -> list[tuple[float, float, bool]]:
    """UV at 25 C, 48 one-hour segments in 12 h blocks at 25/60 C, a 120 C hold.

    The default seed gives the nominal temperatures; any other seed moves each
    segment's temperature by up to 2 C, which leaves the step count unchanged.
    """
    rng = random.Random(seed)

    def jitter(t_c: float) -> float:
        return t_c if seed == DEFAULT_SEED else round(t_c + rng.uniform(-2.0, 2.0), 2)

    rows = [(1800.0, jitter(25.0), True)]
    for hour in range(48):
        rows.append((3600.0, jitter(25.0 if (hour // 12) % 2 == 0 else 60.0), False))
    rows.append((20000.0, jitter(120.0), False))
    return rows


def _predict_inputs(inputs: Path, seed: int) -> None:
    lines = ["duration_s,temperature_C,uv_on"]
    for duration, t_c, uv in predict_schedule(seed):
        lines.append(f"{duration:g},{t_c!r},{'true' if uv else 'false'}")
    (inputs / "schedule.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _predict_invocations(seed: int) -> list[list[str]]:
    return [["predict", f"{INPUTS}/schedule.csv", "--dt", "1", "--out", "out"]]


def _predict_check(rep: Path) -> list[list[str]]:
    problems = []
    results = _summary(rep / "out" / "summary.json")["results"]
    unreached = [k for k, v in results["time_to_alpha_s"].items() if v is None]
    if unreached:
        problems.append(f"time_to_alpha_s targets not reached: {unreached}")
    with (rep / "out" / "conversion_profile.csv").open(encoding="utf-8") as fh:
        steps = sum(1 for _ in fh) - 2  # header and the t = 0 row
    if steps != PREDICT_STEPS:
        problems.append(f"integrator steps {steps} != {PREDICT_STEPS}")
    return [problems]


# --- calibration ---------------------------------------------------------------


def _calibration_inputs(inputs: Path, seed: int) -> None:
    """Calibration has no input files: synth generates the traces."""


def _calibration_invocations(seed: int) -> list[list[str]]:
    synth = ["synth", "--noise", "0.02", "--seed", str((SYNTH_SEED_BASE + seed) % 2**64)]
    for t_c in CALIBRATION_TEMPERATURES_C:
        synth += ["--temperature-c", repr(t_c)]
    synth += ["--out", "synth"]
    traces = sorted(f"synth/trace_synth-{t_c:g}C.csv" for t_c in CALIBRATION_TEMPERATURES_C)
    return [
        synth,
        ["fit-dsc", *traces, "--out", "fit"],
        ["arrhenius", "fit/fits.csv", "--out", "arr"],
    ]


def _calibration_check(rep: Path) -> list[list[str]]:
    synth_problems = []
    written = _summary(rep / "synth" / "summary.json")["results"]["traces"]
    if len(written) != len(CALIBRATION_TEMPERATURES_C):
        synth_problems.append(f"{len(written)} traces written, expected {len(CALIBRATION_TEMPERATURES_C)}")

    fit_problems = []
    with (rep / "fit" / "fits.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    converged = sum(1 for r in rows if r["converged"] == "true")
    if converged != len(CALIBRATION_TEMPERATURES_C):
        fit_problems.append(f"{converged}/{len(CALIBRATION_TEMPERATURES_C)} fits converged")

    arr_problems = []
    results = _summary(rep / "arr" / "summary.json")["results"]
    ea_kj = results["activation_energy_kj_per_mol"]
    a = results["pre_exponential_per_s"]
    if abs(ea_kj / SHIPPED_EA_KJ - 1.0) > EA_TOLERANCE:
        arr_problems.append(f"Ea {ea_kj:.4f} kJ/mol outside {EA_TOLERANCE:.0%} of {SHIPPED_EA_KJ}")
    if abs(a / SHIPPED_A_PER_S - 1.0) > A_TOLERANCE:
        arr_problems.append(f"A {a:.5f} 1/s outside {A_TOLERANCE:.0%} of {SHIPPED_A_PER_S}")
    return [synth_problems, fit_problems, arr_problems]


WORKLOADS = {
    "mission": Workload(
        name="mission",
        unit_name="simulated steps",
        units=MISSION_STEPS,
        write_inputs=_mission_inputs,
        invocations=_mission_invocations,
        check=_mission_check,
    ),
    "predict": Workload(
        name="predict",
        unit_name="integrator steps",
        units=PREDICT_STEPS,
        write_inputs=_predict_inputs,
        invocations=_predict_invocations,
        check=_predict_check,
    ),
    "calibration": Workload(
        name="calibration",
        unit_name="traces synthesized and fitted",
        units=len(CALIBRATION_TEMPERATURES_C),
        write_inputs=_calibration_inputs,
        invocations=_calibration_invocations,
        check=_calibration_check,
    ),
}


# --- output identity -------------------------------------------------------------


def canonical_summary(data: dict) -> bytes:
    """summary.json without its volatile fields, serialized canonically.

    ``generated_at`` is a wall-clock stamp. ``results.mission`` echoes the
    mission path as given, so only its file name is kept.
    """
    data = dict(data)
    data.pop("generated_at", None)
    results = data.get("results")
    if isinstance(results, dict) and isinstance(results.get("mission"), str):
        data["results"] = dict(results, mission=Path(results["mission"]).name)
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")


def output_digests(rep: Path) -> dict[str, str]:
    """SHA-256 of every file the CLI wrote under ``rep``, keyed by relative path.

    Files are hashed in chunks: the parent's resident set must stay below the
    children's, because a child's ``ru_maxrss`` starts from the parent's.
    """
    digests = {}
    for path in sorted(p for p in rep.rglob("*") if p.is_file()):
        if path.name == "summary.json":
            data = canonical_summary(json.loads(path.read_bytes()))
            digest = hashlib.sha256(data).hexdigest()
        else:
            with path.open("rb") as fh:
                digest = hashlib.file_digest(fh, "sha256").hexdigest()
        digests[path.relative_to(rep).as_posix()] = digest
    return digests
