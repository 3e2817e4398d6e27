"""Command-line front door.

Subcommands: fit-dsc, arrhenius, predict, simulate, synth. Every command
writes a summary.json that echoes the fully resolved configuration and
the tool version, plus machine-readable CSV/JSONL outputs. Files are
written atomically (write-then-rename); the large ones stream into their
temp file one chunk at a time. Exit codes are stable: 0
success, 1 computation failure, 2 input error, 3 insufficient data,
4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone
from importlib import import_module
from itertools import compress, count, islice
from pathlib import Path
from typing import Iterator, Sequence

from . import __version__
from .config import (
    Calibration,
    default_calibration,
    load_calibration_file,
    resolve_preset_path,
)
from .errors import ConfigError, DomainError, InsufficientDataError, LineError
# every whole-text output goes through cli._atomic_write, the write boundary
# that perfbench/tracer.py times; the telemetry and the conversion profile
# stream through atomic_writer instead
from .fileio import atomic_write as _atomic_write, atomic_writer, parse_bool, parse_csv, read_text
# predict takes its series as array('d') columns, with no numpy; that core keeps the
# name integrate_conversion, the boundary that perfbench/tracer.py times
from .kinetics import (
    ZERO_CELSIUS_K,
    ExposureSchedule,
    PhotolysisState,
    ScheduleSegment,
    arrhenius_rate,
    check_positive,
    integrate_conversion_lists as integrate_conversion,
)

# The names cli takes from its two heavy layers, each loaded by the commands
# that use it (and by a first lookup of one of its names): dscfit imports numpy,
# for synth, fit-dsc and arrhenius, and mission is compiled only for simulate.
# So importing cli and running predict load neither, and simulate leaves numpy
# unloaded.
_ARRAY_LAYERS = {
    "dscfit": ("fit_arrhenius", "fit_rate_constant", "read_trace_csv", "synthesize_trace", "write_trace_csv"),
    "mission": ("TERMINAL_TAGS", "TelemetryChunk", "load_mission", "run", "telemetry_to_jsonl", "telemetry_to_csv"),
}
_LAYER_OF = {name: module for module, names in _ARRAY_LAYERS.items() for name in names}


def _load_array_layers(module: str) -> None:
    """Bind the names of one layer, a key of ``_ARRAY_LAYERS``, in this
    module; a name already bound (a wrapper put in its place) is kept."""
    names = globals()
    # a numpy first loaded here gets one OpenBLAS thread: no BLAS call of the commands is worth a worker
    one_thread = "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
    if one_thread:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        layer = import_module(f".{module}", __package__)
    finally:
        if one_thread:
            del os.environ["OPENBLAS_NUM_THREADS"]
    for name in _ARRAY_LAYERS[module]:
        names.setdefault(name, getattr(layer, name))


def __getattr__(name: str):
    if name in _LAYER_OF:
        _load_array_layers(_LAYER_OF[name])
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_INSUFFICIENT = 3
EXIT_IO = 4

ALPHA_TARGETS = (0.5, 0.9, 0.95, 0.99)

# records or samples formatted per chunk of a streamed output, so that the
# text held at once stays a few hundred KB however long the run
CHUNK_ROWS = 4096


def _write_summary(outdir: Path, command: str, cal: Calibration, results, extra=None) -> None:
    summary = {
        "tool": "transient-kinetics",
        "version": __version__,
        "command": command,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": cal.to_dict(),
        "results": results,
    }
    if extra:
        summary.update(extra)
    # a NaN or infinity that slipped through fails here rather than being written as non-JSON
    _atomic_write(outdir / "summary.json", json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _load_effective_calibration(args) -> Calibration:
    cal = default_calibration()
    for path in args.config or []:
        cal = load_calibration_file(resolve_preset_path(path), cal)
    return cal


def _step_size(args, cal: Calibration) -> float:
    """``--dt`` if given, else the calibration's ``[simulation] dt_s``; finite and > 0."""
    dt = args.dt if args.dt is not None else cal.simulation.dt_s
    check_positive("step size", dt, " s")
    return dt


def _outdir(args) -> Path:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


FIT_COLUMNS = (
    "label", "temperature_K", "k_per_s", "total_enthalpy_J", "residual_rms_W",
    "iterations", "converged", "error",
)


def _csv_cell(value) -> str:
    """One fits.csv cell: None empty, a bool true/false, a number its repr, text escaped."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    # a comma would add a cell, and a leading '#' make the row a comment
    text = value.replace(",", ";")
    return "\\" + text if text.lstrip().startswith("#") else text


def cmd_fit_dsc(args) -> int:
    _load_array_layers("dscfit")
    import numpy as np

    cal = _load_effective_calibration(args)
    rows = []
    any_failed = False
    for path in args.traces:
        trace = read_trace_csv(path)
        row = dict.fromkeys(FIT_COLUMNS)
        row.update(
            label=trace.label or Path(path).stem,
            temperature_K=trace.temperature_k,
            iterations=0,
            converged=False,
            error="",
        )
        try:
            # a heat flow too large for float arithmetic overflows; the row says so below
            with np.errstate(over="ignore", invalid="ignore"):
                result = fit_rate_constant(trace)
        except DomainError as exc:
            row["error"] = str(exc)
        else:
            fitted = dict(
                k_per_s=result.k, total_enthalpy_J=result.total_enthalpy, residual_rms_W=result.residual_rms
            )
            row["iterations"] = result.iterations
            overflowed = [f"{name} = {value!r}" for name, value in fitted.items() if not math.isfinite(value)]
            if overflowed:
                row["error"] = f"fit is not finite: {', '.join(overflowed)}"
            else:
                row.update(fitted, converged=result.converged)
        any_failed = any_failed or not row["converged"]
        rows.append(row)

    lines = [",".join(FIT_COLUMNS), *(",".join(_csv_cell(row[c]) for c in FIT_COLUMNS) for row in rows)]
    outdir = _outdir(args)
    _atomic_write(outdir / "fits.csv", "\n".join(lines) + "\n")
    _write_summary(outdir, "fit-dsc", cal, {"fits": rows})
    return EXIT_FAILED if any_failed else EXIT_OK


def cmd_arrhenius(args) -> int:
    _load_array_layers("dscfit")
    cal = _load_effective_calibration(args)
    fit = fit_arrhenius(_read_fit_table(Path(args.fit_table)))
    plot_lines = ["inv_temperature_per_K,ln_k"]
    for temp, k in fit.points:
        plot_lines.append(f"{1.0 / temp!r},{math.log(k)!r}")
    outdir = _outdir(args)
    _atomic_write(outdir / "arrhenius_points.csv", "\n".join(plot_lines) + "\n")
    results = {
        "pre_exponential_per_s": fit.params.pre_exponential,
        "activation_energy_j_per_mol": fit.params.activation_energy,
        "activation_energy_kj_per_mol": fit.params.activation_energy / 1000.0,
        "r_squared": fit.r_squared,
        "n_points": len(fit.points),
    }
    _write_summary(outdir, "arrhenius", cal, results)
    return EXIT_OK


def _read_fit_table(path: Path) -> list[tuple[float, float]]:
    """(temperature_K, k_per_s) of each converged row of a fit table."""
    _, rows = parse_csv(read_text(path, "fit table"), path)
    header = [h.strip() for h in rows[0][1]]
    try:
        i_temp, i_k, i_conv = map(header.index, ("temperature_K", "k_per_s", "converged"))
    except ValueError:
        raise LineError(path, rows[0][0], "fit table must carry temperature_K,k_per_s,converged columns") from None
    points = []
    for n, cells in rows[1:]:
        try:
            converged = parse_bool(cells[i_conv])
        except ValueError:
            raise LineError(path, n, f"bad converged value {cells[i_conv].strip()!r}") from None
        if not converged or not cells[i_k].strip():
            continue
        try:
            point = (float(cells[i_temp]), float(cells[i_k]))
        except ValueError:
            raise LineError(path, n, "non-numeric fit-table row") from None
        if not all(map(math.isfinite, point)):
            raise LineError(path, n, "non-finite number in fit-table row")
        points.append(point)
    return points


def _read_schedule_csv(path: Path) -> ExposureSchedule:
    _, rows = parse_csv(read_text(path, "schedule"), path)
    header = [h.strip() for h in rows[0][1]]
    if header not in (["duration_s", "temperature_C", "uv_on"], ["duration_s", "temperature_K", "uv_on"]):
        raise LineError(path, rows[0][0], "schedule header must be duration_s,temperature_C|temperature_K,uv_on")
    celsius = header[1] == "temperature_C"
    segments = []
    for n, cells in rows[1:]:
        try:
            duration = float(cells[0])
            temperature = float(cells[1]) + (ZERO_CELSIUS_K if celsius else 0.0)
        except ValueError:
            raise LineError(path, n, "non-numeric schedule row") from None
        try:
            uv = parse_bool(cells[2])
        except ValueError:
            raise LineError(path, n, f"bad uv_on value {cells[2].strip()!r}") from None
        try:
            segments.append(ScheduleSegment(duration, temperature, uv))
        except DomainError as exc:
            raise LineError(path, n, str(exc)) from None
    try:
        return ExposureSchedule(tuple(segments))
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _times_to_targets(t: Sequence[float], alpha: Sequence[float]) -> dict[str, float | None]:
    """The time at which alpha first reaches each target, interpolated between
    the samples around it; None for a target it never reaches."""
    out: dict[str, float | None] = dict.fromkeys(f"{target:g}" for target in ALPHA_TARGETS)
    i = 0  # the targets ascend, so each is first reached no earlier than the one before
    for target in ALPHA_TARGETS:
        i = next(compress(count(i), map(target.__le__, islice(alpha, i, None))), None)
        if i is None:
            break
        if i == 0 or alpha[i] == target:
            out[f"{target:g}"] = t[i]
        else:
            frac = (target - alpha[i - 1]) / (alpha[i] - alpha[i - 1])
            out[f"{target:g}"] = t[i - 1] + frac * (t[i] - t[i - 1])
    return out


def _conversion_profile_csv(series) -> Iterator[str]:
    """conversion_profile.csv, as joined chunks of ``CHUNK_ROWS`` rows (the
    header rides on the first): one row per sample, each cell the repr of
    its float.

    ``hf_fraction`` is constant in the dark, and ``alpha`` once it
    saturates, so each is formatted once per run of equal values, across
    chunks. Equal is not enough: 0.0 and -0.0 compare equal but print
    differently, so the sign of a zero must match too; a NaN equals nothing
    and is formatted every time. The columns are any sequences of floats,
    such as ``array('d')``s or numpy arrays: ``str`` of a float64 is the
    repr of the float it holds.
    """
    samples = zip(series.t, series.alpha, series.hf_fraction)
    rows = ["t_s,alpha,hf_fraction\n"]
    last_alpha = last_hf = None
    while True:
        for t, alpha, hf in islice(samples, CHUNK_ROWS):
            if alpha != last_alpha or not alpha and math.copysign(1.0, alpha) != math.copysign(1.0, last_alpha):
                last_alpha, alpha_text = alpha, str(alpha)
            if hf != last_hf or not hf and math.copysign(1.0, hf) != math.copysign(1.0, last_hf):
                last_hf, hf_text = hf, str(hf)
            rows.append("%s,%s,%s\n" % (t, alpha_text, hf_text))
        if not rows:
            return
        yield "".join(rows)
        rows = []


def cmd_predict(args) -> int:
    cal = _load_effective_calibration(args)
    schedule = _read_schedule_csv(resolve_preset_path(args.schedule))
    if args.assume_triggered:
        photolysis = PhotolysisState.saturated(cal.dpi_initial, cal.photolysis_rate)
    else:
        photolysis = PhotolysisState(dpi_initial=cal.dpi_initial, k_photo=cal.photolysis_rate)
    dt = min(_step_size(args, cal), schedule.min_duration)
    series = integrate_conversion(
        schedule, cal.kinetics, photolysis, dt, hf_sat=cal.hf_saturation
    )
    outdir = _outdir(args)
    with atomic_writer(outdir / "conversion_profile.csv") as fh:
        fh.writelines(_conversion_profile_csv(series))
    results = {
        "final_alpha": series.alpha[-1],
        "time_to_alpha_s": _times_to_targets(series.t, series.alpha),
        "pre_exponential_per_s": cal.kinetics.pre_exponential,
        "activation_energy_j_per_mol": cal.kinetics.activation_energy,
        "assume_triggered": bool(args.assume_triggered),
        "dt_s": dt,
    }
    _write_summary(outdir, "predict", cal, results)
    return EXIT_OK


def cmd_simulate(args) -> int:
    _load_array_layers("mission")
    cal = _load_effective_calibration(args)
    mission_path = resolve_preset_path(args.mission)
    mission = load_mission(mission_path, cal.simulation)
    dt = _step_size(args, cal)
    records = run(mission, cal, dt=dt, seed=args.seed)
    outdir = _outdir(args)
    # each file is written a chunk of records at a time, both from the chunk's one pass, and
    # a fault in any chunk leaves neither; a run of no step still writes the CSV header
    with atomic_writer(outdir / "telemetry.jsonl") as jsonl, atomic_writer(outdir / "telemetry.csv") as csv:
        for start in range(0, len(records) or 1, CHUNK_ROWS):
            chunk = TelemetryChunk(records[start:start + CHUNK_ROWS])
            jsonl.write(telemetry_to_jsonl(chunk))
            csv.write(telemetry_to_csv(chunk, header=not start))
    events = [{"t": r.t, "tag": e.tag, "message": e.message} for r in records for e in r.events]
    terminal = [e["tag"] for e in events if e["tag"] in TERMINAL_TAGS]
    if records:
        final_alpha, final_position = records[-1].alpha, records[-1].position
    else:  # a script that needs no step leaves the robot pristine at its start
        final_alpha, final_position = 0.0, mission.start
    results = {
        "mission": str(mission_path),
        "steps": len(records),
        "simulated_time_s": len(records) * dt,
        "final_alpha": final_alpha,
        "final_position_m": final_position,
        "terminal_events": terminal or ["script-complete"],
        "events": events,
    }
    _write_summary(outdir, "simulate", cal, results, extra={"seed": args.seed, "dt_s": dt})
    return EXIT_OK


def cmd_synth(args) -> int:
    _load_array_layers("dscfit")
    cal = _load_effective_calibration(args)
    if args.temperature_c:
        holds = [(t_c + ZERO_CELSIUS_K, f"synth-{t_c:g}C") for t_c in args.temperature_c]
    elif args.k is not None:
        holds = [(298.15, "synth")]
    else:
        raise ConfigError("give --k or at least one --temperature-c")
    jobs = {}  # file name -> the arguments of its synthesize_trace call
    for index, (temp_k, label) in enumerate(holds):
        name = f"trace_{label}.csv"
        if name in jobs:  # temperatures that print alike would overwrite one trace
            raise ConfigError(f"two --temperature-c holds would both write {name}")
        check_positive("temperature", temp_k, " K")  # with --k no k(T) is computed to check it
        k = args.k if args.k is not None else arrhenius_rate(cal.kinetics, temp_k)
        check_positive("k", k)  # before the default t_end divides by it
        t_end = args.t_end if args.t_end is not None else 20.0 / k
        dt = args.dt_sample if args.dt_sample is not None else t_end / 1500.0
        jobs[name] = dict(
            k=k,
            total_enthalpy=args.enthalpy,
            sampling=(dt, t_end),
            noise_fraction=args.noise,
            seed=args.seed + index,
            temperature_k=temp_k,
            uv_on=True,
            label=label,
        )
        # synthesizing checks the job and refuses a noise draw that overflows,
        # before --out exists; the trace is dropped, so one is held at a time
        synthesize_trace(**jobs[name])

    outdir = _outdir(args)
    written = []
    for name, job in jobs.items():
        trace = synthesize_trace(**job)
        write_trace_csv(trace, outdir / name)
        written.append(
            {
                "file": name,
                "k_per_s": job["k"],
                "temperature_K": job["temperature_k"],
                "total_enthalpy_J": args.enthalpy,
                "noise_fraction": args.noise,
                "samples": int(trace.time_s.size),
            }
        )
    _write_summary(outdir, "synth", cal, {"traces": written}, extra={"seed": args.seed})
    return EXIT_OK


def _seed_u64(value: str) -> int:
    try:
        seed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {value!r}") from None
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return seed


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config",
        action="append",
        metavar="PATH",
        help="calibration overlay file (repeatable; later files win)",
    )
    common.add_argument("--out", default="out", metavar="DIR", help="output directory")
    # --seed and --dt go only to the subcommands that read them
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_seed_u64, default=0, help="seed for anything stochastic")
    stepped = argparse.ArgumentParser(add_help=False)
    stepped.add_argument("--dt", type=float, default=None, metavar="S", help="integration step (s)")

    parser = argparse.ArgumentParser(
        prog="transient-kinetics",
        description="Kinetics toolkit and lifecycle simulator for UV-degradable silicone composites",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-dsc", parents=[common], help="fit rate constants to DSC trace CSVs")
    p.add_argument("traces", nargs="+", help="trace CSV files")
    p.set_defaults(func=cmd_fit_dsc)

    p = sub.add_parser("arrhenius", parents=[common], help="regress Arrhenius parameters from a fit table")
    p.add_argument("fit_table", help="fits.csv produced by fit-dsc")
    p.set_defaults(func=cmd_arrhenius)

    p = sub.add_parser("predict", parents=[common, stepped], help="predict conversion under a schedule")
    p.add_argument("schedule", help="schedule CSV (duration_s,temperature_C|temperature_K,uv_on)")
    p.add_argument(
        "--assume-triggered",
        action="store_true",
        help="treat the sample as fully photolyzed from the start",
    )
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", parents=[common, seeded, stepped], help="run a mission file")
    p.add_argument("mission", help="mission file (path or preset name)")
    p.set_defaults(func=cmd_simulate)

    # no abbreviations: --dt would be taken for --dt-sample
    p = sub.add_parser(
        "synth", parents=[common, seeded], allow_abbrev=False, help="generate synthetic DSC trace CSVs"
    )
    p.add_argument("--k", type=float, default=None, help="rate constant (1/s)")
    p.add_argument("--enthalpy", type=float, default=10.0, help="total enthalpy (J)")
    p.add_argument(
        "--temperature-c",
        type=float,
        action="append",
        metavar="T",
        help="hold temperature in C; repeatable, k derived from calibration when --k absent",
    )
    p.add_argument("--t-end", dest="t_end", type=float, default=None, help="record length (s)")
    p.add_argument("--dt-sample", dest="dt_sample", type=float, default=None, help="sample spacing (s)")
    p.add_argument("--noise", type=float, default=0.0, help="noise fraction of peak")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InsufficientDataError):  # a DomainError with its own code
            return EXIT_INSUFFICIENT
        return EXIT_IO if isinstance(exc, OSError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
