"""End-to-end CLI behavior: exit codes, file outputs, reproducibility."""

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transient_kinetics import cli as cli_module
from transient_kinetics.config import CALIBRATION_TABLE, MATERIAL_ROWS, Calibration, load_calibration_file
from transient_kinetics.dscfit import TRACE_HEADER, read_trace_csv, synthesize_trace, write_trace_csv
from transient_kinetics.kinetics import (
    ZERO_CELSIUS_K,
    ArrheniusParams,
    ConversionSeries,
    ExposureSchedule,
    PhotolysisState,
    arrhenius_rate,
    integrate_conversion,
    integrate_conversion_lists,
)
from transient_kinetics.mission import TELEMETRY_CSV_HEADER, TelemetryRecord, telemetry_to_csv, telemetry_to_jsonl
from transient_kinetics.mission import run as mission_run

ECOFLEX = ArrheniusParams.from_kj_per_mol(0.1703, 18.09)

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args, cwd=None, timeout=None):
    """Run this interpreter on ``args`` with this source tree importable."""
    cmd = [sys.executable, *[str(a) for a in args]]
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, env=env, timeout=timeout)


def cli(*args, cwd=None, timeout=None):
    """Run the CLI of this source tree in a child process."""
    return run_python("-m", "transient_kinetics.cli", *args, cwd=cwd, timeout=timeout)


def main_in_process(capsys, *args):
    """Run the CLI in this process; an exception escaping it fails the test."""
    code = cli_module.main([str(a) for a in args])
    return code, capsys.readouterr().err


def read_summary(outdir: Path) -> dict:
    return json.loads((outdir / "summary.json").read_text())


def reference_jsonl(records) -> str:
    """telemetry.jsonl as ``json.dumps`` writes each record."""
    def line(r):
        return json.dumps(dict(zip(TelemetryRecord._fields, r), events=[vars(e) for e in r.events])) + "\n"

    return "".join(map(line, records))


def reference_csv(records) -> str:
    """telemetry.csv with each cell the repr of its value, and nan for a missing reading."""
    def row(r):
        values = (r.t, r.position, r.alpha, r.temp_c, r.capacitance_pf, r.photocurrent_a)
        return ",".join("nan" if v is None else repr(v) for v in values)

    return "\n".join([TELEMETRY_CSV_HEADER, *map(row, records)]) + "\n"


class TestFitDsc:
    def test_single_noiseless_trace(self, tmp_path):
        trace = synthesize_trace(1e-3, 10.0, (20000.0 / 1500, 20000.0), label="demo")
        trace_path = tmp_path / "trace.csv"
        write_trace_csv(trace, trace_path)
        out = tmp_path / "out"
        proc = cli("fit-dsc", trace_path, "--out", out)
        assert proc.returncode == 0, proc.stderr
        summary = read_summary(out)
        fit = summary["results"]["fits"][0]
        assert fit["converged"] is True
        assert abs(fit["k_per_s"] - 1e-3) / 1e-3 < 1e-6
        assert (out / "fits.csv").exists()
        assert summary["config"]["kinetics"]["pre_exponential_per_s"] == pytest.approx(0.1703)

    def test_empty_file_exits_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        proc = cli("fit-dsc", empty, "--out", tmp_path / "out")
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_four_temperature_batch(self, tmp_path):
        synth_out = tmp_path / "synth"
        proc = cli(
            "synth", "--temperature-c", 80, "--temperature-c", 100,
            "--temperature-c", 120, "--temperature-c", 140, "--out", synth_out,
        )
        assert proc.returncode == 0, proc.stderr
        traces = sorted(synth_out.glob("trace_*.csv"))
        assert len(traces) == 4
        fit_out = tmp_path / "fits"
        proc = cli("fit-dsc", *traces, "--out", fit_out)
        assert proc.returncode == 0, proc.stderr
        table = (fit_out / "fits.csv").read_text().splitlines()
        assert len(table) == 5  # header + four rows
        summary = read_summary(fit_out)
        assert len(summary["results"]["fits"]) == 4
        assert all(row["converged"] for row in summary["results"]["fits"])

    def test_zero_enthalpy_trace_reported_not_fatal(self, tmp_path):
        good = synthesize_trace(1e-3, 10.0, (20000.0 / 1500, 20000.0), label="good")
        good_path = tmp_path / "good.csv"
        write_trace_csv(good, good_path)
        flat = tmp_path / "flat.csv"
        rows = "\n".join(f"{t},0.0" for t in range(40))
        flat.write_text(f"# temperature_K=298.15\n# uv_on=true\ntime_s,heat_flow_W\n{rows}\n")
        out = tmp_path / "out"
        proc = cli("fit-dsc", good_path, flat, "--out", out)
        assert proc.returncode == 1  # one trace failed
        fits = read_summary(out)["results"]["fits"]
        assert fits[0]["converged"] is True
        assert fits[1]["converged"] is False
        assert "heat" in fits[1]["error"]

    def test_short_trace_is_an_error_row(self, tmp_path, capsys):
        # 3 rows read as a trace but are too few to fit; the batch goes on
        good = tmp_path / "good.csv"
        write_trace_csv(synthesize_trace(1e-3, 10.0, (20000.0 / 1500, 20000.0), label="good"), good)
        short = tmp_path / "short.csv"
        short.write_text("# temperature_K=298.15\n# uv_on=true\ntime_s,heat_flow_W\n0,1.0\n1,0.5\n2,0.25\n")
        out = tmp_path / "out"
        code, err = main_in_process(capsys, "fit-dsc", good, short, "--out", out)
        assert code == 1, err
        fits = read_summary(out)["results"]["fits"]
        assert fits[0]["converged"] is True
        assert fits[1]["label"] == "short" and fits[1]["converged"] is False
        assert fits[1]["error"] == "fitting needs at least 8 samples"
        assert (out / "fits.csv").read_text().splitlines()[2].endswith(",fitting needs at least 8 samples")

    def test_malformed_trace_is_named_with_its_line(self, tmp_path, capsys):
        # of several traces, the error names the one that is malformed
        good = tmp_path / "good.csv"
        write_trace_csv(synthesize_trace(1e-3, 10.0, (20000.0 / 1500, 20000.0), label="good"), good)
        bad = tmp_path / "bad.csv"
        bad.write_text("# temperature_K=298.15\n# uv_on=true\ntime_s,heat_flow_W\n0,1.0\n1,abc\n2,0.25\n")
        out = tmp_path / "out"
        code, err = main_in_process(capsys, "fit-dsc", good, bad, "--out", out)
        assert code == 2
        assert err == f"error: {bad}:5: non-numeric row '1,abc'\n"
        assert not out.exists()

    def test_trace_spanning_the_float_range_warns_of_nothing(self, tmp_path, capsys):
        # the step from -1e308 to 1e308 overflows a float; the order of the two does not
        times = [-1e308, *(1e308 + 1e306 * i for i in range(8))]
        rows = "".join(f"{t!r},{0.5 ** i!r}\n" for i, t in enumerate(times))
        trace = tmp_path / "wide.csv"
        trace.write_text(f"# temperature_K=300\n# uv_on=true\n{TRACE_HEADER}\n{rows}")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = main_in_process(capsys, "fit-dsc", trace, "--out", out)
        assert code in (0, 1), err
        assert err == ""
        TestFiniteOutputs.assert_finite_outputs(out)

    def test_overflowing_fit_is_an_error_row(self, tmp_path, capsys):
        # k * dH = 1e303 W: the fit's squared residuals overflow to inf
        assert main_in_process(capsys, "synth", "--k", 0.01, "--enthalpy", 1e305, "--out", tmp_path)[0] == 0
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            code, err = main_in_process(capsys, "fit-dsc", tmp_path / "trace_synth.csv", "--out", out)
        assert code == 1, err
        header, row = (out / "fits.csv").read_text().splitlines()
        assert header.split(",") == list(cli_module.FIT_COLUMNS)
        cells = dict(zip(cli_module.FIT_COLUMNS, row.split(",")))
        assert cells["k_per_s"] == cells["total_enthalpy_J"] == cells["residual_rms_W"] == ""
        assert cells["converged"] == "false"
        assert cells["error"] == "fit is not finite: residual_rms_W = inf"

        def refuse(constant):
            raise AssertionError(f"summary.json holds {constant}")

        (fit,) = json.loads((out / "summary.json").read_text(), parse_constant=refuse)["results"]["fits"]
        assert fit["k_per_s"] is None and fit["residual_rms_W"] is None and fit["converged"] is False

    def test_summary_refuses_a_non_finite_number(self, tmp_path):
        with pytest.raises(ValueError):
            cli_module._write_summary(tmp_path, "fit-dsc", Calibration(), {"residual_rms_W": math.inf})
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize(
        "names, cells",
        [(("run,80", "run,120"), ["run;80", "run;120"]), (("#80", "#120"), ["\\#80", "\\#120"])],
        ids=["comma", "leading-hash"],
    )
    def test_trace_names_keep_fit_table_rows_whole(self, tmp_path, capsys, names, cells):
        # a comma would shift every later cell; a leading '#' would make the row a comment
        traces = []
        for name, t_c in zip(names, (80, 120)):
            temp_k = t_c + 273.15
            k = arrhenius_rate(ECOFLEX, temp_k)
            path = tmp_path / f"{name}.csv"
            write_trace_csv(synthesize_trace(k, 10.0, (20.0 / k / 1500, 20.0 / k), temperature_k=temp_k), path)
            traces.append(path)
        fits = tmp_path / "fits"
        code, err = main_in_process(capsys, "fit-dsc", *traces, "--out", fits)
        assert code == 0, err
        rows = (fits / "fits.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == cells
        assert [fit["label"] for fit in read_summary(fits)["results"]["fits"]] == list(names)
        out = tmp_path / "arr"
        code, err = main_in_process(capsys, "arrhenius", fits / "fits.csv", "--out", out)
        assert code == 0, err
        results = read_summary(out)["results"]
        assert results["n_points"] == 2
        assert results["activation_energy_j_per_mol"] == pytest.approx(18090.0, rel=1e-4)


class TestArrhenius:
    HEADER = "label,temperature_K,k_per_s,total_enthalpy_J,residual_rms_W,iterations,converged,error"
    TOO_FEW = "Arrhenius regression needs >= 2 distinct temperatures,"

    @classmethod
    def write_fit_table(cls, path: Path, points, converged="true"):
        lines = [cls.HEADER]
        for i, (temp, k) in enumerate(points):
            lines.append(f"row{i},{temp!r},{k!r},10.0,0.0,3,{converged},")
        path.write_text("\n".join(lines) + "\n")

    def test_noiseless_round_trip(self, tmp_path):
        table = tmp_path / "fits.csv"
        temps = (353.15, 373.15, 393.15, 413.15)
        self.write_fit_table(table, [(T, arrhenius_rate(ECOFLEX, T)) for T in temps])
        out = tmp_path / "out"
        proc = cli("arrhenius", table, "--out", out)
        assert proc.returncode == 0, proc.stderr
        results = read_summary(out)["results"]
        assert abs(results["pre_exponential_per_s"] - 0.1703) / 0.1703 < 1e-9
        assert abs(results["activation_energy_j_per_mol"] - 18090.0) / 18090.0 < 1e-9
        plot = (out / "arrhenius_points.csv").read_text().splitlines()
        assert plot[0] == "inv_temperature_per_K,ln_k"
        assert len(plot) == 5

    def test_overflowing_pre_exponential_exits_2(self, tmp_path, capsys):
        # ln A of about 6.9e4 has no finite exp
        table = tmp_path / "fits.csv"
        table.write_text("label,temperature_K,k_per_s,converged\na,1.0,1e-300,true\nb,1.01,1.0,true\n")
        out = tmp_path / "out"
        code, err = main_in_process(capsys, "arrhenius", table, "--out", out)
        assert code == 2
        assert err.startswith("error: Arrhenius fit gives ln A = 69077.55")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_underflowing_inverse_temperature_spread_exits_2(self, tmp_path, capsys):
        # 1/T of 5e-301 and 1e-300 are distinct, but their squared spread is 0
        table = tmp_path / "fits.csv"
        table.write_text("label,temperature_K,k_per_s,converged\na,1e300,1.0,true\nb,2e300,2.0,true\n")
        out = tmp_path / "out"
        code, err = main_in_process(capsys, "arrhenius", table, "--out", out)
        assert code == 2
        assert err.startswith("error: Arrhenius regression cannot tell the temperatures apart")
        assert "spread of 1/T underflows to 0" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("a,1e-300,1e-3,true\nb,2e-300,1e-2,true\n", "the spread of 1/T: its sums overflow a float (sxx = inf"),
            ("a,1e308,1e-3,true\nb,1e-308,1e-2,true\n", "the spread of 1/T: its sums overflow a float (sxx = inf"),
            ("a,5e-324,1e-3,true\nb,300,1e-2,true\n", "cannot take 1/T of T = 5e-324 K: it overflows a float"),
        ],
        ids=["spread-of-tiny-temperatures", "spread-across-the-range", "inverse-of-5e-324"],
    )
    def test_overflowing_inverse_temperature_exits_2(self, tmp_path, capsys, rows, message):
        table = tmp_path / "fits.csv"
        table.write_text("label,temperature_K,k_per_s,converged\n" + rows)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = main_in_process(capsys, "arrhenius", table, "--out", out)
        assert code == 2
        assert err.startswith("error: Arrhenius regression cannot take ")
        assert message in err
        assert err.count("\n") == 1
        assert not out.exists()

    FINITE = st.floats(allow_nan=False, allow_infinity=False)

    @settings(max_examples=100, deadline=None)
    @given(points=st.lists(st.tuples(FINITE, FINITE), min_size=2, max_size=6))
    # each 1/T is finite, their sum is not
    @example(points=[(1e-308, 1.0), (1.1e-308, 2.0), (1.2e-308, 3.0)])
    def test_any_finite_fit_table_gives_a_finite_fit_or_an_error(self, points):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            table = tmp / "fits.csv"
            self.write_fit_table(table, points)
            out = tmp / "out"
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = cli_module.main(["arrhenius", str(table), "--out", str(out)])
            assert code in (0, 2, 3)
            assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
            if code == 0:
                TestFiniteOutputs.assert_finite_outputs(out)
            else:
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
                assert not out.exists()

    def test_single_row_exits_3(self, tmp_path):
        table = tmp_path / "fits.csv"
        self.write_fit_table(table, [(393.15, 6.7e-4)])
        proc = cli("arrhenius", table, "--out", tmp_path / "out")
        assert proc.returncode == 3

    @pytest.mark.parametrize(
        "points, code, message",
        [
            ([(393.15, 6.7e-4), (393.15, 7e-4)], 3, f"{TOO_FEW} found 1 among 2 point(s)"),
            ([(-5.0, 0.0), (-5.0, 1e-3)], 3, f"{TOO_FEW} found 1 among 2 point(s)"),
            ([(0.0, 1e-3), (393.15, 6.7e-4)], 2, "temperatures must be > 0 K"),
            ([(353.15, 0.0), (393.15, 6.7e-4)], 2, "all rate constants must be > 0"),
        ],
        ids=["one-temperature", "one-bad-temperature", "zero-kelvin", "zero-rate"],
    )
    def test_too_little_data_exits_3_before_a_bad_value_exits_2(self, tmp_path, capsys, points, code, message):
        # fit_arrhenius counts the temperatures before it checks their values
        table = tmp_path / "fits.csv"
        self.write_fit_table(table, points)
        out = tmp_path / "out"
        assert main_in_process(capsys, "arrhenius", table, "--out", out) == (code, f"error: {message}\n")
        assert not out.exists()

    def test_fit_table_without_its_columns_exits_2(self, tmp_path, capsys):
        table = tmp_path / "fits.csv"
        table.write_text("# hand-made\nlabel,temperature_K,k\na,353.15,1e-4\n")
        code, err = main_in_process(capsys, "arrhenius", table, "--out", tmp_path / "out")
        assert code == 2
        assert err == f"error: {table}:2: fit table must carry temperature_K,k_per_s,converged columns\n"

    def test_noisy_energy_within_ten_percent(self, tmp_path):
        rng = np.random.default_rng(42)
        temps = (353.15, 373.15, 393.15, 413.15)
        points = [
            (T, arrhenius_rate(ECOFLEX, T) * (1.0 + 0.05 * rng.standard_normal()))
            for T in temps
        ]
        table = tmp_path / "fits.csv"
        self.write_fit_table(table, points)
        out = tmp_path / "out"
        proc = cli("arrhenius", table, "--out", out)
        assert proc.returncode == 0
        ea = read_summary(out)["results"]["activation_energy_j_per_mol"]
        assert abs(ea - 18090.0) / 18090.0 < 0.10

    def test_unconverged_rows_skipped(self, tmp_path):
        table = tmp_path / "fits.csv"
        self.write_fit_table(table, [(353.15, 1e-4), (393.15, 6.7e-4)], converged="false")
        proc = cli("arrhenius", table, "--out", tmp_path / "out")
        assert proc.returncode == 3

    def test_corrupt_fit_table_exits_2(self, tmp_path):
        table = tmp_path / "fits.csv"
        table.write_text(
            "label,temperature_K,k_per_s,total_enthalpy_J,residual_rms_W,iterations,converged,error\n"
            "row0,not-a-number,1e-3,10.0,0.0,3,true,\n"
        )
        proc = cli("arrhenius", table, "--out", tmp_path / "out")
        assert proc.returncode == 2
        assert "non-numeric" in proc.stderr

    def test_header_cells_are_stripped(self, tmp_path, capsys):
        table = tmp_path / "fits.csv"
        table.write_text(
            "temperature_K, k_per_s, converged\n"
            f"353.15,{arrhenius_rate(ECOFLEX, 353.15)!r},true\n"
            f"393.15,{arrhenius_rate(ECOFLEX, 393.15)!r},true\n"
        )
        out = tmp_path / "out"
        code, err = main_in_process(capsys, "arrhenius", table, "--out", out)
        assert code == 0, err
        results = read_summary(out)["results"]
        assert results["n_points"] == 2
        assert results["activation_energy_j_per_mol"] == pytest.approx(18090.0, rel=1e-9)

    def test_converged_accepts_boolean_words(self, tmp_path, capsys):
        table = tmp_path / "fits.csv"
        table.write_text(
            f"{self.HEADER}\n# fitted by hand\n"
            f"row0,353.15,{arrhenius_rate(ECOFLEX, 353.15)!r},10.0,0.0,3,yes,\n"
            f"row1,393.15,{arrhenius_rate(ECOFLEX, 393.15)!r},10.0,0.0,3,1,\n"
        )
        out = tmp_path / "out"
        code, err = main_in_process(capsys, "arrhenius", table, "--out", out)
        assert code == 0, err
        assert read_summary(out)["results"]["n_points"] == 2

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ("row1,not-a-number,1e-3,10.0,0.0,3,true,", "non-numeric fit-table row"),
            ("row1,393.15,1e-3,10.0,0.0,3,maybe,", "bad converged value 'maybe'"),
            ("run,120,393.15,1e-3,10.0,0.0,3,true,", "expected 8 columns, got 9"),
        ],
        ids=["non-numeric", "converged-word", "comma-in-label"],
    )
    def test_bad_row_reports_its_file_line(self, tmp_path, capsys, bad_row, message):
        table = tmp_path / "fits.csv"
        table.write_text(f"{self.HEADER}\n\nrow0,353.15,1e-4,10.0,0.0,3,true,\n\n{bad_row}\n")
        code, err = main_in_process(capsys, "arrhenius", table, "--out", tmp_path / "out")
        assert code == 2
        assert f"{table}:5: {message}" in err

    def test_missing_trace_file_exits_2(self, tmp_path):
        proc = cli("fit-dsc", tmp_path / "nope.csv", "--out", tmp_path / "out")
        assert proc.returncode == 2


class TestPredict:
    def test_hot_hold_anchor(self, tmp_path):
        sched = tmp_path / "sched.csv"
        sched.write_text("duration_s,temperature_C,uv_on\n20000,120,true\n")
        out = tmp_path / "out"
        proc = cli("predict", sched, "--assume-triggered", "--out", out)
        assert proc.returncode == 0, proc.stderr
        t95 = read_summary(out)["results"]["time_to_alpha_s"]["0.95"]
        assert abs(t95 - 4500.0) / 4500.0 < 0.15
        assert t95 == pytest.approx(4454.98, rel=1e-3)

    def test_dose_ramp_anchor_still_within_band(self, tmp_path):
        sched = tmp_path / "sched.csv"
        sched.write_text("duration_s,temperature_C,uv_on\n20000,120,true\n")
        out = tmp_path / "out"
        proc = cli("predict", sched, "--out", out)
        assert proc.returncode == 0, proc.stderr
        t95 = read_summary(out)["results"]["time_to_alpha_s"]["0.95"]
        assert abs(t95 - 4500.0) / 4500.0 < 0.15

    def test_uv_off_schedule_all_zero(self, tmp_path):
        sched = tmp_path / "sched.csv"
        sched.write_text("duration_s,temperature_K,uv_on\n5000,393.15,false\n")
        out = tmp_path / "out"
        proc = cli("predict", sched, "--out", out)
        assert proc.returncode == 0, proc.stderr
        profile = (out / "conversion_profile.csv").read_text().splitlines()[1:]
        alphas = [float(line.split(",")[1]) for line in profile]
        assert all(a == 0.0 for a in alphas)
        assert read_summary(out)["results"]["time_to_alpha_s"]["0.95"] is None

    # one hot UV hold and one cooler dark hold, each fully triggered
    TRIGGERED_SCHEDULE = "duration_s,temperature_C,uv_on\n300,120,true\n500,80,false\n"

    @settings(max_examples=25, deadline=None)
    @given(dt=st.floats(0.5, 300.0))
    @example(dt=300.0)  # one step per hold
    @example(dt=7.0)  # a step that divides neither hold
    def test_assume_triggered_is_step_size_invariant(self, dt):
        k_hot, k_cool = (arrhenius_rate(ECOFLEX, t_c + ZERO_CELSIUS_K) for t_c in (120.0, 80.0))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "sched.csv").write_text(self.TRIGGERED_SCHEDULE)
            args = ["predict", tmp / "sched.csv", "--assume-triggered", "--dt", repr(dt), "--out", tmp / "out"]
            assert cli_module.main([str(a) for a in args]) == 0
            rows = (tmp / "out" / "conversion_profile.csv").read_text().splitlines()[1:]
            final_alpha = read_summary(tmp / "out")["results"]["final_alpha"]
        # every sample, whatever the step, is on the closed form 1 - exp(-sum of k * t)
        for row in rows:
            t, alpha, _ = map(float, row.split(","))
            exponent = k_hot * min(t, 300.0) + k_cool * max(t - 300.0, 0.0)
            assert alpha == pytest.approx(-math.expm1(-exponent), abs=1e-12)
        assert t == pytest.approx(800.0) and final_alpha == alpha

    def test_zero_duration_schedule_exits_2(self, tmp_path):
        sched = tmp_path / "sched.csv"
        sched.write_text("duration_s,temperature_C,uv_on\n0,120,true\n")
        proc = cli("predict", sched, "--out", tmp_path / "out")
        assert proc.returncode == 2

    def test_header_only_schedule_exits_2(self, tmp_path, capsys):
        sched = tmp_path / "sched.csv"
        sched.write_text("duration_s,temperature_C,uv_on\n# no segment yet\n")
        out = tmp_path / "out"
        code, err = main_in_process(capsys, "predict", sched, "--out", out)
        assert code == 2
        assert err == f"error: {sched}: schedule must contain at least one segment\n"
        assert not out.exists()

    def test_explicit_parameters_override(self, tmp_path):
        sched = tmp_path / "sched.csv"
        sched.write_text("duration_s,temperature_C,uv_on\n30000,120,true\n")
        cfg = tmp_path / "kinetics.cfg"
        cfg.write_text("[kinetics]\npre_exponential_per_s = 0.3\nactivation_energy_kj_per_mol = 20.0\n")
        out = tmp_path / "out"
        proc = cli("predict", sched, "--assume-triggered", "--config", cfg, "--out", out)
        assert proc.returncode == 0, proc.stderr
        k = 0.3 * math.exp(-20000.0 / (8.314 * 393.15))
        t95 = read_summary(out)["results"]["time_to_alpha_s"]["0.95"]
        assert t95 == pytest.approx(-math.log(0.05) / k, rel=1e-3)

    def test_pre_exponential_alone_keeps_activation_energy_bits(self, tmp_path, monkeypatch):
        # an Ea (J/mol) that a kJ/mol round trip would move by one ulp
        ea = 65507.70429955353
        assert ea / 1000.0 * 1000.0 != ea
        cal = Calibration(kinetics=ArrheniusParams(0.1703, ea))
        monkeypatch.setattr(cli_module, "default_calibration", lambda: cal)
        sched = tmp_path / "sched.csv"
        sched.write_text("duration_s,temperature_C,uv_on\n100,25,false\n")
        cfg = tmp_path / "kinetics.cfg"
        cfg.write_text("[kinetics]\npre_exponential_per_s = 0.3\n")
        out = tmp_path / "out"
        assert cli_module.main(["predict", str(sched), "--config", str(cfg), "--out", str(out)]) == 0
        summary = read_summary(out)
        assert summary["results"]["pre_exponential_per_s"] == 0.3
        assert summary["results"]["activation_energy_j_per_mol"] == ea
        assert summary["config"]["kinetics"]["activation_energy_j_per_mol"] == ea

    @pytest.mark.parametrize("flag", ["--pre-exponential", "--activation-energy-kj"])
    def test_kinetics_flags_are_refused(self, tmp_path, capsys, flag):
        # a [kinetics] overlay sets the law, so summary.json's config echo holds the one that ran
        sched = tmp_path / "sched.csv"
        sched.write_text("duration_s,temperature_C,uv_on\n100,25,true\n")
        with pytest.raises(SystemExit) as exc:
            cli_module.main(["predict", str(sched), flag, "0.3", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 0.3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overlay",
        [
            "",
            "pre_exponential_per_s = 0.3\n",
            "activation_energy_kj_per_mol = 65.50770429955353\n",
            "pre_exponential_per_s = 2e3\nactivation_energy_kj_per_mol = 40\n",
        ],
        ids=["shipped", "a-only", "ea-only", "both"],
    )
    def test_kinetic_results_equal_the_config_echo(self, tmp_path, capsys, overlay):
        sched = tmp_path / "sched.csv"
        sched.write_text("duration_s,temperature_C,uv_on\n100,25,true\n")
        cfg = tmp_path / "kinetics.cfg"
        cfg.write_text(f"[kinetics]\n{overlay}")
        out = tmp_path / "out"
        code, err = main_in_process(capsys, "predict", sched, "--config", cfg, "--out", out)
        assert code == 0, err
        summary = read_summary(out)
        echo = summary["config"]["kinetics"]
        assert summary["results"]["pre_exponential_per_s"] == echo["pre_exponential_per_s"]
        assert summary["results"]["activation_energy_j_per_mol"] == echo["activation_energy_j_per_mol"]

    def test_bad_uv_on_word_exits_2(self, tmp_path):
        sched = tmp_path / "sched.csv"
        sched.write_text("duration_s,temperature_C,uv_on\n100,25,maybe\n")
        proc = cli("predict", sched, "--out", tmp_path / "out")
        assert proc.returncode == 2
        assert "bad uv_on value 'maybe'" in proc.stderr


    def test_bad_row_reports_its_file_line(self, tmp_path, capsys):
        sched = tmp_path / "sched.csv"
        sched.write_text(
            "# hold, then cool\nduration_s,temperature_C,uv_on\n\n100,25,true\n# cool\n100,abc,false\n"
        )
        code, err = main_in_process(capsys, "predict", sched, "--out", tmp_path / "out")
        assert code == 2
        assert f"{sched}:6: non-numeric schedule row" in err

    def test_indented_comment_line_is_skipped(self, tmp_path, capsys):
        sched = tmp_path / "sched.csv"
        sched.write_text("duration_s,temperature_C,uv_on\n  # note\n100,25,false\n")
        code, err = main_in_process(capsys, "predict", sched, "--out", tmp_path / "out")
        assert code == 0, err


class TestConversionProfileBytes:
    """Each conversion_profile.csv cell is the repr of its series element."""

    @staticmethod
    def assert_cells_are_reprs(series):
        lines = "".join(cli_module._conversion_profile_csv(series)).split("\n")
        assert lines[0] == "t_s,alpha,hf_fraction"
        assert lines[-1] == ""
        columns = (series.t, series.alpha, series.hf_fraction)
        assert lines[1:-1] == [
            ",".join(repr(float(column[i])) for column in columns) for i in range(series.t.size)
        ]

    def test_signed_zero_dose_through_dark_and_uv(self):
        # a dose of -0.0 is accepted; its fraction stays -0.0 through the dark
        # hold, one run of equal values longer than 4096 rows
        schedule = ExposureSchedule.from_tuples(
            [(5000.0, 298.15, False), (50.0, 298.15, True), (5000.0, 393.15, False)]
        )
        series = integrate_conversion(schedule, ECOFLEX, PhotolysisState(dpi_initial=100.0, hf=-0.0), 1.0)
        assert series.t.size > 4096
        assert math.copysign(1.0, series.hf_fraction[0]) == -1.0
        assert series.hf_fraction[-1] > 0.0
        self.assert_cells_are_reprs(series)

    # alpha and hf_fraction each print once per run of equal values: draw runs
    RUNS = st.sampled_from([0.0, -0.0, 0.5]) | st.floats()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(), RUNS, RUNS), min_size=1, max_size=12))
    @example([(0.0, 0.0, 0.0), (1.0, 0.0, -0.0), (2.0, 0.0, -0.0), (3.0, 0.0, 0.0)])
    @example([(0.0, 0.0, math.nan), (1.0, 0.0, math.nan), (2.0, 0.5, 0.5), (3.0, 0.5, 0.5)])
    # alpha runs of 0.0, -0.0 and 0.0 again, which compare equal
    @example([(0.0, 0.0, 0.5), (1.0, 0.0, 0.5), (2.0, -0.0, 0.5), (3.0, -0.0, 0.5), (4.0, 0.0, 0.5)])
    # a run of NaN alphas, each unequal to the one before
    @example([(0.0, math.nan, 0.5), (1.0, math.nan, 0.5), (2.0, math.nan, 0.5), (3.0, 0.5, 0.5)])
    # a saturated alpha run that crosses the first chunk boundary, then changes
    @example(
        [(float(i), 0.25, 0.0) for i in range(cli_module.CHUNK_ROWS - 3)]
        + [(float(i), 1.0, 0.0) for i in range(cli_module.CHUNK_ROWS - 3, cli_module.CHUNK_ROWS + 3)]
        + [(cli_module.CHUNK_ROWS + 3.0, 0.5, 0.0)]
    )
    def test_cells_are_reprs_for_any_series(self, rows):
        t, alpha, hf = (np.array(column, dtype=float) for column in zip(*rows))
        self.assert_cells_are_reprs(ConversionSeries(t, alpha, hf))

    def test_lists_and_arrays_give_the_same_bytes(self):
        # predict's array('d') columns, numpy arrays and plain lists
        schedule = ExposureSchedule.from_tuples([(300.0, 298.15, True), (900.0, 393.15, False)])
        packed = integrate_conversion_lists(schedule, ECOFLEX, PhotolysisState(100.0), 0.7)
        arrays = integrate_conversion(schedule, ECOFLEX, PhotolysisState(100.0), 0.7)
        lists = ConversionSeries(*(column.tolist() for column in (arrays.t, arrays.alpha, arrays.hf_fraction)))
        expected = list(cli_module._conversion_profile_csv(arrays))
        assert list(cli_module._conversion_profile_csv(packed)) == expected
        assert list(cli_module._conversion_profile_csv(lists)) == expected


def reference_times_to_targets(t: np.ndarray, alpha: np.ndarray) -> dict:
    """``cli._times_to_targets`` as it was on arrays: the reference its walk over lists must match."""
    out = {}
    for target in cli_module.ALPHA_TARGETS:
        key = f"{target:g}"
        idx = np.nonzero(alpha >= target)[0]
        if idx.size == 0:
            out[key] = None
            continue
        i = int(idx[0])
        if i == 0 or alpha[i] == target:
            out[key] = float(t[i])
        else:
            frac = (target - alpha[i - 1]) / (alpha[i] - alpha[i - 1])
            out[key] = float(t[i - 1] + frac * (t[i] - t[i - 1]))
    return out


class TestTimesToTargets:
    ALPHA = st.sampled_from(cli_module.ALPHA_TARGETS) | st.floats(min_value=0.0, max_value=1.0) | st.floats()

    @settings(max_examples=200, deadline=None)
    @given(samples=st.lists(st.tuples(st.floats(), ALPHA), min_size=1, max_size=12))
    # alpha meets every target exactly, reaches all of them at sample 0, and never reaches any
    @example(samples=[(0.0, 0.0), (1.0, 0.5), (2.0, 0.9), (3.0, 0.95), (4.0, 0.99)])
    @example(samples=[(0.0, 0.99), (1.0, 1.0)])
    @example(samples=[(0.0, 0.0), (1.0, 0.1), (2.0, 0.98)])
    # alpha that falls back after reaching every target, and rises again
    @example(samples=[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 0.6)])
    def test_matches_the_array_version(self, samples):
        t, alpha = (list(column) for column in zip(*samples))
        with np.errstate(all="ignore"):
            want = reference_times_to_targets(np.array(t), np.array(alpha))
        assert repr(cli_module._times_to_targets(t, alpha)) == repr(want)


class TestSimulate:
    def test_bundled_mission_event_narrative(self, tmp_path):
        out = tmp_path / "out"
        proc = cli("simulate", "scout_demo.mission", "--out", out, "--seed", 11)
        assert proc.returncode == 0, proc.stderr
        summary = read_summary(out)
        tags = [e["tag"] for e in summary["results"]["events"]]
        wanted = ["temp-report", "uv-detected", "alarm", "escape", "self-destruct", "decomposed"]
        positions = []
        cursor = -1
        for tag in wanted:
            cursor = tags.index(tag, cursor + 1)
            positions.append(cursor)
        assert positions == sorted(positions)
        assert summary["results"]["final_alpha"] >= 0.99
        assert summary["results"]["terminal_events"] == ["decomposed"]
        assert (out / "telemetry.jsonl").exists()
        csv_lines = (out / "telemetry.csv").read_text().splitlines()
        assert csv_lines[0] == "t,position,alpha,temp_C,capacitance_pF,photocurrent_A"
        assert len(csv_lines) == summary["results"]["steps"] + 1

    def test_benign_mission_final_alpha_zero(self, tmp_path):
        mission = tmp_path / "benign.mission"
        mission.write_text(
            "[zone.1]\nname = lab\nx_min = 0\nx_max = 1\ntemperature_c = 25\nuv_on = false\n"
            "[robot]\nposition = 0.5\n"
            "[script]\ndwell = 50\n"
        )
        out = tmp_path / "out"
        proc = cli("simulate", mission, "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert read_summary(out)["results"]["final_alpha"] == 0.0

    def test_negative_photolysis_rate_exits_2(self, tmp_path, capsys):
        # a negative rate would run the dose away as 1 + (hf - 1) * e^{+t}, to -Infinity
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("[photolysis]\nrate_per_s = -1\n")
        out = tmp_path / "out"
        code, err = main_in_process(
            capsys, "simulate", "scout_demo.mission", "--dt", 1, "--config", cfg, "--out", out
        )
        assert code == 2
        assert err == f"error: {cfg}: photolysis_rate must be finite and >= 0, got -1.0\n"
        assert not out.exists()

    def test_negative_timeout_exits_2(self, tmp_path, capsys):
        # it ran one step and reported "timeout"
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("[simulation]\ntimeout_s = -5\n")
        out = tmp_path / "out"
        code, err = main_in_process(
            capsys, "simulate", "scout_demo.mission", "--dt", 10, "--config", cfg, "--out", out
        )
        assert code == 2
        assert err == f"error: {cfg}: timeout_s must be finite and > 0 s, got -5.0\n"
        assert not out.exists()

    def test_byte_identical_reruns_apart_from_timestamp(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            proc = cli("simulate", "scout_demo.mission", "--out", out, "--seed", 11)
            assert proc.returncode == 0, proc.stderr
        assert (out1 / "telemetry.jsonl").read_bytes() == (out2 / "telemetry.jsonl").read_bytes()
        assert (out1 / "telemetry.csv").read_bytes() == (out2 / "telemetry.csv").read_bytes()
        s1 = [l for l in (out1 / "summary.json").read_text().splitlines() if "generated_at" not in l]
        s2 = [l for l in (out2 / "summary.json").read_text().splitlines() if "generated_at" not in l]
        assert s1 == s2

    def test_malformed_mission_exits_2(self, tmp_path):
        mission = tmp_path / "bad.mission"
        mission.write_text("[zone.1]\nx_min = 0\n")
        proc = cli("simulate", mission, "--out", tmp_path / "out")
        assert proc.returncode == 2

    def test_bad_uv_on_word_exits_2(self, tmp_path):
        mission = tmp_path / "bad.mission"
        mission.write_text(
            "[zone.1]\nname = lab\nx_min = 0\nx_max = 1\ntemperature_c = 25\nuv_on = maybe\n"
        )
        proc = cli("simulate", mission, "--out", tmp_path / "out")
        assert proc.returncode == 2
        assert "expected a boolean, got 'maybe'" in proc.stderr

    def test_zone_without_x_max_exits_2(self, tmp_path, capsys):
        mission = tmp_path / "bad.mission"
        mission.write_text("[zone.a]\nname = a\nx_min = 0\ntemperature_c = 25\n[script]\ndwell = 5\n")
        code, err = main_in_process(capsys, "simulate", mission, "--out", tmp_path / "out")
        assert code == 2
        assert "missing key 'x_max'" in err

    def test_unknown_mission_exits_2(self, tmp_path):
        proc = cli("simulate", "missing.mission", "--out", tmp_path / "out")
        assert proc.returncode == 2

    @staticmethod
    def telemetry_digests(capsys, out, *config):
        """SHA-256 of the bundled mission's telemetry at seed 11, dt 1 (8 534 steps)."""
        code, err = main_in_process(
            capsys, "simulate", "scout_demo.mission", "--seed", 11, "--dt", 1, *config, "--out", out
        )
        assert code == 0, err
        return {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("telemetry.jsonl", "telemetry.csv")
        }

    def test_replay_bytes_are_pinned(self, tmp_path, capsys):
        assert self.telemetry_digests(capsys, tmp_path / "out") == {
            "telemetry.jsonl": "26879f8076b94fe4542d64776ad87c03bac5f62868912a7f8caef9ad40d8a50e",
            "telemetry.csv": "8a672b40e5a6b101830c6cde588f1b020e9870c3e62961a1276d1573564d8bf3",
        }

    def test_replay_bytes_are_pinned_with_thermal_lag_and_anchor_tables(self, tmp_path, capsys):
        # the per-step temperature channel and the interpolated actuator and
        # strain tables, which the bare run does not reach
        cfg = tmp_path / "overlay.cfg"
        cfg.write_text(
            "[simulation]\nbody_thermal_lag_s = 30\n"
            "[actuator]\nangle_table = 0:0, 6:20, 12:35\n"
            "[sensor.strain]\ncapacitance_table = 0:10, 20:10.4, 35:11\n"
        )
        assert self.telemetry_digests(capsys, tmp_path / "out", "--config", cfg) == {
            "telemetry.jsonl": "f8003df7c593c97945bc442ddbd6dfb13c0cf5c6ae731c3e2cf7099bc7bea5f3",
            "telemetry.csv": "2e6aa2018d86e97504e044bdd87037c110836544994d3cc18f233fc3c11edf63",
        }

    def test_anchor_tables_are_read_between_anchors(self, tmp_path, capsys):
        # the gait bends to 0 and to its full angle only, and the tables above
        # equal the linear maps there; here the full bend, 30 degrees, falls
        # between two strain anchors, where only interpolation reads 10.8 pF
        cfg = tmp_path / "overlay.cfg"
        cfg.write_text(
            "[actuator]\nangle_table = 0:0, 6:20, 12:30\n"
            "[sensor.strain]\ncapacitance_table = 0:10, 20:10.4, 35:11\n"
        )
        self.telemetry_digests(capsys, tmp_path / "out", "--config", cfg)
        lines = (tmp_path / "out" / "telemetry.csv").read_text().splitlines()
        readings = collections.Counter(line.split(",")[4] for line in lines[1:])
        del readings["nan"]
        # the linear map would read 10 + 30/35 pF, the nearest anchor 10.4 or 11
        assert readings.most_common(1) == [("10.8", 2215)]
        assert not readings.keys() & {repr(10 + 30 / 35), "10.4", "11.0", "10.0"}

    def test_scout_telemetry_is_its_reference_forms(self, tmp_path, capsys, monkeypatch):
        runs = []

        def recording_run(*args, **kwargs):
            runs.append(mission_run(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli_module, "run", recording_run)
        out = tmp_path / "out"
        code, err = main_in_process(capsys, "simulate", "scout_demo.mission", "--dt", 1, "--out", out)
        assert code == 0, err
        (records,) = runs
        assert (out / "telemetry.jsonl").read_text() == reference_jsonl(records)
        assert (out / "telemetry.csv").read_text() == reference_csv(records)

    # one hot UV zone whose fast dose and kinetics take alpha through the
    # degraded sensor band (0.3 to 0.7), where each step draws seeded noise
    REPLAY_MISSION = (
        "[zone.1]\nname = hot\nx_min = 0\nx_max = 1\ntemperature_c = 120\nuv_on = true\n"
        "[robot]\nposition = 0.5\n[script]\ndwell = 300\n"
    )
    REPLAY_OVERLAY = "[kinetics]\npre_exponential_per_s = 1.703\n[photolysis]\nrate_per_s = 0.05\n"

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1))
    @example(seed=0)
    @example(seed=2**64 - 1)
    def test_replay_is_byte_identical_for_any_seed(self, seed):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "hot.mission").write_text(self.REPLAY_MISSION)
            (tmp / "fast.cfg").write_text(self.REPLAY_OVERLAY)
            outputs = []
            for out in (tmp / "a", tmp / "b"):
                args = ["simulate", tmp / "hot.mission", "--dt", 1, "--seed", seed, "--config", tmp / "fast.cfg"]
                assert cli_module.main([str(a) for a in (*args, "--out", out)]) == 0
                summary = read_summary(out)
                del summary["generated_at"]
                outputs.append(
                    ((out / "telemetry.jsonl").read_bytes(), (out / "telemetry.csv").read_bytes(), summary)
                )
            assert outputs[0] == outputs[1]
            # the run went through the degraded band and out of it
            assert outputs[0][2]["results"]["final_alpha"] > 0.7

    def test_script_that_needs_no_step_completes(self, tmp_path, capsys):
        mission = tmp_path / "parked.mission"
        mission.write_text(
            "[zone.1]\nname = lab\nx_min = 0\nx_max = 1\ntemperature_c = 25\n"
            "[robot]\nposition = 0.5\n"
            "[script]\nmove_to = 0.5\n"
        )
        out = tmp_path / "out"
        code, err = main_in_process(capsys, "simulate", mission, "--out", out)
        assert code == 0, err
        results = read_summary(out)["results"]
        assert results["steps"] == 0
        assert results["final_alpha"] == 0.0
        assert results["final_position_m"] == 0.5
        assert results["terminal_events"] == ["script-complete"]
        assert (out / "telemetry.jsonl").read_text() == ""
        assert (out / "telemetry.csv").read_text().splitlines() == [
            "t,position,alpha,temp_C,capacitance_pF,photocurrent_A"
        ]

    def test_stranded_mission_exits_0_with_terminal_event(self, tmp_path):
        mission = tmp_path / "strand.mission"
        mission.write_text(
            "[zone.1]\nname = uv\nx_min = 0\nx_max = 1\ntemperature_c = 25\nuv_on = true\n"
            "[zone.2]\nname = long-hot\nx_min = 1\nx_max = 40\ntemperature_c = 120\nuv_on = false\n"
            "[robot]\nposition = 0.5\n"
            "[script]\nawait_uv_dose = 0.94\nmove_to = 39.0\n"
        )
        out = tmp_path / "out"
        proc = cli("simulate", mission, "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert read_summary(out)["results"]["terminal_events"] == ["stranded"]


class TestSynth:
    def test_noiseless_samples_match_closed_form(self, tmp_path):
        out = tmp_path / "out"
        proc = cli("synth", "--k", 1e-3, "--enthalpy", 10, "--out", out)
        assert proc.returncode == 0, proc.stderr
        trace = read_trace_csv(out / "trace_synth.csv")
        expected = 1e-3 * 10.0 * np.exp(-1e-3 * trace.time_s)
        assert np.array_equal(trace.heat_flow_w, expected)

    def test_same_seed_identical_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            proc = cli("synth", "--k", 1e-3, "--noise", 0.02, "--seed", 123, "--out", out)
            assert proc.returncode == 0
        assert (out1 / "trace_synth.csv").read_bytes() == (out2 / "trace_synth.csv").read_bytes()

    def test_noisy_round_trip_within_five_percent(self, tmp_path):
        out = tmp_path / "synth"
        proc = cli("synth", "--k", 1e-3, "--noise", 0.02, "--seed", 5, "--out", out)
        assert proc.returncode == 0
        fit_out = tmp_path / "fit"
        proc = cli("fit-dsc", out / "trace_synth.csv", "--out", fit_out)
        assert proc.returncode == 0
        fit = read_summary(fit_out)["results"]["fits"][0]
        assert abs(fit["k_per_s"] - 1e-3) / 1e-3 < 0.05

    def test_missing_parameters_exit_2(self, tmp_path):
        proc = cli("synth", "--out", tmp_path / "out")
        assert proc.returncode == 2

    @pytest.mark.parametrize("second", ["100", "100.0000001"])
    def test_holds_that_write_one_file_exit_2(self, tmp_path, capsys, second):
        # the second trace overwrote the first, and summary.json listed both
        out = tmp_path / "out"
        code, err = main_in_process(capsys, "synth", "--temperature-c", "100", "--temperature-c", second, "--out", out)
        assert code == 2
        assert err == "error: two --temperature-c holds would both write trace_synth-100C.csv\n"
        assert not out.exists()

    def test_unwritable_out_path_exits_4(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        proc = cli("synth", "--k", 1e-3, "--out", blocker)
        assert proc.returncode == 4


class TestAtomicOutputs:
    def test_existing_tmp_file_survives_untouched(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        stray = out / "summary.json.tmp"
        stray.write_text("user data\n")
        proc = cli("synth", "--k", 1e-3, "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert stray.read_text() == "user data\n"
        assert read_summary(out)["command"] == "synth"

    def test_output_path_is_a_directory_leaves_no_tmp(self, tmp_path):
        out = tmp_path / "out"
        (out / "summary.json").mkdir(parents=True)
        proc = cli("synth", "--k", 1e-3, "--out", out)
        assert proc.returncode == 4
        assert list(out.glob("*.tmp")) == []


# a predict run of 241 samples, across a UV step and a dark hold
STREAM_SCHEDULE = "duration_s,temperature_C,uv_on\n100,120,true\n140,25,false\n"


def recording(fn, calls):
    """``fn``, appending the arguments and the result of each call to ``calls``."""
    def wrapper(*args, **kwargs):
        calls.append((args, fn(*args, **kwargs)))
        return calls[-1][1]

    return wrapper


class TestStreamedOutputs:
    """simulate's telemetry and predict's profile are written a chunk at a time."""

    def test_simulate_fault_midway_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli_module, "CHUNK_ROWS", 100)
        cli_module._load_array_layers("mission")
        calls = []

        def failing_csv(records, **kwargs):
            calls.append(len(records))
            if len(calls) == 2:
                raise OSError("disk full")
            return telemetry_to_csv(records, **kwargs)

        monkeypatch.setattr(cli_module, "telemetry_to_csv", failing_csv)
        out = tmp_path / "out"
        code, err = main_in_process(capsys, "simulate", "scout_demo.mission", "--dt", 10, "--out", out)
        assert (code, err, calls) == (4, "error: disk full\n", [100, 100])
        assert list(out.iterdir()) == []  # no telemetry file, no *.tmp, no summary.json

    def test_predict_fault_midway_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli_module, "CHUNK_ROWS", 10)
        profile = cli_module._conversion_profile_csv

        def failing_profile(series):
            chunks = profile(series)
            yield next(chunks)
            raise OSError("disk full")

        monkeypatch.setattr(cli_module, "_conversion_profile_csv", failing_profile)
        sched = tmp_path / "sched.csv"
        sched.write_text(STREAM_SCHEDULE)
        out = tmp_path / "out"
        code, err = main_in_process(capsys, "predict", sched, "--out", out)
        assert (code, err) == (4, "error: disk full\n")
        assert list(out.iterdir()) == []  # no profile, no *.tmp, no summary.json

    @pytest.mark.parametrize("chunk", [1, 3, 4096])
    def test_simulate_bytes_do_not_depend_on_the_chunk(self, tmp_path, capsys, monkeypatch, chunk):
        monkeypatch.setattr(cli_module, "CHUNK_ROWS", chunk)
        cli_module._load_array_layers("mission")
        runs, jsonl_calls, csv_calls = [], [], []
        monkeypatch.setattr(cli_module, "run", recording(mission_run, runs))
        monkeypatch.setattr(cli_module, "telemetry_to_jsonl", recording(telemetry_to_jsonl, jsonl_calls))
        monkeypatch.setattr(cli_module, "telemetry_to_csv", recording(telemetry_to_csv, csv_calls))
        out = tmp_path / "out"
        code, err = main_in_process(capsys, "simulate", "scout_demo.mission", "--dt", 20, "--out", out)
        assert code == 0, err
        ((_, records),) = runs
        assert len(records) > 3
        assert (out / "telemetry.jsonl").read_text() == telemetry_to_jsonl(records)
        assert (out / "telemetry.csv").read_text() == telemetry_to_csv(records)
        # each writer call formats one chunk, and the chunks are the records in order
        for calls in (jsonl_calls, csv_calls):
            assert len(calls) == -(-len(records) // chunk)
            assert all(len(args[0]) <= chunk for args, _ in calls)
            assert [r for args, _ in calls for r in args[0]] == records

    @pytest.mark.parametrize("chunk", [1, 3, 4096])
    def test_predict_bytes_do_not_depend_on_the_chunk(self, tmp_path, capsys, monkeypatch, chunk):
        monkeypatch.setattr(cli_module, "CHUNK_ROWS", chunk)
        runs, chunks = [], []
        monkeypatch.setattr(cli_module, "integrate_conversion", recording(cli_module.integrate_conversion, runs))
        profile = cli_module._conversion_profile_csv

        def recording_profile(series):
            for text in profile(series):
                chunks.append(text)
                yield text

        monkeypatch.setattr(cli_module, "_conversion_profile_csv", recording_profile)
        sched = tmp_path / "sched.csv"
        sched.write_text(STREAM_SCHEDULE)
        out = tmp_path / "out"
        code, err = main_in_process(capsys, "predict", sched, "--out", out)
        assert code == 0, err
        ((_, series),) = runs
        samples = list(zip(series.t, series.alpha, series.hf_fraction))
        assert len(samples) == 241
        want = "t_s,alpha,hf_fraction\n" + "".join("%r,%r,%r\n" % sample for sample in samples)
        assert (out / "conversion_profile.csv").read_text() == want
        # each chunk holds at most CHUNK_ROWS samples; the header rides on the first
        rows = [text.count("\n") for text in chunks]
        assert rows[0] == min(chunk, len(samples)) + 1
        assert all(n <= chunk for n in rows[1:])
        assert sum(rows) == len(samples) + 1


class TestUndecodableInput:
    @pytest.mark.parametrize(
        "what, command",
        [
            ("trace", ["fit-dsc", "{bad}"]),
            ("schedule", ["predict", "{bad}"]),
            ("fit table", ["arrhenius", "{bad}"]),
            ("config", ["synth", "--k", "1e-3", "--config", "{bad}"]),
            ("mission", ["simulate", "{bad}"]),
        ],
        ids=["trace", "schedule", "fit-table", "config", "mission"],
    )
    def test_non_utf8_input_exits_2(self, tmp_path, capsys, what, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\x80\n")
        args = [arg.format(bad=bad) for arg in command]
        code, err = main_in_process(capsys, *args, "--out", tmp_path / "out")
        assert code == 2
        assert f"cannot read {what} {bad}: 'utf-8' codec can't decode byte 0x80" in err


class TestStepSize:
    @pytest.mark.parametrize(
        "command, dt, config_dt",
        [
            ("simulate", "0", None),
            ("simulate", "-1", None),
            ("simulate", "nan", None),
            ("simulate", "inf", None),
            ("predict", "nan", None),
            ("simulate", None, "0"),
            ("simulate", "5e-324", None),  # speed * dt underflows to 0 m
        ],
    )
    def test_invalid_step_exits_2(self, tmp_path, capsys, command, dt, config_dt):
        if command == "simulate":
            target = tmp_path / "lab.mission"
            target.write_text(
                "[zone.1]\nname = lab\nx_min = 0\nx_max = 1\ntemperature_c = 25\n"
                "[script]\nmove_to = 0.9\ndwell = 5\n"
            )
        else:
            target = tmp_path / "sched.csv"
            target.write_text("duration_s,temperature_C,uv_on\n100,25,true\n")
        args = [command, target, "--out", tmp_path / "out"]
        if dt is not None:
            args += ["--dt", dt]
        if config_dt is not None:
            cfg = tmp_path / "step.cfg"
            cfg.write_text(f"[simulation]\ndt_s = {config_dt}\n")
            args += ["--config", cfg]
        code, err = main_in_process(capsys, *args)
        assert code == 2
        assert "step size must be finite and > 0 s" in err
        assert not (tmp_path / "out").exists()


class TestBoundedHorizon:
    def test_predict_over_max_steps_exits_2(self, tmp_path):
        # a hang here is a regression: 1e12 steps would run for days
        sched = tmp_path / "sched.csv"
        sched.write_text("duration_s,temperature_C,uv_on\n1e12,120,true\n")
        out = tmp_path / "out"
        proc = cli("predict", sched, "--dt", 1, "--out", out, timeout=20)
        assert proc.returncode == 2
        assert "1e+12 s at a step of 1.0 s is over 1e+08 steps" in proc.stderr
        assert not out.exists()

    def test_simulate_timeout_over_max_steps_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "long.cfg"
        cfg.write_text("[simulation]\ntimeout_s = 1e9\n")
        out = tmp_path / "out"
        code, err = main_in_process(
            capsys, "simulate", "scout_demo.mission", "--dt", 1, "--config", cfg, "--out", out
        )
        assert code == 2
        assert "1e+09 s at a step of 1.0 s is over 1e+08 steps" in err
        assert not out.exists()

    def test_synth_over_max_samples_exits_2(self, tmp_path, capsys):
        # 1e15 samples: numpy refuses the 7 PiB at once rather than exiting 2
        out = tmp_path / "out"
        code, err = main_in_process(
            capsys, "synth", "--k", 0.001, "--t-end", 1e12, "--dt-sample", 1e-3, "--out", out
        )
        assert code == 2
        assert "1e+12 s at a step of 0.001 s is over 1e+08 steps" in err
        assert not out.exists()


class TestNonFiniteInput:
    def test_infinite_segment_duration_exits_2(self, tmp_path):
        # a hang here is a regression: the step loop never ends
        sched = tmp_path / "sched.csv"
        sched.write_text("duration_s,temperature_C,uv_on\ninf,120,true\n")
        out = tmp_path / "out"
        proc = cli("predict", sched, "--out", out, timeout=20)
        assert proc.returncode == 2
        assert f"{sched}:2: segment duration must be finite and > 0 s, got inf" in proc.stderr
        assert not out.exists()

    def test_nan_pre_exponential_exits_2(self, tmp_path, capsys):
        sched = tmp_path / "sched.csv"
        sched.write_text("duration_s,temperature_C,uv_on\n1000,120,true\n")
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("[kinetics]\npre_exponential_per_s = nan\n")
        out = tmp_path / "out"
        code, err = main_in_process(capsys, "predict", sched, "--config", cfg, "--out", out)
        assert code == 2
        assert f"{cfg} [kinetics]: expected a finite number, got 'nan'" in err
        assert not out.exists()

    def test_nan_heat_flow_row_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        rows = [f"{t},{0.01 * 0.99 ** t!r}" for t in range(20)]
        rows[7] = "7,nan"  # file line 11
        trace.write_text("# temperature_K=393.15\n# uv_on=true\ntime_s,heat_flow_W\n" + "\n".join(rows) + "\n")
        out = tmp_path / "out"
        code, err = main_in_process(capsys, "fit-dsc", trace, "--out", out)
        assert code == 2
        assert f"{trace}:11: non-finite row '7,nan'" in err
        assert not out.exists()

    def test_nan_fit_table_temperature_exits_2(self, tmp_path, capsys):
        table = tmp_path / "fits.csv"
        table.write_text(
            f"{TestArrhenius.HEADER}\nrow0,nan,1e-4,10.0,0.0,3,true,\n"
            "row1,373.15,3e-4,10.0,0.0,3,true,\nrow2,393.15,6.7e-4,10.0,0.0,3,true,\n"
        )
        out = tmp_path / "out"
        code, err = main_in_process(capsys, "arrhenius", table, "--out", out)
        assert code == 2
        assert f"{table}:2: non-finite number in fit-table row" in err
        assert not out.exists()

    def test_nan_sensor_overlay_on_simulate_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("[sensor.temp]\nr0_ohm = nan\n")
        out = tmp_path / "out"
        code, err = main_in_process(capsys, "simulate", "scout_demo.mission", "--config", cfg, "--out", out)
        assert code == 2
        assert f"{cfg} [sensor.temp]: expected a finite number, got 'nan'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--k", "nan"], "k must be finite and > 0, got nan"),
            (["--k", "0"], "k must be finite and > 0, got 0.0"),
            (["--k", "1e-3", "--dt-sample", "nan"], "dt must be finite and > 0, got nan"),
            (["--k", "1e-3", "--t-end", "inf"], "t_end must be finite and > 0, got inf"),
            (["--k", "1e-3", "--enthalpy", "nan"], "total_enthalpy must be finite and > 0, got nan"),
            (["--k", "1e-3", "--noise", "nan"], "noise_fraction must be finite, got nan"),
            (
                ["--k", "10", "--enthalpy", "1e308", "--t-end", "1", "--dt-sample", "0.01"],
                "peak heat flow k * total_enthalpy must be finite, got 10.0 * 1e+308",
            ),
            (
                ["--k", "10", "--enthalpy", "1e307", "--noise", "100"],
                "noise scale noise_fraction * k * total_enthalpy must be finite, got 100.0 * 10.0 * 1e+307",
            ),
            (["--temperature-c", "inf"], "temperature must be finite and > 0 K, got inf"),
            (["--temperature-c", "nan"], "temperature must be finite and > 0 K, got nan"),
            (["--k", "1e-3", "--temperature-c", "inf"], "temperature must be finite and > 0 K, got inf"),
            (["--k", "1e-3", "--temperature-c", "-300"], "temperature must be finite and > 0 K, got -26.85"),
        ],
        ids=[
            "k", "k-zero", "dt-sample", "t-end", "enthalpy", "noise", "peak-overflow", "noise-scale-overflow",
            "temperature-inf", "temperature-nan",
            "k-temperature-inf", "k-temperature-below-0K",
        ],
    )
    def test_synth_refuses_non_finite_values(self, tmp_path, capsys, args, message):
        out = tmp_path / "out"
        code, err = main_in_process(capsys, "synth", *args, "--out", out)
        assert code == 2
        assert message in err
        assert not out.exists()


    def test_synth_refuses_a_noise_draw_that_overflows(self, tmp_path, capsys):
        # the noise scale 1 * 10 * 1e307 is finite; a draw above 1.8 times it is not
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = main_in_process(
                capsys, "synth", "--k", "10", "--enthalpy", "1e307", "--noise", "1",
                "--t-end", "1", "--dt-sample", "0.01", "--out", out,
            )
        assert code == 2
        assert "a noise draw times the scale 1e+308 W overflows" in err
        assert not out.exists()


class TestSimulationRanges:
    SCHEDULE = "duration_s,temperature_C,uv_on\n100,120,true\n"

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("monitor_bias_v = 5", "monitor_bias_v 5.0 V lies outside the photodiode's band [-2.0, 2.0] V"),
            ("monitor_bias_v = -2.5", "monitor_bias_v -2.5 V lies outside the photodiode's band [-2.0, 2.0] V"),
            ("dose_alarm_fraction = -5", "dose_alarm_fraction must lie in [0, 1], got -5.0"),
            ("dose_alarm_fraction = 1.5", "dose_alarm_fraction must lie in [0, 1], got 1.5"),
            ("uv_current_threshold_a = -1e308", "uv_current_threshold_a must be finite and >= 0 A, got -1e+308"),
        ],
        ids=["bias-high", "bias-low", "dose-negative", "dose-above-1", "uv-threshold-negative"],
    )
    @pytest.mark.parametrize("command", ["simulate", "predict"])
    def test_out_of_range_value_exits_2_naming_the_file(self, tmp_path, capsys, command, entry, message):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"[simulation]\n{entry}\n")
        sched = tmp_path / "sched.csv"
        sched.write_text(self.SCHEDULE)
        source = "scout_demo.mission" if command == "simulate" else sched
        out = tmp_path / "out"
        code, err = main_in_process(capsys, command, source, "--config", cfg, "--out", out)
        assert code == 2
        assert f"error: {cfg}: {message}" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize(
        "command",
        [
            ["simulate", "scout_demo.mission"],
            ["predict", "sched.csv", "--dt", "1"],
            ["synth", "--k", "1e-3"],
            ["fit-dsc", "trace.csv"],
            ["arrhenius", "fits.csv"],
        ],
        ids=["simulate", "predict-dt", "synth", "fit-dsc", "arrhenius"],
    )
    def test_step_size_is_checked_at_load(self, tmp_path, capsys, monkeypatch, command, value):
        # every command, even one that takes its step from --dt or takes none, loads the calibration first
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "step.cfg"
        cfg.write_text(f"[simulation]\ndt_s = {value}\n")
        out = tmp_path / "out"
        code, err = main_in_process(capsys, *command, "--config", cfg, "--out", out)
        assert code == 2
        assert f"error: {cfg}: step size must be finite and > 0 s, got {float(value)!r}" in err
        assert not out.exists()

    def test_the_edges_of_each_range_load(self, tmp_path):
        for entries in (
            "monitor_bias_v = -2\ndose_alarm_fraction = 0\nuv_current_threshold_a = 0\n",
            "monitor_bias_v = 2\ndose_alarm_fraction = 1\n",
        ):
            cfg = tmp_path / "edges.cfg"
            cfg.write_text("[simulation]\n" + entries)
            load_calibration_file(cfg)


class TestFiniteOutputs:
    MISSION = (
        "[zone.1]\nname = hot\nx_min = 0\nx_max = 1\ntemperature_c = 120\nuv_on = true\n"
        "[robot]\nposition = 0.5\n[script]\ndwell = 800\n"
    )
    SCHEDULE = "duration_s,temperature_C,uv_on\n800,120,true\n"
    ANY_NUMBER = st.none() | st.floats()

    @staticmethod
    def assert_finite_outputs(outdir: Path):
        for path in outdir.iterdir():
            text = path.read_text()
            assert "NaN" not in text and "Infinity" not in text, path.name
            if path.suffix == ".csv":
                cells = set(text.replace("\n", ",").split(","))
                assert not cells & {"inf", "-inf"}, path.name
                # only a missing telemetry reading is written as nan
                assert path.name == "telemetry.csv" or "nan" not in cells, path.name

    def assert_predict_and_simulate_finite(self, section, overlay):
        """Run both commands under a ``[section]`` overlay (None omits a key):
        each exits 0 with finite outputs, or 2 with no ``--out``."""
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cfg = tmp / "overlay.cfg"
            entries = "".join(f"{k} = {v!r}\n" for k, v in overlay.items() if v is not None)
            cfg.write_text(f"[{section}]\n" + entries)
            (tmp / "one.mission").write_text(self.MISSION)
            (tmp / "sched.csv").write_text(self.SCHEDULE)
            for command, source in (("simulate", "one.mission"), ("predict", "sched.csv")):
                out = tmp / command
                args = [command, tmp / source, "--dt", 1, "--config", cfg, "--out", out]
                code = cli_module.main([str(a) for a in args])
                assert code in (0, 2)
                if code == 0:
                    self.assert_finite_outputs(out)
                else:
                    assert not out.exists()

    @settings(max_examples=50, deadline=None)
    @given(rate_per_s=ANY_NUMBER, hf_saturation=ANY_NUMBER, dpi_initial_mol_m3=ANY_NUMBER)
    @example(rate_per_s=-1.0, hf_saturation=None, dpi_initial_mol_m3=None)
    def test_no_output_holds_nan_or_infinity(self, rate_per_s, hf_saturation, dpi_initial_mol_m3):
        self.assert_predict_and_simulate_finite(
            "photolysis",
            {"rate_per_s": rate_per_s, "hf_saturation": hf_saturation, "dpi_initial_mol_m3": dpi_initial_mol_m3},
        )

    @settings(max_examples=50, deadline=None)
    @given(pre_exponential_per_s=ANY_NUMBER, activation_energy_kj_per_mol=ANY_NUMBER)
    # k(T) * dt so large every decay factor is 0, and so small it is 1
    @example(pre_exponential_per_s=1e308, activation_energy_kj_per_mol=0.0)
    @example(pre_exponential_per_s=5e-324, activation_energy_kj_per_mol=None)
    @example(pre_exponential_per_s=None, activation_energy_kj_per_mol=1e300)
    def test_kinetics_overlay_keeps_outputs_finite(self, pre_exponential_per_s, activation_energy_kj_per_mol):
        self.assert_predict_and_simulate_finite(
            "kinetics",
            {
                "pre_exponential_per_s": pre_exponential_per_s,
                "activation_energy_kj_per_mol": activation_energy_kj_per_mol,
            },
        )

    # the keys of each device section that set a speed or a sensor's largest reading
    DEVICE_KEYS = {
        "actuator": ("stride_per_cycle_m", "cycle_period_s"),
        "sensor.temp": ("r0_ohm", "tcr_ohm_per_c", "t_ref_c"),
        "sensor.strain": ("c0_pf", "swing_pf"),
    }
    # a robot that walks from 0.25 m to 0.75 m through the degraded sensor band
    WALK_MISSION = (
        "[zone.1]\nname = hot\nx_min = 0\nx_max = 1\ntemperature_c = 120\nuv_on = true\n"
        "[robot]\nposition = 0.25\n[script]\nmove_to = 0.75\ndwell = 300\n"
    )
    WALK_OVERLAY = (
        "[kinetics]\npre_exponential_per_s = 1.703\n[photolysis]\nrate_per_s = 0.05\n"
        "[simulation]\ntimeout_s = 600\n"
    )

    @settings(max_examples=60, deadline=None)
    @given(
        overlay=st.sampled_from(sorted(DEVICE_KEYS)).flatmap(
            lambda section, keys=DEVICE_KEYS: st.tuples(
                st.just(section), st.fixed_dictionaries({}, optional=dict.fromkeys(keys[section], st.floats()))
            )
        )
    )
    # an infinite speed: the robot never left its start
    @example(overlay=("actuator", {"stride_per_cycle_m": 1e308, "cycle_period_s": 1e-10}))
    # an infinite resistance: Infinity in telemetry.jsonl
    @example(overlay=("sensor.temp", {"tcr_ohm_per_c": 1e308}))
    # a jittered capacitance that overflows in the degraded band
    @example(overlay=("sensor.strain", {"c0_pf": 1.5e308}))
    # a move lost to rounding, and a step of more pressure cycles than a float holds
    @example(overlay=("actuator", {"stride_per_cycle_m": 1e-300}))
    @example(overlay=("actuator", {"stride_per_cycle_m": 5e-324, "cycle_period_s": 5e-324}))
    def test_device_overlay_keeps_outputs_finite_and_the_robot_walking(self, overlay):
        section, values = overlay
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cfg = tmp / "device.cfg"
            entries = "".join(f"{k} = {v!r}\n" for k, v in values.items())
            cfg.write_text(f"{self.WALK_OVERLAY}[{section}]\n{entries}")
            (tmp / "walk.mission").write_text(self.WALK_MISSION)
            out = tmp / "out"
            args = ["simulate", tmp / "walk.mission", "--dt", 1, "--config", cfg, "--out", out]
            code = cli_module.main([str(a) for a in args])
            assert code in (0, 2)
            if code == 2:
                assert not out.exists()
                return
            self.assert_finite_outputs(out)
            # the robot, mobile at the start, moves on its first step
            first_row = (out / "telemetry.csv").read_text().splitlines()[1]
            assert float(first_row.split(",")[1]) > 0.25

    # the sections whose keys neither earlier property draws, each key any float
    READING_KEYS = {
        section: tuple(key for key, *_ in CALIBRATION_TABLE[section])
        for section in ("sensor.photo", "sensor.health", "simulation")
    }

    @settings(max_examples=60, deadline=None)
    @given(
        overlay=st.sampled_from(sorted(READING_KEYS)).flatmap(
            lambda section, keys=READING_KEYS: st.tuples(
                st.just(section), st.fixed_dictionaries({}, optional=dict.fromkeys(keys[section], st.floats()))
            )
        )
    )
    # the thresholds at the edges of their ranges
    @example(overlay=("sensor.health", {"alpha_degrade": 5e-324, "alpha_fail": 1.0}))
    @example(overlay=("simulation", {"timeout_s": 5e-324, "body_thermal_lag_s": 1e308}))
    @example(overlay=("sensor.photo", {"reverse_current_a": -1e308, "forward_current_a": 1e308}))
    def test_reading_and_run_overlay_keeps_outputs_finite(self, overlay):
        self.assert_predict_and_simulate_finite(*overlay)

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(["ecoflex-20wt", "probe"]),
        values=st.fixed_dictionaries(dict.fromkeys((key for key, *_ in MATERIAL_ROWS), st.floats())),
    )
    # extreme values that load, and the wall material at the actuator's peak strain, which does not
    @example(
        name="ecoflex-20wt",
        values={
            "modulus_pa": 1e308, "elastic_limit_strain": 5e-324, "fracture_strain": 1e308,
            "fracture_stress_pa": 5e-324, "poisson": 0.0, "density_kg_m3": 1e308, "dpi_wt_percent": -1e308,
        },
    )
    @example(
        name="ecoflex-20wt",
        values={
            "modulus_pa": 1.0, "elastic_limit_strain": 0.1, "fracture_strain": 0.8356,
            "fracture_stress_pa": 1.0, "poisson": 0.0, "density_kg_m3": 1.0, "dpi_wt_percent": 0.0,
        },
    )
    def test_material_overlay_keeps_outputs_finite(self, name, values):
        self.assert_predict_and_simulate_finite(f"material.{name}", values)


class TestFitDscFiniteInput:
    FINITE = st.floats(allow_nan=False, allow_infinity=False)

    @settings(max_examples=60, deadline=None)
    @given(
        times=st.lists(FINITE, min_size=2, max_size=40, unique=True),
        in_order=st.booleans(),
        heats=st.lists(FINITE, min_size=40, max_size=40),
        temperature_k=FINITE,
    )
    # a span of times, and heat flows, whose differences overflow
    @example(times=[-1e308, 0.0, 1e308], in_order=True, heats=[1e308, -1e308] * 20, temperature_k=300.0)
    @example(times=[float(i) for i in range(40)], in_order=True, heats=[1e300] * 40, temperature_k=5e-324)
    def test_any_finite_trace_fits_without_a_traceback(self, times, in_order, heats, temperature_k):
        if in_order:
            times = sorted(times)
        rows = "".join(f"{t!r},{q!r}\n" for t, q in zip(times, heats))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            trace = tmp / "trace.csv"
            trace.write_text(f"# temperature_K={temperature_k!r}\n# uv_on=true\n{TRACE_HEADER}\n{rows}")
            out = tmp / "out"
            code = cli_module.main(["fit-dsc", str(trace), "--out", str(out)])
            assert code in (0, 1, 2)
            if code == 2:
                assert not out.exists()
            else:
                TestFiniteOutputs.assert_finite_outputs(out)


class TestRefusedRunLeavesNoOutput:
    @pytest.mark.parametrize(
        "command, text",
        [
            (["fit-dsc", "{input}"], "# temperature_K=abc\ntime_s,heat_flow_W\n0,1\n1,0.5\n"),
            (["arrhenius", "{input}"], "temperature_K,k_per_s,converged\n300,abc,true\n"),
            (["predict", "{input}"], "duration_s,temperature_C,uv_on\n0,120,true\n"),
            (["simulate", "scout_demo.mission", "--dt", "0"], None),
            (["synth", "--k", "1e-3", "--enthalpy", "-1"], None),
        ],
        ids=["fit-dsc", "arrhenius", "predict", "simulate", "synth"],
    )
    def test_refused_run_creates_no_out_directory(self, tmp_path, capsys, command, text):
        source = tmp_path / "input.csv"
        if text is not None:
            source.write_text(text)
        args = [arg.format(input=source) for arg in command]
        code, err = main_in_process(capsys, *args, "--out", tmp_path / "out" / "nested")
        assert code == 2, err
        assert not (tmp_path / "out").exists()


class TestTracedBoundaries:
    def test_tracer_finds_every_boundary(self, tmp_path):
        # perfbench/tracer.py wraps the CLI's layer functions by name; a
        # boundary that is renamed or re-signed shows up in its metadata
        tracer = SRC.parent / "perfbench" / "tracer.py"
        spans = tmp_path / "spans.npz"
        proc = run_python(
            tracer, spans, "simulate", "scout_demo.mission", "--dt", 10, "--out", tmp_path / "o"
        )
        assert proc.returncode == 0, proc.stderr
        with np.load(spans) as data:
            meta = json.loads(str(data["meta"]))
            name_id = data["name_id"]
        assert meta["missing"] == []
        assert meta["hook_errors"] == []
        assert meta["exit_code"] == 0
        # a layer called through a local name, not the module attribute,
        # escapes its wrapper: it would record no span without being missing
        spans_of = {name: int(np.sum(name_id == i)) for i, name in enumerate(meta["names"])}
        steps = read_summary(tmp_path / "o")["results"]["steps"]
        assert spans_of["mission.step"] == steps
        # k(T) is computed once per zone of a run, the alarms once per step
        assert spans_of["kinetics.arrhenius"] <= 5  # the zones of scout_demo
        assert spans_of["mission.alarm"] == steps
        for layer in (
            "mission.load", "mission.run", "mission.alarm", "kinetics.arrhenius", "sensors.degrade",
            "mechanics.gait", "mission.jsonl", "mission.csv", "cli.write",
        ):
            assert spans_of[layer] >= 1, layer


class TestGlobalBehavior:
    def test_version_flag(self):
        proc = cli("--version")
        assert proc.returncode == 0
        assert "transient-kinetics" in proc.stdout

    @pytest.mark.parametrize(
        "command, flag",
        [
            (["fit-dsc", "trace.csv"], "--seed"),
            (["fit-dsc", "trace.csv"], "--dt"),
            (["arrhenius", "fits.csv"], "--seed"),
            (["arrhenius", "fits.csv"], "--dt"),
            (["predict", "schedule.csv"], "--seed"),
            (["synth", "--k", "1e-3"], "--dt"),
        ],
    )
    def test_flag_a_subcommand_does_not_read_exits_2(self, tmp_path, capsys, command, flag):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            cli_module.main([*command, flag, "5", "--out", str(out)])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
        assert not out.exists()

    def test_every_option_is_documented_in_the_readme(self):
        # an option counts as documented when an inline code span of README.md names it
        readme = (SRC.parent / "README.md").read_text()
        prose = re.sub(r"^```.*?^```", "", readme, flags=re.MULTILINE | re.DOTALL)
        named = {word.partition("=")[0] for span in re.findall(r"`([^`]+)`", prose) for word in span.split()}
        subcommands = next(a for a in cli_module.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        undocumented = sorted(
            f"{name} {option}"
            for name, parser in subcommands.choices.items()
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help" and option not in named
        )
        assert undocumented == []

    def test_seed_must_be_unsigned_64_bit(self, tmp_path):
        proc = cli("synth", "--k", 1e-3, "--seed", -1, "--out", tmp_path / "out")
        assert proc.returncode == 2
        proc = cli("synth", "--k", 1e-3, "--seed", 2**64, "--out", tmp_path / "out")
        assert proc.returncode == 2

    @pytest.mark.parametrize("seed", ["1.5", "abc"])
    def test_seed_must_be_an_integer(self, tmp_path, capsys, seed):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            cli_module.main(["simulate", "scout_demo.mission", "--seed", seed, "--out", str(out)])
        assert exit_.value.code == 2
        assert f"argument --seed: seed must be an integer, got {seed!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_overlay_reaches_summary(self, tmp_path):
        overlay = tmp_path / "overlay.cfg"
        overlay.write_text("[sensor.temp]\ntcr_ohm_per_c = 0.2\n")
        sched = tmp_path / "sched.csv"
        sched.write_text("duration_s,temperature_C,uv_on\n100,25,false\n")
        out = tmp_path / "out"
        proc = cli("predict", sched, "--config", overlay, "--out", out)
        assert proc.returncode == 0
        assert read_summary(out)["config"]["sensor_temp"]["tcr_ohm_per_c"] == 0.2
