"""numpy loads only in the commands that use arrays; the package exports load on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import transient_kinetics
from transient_kinetics import cli, dscfit, kinetics, mission

SRC = Path(__file__).resolve().parents[1] / "src"


def run_script(script: str, cwd: Path) -> str:
    """Run ``script`` in a fresh interpreter with this source tree importable; its stdout."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def run_command(argv: list[str], cwd: Path) -> tuple[int, bool]:
    """``cli.main(argv)`` in a fresh interpreter: its exit code, and whether numpy was loaded."""
    out = run_script(
        "import json, sys\n"
        "from transient_kinetics import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(json.dumps([code, 'numpy' in sys.modules]))\n",
        cwd,
    )
    code, loaded = json.loads(out.splitlines()[-1])
    return code, loaded


class TestNumpyFreeCommands:
    def test_import_and_default_calibration_leave_numpy_unloaded(self, tmp_path):
        out = run_script(
            "import sys\n"
            "import transient_kinetics\n"
            "from transient_kinetics import cli, config\n"
            "config.default_calibration()\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))\n",
            tmp_path,
        )
        assert out == "[]"

    def test_predict_leaves_numpy_unloaded(self, tmp_path):
        (tmp_path / "sched.csv").write_text(
            "duration_s,temperature_C,uv_on\n600,25,true\n1800,120,false\n300,60,true\n"
        )
        assert run_command(["predict", "sched.csv", "--dt", "7", "--out", "out"], tmp_path) == (0, False)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["results"]["final_alpha"] > 0.0
        assert (tmp_path / "out" / "conversion_profile.csv").exists()

    def test_array_commands_load_numpy_and_exit_0(self, tmp_path):
        # each command in a fresh interpreter, so that each loads its own layers
        for argv in (
            ["synth", "--temperature-c", "80", "--temperature-c", "120", "--out", "traces"],
            ["fit-dsc", "traces/trace_synth-80C.csv", "traces/trace_synth-120C.csv", "--out", "fits"],
            ["arrhenius", "fits/fits.csv", "--out", "arrhenius"],
            ["simulate", "scout_demo.mission", "--dt", "50", "--out", "simulate"],
        ):
            assert run_command(argv, tmp_path) == (0, True), argv[0]


class TestLazyExports:
    def test_every_exported_name_resolves_in_a_fresh_interpreter(self, tmp_path):
        out = run_script(
            "import json\n"
            "import transient_kinetics as tk\n"
            "by_getattr = [name for name in tk.__all__ if getattr(tk, name, None) is None]\n"
            "namespace = {}\n"
            "exec('from transient_kinetics import *', namespace)\n"
            "by_star = sorted(set(tk.__all__) - set(namespace))\n"
            "print(json.dumps([by_getattr, by_star]))\n",
            tmp_path,
        )
        assert json.loads(out) == [[], []]

    def test_each_export_is_its_module_attribute(self):
        for name in transient_kinetics.__all__:
            if name != "__version__":
                defined = getattr(kinetics, name) if hasattr(kinetics, name) else getattr(dscfit, name)
                assert getattr(transient_kinetics, name) is defined, name
        # the library call returns arrays; predict's list core is cli's integrate_conversion
        assert transient_kinetics.integrate_conversion is kinetics.integrate_conversion
        assert cli.integrate_conversion is kinetics.integrate_conversion_lists

    def test_unknown_names_raise_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            transient_kinetics.no_such_name
        with pytest.raises(ImportError):
            from transient_kinetics import no_such_name  # noqa: F401
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            cli.no_such_name

    def test_loading_the_array_layers_keeps_a_wrapper_in_place(self, monkeypatch):
        def wrapper(*args, **kwargs):
            raise AssertionError("not called")

        for name in ("run", "read_trace_csv", "TERMINAL_TAGS"):
            monkeypatch.setattr(cli, name, wrapper)
        cli._load_array_layers()
        assert cli.run is cli.read_trace_csv is cli.TERMINAL_TAGS is wrapper
        assert cli.load_mission is mission.load_mission
