"""numpy loads only in the commands that use arrays; the package exports load on first use and each is needed;
every third-party module the tests import is declared in pyproject.toml."""

import ast
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import transient_kinetics
from transient_kinetics import cli, dscfit, kinetics, mission

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent
ACCEPTANCE = TESTS / "test_acceptance.py"


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


def run_command(argv: list[str], cwd: Path, module: str = "numpy") -> tuple[int, bool]:
    """``cli.main(argv)`` in a fresh interpreter: its exit code, and whether ``module`` was loaded."""
    out = run_script(
        "import json, sys\n"
        "from transient_kinetics import cli\n"
        f"code = cli.main({argv!r})\n"
        f"print(json.dumps([code, {module!r} in sys.modules]))\n",
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

    def test_apply_degradation_leaves_numpy_unloaded(self, tmp_path):
        out = run_script(
            "import sys\n"
            "from transient_kinetics.sensors import SENSOR_KINDS, SensorHealth, apply_degradation\n"
            "health = SensorHealth()\n"
            "readings = [apply_degradation(10.0, kind, alpha, health, 0.25)\n"
            "            for kind in SENSOR_KINDS for alpha in (0.0, 0.5, 1.0)]\n"
            "assert health.status_at(0.5) == 'degraded' and readings[1] == 11.25, readings\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))\n",
            tmp_path,
        )
        assert out == "[]"

    def test_jitter_kernel_loads_with_the_first_block(self, tmp_path):
        # simulate loads mission; only a run that degrades compiles the kernel
        out = run_script(
            "import sys\n"
            "from transient_kinetics import cli, config, mission\n"
            "cli._load_array_layers('dscfit')\n"
            "cli._load_array_layers('mission')\n"
            "scout = mission.load_mission(config.presets_dir() / 'scout_demo.mission')\n"
            "plan = mission.StepPlan(scout, config.default_calibration(), 1.0)\n"
            "before = 'transient_kinetics.jitter' in sys.modules\n"
            "plan.noise(0)\n"
            "print(before, 'transient_kinetics.jitter' in sys.modules)\n",
            tmp_path,
        )
        assert out == "False True"

    def test_predict_leaves_numpy_unloaded(self, tmp_path):
        (tmp_path / "sched.csv").write_text(
            "duration_s,temperature_C,uv_on\n600,25,true\n1800,120,false\n300,60,true\n"
        )
        assert run_command(["predict", "sched.csv", "--dt", "7", "--out", "out"], tmp_path) == (0, False)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["results"]["final_alpha"] > 0.0
        assert (tmp_path / "out" / "conversion_profile.csv").exists()

    def test_array_commands_load_numpy_and_exit_0(self, tmp_path):
        # each command in a fresh interpreter, so that each loads its own layers;
        # simulate draws its jitter through the degraded band without numpy
        for argv, expected in (
            (["synth", "--temperature-c", "80", "--temperature-c", "120", "--out", "traces"], (0, True)),
            (["fit-dsc", "traces/trace_synth-80C.csv", "traces/trace_synth-120C.csv", "--out", "fits"], (0, True)),
            (["arrhenius", "fits/fits.csv", "--out", "arrhenius"], (0, True)),
            (["simulate", "scout_demo.mission", "--dt", "20", "--out", "simulate"], (0, False)),
        ):
            assert run_command(argv, tmp_path) == expected, argv[0]
        assert "sensor-degraded" in event_tags(tmp_path / "simulate")

    def test_simulate_with_anchor_tables_leaves_numpy_unloaded(self, tmp_path):
        (tmp_path / "tables.cfg").write_text(
            "[actuator]\nangle_table = 0:0, 6:20, 12:30\n"
            "[sensor.strain]\ncapacitance_table = 0:10, 20:10.4, 35:11\n"
        )
        argv = ["simulate", "scout_demo.mission", "--dt", "20", "--config", "tables.cfg", "--out", "out"]
        assert run_command(argv, tmp_path) == (0, False)
        assert "sensor-degraded" in event_tags(tmp_path / "out")
        # both tables were read: full pressure bends 30 degrees, read as 10.4 + 10 * 0.6 / 15 pF
        with open(tmp_path / "out" / "telemetry.csv", newline="") as telemetry:
            assert "10.8" in {row["capacitance_pF"] for row in csv.DictReader(telemetry)}

    def test_loading_the_layers_leaves_the_array_module_unloaded(self, tmp_path):
        # only predict's packed columns import the array extension module, when
        # they run, so synth, fit-dsc, arrhenius and simulate never map it: it
        # costs a process about 0.07 MB of peak RSS
        out = run_script(
            "import sys\n"
            "from transient_kinetics import cli\n"
            "cli._load_array_layers('dscfit')\n"
            "cli._load_array_layers('mission')\n"
            "print('array' in sys.modules)\n",
            tmp_path,
        )
        assert out == "False"
        # a run through the degraded band computes jitter blocks
        argv = ["simulate", "scout_demo.mission", "--dt", "20", "--out", "simulate"]
        assert run_command(argv, tmp_path, module="array") == (0, False)
        assert "sensor-degraded" in event_tags(tmp_path / "simulate")

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc/self/status")
    @pytest.mark.parametrize("caller, expected", [(None, "1 None"), ("2", "2")])
    def test_dscfit_layer_loads_numpy_with_one_blas_thread(self, tmp_path, caller, expected):
        # no BLAS call is worth a worker thread; a caller's own choice is kept, and the
        # environment is left as it was found either way
        setup = "os.environ.pop('OPENBLAS_NUM_THREADS', None)" if caller is None else (
            f"os.environ['OPENBLAS_NUM_THREADS'] = {caller!r}"
        )
        out = run_script(
            f"import os, sys\n{setup}\n"
            "from transient_kinetics import cli\n"
            "assert 'numpy' not in sys.modules\n"
            "cli._load_array_layers('dscfit')\n"
            "assert 'numpy' in sys.modules\n"
            "threads = [line.split()[1] for line in open('/proc/self/status') if line.startswith('Threads:')]\n"
            "print(*threads, os.environ.get('OPENBLAS_NUM_THREADS'))\n",
            tmp_path,
        )
        # the thread count a caller's 2 gives depends on the CPUs
        assert (out if caller is None else out.split()[-1]) == expected

    def test_commands_other_than_simulate_leave_mission_unloaded(self, tmp_path):
        (tmp_path / "sched.csv").write_text("duration_s,temperature_C,uv_on\n600,25,true\n")
        for argv in (
            ["predict", "sched.csv", "--dt", "7", "--out", "predict"],
            ["synth", "--temperature-c", "80", "--temperature-c", "120", "--out", "traces"],
            ["fit-dsc", "traces/trace_synth-80C.csv", "traces/trace_synth-120C.csv", "--out", "fits"],
            ["arrhenius", "fits/fits.csv", "--out", "arrhenius"],
        ):
            assert run_command(argv, tmp_path, "transient_kinetics.mission") == (0, False), argv[0]


def event_tags(outdir: Path) -> list[str]:
    return [event["tag"] for event in json.loads((outdir / "summary.json").read_text())["results"]["events"]]


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
        # the library call returns numpy arrays; predict's array('d') core is cli's integrate_conversion
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
        cli._load_array_layers("dscfit")
        cli._load_array_layers("mission")
        assert cli.run is cli.read_trace_csv is cli.TERMINAL_TAGS is wrapper
        assert cli.load_mission is mission.load_mission


def code_references(node: ast.AST, enclosing: frozenset = frozenset()):
    """Yield each name the code under ``node`` refers to (a loaded name, an
    attribute, an imported name), except a name inside its own def or class
    and the names in the ``_EXPORTS`` table."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Assign) and any(getattr(t, "id", None) == "_EXPORTS" for t in child.targets):
            continue
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = enclosing | {child.name}
        else:
            inner = enclosing
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            name = child.id
        elif isinstance(child, ast.Attribute):
            name = child.attr
        elif isinstance(child, ast.alias):
            name = child.name
        else:
            name = None
        if name is not None and name not in inner:
            yield name
        yield from code_references(child, inner)


def package_trees() -> dict[str, ast.Module]:
    """Each module of the package, parsed, by its file's stem."""
    paths = sorted((SRC / "transient_kinetics").glob("*.py"))
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in paths}


def src_references() -> set[str]:
    """The names ``code_references`` finds in the package's modules; a name an
    ``import ... as`` binds to another object counts only under that object's name."""
    found = set()
    for tree in package_trees().values():
        renamed = {a.asname for a in ast.walk(tree) if isinstance(a, ast.alias) and a.asname not in (None, a.name)}
        found.update(set(code_references(tree)) - renamed)
    return found


def table_names() -> set[str]:
    """The names held as strings by the ``_EXPORTS`` and ``_ARRAY_LAYERS``
    tables, which bind each on first use."""
    tables = ("_EXPORTS", "_ARRAY_LAYERS")
    return {
        const.value
        for tree in package_trees().values()
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) in tables for t in node.targets)
        for const in ast.walk(node.value)
        if isinstance(const, ast.Constant) and isinstance(const.value, str)
    }


def module_level_names() -> list[str]:
    """``module.name`` of each def, class and assignment target at the top
    level of a package module, dunder names aside."""
    found = []
    for module, tree in package_trees().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
            else:
                continue
            found += [f"{module}.{name}" for name in names if not (name.startswith("__") and name.endswith("__"))]
    return found


def acceptance_imports() -> set[str]:
    """The names ``test_acceptance.py`` imports from the package."""
    return {
        alias.name
        for node in ast.walk(ast.parse(ACCEPTANCE.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "transient_kinetics"
        for alias in node.names
    }


class TestExportsAreNeeded:
    def test_each_export_is_used_in_src_or_by_an_acceptance_test(self):
        used = src_references() | acceptance_imports()
        unneeded = [name for name in transient_kinetics.__all__ if name != "__version__" and name not in used]
        assert not unneeded, f"exported, but no code in src/ and no acceptance test uses: {unneeded}"

    def test_each_module_level_name_is_used_in_src_or_by_an_acceptance_test(self):
        # a name the tables bind by its string is used; whether an export is
        # needed is the test above
        used = src_references() | table_names() | acceptance_imports()
        unneeded = [name for name in module_level_names() if name.partition(".")[2] not in used]
        assert not unneeded, f"defined, but no code in src/ and no acceptance test uses: {unneeded}"

    def test_the_scan_sees_module_level_names_and_table_strings(self):
        names = module_level_names()
        for name in ("cli.main", "cli.CHUNK_ROWS", "mission.TelemetryRecord", "kinetics.MAX_STEPS"):
            assert name in names
        assert not [name for name in names if name.endswith("__")]
        assert {"synthesize_trace", "TERMINAL_TAGS", "ConversionSeries"} <= table_names()


class TestDeclaredDependencies:
    def test_every_third_party_module_the_tests_import_is_declared(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        project = tomllib.loads((TESTS.parent / "pyproject.toml").read_text())["project"]
        requirements = project["dependencies"] + project.get("optional-dependencies", {}).get("test", [])
        declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in requirements}
        imported = set()
        for path in TESTS.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported.update(alias.name.partition(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    imported.add(node.module.partition(".")[0])
        local = {"transient_kinetics", *(path.stem for path in TESTS.rglob("*.py"))}
        third_party = imported - set(sys.stdlib_module_names) - local
        assert {"numpy", "pytest", "hypothesis"} <= third_party  # the scan sees them
        assert third_party <= declared, f"imported by the tests, not declared: {sorted(third_party - declared)}"
