"""Benchmark of the transient-kinetics CLI, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mission --seed 0 --seconds 40 --trace 0

``--trace 0`` runs the workload's CLI invocations as fresh processes, one at a
time (one client, closed loop: each process starts after the previous one
exits), repeats the workload until ``--seconds`` is used up and reports the
end-to-end metrics over the repetitions. Before every process it times a fixed
pure-Python reference loop, and it rescales each timing by the references
timed next to it, which takes out the host's changes of speed. ``--trace 1``
alternates an untraced repetition with one run under ``tracer.py`` and
reports the per-layer metrics.
``--workload all`` runs every workload in turn.

Every repetition writes into a fresh directory under ``.perfbench/`` and its
outputs are checked: exit codes, the workload's accuracy checks, and SHA-256
digests that must repeat across repetitions and, at the default seed, match
``digests.json``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
STORED_DIGESTS = HERE / "digests.json"

# What a user runs: the console-script entry point, in a fresh interpreter.
CLI_ENTRY = "import sys; from transient_kinetics.cli import main; sys.exit(main())"
SETUP_ENTRY = "from transient_kinetics import cli, config; config.default_calibration()"
PROCESS_TIMEOUT_S = 120.0

# The machine-speed reference: a fixed pure-Python loop in a fresh interpreter,
# which runs no program code and imports nothing. On a shared host the CPU runs
# up to 2x slower for seconds to minutes at a time, and a reference timed next
# to a process slows with it, so their ratio varies far less between runs than
# either does. Timings are reported as measured x REFERENCE_NOMINAL_S / the mean
# of the references timed next to them (see Rep): seconds on a machine where
# the loop takes REFERENCE_NOMINAL_S (about the fastest it took on the 2-vCPU
# Xeon host this benchmark was built on).
REFERENCE_ENTRY = "s = 0\nfor i in range(1_000_000):\n    s += i * i % 7\n"
REFERENCE_NOMINAL_S = 0.17

# name -> unit. Each is the median over the repetitions of one run; the
# timings are rescaled by their references, peak_rss_mb is as measured.
END_TO_END = {
    "wall_s": "s",
    "throughput": "units/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass
class Proc:
    """One finished child process, measured by the parent."""

    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Rep:
    """One repetition of a workload: its processes and what was wrong with them."""

    procs: list[Proc]
    problems: list[list[str]]
    digests: dict[str, str]
    span_files: list[Path]
    # In the order timed: references[0], setup, then references[i + 1] before
    # procs[i]. Empty and None when the repetition is not measured end to end.
    references: list[Proc]
    setup: Proc | None

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs)

    @property
    def scale(self) -> float:
        """Rescaling of the processes: by all the repetition's references."""
        return REFERENCE_NOMINAL_S / statistics.fmean(p.wall_s for p in self.references)

    @property
    def setup_scale(self) -> float:
        """Rescaling of the set-up sample: by the two references around it."""
        return REFERENCE_NOMINAL_S / statistics.fmean(p.wall_s for p in self.references[:2])


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str], cwd: Path, env: dict[str, str], stderr_path: Path) -> Proc:
    """Run one child to completion and measure it with wait4.

    The child is killed if it outlives PROCESS_TIMEOUT_S; it is always reaped.
    Its ``ru_maxrss`` keeps the high-water mark of the parent's memory that it
    starts from, so this process must stay smaller than the children it measures.
    """
    with stderr_path.open("wb") as err:
        launch_ns = time.monotonic_ns()
        env["PERFBENCH_LAUNCH_NS"] = str(launch_ns)
        child = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        killer = threading.Timer(PROCESS_TIMEOUT_S, child.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
            end_ns = time.monotonic_ns()
            child.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            child.kill()
            child.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
    return Proc(
        exit_code=child.returncode,
        wall_s=(end_ns - launch_ns) / 1e9,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


def run_rep(
    workload: wl.Workload, invocations, work: Path, index: int, env, traced: bool, reference: bool
) -> Rep:
    """Run the workload's invocations once, in a fresh directory, and check the outputs.

    With ``reference``, also time one set-up sample first, and the reference
    loop before the set-up sample and before every invocation.
    """
    rep_dir = work / f"rep-{index}"
    rep_dir.mkdir()
    procs, span_files, references, setup = [], [], [], None
    if reference:
        # one set-up sample per repetition, so that a short burst of machine
        # noise touches few of them
        references.append(measure_reference(work, env))
        setup = measure_setup(work, env)
    for i, args in enumerate(invocations):
        if reference:
            references.append(measure_reference(work, env))
        if traced:
            span_files.append(work / f"rep-{index}-{i}.npz")
            argv = [sys.executable, str(HERE / "tracer.py"), str(span_files[-1]), *args]
        else:
            argv = [sys.executable, "-c", CLI_ENTRY, *args]
        procs.append(run_process(argv, rep_dir, env, work / f"rep-{index}-{i}.stderr"))

    problems: list[list[str]] = [
        [] if p.exit_code == 0 else [f"exit code {p.exit_code}"] for p in procs
    ]
    try:
        for mine, found in zip(problems, workload.check(rep_dir)):
            mine.extend(found)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        for mine in problems:
            mine.append(f"output check failed: {exc!r}")
    digests = wl.output_digests(rep_dir)
    shutil.rmtree(rep_dir)
    return Rep(procs, problems, digests, span_files, references, setup)


def compare_digests(rep: Rep, expected: dict[str, str], invocations, what: str) -> None:
    """Charge every differing, missing or extra output file to the invocation that wrote it."""
    owner = {args[args.index("--out") + 1]: i for i, args in enumerate(invocations)}
    for path in sorted(set(expected) | set(rep.digests)):
        if expected.get(path) != rep.digests.get(path):
            i = owner.get(path.split("/", 1)[0], 0)
            rep.problems[i].append(f"{path}: digest differs from {what}")


def measure_setup(work: Path, env: dict[str, str]) -> Proc:
    """Start the interpreter, import the CLI and load the default calibration."""
    return run_process([sys.executable, "-c", SETUP_ENTRY], work, env, work / "setup.stderr")


def measure_reference(work: Path, env: dict[str, str]) -> Proc:
    """Time the machine-speed reference loop in a fresh interpreter."""
    return run_process([sys.executable, "-c", REFERENCE_ENTRY], work, env, work / "reference.stderr")


def environment() -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas_threads": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@dataclass
class Result:
    """What one run of one workload measured and found wrong."""

    attempted: int
    failed: int
    metrics: dict[str, dict]
    digests: dict[str, str]
    reps: int
    traced_reps: int
    notes: list[str]
    missing: list[str]
    samples: dict[str, list[float]]  # per repetition, rescaled, for the end-to-end metrics
    raw: dict[str, float]  # medians as measured: wall_s and the reference loop

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.notes


def benchmark(name: str, seed: int, seconds: float, traced: bool, expected: dict | None) -> Result:
    """Repeat one workload until ``seconds`` are used up and summarize the repetitions."""
    workload = wl.WORKLOADS[name]
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    workload.write_inputs(work / "inputs", seed)
    invocations = workload.invocations(seed)
    env = child_env()
    deadline = time.monotonic() + seconds

    plain: list[Rep] = []
    traced_reps: list[Rep] = []
    while True:
        began = time.monotonic()
        plain.append(
            run_rep(workload, invocations, work, len(plain) + len(traced_reps), env, False, not traced)
        )
        if traced:
            traced_reps.append(
                run_rep(workload, invocations, work, len(plain) + len(traced_reps), env, True, False)
            )
        if time.monotonic() + (time.monotonic() - began) > deadline:
            break

    reps = plain + traced_reps
    for rep in reps[1:]:
        compare_digests(rep, reps[0].digests, invocations, "the first repetition")
    if expected is not None:
        for rep in reps:
            compare_digests(rep, expected, invocations, "the expected digests")

    setups = [r.setup for r in plain if r.setup is not None]
    references = [ref for r in plain for ref in r.references]
    notes = [f"set-up: exit code {p.exit_code}" for p in setups if p.exit_code != 0]
    notes += [f"reference: exit code {p.exit_code}" for p in references if p.exit_code != 0]
    failed = len(notes) + sum(1 for r in reps for found in r.problems if found)
    for r in reps:
        for args, found in zip(invocations, r.problems):
            notes += [f"{args[0]}: {msg}" for msg in found]

    missing: list[str] = []
    samples: dict[str, list[float]] = {}
    raw: dict[str, float] = {}
    if traced:
        metrics, count_notes, missing = layer_report(traced_reps, plain)
        notes += count_notes
    else:
        samples = {
            "wall_s": [r.wall_s * r.scale for r in plain],
            "throughput": [workload.units / (r.wall_s * r.scale) for r in plain],
            "cpu_s": [sum(p.cpu_s for p in r.procs) * r.scale for r in plain],
            "setup_s": [r.setup.wall_s * r.setup_scale for r in plain],
            "peak_rss_mb": [max(p.rss_mb for p in r.procs) for r in plain],
        }
        metrics = {k: {"value": statistics.median(v), "unit": END_TO_END[k]} for k, v in samples.items()}
        raw = {
            "wall_s": statistics.median(r.wall_s for r in plain),
            "reference_s": statistics.median(p.wall_s for p in references),
        }
    shutil.rmtree(work, ignore_errors=True)
    return Result(
        attempted=len(setups) + len(references) + sum(len(r.procs) for r in reps),
        failed=failed,
        metrics=metrics,
        digests=reps[0].digests,
        reps=len(plain),
        traced_reps=len(traced_reps),
        notes=notes,
        missing=missing,
        samples=samples,
        raw=raw,
    )


def layer_report(traced_reps: list[Rep], plain: list[Rep]):
    """Median per-layer metrics over the traced repetitions, plus the tracing overhead.

    Returns (metrics, notes on counts that did not repeat, missing boundaries).
    """
    import layers  # imports numpy, which the untraced runs keep out of this process

    per_rep = []
    missing: set[str] = set()
    for rep in traced_reps:
        if not all(f.is_file() for f in rep.span_files):
            continue  # a process died before writing its spans; already counted as failed
        traces = [layers.Trace.load(f) for f in rep.span_files]
        for t in traces:
            missing.update(t.meta["missing"])
        per_rep.append(layers.layer_metrics(traces))
        for i, f in enumerate(rep.span_files):
            shutil.copyfile(f, WORK / f"spans-{i}.npz")

    notes = []
    for name in layers.EXACT_COUNTS:
        values = {m[name] for m in per_rep}
        if len(values) > 1:
            notes.append(f"{name} differs between repetitions: {sorted(values, key=str)}")

    metrics = {}
    for name, unit in layers.PER_LAYER_UNITS.items():
        values = [m[name] for m in per_rep]
        value = None if not values or None in values else statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    overhead = statistics.median(r.wall_s for r in traced_reps) - statistics.median(
        r.wall_s for r in plain
    )
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, notes, sorted(missing)


def print_table(name: str, seed: int, result: Result) -> None:
    workload = wl.WORKLOADS[name]
    print(
        f"workload {name} ({workload.units} {workload.unit_name})  seed {seed}  "
        f"repetitions {result.reps} untraced, {result.traced_reps} traced"
    )
    if result.raw:
        print(
            f"  as measured: wall_s median {result.raw['wall_s']:.6g} s, reference loop median "
            f"{result.raw['reference_s']:.6g} s; below, timings rescaled to a {REFERENCE_NOMINAL_S} s reference"
        )
    width = max(len(k) for k in result.metrics)
    for key, m in result.metrics.items():
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        spread = ""
        if key in result.samples:
            v = result.samples[key]
            spread = f"  (median of {len(v)}; min {min(v):.6g}, max {max(v):.6g})"
        print(f"  {key:<{width}}  {value} {m['unit']}{spread}")
    rate = result.failed / result.attempted
    print(f"  {'error_rate':<{width}}  {rate:.6g} ratio ({result.failed}/{result.attempted} failed)")
    for note in result.notes:
        print(f"  ! {note}")
    for where in result.missing:
        print(f"  ? boundary {where} not found; its metrics are reported as missing")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--expect-digests",
        type=Path,
        help="compare outputs with digests saved by --digests-out (default at seed 0: digests.json)",
    )
    parser.add_argument("--digests-out", type=Path, help="save this run's output digests as JSON")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "transient_kinetics" / "cli.py").is_file():
        print("perfbench: no src/transient_kinetics here; run from the root of a checkout", file=sys.stderr)
        return 2
    expected_all = None
    if args.expect_digests is not None:
        expected_all = json.loads(args.expect_digests.read_text())
    elif args.seed == wl.DEFAULT_SEED:
        expected_all = json.loads(STORED_DIGESTS.read_text())

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    print("env " + json.dumps(environment(), sort_keys=True))
    results = {}
    for name in names:
        expected = None if expected_all is None else expected_all.get(name)
        results[name] = benchmark(name, args.seed, args.seconds, bool(args.trace), expected)
        print_table(name, args.seed, results[name])
    if args.digests_out is not None:
        saved = {name: r.digests for name, r in results.items()}
        args.digests_out.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n")

    if len(names) == 1:
        metrics = results[names[0]].metrics
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r.metrics.items()}
    line = {
        "correct": all(r.correct for r in results.values()),
        "attempted": sum(r.attempted for r in results.values()),
        "failed": sum(r.failed for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
