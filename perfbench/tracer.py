"""Run one transient-kinetics CLI invocation in-process with layer spans recorded.

Usage: python3 perfbench/tracer.py SPANS_FILE CLI_ARG...

The program is not changed: the tracer replaces the module attributes through
which ``cli``, ``mission`` and ``kinetics`` call each layer's functions with
wrappers that record a span (name, start, end, parent) per call, and a few
exact counts. Spans stay in memory and are written to SPANS_FILE (``.npz``)
when the invocation ends. A boundary the program no longer has is listed as
missing instead of failing the run.

``PERFBENCH_LAUNCH_NS`` holds the CLOCK_MONOTONIC time, in ns, at which the
parent started this process, so that process start and package import are
timed as the ``import`` span.
"""

import os
import sys
import time

_LAUNCH = int(os.environ.get("PERFBENCH_LAUNCH_NS", time.monotonic_ns())) / 1e9

from transient_kinetics import cli  # noqa: E402  (timed as the import span)

_IMPORTED = time.monotonic()

import functools  # noqa: E402
import json  # noqa: E402
from array import array  # noqa: E402

import numpy as np  # noqa: E402
from transient_kinetics import kinetics, mission, sensors  # noqa: E402


class Tracer:
    """In-memory span recorder with exact counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.wrapped: set[str] = set()  # span names this process can record
        self.missing: list[str] = []
        self.hook_errors: set[str] = set()

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def open(self, name: str, start: float) -> int:
        """Open a span that started at ``start``; close it with ``close``."""
        i = len(self.start)
        self.wrapped.add(name)
        self.name_id.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(start)
        self.end.append(start)
        self.stack.append(i)
        return i

    def close(self, i: int, end: float) -> None:
        self.end[i] = end
        self.stack.pop()

    def wrap(self, module, attr: str, span: str, after=None) -> None:
        """Record ``span`` around every call made through ``module.attr``.

        ``after(result, args, kwargs)`` updates counters once the span has
        closed; if it raises, the span's counters are reported as missing.
        """
        where = f"{module.__name__.rpartition('.')[2]}.{attr}"
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing.append(where)
            return
        self.wrapped.add(span)
        nid = self._id(span)
        name_id, start, end, parent, stack = self.name_id, self.start, self.end, self.parent, self.stack
        clock = time.monotonic
        hook_errors = self.hook_errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                try:
                    after(result, args, kwargs)
                except Exception:  # a changed signature must not crash the run
                    hook_errors.add(span)
            return result

        setattr(module, attr, traced)

    def dump(self, path: str, exit_code: int) -> None:
        meta = {
            "names": self.names,
            "counters": self.counters,
            "wrapped": sorted(self.wrapped),
            "missing": self.missing,
            "hook_errors": sorted(self.hook_errors),
            "exit_code": exit_code,
        }
        np.savez(
            path,
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            meta=np.array(json.dumps(meta)),
        )


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the CLI and the mission stepper call through."""
    t = tracer

    def noise_draw(result, args, kwargs):
        # apply_degradation draws from a seeded generator only for a strain
        # reading in the degraded band
        raw, kind = _arg(args, kwargs, 0, "raw_reading"), _arg(args, kwargs, 1, "kind")
        alpha, health = _arg(args, kwargs, 2, "alpha"), _arg(args, kwargs, 3, "health")
        if kind == "strain" and raw is not None and health.status_at(alpha) == sensors.STATUS_DEGRADED:
            t.count("sensors.noise_draws")

    def text_bytes(counter):
        return lambda result, args, kwargs: t.count(counter, len(result.encode()))

    def fit_done(result, args, kwargs):
        t.count("dscfit.fit_iterations", result.iterations)
        t.count("dscfit.converged", int(result.converged))

    for cmd in ("fit_dsc", "arrhenius", "predict", "simulate", "synth"):
        t.wrap(cli, f"cmd_{cmd}", "cli." + cmd.replace("_", "-"))
    t.wrap(cli, "default_calibration", "config.load")
    t.wrap(cli, "load_calibration_file", "config.load")
    t.wrap(
        cli,
        "_atomic_write",
        "cli.write",
        lambda r, a, k: t.count("cli.write_bytes", len(_arg(a, k, 1, "text").encode())),
    )
    t.wrap(cli, "load_mission", "mission.load")
    t.wrap(cli, "run", "mission.run")
    t.wrap(cli, "telemetry_to_jsonl", "mission.jsonl", text_bytes("mission.out_bytes"))
    t.wrap(cli, "telemetry_to_csv", "mission.csv", text_bytes("mission.out_bytes"))
    t.wrap(
        cli,
        "integrate_conversion",
        "kinetics.integrate",
        lambda r, a, k: t.count("kinetics.integrate_steps", len(r.t) - 1),
    )
    t.wrap(cli, "arrhenius_rate", "kinetics.arrhenius")
    t.wrap(cli, "synthesize_trace", "dscfit.synth")
    t.wrap(
        cli,
        "write_trace_csv",
        "dscfit.write_trace",
        lambda r, a, k: t.count("dscfit.write_trace_bytes", os.stat(_arg(a, k, 1, "path")).st_size),
    )
    t.wrap(
        cli,
        "read_trace_csv",
        "dscfit.read_trace",
        lambda r, a, k: t.count("dscfit.read_trace_rows", int(r.time_s.size)),
    )
    t.wrap(cli, "fit_rate_constant", "dscfit.fit", fit_done)
    t.wrap(cli, "fit_arrhenius", "dscfit.arrhenius")

    t.wrap(mission, "step", "mission.step")
    t.wrap(mission, "evaluate_alarms", "mission.alarm")
    t.wrap(mission, "arrhenius_rate", "kinetics.arrhenius")
    t.wrap(mission, "apply_degradation", "sensors.degrade", noise_draw)
    t.wrap(mission, "gait_advance", "mechanics.gait")

    t.wrap(kinetics, "arrhenius_rate", "kinetics.arrhenius")


def main(argv: list[str]) -> int:
    spans_file, cli_args = argv[1], argv[2:]
    tracer = Tracer()
    root = tracer.open("process", _LAUNCH)
    tracer.close(tracer.open("import", _LAUNCH), _IMPORTED)
    install(tracer)
    main_span = tracer.open("cli.main", time.monotonic())
    exit_code = 1
    try:
        exit_code = cli.main(cli_args)
    finally:
        now = time.monotonic()
        tracer.close(main_span, now)
        tracer.close(root, now)
        tracer.dump(spans_file, exit_code)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
