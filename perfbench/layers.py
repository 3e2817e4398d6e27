"""Per-layer metrics from the spans that ``tracer.py`` writes.

A span's self time is its duration minus the durations of its direct
children; spans of one process nest and never overlap, so the self times of
all spans sum to the root ``process`` span. ``_s`` metrics are inclusive span
times summed over calls, except ``cli.self_s.*``, which are self times. A
layer the workload does not reach reads 0. A metric whose boundary the
program no longer has reads ``None`` (reported as missing).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

CLI_COMMANDS = ("simulate", "predict", "synth", "fit-dsc", "arrhenius")

# name -> unit, in report order. trace.overhead_s is added by the runner.
PER_LAYER_UNITS = {
    "import.s": "s",
    "config.load_s": "s",
    "config.load_calls": "count",
    "mission.load_s": "s",
    "mission.run_s": "s",
    "mission.steps": "count",
    "mission.step_us_p50": "us",
    "mission.step_us_p99": "us",
    "mission.alarm_s": "s",
    "mission.alarm_calls": "count",
    "mission.jsonl_s": "s",
    "mission.csv_s": "s",
    "mission.out_bytes": "bytes",
    "sensors.degrade_calls": "count",
    "sensors.degrade_s": "s",
    "sensors.noise_draws": "count",
    "sensors.seed_use_ratio": "ratio",
    "kinetics.arrhenius_calls": "count",
    "kinetics.integrate_s": "s",
    "kinetics.integrate_steps": "count",
    "kinetics.integrate_step_us": "us",
    "mechanics.gait_calls": "count",
    "mechanics.gait_s": "s",
    "dscfit.synth_s": "s",
    "dscfit.write_trace_s": "s",
    "dscfit.write_trace_bytes": "bytes",
    "dscfit.read_trace_s": "s",
    "dscfit.read_trace_rows": "count",
    "dscfit.fit_s": "s",
    "dscfit.fit_iterations": "count",
    "dscfit.fit_us_per_iter": "us",
    "dscfit.converged_ratio": "ratio",
    "dscfit.arrhenius_s": "s",
    **{f"cli.self_s.{cmd}": "s" for cmd in CLI_COMMANDS},
    "cli.write_s": "s",
    "cli.write_bytes": "bytes",
}

# Counts that are exact: they must repeat run to run on the same inputs.
EXACT_COUNTS = (
    "config.load_calls",
    "mission.steps",
    "mission.alarm_calls",
    "mission.out_bytes",
    "sensors.degrade_calls",
    "sensors.noise_draws",
    "kinetics.arrhenius_calls",
    "kinetics.integrate_steps",
    "mechanics.gait_calls",
    "dscfit.write_trace_bytes",
    "dscfit.read_trace_rows",
    "dscfit.fit_iterations",
    "cli.write_bytes",
)


@dataclass
class Trace:
    """Spans of one traced process."""

    names: list[str]
    name_id: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    meta: dict

    @classmethod
    def load(cls, path) -> "Trace":
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            return cls(
                names=meta["names"],
                name_id=data["name_id"],
                start=data["start"],
                end=data["end"],
                parent=data["parent"],
                meta=meta,
            )

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent], minlength=self.start.size
        )
        return self.duration - covered

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.start.size, dtype=bool)
        return self.name_id == self.names.index(name)

    def wall(self) -> float:
        """Duration of the root span: process start to the end of ``cli.main``."""
        return float(self.duration[self.mask("process")].sum())


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_metrics(traces: list[Trace]) -> dict[str, float | int | None]:
    """Per-layer metrics summed over the processes of one workload repetition."""
    wrapped = set().union(*(t.meta["wrapped"] for t in traces))
    hook_errors = set().union(*(t.meta["hook_errors"] for t in traces))

    def span_sum(name):
        if name not in wrapped:
            return None
        return float(sum(t.duration[t.mask(name)].sum() for t in traces))

    def calls(name):
        if name not in wrapped:
            return None
        return int(sum(int(t.mask(name).sum()) for t in traces))

    def counter(name, span):
        if span not in wrapped or span in hook_errors:
            return None
        return int(sum(t.meta["counters"].get(name, 0) for t in traces))

    def self_sum(name):
        if name not in wrapped:
            return None
        return float(sum(t.self_time()[t.mask(name)].sum() for t in traces))

    if "mission.step" in wrapped:
        steps_us = np.concatenate([t.duration[t.mask("mission.step")] for t in traces]) * 1e6
    else:
        steps_us = None

    def step_pct(q):
        if steps_us is None:
            return None
        return float(np.percentile(steps_us, q)) if steps_us.size else 0.0

    m: dict[str, float | int | None] = {
        "import.s": span_sum("import"),
        "config.load_s": span_sum("config.load"),
        "config.load_calls": calls("config.load"),
        "mission.load_s": span_sum("mission.load"),
        "mission.run_s": span_sum("mission.run"),
        "mission.steps": calls("mission.step"),
        "mission.step_us_p50": step_pct(50),
        "mission.step_us_p99": step_pct(99),
        "mission.alarm_s": span_sum("mission.alarm"),
        "mission.alarm_calls": calls("mission.alarm"),
        "mission.jsonl_s": span_sum("mission.jsonl"),
        "mission.csv_s": span_sum("mission.csv"),
        "mission.out_bytes": counter("mission.out_bytes", "mission.jsonl"),
        "sensors.degrade_calls": calls("sensors.degrade"),
        "sensors.degrade_s": span_sum("sensors.degrade"),
        "sensors.noise_draws": counter("sensors.noise_draws", "sensors.degrade"),
        "kinetics.arrhenius_calls": calls("kinetics.arrhenius"),
        "kinetics.integrate_s": span_sum("kinetics.integrate"),
        "kinetics.integrate_steps": counter("kinetics.integrate_steps", "kinetics.integrate"),
        "mechanics.gait_calls": calls("mechanics.gait"),
        "mechanics.gait_s": span_sum("mechanics.gait"),
        "dscfit.synth_s": span_sum("dscfit.synth"),
        "dscfit.write_trace_s": span_sum("dscfit.write_trace"),
        "dscfit.write_trace_bytes": counter("dscfit.write_trace_bytes", "dscfit.write_trace"),
        "dscfit.read_trace_s": span_sum("dscfit.read_trace"),
        "dscfit.read_trace_rows": counter("dscfit.read_trace_rows", "dscfit.read_trace"),
        "dscfit.fit_s": span_sum("dscfit.fit"),
        "dscfit.fit_iterations": counter("dscfit.fit_iterations", "dscfit.fit"),
        "dscfit.arrhenius_s": span_sum("dscfit.arrhenius"),
        **{f"cli.self_s.{cmd}": self_sum(f"cli.{cmd}") for cmd in CLI_COMMANDS},
        "cli.write_s": span_sum("cli.write"),
        "cli.write_bytes": counter("cli.write_bytes", "cli.write"),
    }
    m["sensors.seed_use_ratio"] = _ratio(m["sensors.noise_draws"], m["mission.steps"])
    m["kinetics.integrate_step_us"] = _ratio(
        None if m["kinetics.integrate_s"] is None else m["kinetics.integrate_s"] * 1e6,
        m["kinetics.integrate_steps"],
    )
    m["dscfit.fit_us_per_iter"] = _ratio(
        None if m["dscfit.fit_s"] is None else m["dscfit.fit_s"] * 1e6, m["dscfit.fit_iterations"]
    )
    m["dscfit.converged_ratio"] = _ratio(
        counter("dscfit.converged", "dscfit.fit"), calls("dscfit.fit")
    )
    return {name: m[name] for name in PER_LAYER_UNITS}
